"""Shared pieces of the benchmark: spans, summaries, memory and provenance.

Every module of the benchmark runs with ``src`` on ``sys.path`` (``run.py``
puts it there for itself and through ``PYTHONPATH`` for its children), so
``repro`` is imported from the checkout being measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from typing import Iterable, Optional

#: The 23 Figure 6(c) queries split the way the per-layer metrics are:
#: predicate queries (exists/not subplans) and path queries.  The lexical
#: lookups and rare tags (Q12-Q17) belong to neither group.
PRED_QIDS = frozenset({1, 7, 8, 9, 10, 11})
PATH_QIDS = frozenset({2, 3, 4, 5, 6, 18, 19, 20, 21, 22, 23})

#: A measured window keeps going past ``--seconds`` until it holds this many
#: operations, so that at least ``P99_TAIL`` of them lie beyond its p99.
MIN_OPS = 1_000
P99_TAIL = 10


def qid_group(qid: int) -> Optional[str]:
    if qid in PRED_QIDS:
        return "pred"
    if qid in PATH_QIDS:
        return "path"
    return None


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent and a request id shared
    by the spans of one operation.  Nothing is written until the run ends.

    ``span`` nests per thread; a span opened with no enclosing span starts
    a new request id.  Counters (``count``) record values measured at the
    same boundaries, for ratios such as cache hit rates."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (sid, parent, rid, name, start, end)
        self.samples: dict[str, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = self._new_id()
        parent, rid = (stack[-1][0], stack[-1][1]) if stack else (None, sid)
        stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, rid, name, start, end))

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds of self time per layer: a span's duration minus the part
        its child spans cover, summed by the name's prefix before ``.``."""
        children: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        layers: dict[str, float] = {}
        for sid, _, _, name, start, end in self.spans:
            layer = name.split(".", 1)[0]
            own = (end - start) - children.get(sid, 0.0)
            layers[layer] = layers.get(layer, 0.0) + own
        return layers


class NullTracer:
    """The tracer of a measured run: every span is the same empty context,
    so the timed loops run the same code with tracing off."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, value: float) -> None:
        pass


# -- summaries ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(values: list[float], q: float) -> int:
    """Samples strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# -- memory -------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a running child process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_write_bytes(pid: int) -> int:
    """Bytes the process caused to be sent to storage (``/proc/<pid>/io``)."""
    with open(f"/proc/{pid}/io") as handle:
        for line in handle:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise RuntimeError(f"no write_bytes for pid {pid}")


# -- provenance ---------------------------------------------------------------


def source_digest(root: str) -> str:
    """A digest of every Python source file under ``src``, which stands
    in for the commit in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(root: str, seed: int, workload: str, inputs: dict) -> dict:
    from repro.columnar.kernels import kernel_info

    return {
        "workload": workload,
        "seed": seed,
        **inputs,
        "kernels": kernel_info(),
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS") or "auto",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "source_digest": source_digest(root),
    }


def rows_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def dump(path: str, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle)


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)
