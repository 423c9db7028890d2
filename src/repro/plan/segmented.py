"""Segment fan-out: worker pools, process workers and their recovery.

An engine shards its corpus by tree (``tid``) into one or more segments,
and :class:`~repro.plan.compiler.PlanCompiler` compiles every query once
for all of them.  This module supplies what runs a compiled query's
per-segment plans side by side.  Fan-out comes in two pool flavors
(:class:`SegmentPool`):

* ``mode="thread"`` — the classic thread pool.  Cheap, shares every
  structure, but the columnar executor is CPU-bound pure Python, so the
  GIL serializes the actual work;
* ``mode="process"`` — real multi-core execution for *mmap-backed*
  engines.  Nothing heavy crosses the process boundary: each worker opens
  the ``LPDB0004`` store by ``(path, segment index)`` itself (the OS page
  cache makes the second and every later map of the same file free),
  compiles the query against its own segment (a :class:`RemoteTask`),
  and ships results back as packed ``array('q')`` bytes.  The parent
  merges the sorted per-segment results exactly as in thread mode.

The process path is additionally **self-healing**: a worker that dies
mid-query (OOM-killed, SIGKILLed, crashed interpreter) surfaces as
``BrokenProcessPool``, which poisons the whole executor.  Instead of
handing that traceback to the caller, :func:`run_remote` respawns the
pool (:meth:`SegmentPool.respawn`) and retries the fan-out up to
:func:`process_retries` times; if the process path keeps dying it
*degrades* the pool to in-process thread execution
(:meth:`SegmentPool.degrade`) — every compiled query also holds its
local per-segment plans, so the answer stays byte-identical, just
slower.  With degradation disabled the exhausted retry budget raises a
classified :class:`~repro.lpath.errors.ExecutorRecoveryError`
(``transient=True``) — never a raw pool traceback.
"""

from __future__ import annotations

import os
import threading
from array import array
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from typing import Callable, NamedTuple, Optional

from ..faults import maybe_delay_segment, maybe_kill_worker

POOL_MODES = ("thread", "process")

#: How many times a broken process pool is respawned and the fan-out
#: retried before degrading (or raising, when degradation is off).
PROCESS_RETRIES_ENV = "REPRO_PROCESS_RETRIES"
DEFAULT_PROCESS_RETRIES = 2


def process_retries() -> int:
    """The bounded retry budget for broken process pools (>= 0)."""
    raw = os.environ.get(PROCESS_RETRIES_ENV)
    if raw is None:
        return DEFAULT_PROCESS_RETRIES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{PROCESS_RETRIES_ENV} must be an integer >= 0, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(
            f"{PROCESS_RETRIES_ENV} must be an integer >= 0, got {raw!r}"
        )
    return value


def validate_segmentation(
    segments: int, workers: Optional[int], mode: Optional[str] = None
) -> None:
    """Reject nonsensical shard/pool configurations with one error shape
    for every engine (raises :class:`~repro.lpath.errors.LPathError`)."""
    from ..lpath.errors import LPathError

    if not isinstance(segments, int) or segments < 1:
        raise LPathError(f"segments must be a positive int, got {segments!r}")
    if workers is not None and (not isinstance(workers, int) or workers < 1):
        raise LPathError(
            f"workers must be a positive int or None, got {workers!r}"
        )
    if mode is not None and mode not in POOL_MODES:
        raise LPathError(
            f"mode must be one of {POOL_MODES} or None, got {mode!r}"
        )


class SegmentPool:
    """An engine-owned, lazily created worker pool for segment fan-out.

    Calling the pool returns the underlying executor (created on first
    use) or ``None`` when execution should stay sequential — no workers
    configured, nothing to fan out over, or the owning engine has shut
    the pool down.  After :meth:`shutdown`, later calls keep returning
    ``None`` (already-compiled plans still run, just sequentially) rather
    than resurrecting a pool the engine would never release.

    ``mode="process"`` builds a ``ProcessPoolExecutor`` instead of a
    thread pool; queries only take the process path when they also carry
    a :class:`RemoteTask` (mmap-backed engines), since worker processes
    re-open the store by path rather than unpickling it.

    Two recovery transitions keep dead workers from reaching callers:
    :meth:`respawn` replaces a broken process executor with a fresh one
    (``respawns`` counts them), and :meth:`degrade` gives up on the
    process path entirely, flipping the pool to ``mode="thread"`` for
    the rest of its life (``allow_degrade=False`` disables this, turning
    retry exhaustion into a classified error instead)."""

    def __init__(
        self, workers: Optional[int], segments: int, mode: str = "thread"
    ) -> None:
        self.workers = workers
        self.segments = segments
        self.mode = mode if mode is not None else "thread"
        self.allow_degrade = True
        self.respawns = 0
        self.degraded = False
        self._executor = None
        self._closed = False
        self._lock = threading.Lock()

    def __call__(self):
        if (
            self._closed
            or self.workers is None
            or self.workers <= 1
            or self.segments <= 1
        ):
            return None
        # Locked creation: a long-lived engine shared by a query daemon
        # sees its first queries *concurrently*, and an unlocked check
        # would build two pools and leak one.
        with self._lock:
            if self._closed:
                return None
            if self._executor is None:
                size = min(self.workers, self.segments)
                if self.mode == "process":
                    from concurrent.futures import ProcessPoolExecutor

                    self._executor = ProcessPoolExecutor(max_workers=size)
                else:
                    self._executor = ThreadPoolExecutor(
                        max_workers=size,
                        thread_name_prefix="repro-segment",
                    )
            return self._executor

    def respawn(self) -> bool:
        """Replace a (presumed broken) process executor with a fresh one
        on next use; ``False`` when there is nothing to respawn (closed
        pool, or already degraded to threads)."""
        with self._lock:
            if self._closed or self.mode != "process":
                return False
            executor, self._executor = self._executor, None
            self.respawns += 1
        if executor is not None:
            # A broken pool's workers are already gone; don't wait on it.
            executor.shutdown(wait=False)
        return True

    def degrade(self) -> bool:
        """Abandon the process path for this pool's lifetime: future
        fan-outs run on an in-process thread pool over the locally
        compiled per-segment plans (byte-identical results, GIL-bound
        speed).  ``False`` when degradation is disabled or moot."""
        if not self.allow_degrade:
            return False
        with self._lock:
            if self._closed or self.mode != "process":
                return self.degraded
            executor, self._executor = self._executor, None
            self.mode = "thread"
            self.degraded = True
        if executor is not None:
            executor.shutdown(wait=False)
        return True

    def stats(self) -> dict:
        """Recovery counters for observability (/stats, tests)."""
        with self._lock:
            return {
                "mode": self.mode,
                "respawns": self.respawns,
                "degraded": self.degraded,
            }

    def shutdown(self) -> None:
        """Release the executor (if any) and stay sequential forever."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


class RemoteSpec(NamedTuple):
    """How worker processes can rebuild one engine's segments: the
    ``LPDB0004`` path plus the compile dialect (``axes`` carries the
    XPath engine's axis whitelist as enum member names — plain strings,
    so the spec stays trivially picklable)."""

    path: str
    dialect: str                          # "LPath" | "XPath"
    axes: Optional[tuple[str, ...]] = None


class RemoteTask(NamedTuple):
    """One compiled query's process-fan-out recipe: everything a worker
    needs to recompile and run the identical query against one segment.
    Captured at compile time (including the ``REPRO_FORCE_JOIN`` override,
    which is part of the plan-cache key) so a cached plan always fans out
    the same physical choice it was compiled with."""

    spec: RemoteSpec
    query: str
    pivot: bool
    force: Optional[str]
    kernels: Optional[str] = None    # the REPRO_KERNELS mode, same contract
    limit: Optional[int] = None      # per-segment top-k (parent truncates)
    agg: Optional[str] = None        # aggregate op (parent sums the dicts)


#: Per-process caches for worker-side segment engines: one opened corpus
#: per path, one compiler + plan cache per (path, segment, dialect).
_WORKER_CORPORA: dict = {}
_WORKER_SEGMENTS: dict = {}


def _worker_segment(spec: RemoteSpec, index: int):
    key = (spec.path, index, spec.dialect, spec.axes)
    entry = _WORKER_SEGMENTS.get(key)
    if entry is None:
        corpus = _WORKER_CORPORA.get(spec.path)
        if corpus is None:
            from ..store import open_mapped_corpus

            corpus = _WORKER_CORPORA[spec.path] = open_mapped_corpus(spec.path)
        from ..columnar.store import MappedColumnStore
        from .cache import PlanCache

        segment = corpus.segments[index]
        if spec.dialect == "XPath":
            from ..lpath.axes import Axis
            from ..xpath.compiler import XPathPlanCompiler
            from ..xpath.engine import XNODE_COLUMNS

            store = MappedColumnStore(segment, column_names=XNODE_COLUMNS)
            axes = frozenset(Axis[name] for name in spec.axes or ())
            compiler = XPathPlanCompiler([store], axes=axes)
        else:
            from .compiler import PlanCompiler

            compiler = PlanCompiler([MappedColumnStore(segment)])
        entry = _WORKER_SEGMENTS[key] = (compiler, PlanCache())
    return entry


def _execute_segment(task: RemoteTask, index: int, kind: str):
    """Worker-process entry point: open (cached), compile (cached), run
    one segment, return a count or packed ``(tid, id)`` int64 bytes."""
    from ..columnar.kernels.api import KERNELS_ENV
    from ..columnar.structural import FORCE_ENV
    from .cache import cached_compile

    # Chaos checkpoints: a worker may kill itself (the parent's recovery
    # path is what's under test) or stall before touching the store.
    maybe_kill_worker()
    maybe_delay_segment()
    compiler, cache = _worker_segment(task.spec, index)
    overrides = ((FORCE_ENV, task.force), (KERNELS_ENV, task.kernels))
    previous = {env: os.environ.get(env) for env, _value in overrides}
    for env, value in overrides:
        if value is None:
            os.environ.pop(env, None)
        else:
            os.environ[env] = value
    try:
        compiled = cached_compile(
            cache, compiler, task.query, task.pivot,
            limit=task.limit, agg=task.agg,
        )
        if kind == "count":
            return compiled.count()
        if kind == "agg":
            return compiled.aggregate()
        packed = array("q")
        for tid, node_id in compiled.rows():
            packed.append(tid)
            packed.append(node_id)
        return packed.tobytes()
    finally:
        for env, value in previous.items():
            if value is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = value


def _unpack_pairs(blob: bytes) -> list[tuple[int, int]]:
    flat = array("q")
    flat.frombytes(blob)
    pairs = iter(flat)
    return list(zip(pairs, pairs))


def run_remote(get_pool: Callable, task: RemoteTask, segments: int, kind: str):
    """Fan one query out to worker *processes*: one ``kind`` result
    (``"rows"`` blobs, ``"count"`` or ``"agg"``) per segment, or ``None``
    when the in-process path should run instead (no pool, or a thread
    pool).

    A ``BrokenProcessPool`` (worker SIGKILLed mid-query, or already dead
    at submit time) never escapes: the pool is respawned and the whole
    fan-out retried up to :func:`process_retries` times — the per-segment
    work is read-only and idempotent, so re-running every segment is
    safe.  When the process path keeps dying the pool degrades to threads
    (``None`` return: the caller's local plans run in-process,
    byte-identical), or, with degradation disabled, raises a classified
    :class:`~repro.lpath.errors.ExecutorRecoveryError`."""
    attempts = 1 + process_retries()
    for _attempt in range(attempts):
        if getattr(get_pool, "mode", "thread") != "process":
            return None  # a thread pool (possibly degraded mid-loop)
        pool = get_pool()
        if pool is None:
            return None
        try:
            futures = [
                pool.submit(_execute_segment, task, index, kind)
                for index in range(segments)
            ]
            return [future.result() for future in futures]
        except BrokenExecutor:
            # Dead worker(s): the executor is poisoned.  Respawn and
            # retry; anything else (engine errors shipped back from a
            # live worker) propagates unchanged.
            respawn = getattr(get_pool, "respawn", None)
            if respawn is None or not respawn():
                break
    degrade = getattr(get_pool, "degrade", None)
    if degrade is not None and degrade():
        return None
    from ..lpath.errors import ExecutorRecoveryError

    raise ExecutorRecoveryError(
        f"segment fan-out failed {attempts} time(s): process workers "
        "keep dying and in-process degradation is disabled; the query "
        "produced no results and is safe to retry"
    )
