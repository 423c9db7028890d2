"""The library host: fig6c-engine and adhoc-treebank in their own process.

``run.py`` generates the inputs and starts this script as a child, so the
peak RSS it reports belongs to the process that builds and queries the
engine, not to input generation::

    python3 perfbench/library.py SPEC.json OUT.json

SPEC names the workload, the bracketed corpus file, a scratch directory,
the query order, the run length and whether the run is traced.  OUT holds
the timings, the answers seen (checked against the SQLite oracle by
``run.py``, outside the timed window) and, for a traced run, the spans.
"""

from __future__ import annotations

import os
import sys
import time

from repro.lpath.engine import LPathEngine
from repro.lpath.errors import LPathError
from repro.tree.bracket import iter_trees

from common import (
    MIN_OPS, NullTracer, Tracer, dump, load, median, rows_digest,
    self_peak_rss_mb,
)
from probes import compile_store, library_probes

SETUP_REPS = 5
REOPEN_REPS = 5


def traced_query(engine, lpath: str, tracer) -> list:
    """``engine.query`` with a span around each of its steps: the
    plan-cache lookup, then the plan's execution with its segment fan-out
    and merge (the probes split those further)."""
    with tracer.span("plan.compile"):
        compiled = engine.compile(lpath)
    with tracer.span(f"{engine.executor}.exec"):
        return [tuple(row) for row in compiled.rows()]


def timed_loop(engine, order, seconds: float, tracers, min_ops: int = 0):
    """One caller, closed loop: the queries round-robin in ``order``.

    Pass ``k`` (one round of ``order``) runs under ``tracers[k % len]``, so
    a traced window alternates untraced and traced passes and ends on a
    whole round of them; ``latencies[i]`` holds the passes of
    ``tracers[i]``.  The window outlasts ``seconds`` until it holds
    ``min_ops`` operations."""
    latencies = [[] for _ in tracers]
    answers, failed = {}, 0
    index = 0
    rounds = len(order) * len(tracers)
    deadline = time.perf_counter() + seconds
    while True:
        qid, lpath = order[index % len(order)]
        which = index // len(order) % len(tracers)
        tracer = tracers[which]
        index += 1
        started = time.perf_counter()
        try:
            with tracer.span("op.query"):
                if isinstance(tracer, NullTracer):
                    rows = engine.query(lpath)
                else:
                    rows = traced_query(engine, lpath, tracer)
            count = len(rows)
        except LPathError:
            failed += 1
            count = None
        ended = time.perf_counter()
        latencies[which].append(ended - started)
        seen = answers.setdefault(str(qid), {})
        seen[str(count)] = seen.get(str(count), 0) + 1
        if ended >= deadline and index >= min_ops \
                and (len(tracers) == 1 or index % rounds == 0):
            break
    return {"latencies": latencies, "answers": answers, "failed": failed}


def setup(spec: dict, text: str, tracer):
    """Build the engine ``SETUP_REPS`` times; keep the last one."""
    times, engine = [], None
    for _ in range(SETUP_REPS):
        if engine is not None:
            engine.close()
        started = time.perf_counter()
        if spec["workload"] == "fig6c-engine":
            compile_store(text, spec["store"], tracer)
            with tracer.span("store.open"):
                engine = LPathEngine.open(spec["store"])
        else:
            with tracer.span("tree.parse"):
                trees = list(iter_trees(text))
            with tracer.span("lpath.engine_build"):
                engine = LPathEngine(trees)
            del trees
        times.append(time.perf_counter() - started)
    return engine, times


def main(spec_path: str, out_path: str) -> int:
    spec = load(spec_path)
    order = [tuple(pair) for pair in spec["order"]]
    with open(spec["corpus"]) as handle:
        text = handle.read()
    trace = bool(spec["trace"])
    loop_tracer = Tracer() if trace else NullTracer()
    probe_tracer = Tracer() if trace else NullTracer()
    engine, setup_times = setup(spec, text, probe_tracer)
    for _qid, lpath in order:  # warm the plan cache
        engine.query(lpath)
    result = {"setup_s": setup_times}
    measured = timed_loop(
        engine, order, spec["seconds"], [NullTracer()], MIN_OPS
    )
    result.update(measured)
    result["latencies"] = measured["latencies"][0]
    result["peak_rss_mb"] = self_peak_rss_mb()
    if trace:
        paired = timed_loop(
            engine, order, spec["seconds"], [NullTracer(), loop_tracer]
        )
        stats = engine.cache_stats()
        lookups = stats["hits"] + stats["misses"]
        loop_tracer.count("plan.cache_hit_rate", stats["hits"] / lookups)
        result["paired_latencies"] = paired["latencies"]
        result["failed"] += paired["failed"]
        for qid, seen in paired["answers"].items():
            for count, ops in seen.items():
                into = result["answers"].setdefault(qid, {})
                into[count] = into.get(count, 0) + ops
    # Answers and extra end-to-end figures, outside the timed window.
    result["digests"] = {
        str(qid): rows_digest(engine.query(lpath)) for qid, lpath in order
    }
    engine.close()
    if spec["workload"] == "fig6c-engine":
        reopen = []
        for _ in range(REOPEN_REPS):
            started = time.perf_counter()
            fresh = LPathEngine.open(spec["store"])
            fresh.query(order[0][1])
            reopen.append(time.perf_counter() - started)
            fresh.close()
        result["open_to_first_ms"] = median(reopen) * 1e3
        result["open_to_first_samples"] = len(reopen)
        result["store_bytes"] = os.path.getsize(spec["store"])
    if trace:
        library_probes(
            text, spec["probe_store"], [lpath for _, lpath in order],
            probe_tracer,
        )
        result["trace"] = {
            name: {"spans": tracer.spans, "samples": tracer.samples}
            for name, tracer in (("loop", loop_tracer), ("probe", probe_tracer))
        }
    dump(out_path, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
