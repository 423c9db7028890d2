"""Traced-run probes of the library layers, on one workload's own inputs.

Each probe calls a layer's public functions with a span around each call,
so the traced run can report a per-layer number even where the workload's
timed loop reaches the layer only through a coarser call (or, in the
daemon workloads, only inside another process).
"""

from __future__ import annotations

import os
import time

from repro.bench.queries import QUERY_SET
from repro.labeling.lpath_scheme import label_corpus
from repro.lpath.engine import LPathEngine
from repro.lpath.parser import parse
from repro.plan.lower import lower_and_optimize
from repro.relational.database import Database, create_node_table
from repro.store import atomic_write, save_labels, store_fingerprint
from repro.tree.bracket import iter_trees

from common import median, qid_group

STORE_REPS = 5
EXEC_REPS = 5
VOLCANO_REPS = 2
REGRET_REPS = 5
FORCE_ENV = "REPRO_FORCE_JOIN"


def compile_store(text: str, path: str, tracer, segments: int = 2):
    """Bracketed text to an LPDB0004 store, one span per layer; returns
    the parsed trees and label rows."""
    with tracer.span("tree.parse"):
        trees = list(iter_trees(text))
    with tracer.span("labeling.label"):
        rows = list(label_corpus(trees))
    with tracer.span("store.save"):
        with atomic_write(path) as handle:
            save_labels(rows, handle, segments=segments, format="lpdb0004")
    return trees, rows


def probe_build(trees, rows, tracer) -> None:
    """relational and the default (volcano) engine."""
    with tracer.span("relational.table_build"):
        create_node_table(Database("probe"), rows)
    with tracer.span("lpath.engine_build"):
        engine = LPathEngine(trees)
    for query in QUERY_SET:
        group = qid_group(query.qid)
        compiled = engine.compile(query.lpath)
        for _ in range(VOLCANO_REPS):
            started = time.perf_counter()
            with tracer.span("volcano.exec"):
                list(compiled.rows())
            if group is not None:
                tracer.count(
                    f"volcano.exec_{group}_ms",
                    (time.perf_counter() - started) * 1e3,
                )
    engine.close()


def probe_store(path: str, tracer) -> None:
    """Reopen and fingerprint an existing store."""
    for _ in range(STORE_REPS):
        with tracer.span("store.open"):
            engine = LPathEngine.open(path)
        engine.close()
        with tracer.span("store.fingerprint"):
            store_fingerprint(path)


def probe_compile(engine, queries, tracer) -> None:
    """parse -> lower_and_optimize -> compile_physical per segment, for
    every distinct query of the workload."""
    # The engine has no public handle on its compiler; the lowerer and the
    # per-segment physical compilers are what ``engine.compile`` runs.
    compiler = engine._compiler
    segments = getattr(compiler, "segments", None)
    physical = (
        [segment.compiler for segment in segments]
        if segments is not None else [compiler]
    )
    for query in dict.fromkeys(queries):
        with tracer.span("lpath.parse"):
            path = parse(query)
        with tracer.span("plan.lower"):
            root, lowered = lower_and_optimize(
                compiler.lowerer, path, False, engine.executor
            )
        for segment_compiler in physical:
            with tracer.span("plan.physical"):
                segment_compiler.compile_physical(
                    root, lowered, engine.executor
                )


def _timed_query(engine, lpath: str) -> float:
    started = time.perf_counter()
    engine.query(lpath)
    return time.perf_counter() - started


def probe_columnar(engine, tracer) -> None:
    """Per-segment execution, segment merge, rows out and join regret of
    the Figure 6(c) queries on a columnar engine."""
    for query in QUERY_SET:
        group = qid_group(query.qid)
        compiled = engine.compile(query.lpath)
        parts = getattr(compiled, "parts", [compiled])
        tracer.count("columnar.rows_out", len(engine.query(query.lpath)))
        for _ in range(EXEC_REPS):
            started = time.perf_counter()
            for part in parts:
                with tracer.span("columnar.exec"):
                    list(part.rows())
            in_parts = time.perf_counter() - started
            if group is not None:
                tracer.count(f"columnar.exec_{group}_ms", in_parts * 1e3)
            total = _timed_query(engine, query.lpath)
            tracer.count("plan.merge_ms", (total - in_parts) * 1e3)
    regrets = []
    saved = os.environ.get(FORCE_ENV)
    try:
        for query in QUERY_SET:
            timings = {}
            for mode in ("", "merge", "probe"):
                # The override is part of the plan-cache key, so each mode
                # compiles its own plan; the first call warms it.
                os.environ[FORCE_ENV] = mode
                engine.query(query.lpath)
                timings[mode] = median(
                    _timed_query(engine, query.lpath)
                    for _ in range(REGRET_REPS)
                )
            regrets.append(
                timings[""] / min(timings["merge"], timings["probe"])
            )
    finally:
        if saved is None:
            os.environ.pop(FORCE_ENV, None)
        else:
            os.environ[FORCE_ENV] = saved
    tracer.count("columnar.join_regret", max(regrets))


def library_probes(text: str, store: str, queries, tracer) -> None:
    """Every library-layer probe on one workload's corpus: compile it to
    a store at ``store`` (a path of the probe's own), then build, open,
    compile and execute against it."""
    trees, rows = compile_store(text, store, tracer)
    probe_build(trees, rows, tracer)
    del trees, rows
    probe_store(store, tracer)
    engine = LPathEngine.open(store)
    try:
        probe_compile(engine, queries, tracer)
        probe_columnar(engine, tracer)
    finally:
        engine.close()
