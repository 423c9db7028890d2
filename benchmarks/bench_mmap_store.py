"""LPDB0004 zero-copy store: cold-start and multi-core acceptance gates.

Two claims ride on the mmap layout, both measured on the Figure 9
scalability corpus (WSJ replicated to the largest factor, sharded):

* **cold open** — adopting an ``LPDB0004`` file via ``mmap`` must be at
  least 10x faster than an eager open of the same file (decode every
  row, clustered-sort every segment, rebuild projections/bitmaps/
  statistics: ``LPathEngine.from_labels(load_corpus_labels(path))``),
  because the mapped open does O(segments + names) work instead of
  O(rows);
* **multi-core throughput** — with the same worker count, ``process``
  fan-out must beat ``thread`` fan-out by at least 1.5x on a multi-core
  runner, because the columnar executor is CPU-bound pure Python and a
  thread pool serializes on the GIL.  Single-core runners (where process
  workers cannot physically run in parallel) record the ratio but skip
  the assertion — the claim is about cores, not about fork overhead.

Results land in ``BENCH_mmap_store.json`` (open timings under
``*_seconds``, file sizes under ``*_kb``) so CI's ``diff_bench.py`` gate
also watches cold-start and on-disk-size regressions across commits.
"""

import os
import time

from repro.bench import by_id, datasets
from repro.bench.datasets import bench_sentences
from repro.bench.harness import paper_timing
from repro.lpath import LPathEngine
from repro.store import load_corpus_labels

FACTOR = 4.0
#: The fig9 largest-factor corpus, floored so the per-segment work is big
#: enough for the GIL-vs-cores comparison to measure execution rather
#: than pool handoff (same clamp idea as the structural-join A/B).
SENTENCES = max(1000, bench_sentences())
SEGMENTS = 8
WORKERS = 4
FIGURE9_QUERIES = (3, 6, 11)
OPEN_SPEEDUP_FLOOR = 10.0
PROCESS_SPEEDUP_FLOOR = 1.5
OPEN_REPEATS = 3


def _timed_open(open_engine) -> float:
    """Best-of-N wall time to open (and close) a store-backed engine."""
    best = None
    for _ in range(OPEN_REPEATS):
        started = time.perf_counter()
        engine = open_engine()
        elapsed = time.perf_counter() - started
        engine.close()
        if best is None or elapsed < best:
            best = elapsed
    return best


def _eager_open(path: str) -> LPathEngine:
    """The O(rows) baseline: decode the file to rows and rebuild every
    segment's column store."""
    return LPathEngine.from_labels(load_corpus_labels(path), segments=SEGMENTS)


def test_cold_open_mmap_vs_decode(write_result, write_json):
    path4 = datasets.compiled_corpus_path(
        "wsj", FACTOR, SEGMENTS, sentences=SENTENCES
    )

    decode_seconds = _timed_open(lambda: _eager_open(path4))
    mmap_seconds = _timed_open(lambda: LPathEngine.from_store_mmap(path4))
    speedup = decode_seconds / mmap_seconds

    # Sanity: both opens produce working engines that agree.
    probe = by_id(FIGURE9_QUERIES[0]).lpath
    with _eager_open(path4) as decoded:
        expected = decoded.count(probe)
    with LPathEngine.from_store_mmap(path4) as mapped:
        assert mapped.count(probe) == expected

    lines = [
        f"Cold store open, fig9 corpus at {FACTOR:g}x, {SEGMENTS} segments "
        f"({os.path.getsize(path4)} bytes):",
        f"  eager decode+build: {decode_seconds:10.5f}s",
        f"  LPDB0004 mmap adopt: {mmap_seconds:10.5f}s",
        f"  speedup: {speedup:.1f}x (floor {OPEN_SPEEDUP_FLOOR:g}x)",
    ]
    write_result("mmap_open.txt", "\n".join(lines))
    write_json(
        "mmap_store_open",
        {
            "factor": FACTOR,
            "sentences_floor": SENTENCES,
            "segments": SEGMENTS,
            "open": {
                "eager_seconds": decode_seconds,
                "lpdb0004_seconds": mmap_seconds,
                "speedup": speedup,
            },
            "file_size": {
                "lpdb0004_kb": os.path.getsize(path4) // 1024,
            },
        },
    )
    assert speedup >= OPEN_SPEEDUP_FLOOR, (
        f"LPDB0004 mmap open ({mmap_seconds:.5f}s) is only {speedup:.1f}x "
        f"faster than the eager decode path ({decode_seconds:.5f}s); "
        f"the floor is {OPEN_SPEEDUP_FLOOR:g}x"
    )


def test_process_fanout_beats_threads(benchmark, write_result, write_json,
                                      repeats):
    thread_engine = datasets.mmap_engine(
        "wsj", FACTOR, SEGMENTS, workers=WORKERS, mode="thread",
        sentences=SENTENCES,
    )
    process_engine = datasets.mmap_engine(
        "wsj", FACTOR, SEGMENTS, workers=WORKERS, mode="process",
        sentences=SENTENCES,
    )
    sequential = datasets.mmap_engine("wsj", FACTOR, SEGMENTS,
                                      sentences=SENTENCES)

    queries = [by_id(qid).lpath for qid in FIGURE9_QUERIES]
    totals = {"thread": 0.0, "process": 0.0}
    per_query = []
    for qid, query in zip(FIGURE9_QUERIES, queries):
        expected = sequential.count(query)
        # Warm both pools and both plan caches (worker processes compile
        # on their first sight of a query); correctness check rides along.
        assert thread_engine.count(query) == expected, f"Q{qid} (thread)"
        assert process_engine.count(query) == expected, f"Q{qid} (process)"
        thread_seconds, _ = paper_timing(
            lambda: thread_engine.count(query), repeats
        )
        process_seconds, _ = paper_timing(
            lambda: process_engine.count(query), repeats
        )
        totals["thread"] += thread_seconds
        totals["process"] += process_seconds
        per_query.append({
            "query": f"Q{qid}",
            "thread_seconds": thread_seconds,
            "process_seconds": process_seconds,
        })

    cores = os.cpu_count() or 1
    ratio = totals["thread"] / totals["process"]
    multicore = cores >= WORKERS
    lines = [
        f"Fig9 queries at {FACTOR:g}x, {SEGMENTS} segments, "
        f"workers={WORKERS} ({cores} cores):",
        *(
            f"  {entry['query']}: thread {entry['thread_seconds']:.5f}s  "
            f"process {entry['process_seconds']:.5f}s"
            for entry in per_query
        ),
        f"  total: thread {totals['thread']:.5f}s  "
        f"process {totals['process']:.5f}s  ({ratio:.2f}x)",
        (
            f"  gate: process must win >= {PROCESS_SPEEDUP_FLOOR:g}x"
            if multicore
            else f"  gate skipped: {cores} core(s) < {WORKERS} workers "
                 f"(recorded only)"
        ),
    ]
    write_result("mmap_process_fanout.txt", "\n".join(lines))
    write_json(
        "mmap_store_fanout",
        {
            "factor": FACTOR,
            "sentences_floor": SENTENCES,
            "segments": SEGMENTS,
            "workers": WORKERS,
            "cores": cores,
            "queries": per_query,
            "totals": {
                "thread_seconds": totals["thread"],
                "process_seconds": totals["process"],
            },
            "thread_over_process": ratio,
            "gated": multicore,
        },
    )

    benchmark(lambda: process_engine.count(queries[-1]))

    if multicore:
        assert ratio >= PROCESS_SPEEDUP_FLOOR, (
            f"process fan-out ({totals['process']:.5f}s) only "
            f"{ratio:.2f}x over thread fan-out ({totals['thread']:.5f}s) "
            f"with {WORKERS} workers on {cores} cores; the floor is "
            f"{PROCESS_SPEEDUP_FLOOR:g}x"
        )
