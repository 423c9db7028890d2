"""Shared-scan batches (:mod:`repro.plan.batch`) at every segment count:
each segment keeps its own shared-prefix cache, so a segmented engine
shares scans exactly like a one-segment engine, and a process-mode
engine still fans every member out to its worker pool."""

from __future__ import annotations

import re

import pytest

from repro import store
from repro.corpus import generate_corpus
from repro.lpath import LPathEngine

#: Three queries with a common ``//S//NP`` prefix.
PREFIXED = ["//S//NP", "//S//NP/NN", "//S//VP"]
MIXED = [
    "//S//NP",
    {"query": "//S//NP/NN", "limit": 3},
    {"query": "//S//NP", "agg": "count"},
    {"query": "//S//VP", "agg": "count_by_name"},
    "//S//VP//NN",
]


@pytest.fixture(scope="module")
def trees():
    return list(generate_corpus("wsj", sentences=40, seed=5))


def _served(text: str) -> tuple[int, int]:
    match = re.search(
        r"(\d+) pipeline steps, (\d+) served from shared prefixes", text
    )
    assert match is not None, text
    return int(match.group(1)), int(match.group(2))


def _per_query(engine, entries) -> list:
    results = []
    for entry in entries:
        if isinstance(entry, str):
            results.append(engine.query(entry))
        elif "agg" in entry:
            results.append(engine.aggregate(entry["query"], agg=entry["agg"]))
        else:
            results.append(engine.query(entry["query"], limit=entry["limit"]))
    return results


@pytest.mark.parametrize("segments", [1, 2, 3])
def test_segmented_batches_share_prefixes(trees, segments):
    engine = LPathEngine(trees, segments=segments)
    total, served = _served(engine.explain_batch(PREFIXED))
    assert served > 0
    assert (total, served) == _served(LPathEngine(trees).explain_batch(PREFIXED))


@pytest.mark.parametrize("segments", [2, 3])
def test_segmented_batch_matches_per_query(trees, segments):
    engine = LPathEngine(trees, segments=segments, workers=2)
    assert engine.query_batch(MIXED) == _per_query(LPathEngine(trees), MIXED)


def test_segmented_explain_batch_names_the_shown_segment(trees):
    header = LPathEngine(trees, segments=2).explain_batch(PREFIXED)
    assert header.splitlines()[0].endswith("(x2 segments, segment 0 shown)")
    assert "segment 0 shown" not in LPathEngine(trees).explain_batch(PREFIXED)


def test_batch_caches_drop_after_last_consumer(trees):
    from repro.plan.batch import BatchState

    engine = LPathEngine(trees, segments=2)
    compiled = [engine.compile(query) for query in PREFIXED]
    state = BatchState(compiled)
    assert len(state.shared) == 2
    for query in compiled:
        state.execute_one(query)
    assert state.shared == [{}, {}]


def test_process_mode_batch_runs_on_the_worker_pool(trees, tmp_path,
                                                   monkeypatch):
    from repro.plan import compiler

    path = str(tmp_path / "corpus.lpdb")
    store.save_corpus(trees, path, segments=2, format="lpdb0004")
    expected = _per_query(LPathEngine(trees), MIXED)
    fanned = []
    real = compiler.run_remote

    def spy(get_pool, task, segments, kind):
        result = real(get_pool, task, segments, kind)
        fanned.append(result is not None)
        return result

    monkeypatch.setattr(compiler, "run_remote", spy)
    with LPathEngine.from_store_mmap(path, workers=2, mode="process") as engine:
        assert engine.query_batch(MIXED) == expected
        stats = engine._pool.stats()
    assert stats["mode"] == "process"
    assert not stats["degraded"]
    assert fanned == [True] * len(MIXED)  # every member went to the pool
