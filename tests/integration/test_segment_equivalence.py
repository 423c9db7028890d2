"""Differential sweep: segmented engines must equal the monolithic one.

For random corpora and random queries (the tests/strategies.py
generators), sharding the corpus must be invisible in the results:

* the LPath engine at 1, 2, 3 and 7 segments, with and without a worker
  pool, must return exactly the ``(tid, id)`` lists of the tree-walk and
  SQLite oracles over the whole corpus;
* the same holds for the XPath engine on the start/end-expressible
  fragment;
* the committed segmented ``LPDB0003`` fixture, opened with its on-disk
  segments, must also agree exactly.

The in-memory and mmap sharded sweeps each run once per kernel backend
(``REPRO_KERNELS=python`` and ``=native``) so the native hot loops are
exercised across segment boundaries, worker pools and the packed
cross-process merge.  ``REPRO_FUZZ_EXAMPLES`` scales the hypothesis
example budget like the main differential-fuzz harness.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import store
from repro.columnar.kernels import KERNELS_ENV, native_kernels
from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.xpath import XPATH_AXES, XPathEngine
from tests.legacy_stores import legacy_path, legacy_trees
from tests.strategies import corpora, lpath_queries, xpath_queries

FUZZ_EXAMPLES = max(5, int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25")) // 3)
QUERIES_PER_EXAMPLE = 4
SEGMENT_SWEEP = (1, 2, 3, 7)
WORKER_SWEEP = (None, 2)

#: The sharded sweeps run once per kernel backend (the segment executor,
#: the packed cross-process merge and the per-segment plan compile all
#: dispatch on ``REPRO_KERNELS``); ``native`` skips when the extension
#: did not build.
KERNEL_BACKENDS = ("python", "native")


@contextmanager
def pinned_kernels(backend: str):
    if backend == "native" and native_kernels() is None:
        pytest.skip("cffi extension unavailable")
    previous = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = backend
    try:
        yield
    finally:
        if previous is None:
            del os.environ[KERNELS_ENV]
        else:
            os.environ[KERNELS_ENV] = previous


class TestLPathSegmentEquivalence:
    @pytest.mark.parametrize("kernels", KERNEL_BACKENDS)
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_segmented_engines_match_monolithic(self, kernels, data):
        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        oracle = LPathEngine(trees)
        engines = {
            (segments, workers): LPathEngine(
                trees, keep_trees=False, segments=segments, workers=workers
            )
            for segments in SEGMENT_SWEEP
            for workers in WORKER_SWEEP
        }
        with pinned_kernels(kernels):
            for index in range(QUERIES_PER_EXAMPLE):
                query = data.draw(lpath_queries(), label=f"query {index}")
                expected = oracle.query(query, backend="treewalk")
                assert oracle.query(query, backend="sqlite") == expected, query
                for (segments, workers), engine in engines.items():
                    got = engine.query(query)
                    assert got == expected, (
                        f"segments={segments} workers={workers} "
                        f"kernels={kernels} disagrees on {query!r}: "
                        f"{got} != {expected}"
                    )

    @pytest.fixture(scope="class")
    def lpdb0003_engines(self):
        engine = LPathEngine.open(legacy_path("LPDB0003"), workers=2)
        yield engine, LPathEngine(legacy_trees())
        engine.close()

    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_lpdb0003_fixture_matches_monolithic(self, data, lpdb0003_engines):
        engine, monolithic = lpdb0003_engines
        assert engine.segments == 2
        for index in range(QUERIES_PER_EXAMPLE):
            query = data.draw(lpath_queries(), label=f"query {index}")
            assert engine.query(query) == monolithic.query(
                query, backend="treewalk"
            ), query

    @pytest.mark.parametrize("kernels", KERNEL_BACKENDS)
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_lpdb0004_mmap_engines_match_monolithic(
        self, kernels, data, tmp_path_factory
    ):
        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        monolithic = LPathEngine(trees)
        rows = list(label_corpus(trees))
        path = str(tmp_path_factory.mktemp("mmap") / "corpus.lpdb")
        with open(path, "wb") as handle:
            store.save_labels(rows, handle, segments=3, format="lpdb0004")
        engines = {
            "sequential": LPathEngine.from_store_mmap(path),
            "thread": LPathEngine.from_store_mmap(
                path, workers=2, mode="thread"
            ),
            "process": LPathEngine.from_store_mmap(
                path, workers=2, mode="process"
            ),
        }
        try:
            with pinned_kernels(kernels):
                for index in range(QUERIES_PER_EXAMPLE):
                    query = data.draw(lpath_queries(), label=f"query {index}")
                    expected = monolithic.query(query, backend="treewalk")
                    for label, engine in engines.items():
                        got = engine.query(query)
                        assert got == expected, (
                            f"mmap/{label} kernels={kernels} disagrees on "
                            f"{query!r}: {got} != {expected}"
                        )
                        assert engine.count(query) == len(expected), (
                            label, query,
                        )
        finally:
            for engine in engines.values():
                engine.close()


class TestXPathSegmentEquivalence:
    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_segmented_xpath_matches_monolithic(self, data):
        trees = data.draw(corpora(max_trees=4, max_depth=4), label="corpus")
        oracle = LPathEngine(trees)
        engines = [
            XPathEngine(trees, axes=XPATH_AXES, segments=segments, workers=workers)
            for segments in (1, 2, 3, 7)
            for workers in WORKER_SWEEP
        ]
        for index in range(QUERIES_PER_EXAMPLE):
            query = data.draw(xpath_queries(), label=f"query {index}")
            expected = oracle.query(query, backend="treewalk")
            for engine in engines:
                got = engine.query(query)
                assert got == expected, (
                    f"segments={engine.segments} workers={engine.workers} "
                    f"disagrees on {query!r}"
                )


class TestSegmentedPlanSurface:
    """Non-fuzz sanity for the segmented compile/execute surface."""

    def _trees(self):
        from repro.tree import figure1_tree

        return [figure1_tree(tid=tid) for tid in range(5)]

    def test_plan_cache_hit_returns_same_segmented_plan(self):
        engine = LPathEngine(self._trees(), segments=3, workers=2)
        first = engine.compile("//NP")
        assert engine.compile("//NP") is first
        assert len(first.parts) == 3

    def test_explain_shows_segment_count(self):
        engine = LPathEngine(self._trees(), segments=3)
        text = engine.explain("//VP//NP")
        assert "logical plan:" in text
        assert "x3 segments" in text

    def test_pivot_uses_corpus_wide_statistics(self):
        # Selectivity ordering must see summed frequencies; the pivoted
        # plan still returns the same rows.
        engine = LPathEngine(self._trees(), segments=3)
        baseline = LPathEngine(self._trees())
        assert engine.query("//S//NP", pivot=True) == baseline.query(
            "//S//NP", backend="treewalk"
        )

    def test_count_matches_len_query(self):
        engine = LPathEngine(self._trees(), segments=2, workers=2)
        assert engine.count("//NP") == len(engine.query("//NP"))

    def test_more_segments_than_trees(self):
        trees = self._trees()[:2]
        engine = LPathEngine(trees, segments=7)
        baseline = LPathEngine(trees)
        assert engine.query("//NP") == baseline.query("//NP")

    def test_sqlite_and_treewalk_see_whole_corpus(self):
        trees = self._trees()
        engine = LPathEngine(trees, segments=3)
        expected = LPathEngine(trees).query("//NP")
        assert engine.query("//NP", backend="sqlite") == expected
        assert engine.query("//NP", backend="treewalk") == expected

    def test_process_mode_rejected_without_mmap_backing(self):
        from repro.lpath.errors import LPathError
        from repro.plan.segmented import validate_segmentation

        with pytest.raises(LPathError, match="mode"):
            validate_segmentation(2, 2, "fibers")
        validate_segmentation(2, 2, "process")  # valid spelling


class TestProcessWorkerEntryPoints:
    """The process-pool worker functions, driven in-process: the exact
    code a forked worker runs (engine cache, local compile, env-pinned
    join force, int64 packing) — testable and coverable without a pool."""

    @pytest.fixture()
    def corpus_path(self, tmp_path):
        from repro.tree import figure1_tree

        trees = [figure1_tree(tid=tid) for tid in range(5)]
        path = str(tmp_path / "corpus.lpdb")
        with open(path, "wb") as handle:
            store.save_labels(
                list(label_corpus(trees)), handle, segments=2,
                format="lpdb0004",
            )
        return path, trees

    def test_worker_results_match_parent(self, corpus_path):
        from repro.plan import segmented

        path, trees = corpus_path
        spec = segmented.RemoteSpec(path, "LPath")
        oracle = LPathEngine(trees)
        expected = oracle.query("//VP//NP")
        merged = []
        total = 0
        for index in range(2):
            task = segmented.RemoteTask(spec, "//VP//NP", False,
                                        None)
            blob = segmented._execute_segment(task, index, "rows")
            assert isinstance(blob, bytes)
            merged.extend(segmented._unpack_pairs(blob))
            total += segmented._execute_segment(task, index, "count")
        assert sorted(merged) == expected
        assert total == len(expected)
        # The per-(path, segment) worker cache is warm now: the same
        # compiler object answers the second call.
        compiler, cache = segmented._worker_segment(spec, 0)
        assert segmented._worker_segment(spec, 0)[0] is compiler
        assert cache.stats["misses"] >= 1

    def test_worker_pins_forced_join_and_restores_env(self, corpus_path):
        import os as _os
        from repro.columnar.structural import FORCE_ENV
        from repro.plan import segmented

        path, trees = corpus_path
        spec = segmented.RemoteSpec(path, "LPath")
        previous = _os.environ.get(FORCE_ENV)
        try:
            _os.environ[FORCE_ENV] = "probe"
            task = segmented.RemoteTask(spec, "//VP//NP", False,
                                        "merge")
            forced = segmented._execute_segment(task, 0, "rows")
            assert _os.environ.get(FORCE_ENV) == "probe"  # restored
            unforced = segmented._execute_segment(
                segmented.RemoteTask(spec, "//VP//NP", False,
                                     None),
                0, "rows",
            )
            assert forced == unforced
        finally:
            if previous is None:
                _os.environ.pop(FORCE_ENV, None)
            else:
                _os.environ[FORCE_ENV] = previous

    def test_xpath_worker_dialect(self, tmp_path):
        from repro.labeling import xpath_scheme
        from repro.plan import segmented
        from repro.tree import figure1_tree
        from repro.xpath import XPATH_AXES, XPathEngine

        trees = [figure1_tree(tid=tid) for tid in range(4)]
        rows = [tuple(row) for row in xpath_scheme.label_corpus(trees)]
        path = str(tmp_path / "xpath.lpdb")
        with open(path, "wb") as handle:
            store.save_labels(rows, handle, segments=2, format="lpdb0004")
        spec = segmented.RemoteSpec(
            path, "XPath", tuple(sorted(axis.name for axis in XPATH_AXES))
        )
        expected = XPathEngine(trees, axes=XPATH_AXES).query("//VP//NP")
        merged = []
        for index in range(2):
            task = segmented.RemoteTask(spec, "//VP//NP", False,
                                        None)
            merged.extend(
                segmented._unpack_pairs(
                    segmented._execute_segment(task, index, "rows")
                )
            )
        assert sorted(merged) == expected
