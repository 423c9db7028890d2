"""Unit tests for the columnar store and batch executor."""

import pytest
from hypothesis import given, settings

from repro.columnar import ColumnStore
from repro.labeling import label_corpus
from repro.lpath import LPathEngine, LPathError
from repro.tree import figure1_tree
from repro.xpath import XPathEngine
from tests.strategies import corpora


def figure1_store() -> ColumnStore:
    return ColumnStore.from_rows(label_corpus([figure1_tree()]))


class TestColumnStore:
    def test_clustered_order(self):
        store = figure1_store()
        keys = [
            (store.names[row], store.tid[row], store.left[row], store.right[row],
             store.depth[row], store.id[row], store.pid[row])
            for row in range(len(store))
        ]
        assert keys == sorted(keys)

    def test_name_blocks_partition_rows(self):
        store = figure1_store()
        covered = []
        for name, (lo, hi) in store.name_bounds.items():
            covered.extend(range(lo, hi))
            assert all(store.names[row] == name for row in range(lo, hi))
        assert sorted(covered) == list(range(len(store)))

    def test_clustered_range_matches_bruteforce(self):
        store = figure1_store()
        for low, high in ((None, None), (1, 4), (2, None), (None, 3)):
            rows = list(store.clustered_range("NP", 0, low, high))
            expected = [
                row
                for row in range(len(store))
                if store.names[row] == "NP" and store.tid[row] == 0
                and (low is None or store.left[row] >= low)
                and (high is None or store.left[row] <= high)
            ]
            assert rows == expected, (low, high)

    def test_exclusive_bounds(self):
        store = figure1_store()
        inclusive = set(store.clustered_range("NP", 0, 1, 4))
        exclusive = set(store.clustered_range("NP", 0, 1, 4, False, False))
        assert exclusive <= inclusive
        for row in inclusive - exclusive:
            assert store.left[row] in (1, 4)

    def test_tid_rows_sorted_by_id(self):
        store = figure1_store()
        rows = store.tid_rows(0)
        assert len(rows) == len(store)
        ids = [store.id[row] for row in rows]
        assert ids == sorted(ids)
        assert list(store.tid_rows(99)) == []

    def test_tid_id_rows_finds_element_and_attributes(self):
        store = figure1_store()
        for row in range(len(store)):
            matches = store.tid_id_rows(store.tid[row], store.id[row])
            assert row in matches
            assert all(store.id[m] == store.id[row] for m in matches)

    def test_bitmaps(self):
        store = figure1_store()
        for row in range(len(store)):
            assert bool(store.is_attr[row]) == store.names[row].startswith("@")
            assert bool(store.right_edge[row]) == (
                store.right[row] == store.root_right[store.tid[row]]
            )

    def test_value_rows(self):
        store = figure1_store()
        rows = list(store.value_rows("saw"))
        assert rows and all(store.values[row] == "saw" for row in rows)
        assert list(store.value_rows("saw", tid=0)) == rows
        assert list(store.value_rows("saw", tid=9)) == []
        assert list(store.value_rows("no-such-word")) == []

    def test_string_value_matches_runtime(self):
        engine = LPathEngine([figure1_tree()])
        runtime = engine._compiler.segments[0].compiler
        store = runtime.store
        for row in range(len(store)):
            assert store.string_value(row) == runtime.string_value(row)

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=15, deadline=None)
    def test_frequency_matches_rows(self, trees):
        rows = list(label_corpus(trees))
        store = ColumnStore.from_rows(rows)
        assert store.frequency(None) == len(rows)
        for name in {row.name for row in rows}:
            assert store.frequency(name) == sum(1 for row in rows if row.name == name)

    def test_iter_rows_round_trips(self):
        rows = sorted(
            tuple(row) for row in label_corpus([figure1_tree()])
        )
        store = ColumnStore.from_rows(label_corpus([figure1_tree()]))
        assert sorted(store.iter_rows()) == rows


class TestColumnarExecutor:
    def test_rejects_unknown_executor(self):
        from repro.plan.lower import lower_and_optimize

        for engine in (
            LPathEngine([figure1_tree()]), XPathEngine([figure1_tree()])
        ):
            compiler = engine._compiler
            with pytest.raises(LPathError, match="unknown executor"):
                lower_and_optimize(compiler.lowerer, "//NP", False, "volcano")
            root, lowered = lower_and_optimize(
                compiler.lowerer, "//NP", False, "columnar"
            )
            physical = compiler.segments[0].compiler
            with pytest.raises(LPathError, match="unknown executor"):
                physical.compile_physical(root, lowered, "gpu")
            assert physical.compile_physical(root, lowered, "columnar").rows()

    def test_executor_is_a_read_only_constant(self):
        for engine in (
            LPathEngine([figure1_tree()]), XPathEngine([figure1_tree()])
        ):
            assert engine.executor == "columnar"
            with pytest.raises(AttributeError):
                engine.executor = "volcano"

    def test_nodes_resolve_every_match(self):
        engine = LPathEngine([figure1_tree()])
        nodes = engine.nodes("//NP")
        assert len(nodes) == len(engine.query("//NP"))
        assert {node.label for node in nodes} == {"NP"}

    @given(corpora(max_trees=3, max_depth=4))
    @settings(max_examples=10, deadline=None)
    def test_reverse_axis_probes(self, trees):
        """Immediate-preceding probes range-scan ``left`` and check
        ``right`` as a residual (the paper's design has no index leading
        on ``right``)."""
        engine = LPathEngine(trees)
        for query in ("//NP<-V", "//NP<=V", "//N<-Det"):
            expected = engine.query(query, backend="treewalk")
            assert engine.query(query, backend="sqlite") == expected, query
            assert engine.query(query) == expected, query

    def test_self_value_comparisons_read_the_candidate(self):
        """``.`` binds no slot of its own, so a value or count comparison
        on it must run per candidate row, not once per (empty) binding."""
        engine = LPathEngine([figure1_tree()])
        for query in (
            "//N[.=dog]", "//N[.!=dog]", "//NP[count(.)=1]",
            "//VP//N[not(.=dog)]", "//S[//N[.=dog]]",
        ):
            expected = engine.query(query, backend="treewalk")
            for pivot in (False, True):
                assert engine.query(query, pivot=pivot) == expected, query

    def test_columnar_explain_mentions_batches(self):
        engine = LPathEngine([figure1_tree()])
        text = engine.explain("//S//NP")
        assert "ColumnarJoin" in text and "ColumnarScan" in text

    def test_compiled_plans_are_reiterable(self):
        engine = LPathEngine([figure1_tree()])
        compiled = engine.compile("//NP")
        assert list(compiled.rows()) == list(compiled.rows())
        assert compiled.count() == len(list(compiled.rows()))
