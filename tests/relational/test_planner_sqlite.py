"""Tests for access-path scoring and the SQLite cross-check backend."""

from repro.labeling import label_tree
from repro.relational import (
    Database,
    SQLiteBackend,
    create_node_table,
    match_index,
    quote_identifier,
)
from repro.tree import figure1_tree


def node_table():
    db = Database()
    return create_node_table(db, label_tree(figure1_tree()))


def choose_access_path(table, eq_columns, range_column=None):
    """The best-scoring of the Section 5 indexes (ties go to the one
    declared first, the clustered index)."""
    best = None
    for index in table.all_indexes():
        candidate = match_index(index, eq_columns, range_column)
        if candidate is not None and (best is None or candidate.score > best.score):
            best = candidate
    return best


class TestPlanner:
    def test_name_tid_range_left_uses_clustered(self):
        table = node_table()
        path = choose_access_path(table, ["name", "tid"], range_column="left")
        assert path is not None
        assert path.index is table.clustered
        assert path.eq_columns == ("name", "tid")
        assert path.range_column == "left"

    def test_value_lookup_uses_value_index(self):
        table = node_table()
        path = choose_access_path(table, ["value", "tid"])
        assert path is not None
        assert path.index.name in ("idx_value_tid_id", "idx_tid_value_id")
        assert set(path.eq_columns) == {"value", "tid"}

    def test_value_only_lookup_uses_value_first_index(self):
        table = node_table()
        path = choose_access_path(table, ["value"])
        assert path is not None
        assert path.index.name == "idx_value_tid_id"

    def test_id_lookup_uses_tid_id_index(self):
        table = node_table()
        path = choose_access_path(table, ["tid", "id"])
        assert path is not None
        assert path.index.name == "idx_tid_id"

    def test_unhelpful_constraints_yield_none(self):
        table = node_table()
        assert choose_access_path(table, ["depth"]) is None

    def test_eq_only_prefix_beats_shorter_with_range(self):
        table = node_table()
        # name+tid+left eq all usable on clustered index
        path = choose_access_path(table, ["name", "tid", "left"])
        assert path is not None
        assert path.eq_columns == ("name", "tid", "left")

    def test_explain(self):
        table = node_table()
        path = choose_access_path(table, ["name", "tid"], range_column="left")
        text = path.explain()
        assert "clustered" in text and "range=left" in text


class TestSQLiteBackend:
    def test_load_and_count(self):
        rows = label_tree(figure1_tree())
        with SQLiteBackend(rows) as backend:
            assert backend.count('SELECT * FROM "node"') == len(rows)

    def test_quoted_keyword_columns(self):
        rows = label_tree(figure1_tree())
        with SQLiteBackend(rows) as backend:
            got = backend.execute(
                'SELECT "left", "right" FROM "node" WHERE "name" = ?', ("S",)
            )
            assert got == [(1, 10)]

    def test_join_on_labels(self):
        rows = label_tree(figure1_tree())
        with SQLiteBackend(rows) as backend:
            # NPs immediately following a V: x.left == v.right (Table 2).
            got = backend.execute(
                'SELECT DISTINCT x."id" FROM "node" v, "node" x '
                'WHERE v."name" = \'V\' AND x."name" = \'NP\' '
                'AND x."tid" = v."tid" AND x."left" = v."right"'
            )
            assert len(got) == 2

    def test_quote_identifier_escapes(self):
        assert quote_identifier('a"b') == '"a""b"'
