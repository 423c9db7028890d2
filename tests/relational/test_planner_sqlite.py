"""Tests for the SQLite cross-check backend."""

from repro.labeling import label_tree
from repro.relational import (
    Database,
    SQLiteBackend,
    create_node_table,
    quote_identifier,
)
from repro.tree import figure1_tree


def node_table():
    db = Database()
    return create_node_table(db, label_tree(figure1_tree()))


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
