"""Tests for tables, databases, and the node-table physical design."""

import pytest

from repro.labeling import label_tree
from repro.relational import (
    Database,
    NODE_COLUMNS,
    SchemaError,
    create_node_table,
)
from repro.relational.schema import Schema
from repro.tree import figure1_tree


class TestTable:
    def make(self):
        db = Database()
        table = db.create_table("t", ("a", "b"), clustered_key=("a",))
        table.load([(3, "x"), (1, "y"), (2, "z")])
        return table

    def test_load_sorts_by_clustered_key(self):
        table = self.make()
        assert [row[0] for row in table.scan()] == [1, 2, 3]

    def test_len(self):
        assert len(self.make()) == 3

    def test_reload_replaces(self):
        table = self.make()
        table.load([(9, "q")])
        assert list(table.scan()) == [(9, "q")]

    def test_bad_arity_rejected(self):
        table = self.make()
        with pytest.raises(SchemaError):
            table.load([(1, 2, 3)])

    def test_secondary_index_build_and_lookup(self):
        table = self.make()
        index = table.create_index("by_b", ("b",))
        assert list(index.scan_eq(("y",))) == [(1, "y")]
        assert table.index("by_b") is index

    def test_duplicate_index_rejected(self):
        table = self.make()
        table.create_index("by_b", ("b",))
        with pytest.raises(SchemaError):
            table.create_index("by_b", ("b",))

    def test_missing_index_rejected(self):
        with pytest.raises(SchemaError):
            self.make().index("nope")

    def test_index_rebuilt_on_reload(self):
        table = self.make()
        table.create_index("by_b", ("b",))
        table.load([(5, "k")])
        assert list(table.index("by_b").scan_eq(("k",))) == [(5, "k")]


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        table = db.create_table("t", ("a",), ("a",))
        assert db.table("t") is table

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", ("a",), ("a",))
        with pytest.raises(SchemaError):
            db.create_table("t", ("a",), ("a",))

    def test_missing_table_rejected(self):
        with pytest.raises(SchemaError):
            Database().table("nope")

    def test_drop(self):
        db = Database()
        db.create_table("t", ("a",), ("a",))
        db.drop_table("t")
        with pytest.raises(SchemaError):
            db.table("t")


class TestNodeTable:
    def test_physical_design(self):
        db = Database()
        table = create_node_table(db, label_tree(figure1_tree()))
        assert table.schema == Schema(NODE_COLUMNS)
        assert table.clustered.columns[:3] == ("name", "tid", "left")
        assert set(table.indexes) == {
            "idx_tid_value_id", "idx_value_tid_id", "idx_tid_id",
        }
        # 16 elements + 9 attribute rows
        assert len(table) == 25

    def test_clustered_probe_by_name(self):
        db = Database()
        table = create_node_table(db, label_tree(figure1_tree()))
        nps = list(table.clustered.scan_eq(("NP",)))
        assert len(nps) == 5
        lefts = [row[1] for row in nps]
        assert lefts == sorted(lefts)

    def test_value_index_probe(self):
        db = Database()
        table = create_node_table(db, label_tree(figure1_tree()))
        rows = list(table.index("idx_value_tid_id").scan_eq(("saw",)))
        assert len(rows) == 1
        assert rows[0][NODE_COLUMNS.index("name")] == "@lex"
