"""A named collection of tables, plus the paper's physical design for labels."""

from __future__ import annotations

from typing import Iterable, Sequence

from .schema import Row, Schema, SchemaError
from .table import Table

#: Section 5 schema of the label relation.
NODE_COLUMNS = ("tid", "left", "right", "depth", "id", "pid", "name", "value")
#: Section 5 clustering: {name, tid, left, right, depth, id, pid}.
NODE_CLUSTERED_KEY = ("name", "tid", "left", "right", "depth", "id", "pid")
#: Section 5 secondary indexes.
NODE_SECONDARY_INDEXES = {
    "idx_tid_value_id": ("tid", "value", "id"),
    "idx_value_tid_id": ("value", "tid", "id"),
    "idx_tid_id": ("tid", "id", "left", "right", "depth", "pid"),
}


class Database:
    """Named tables with creation/lookup."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.tables: dict[str, Table] = {}

    def create_table(
        self, name: str, columns: Sequence[str], clustered_key: Sequence[str]
    ) -> Table:
        """Create an empty table."""
        if name in self.tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, Schema(columns), clustered_key)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table."""
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(
                f"no table {name!r}; have {sorted(self.tables)!r}"
            ) from None

    def drop_table(self, name: str) -> None:
        """Remove a table."""
        self.table(name)
        del self.tables[name]


def create_node_table(
    db: Database, rows: Iterable[Row], name: str = "node"
) -> Table:
    """Create and load the label relation with the paper's physical design."""
    table = db.create_table(name, NODE_COLUMNS, NODE_CLUSTERED_KEY)
    table.load(rows)
    for index_name, columns in NODE_SECONDARY_INDEXES.items():
        table.create_index(index_name, columns)
    return table
