"""SQLite backend: executes the SQL text the LPath compiler emits.

The paper feeds its translated SQL to a commercial RDBMS.  The engines
run their own columnar executor (full control over physical design), and
the standard library's SQLite serves as an *independent executor of the
emitted SQL text* over the paper's Section 5 indexes — a differential
oracle: for every query, ``engine(plan) == sqlite(emitted SQL)`` must
hold.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Sequence

from .database import NODE_COLUMNS, NODE_SECONDARY_INDEXES
from .schema import Row

_COLUMN_TYPES = {
    "tid": "INTEGER",
    "left": "INTEGER",
    "right": "INTEGER",
    "depth": "INTEGER",
    "id": "INTEGER",
    "pid": "INTEGER",
    "name": "TEXT",
    "value": "TEXT",
}


def quote_identifier(name: str) -> str:
    """Quote an SQL identifier (``left``/``right`` are SQLite keywords)."""
    return '"' + name.replace('"', '""') + '"'


class SQLiteBackend:
    """An in-memory SQLite database holding the label relation."""

    def __init__(self, rows: Iterable[Row], table_name: str = "node") -> None:
        self.table_name = table_name
        self.connection = sqlite3.connect(":memory:")
        columns_sql = ", ".join(
            f"{quote_identifier(column)} {_COLUMN_TYPES[column]}"
            for column in NODE_COLUMNS
        )
        quoted_table = quote_identifier(table_name)
        self.connection.execute(f"CREATE TABLE {quoted_table} ({columns_sql})")
        placeholders = ", ".join("?" for _ in NODE_COLUMNS)
        self.connection.executemany(
            f"INSERT INTO {quoted_table} VALUES ({placeholders})", rows
        )
        # The paper's physical design, as ordinary SQLite indexes.
        clustered = ", ".join(
            quote_identifier(c)
            for c in ("name", "tid", "left", "right", "depth", "id", "pid")
        )
        self.connection.execute(
            f"CREATE INDEX idx_clustered ON {quoted_table} ({clustered})"
        )
        for index_name, index_columns in NODE_SECONDARY_INDEXES.items():
            body = ", ".join(quote_identifier(c) for c in index_columns)
            self.connection.execute(
                f"CREATE INDEX {index_name} ON {quoted_table} ({body})"
            )
        self.connection.commit()

    def execute(self, sql: str, parameters: Sequence = ()) -> list[tuple]:
        """Run a query and fetch all rows."""
        cursor = self.connection.execute(sql, parameters)
        return cursor.fetchall()

    def count(self, sql: str, parameters: Sequence = ()) -> int:
        """Number of rows a query returns."""
        return len(self.execute(sql, parameters))

    def close(self) -> None:
        """Release the connection."""
        self.connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
