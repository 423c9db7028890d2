"""The paper's Section 5 relational design and the SQLite oracle.

:func:`create_node_table` builds the label relation with the paper's
clustered key and secondary indexes over the mini engine's sorted
indexes; :class:`SQLiteBackend` runs the emitted SQL over the same
design in SQLite, an independent executor of the Section 4 translation.
"""

from .database import (
    Database,
    NODE_CLUSTERED_KEY,
    NODE_COLUMNS,
    NODE_SECONDARY_INDEXES,
    create_node_table,
)
from .index import SortedIndex
from .schema import Row, Schema, SchemaError, encode_component, encode_key
from .sqlite_backend import SQLiteBackend, quote_identifier
from .table import Table

__all__ = [
    "Database",
    "NODE_CLUSTERED_KEY",
    "NODE_COLUMNS",
    "NODE_SECONDARY_INDEXES",
    "Row",
    "Schema",
    "SchemaError",
    "SortedIndex",
    "SQLiteBackend",
    "Table",
    "create_node_table",
    "encode_component",
    "encode_key",
    "quote_identifier",
]
