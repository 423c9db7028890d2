"""A lowering catalog backed by a :class:`~repro.columnar.store.ColumnStore`.

The shared lowerer and optimizer ask a catalog for relation size, name
frequency, per-name statistics and access-path selection.  A column store
answers all of them directly, so queries compile without ever
materializing row tuples.

Access paths are chosen with the same scoring as the relational planner
(:func:`repro.relational.planner.match_index`), over the two physical
layouts the store maintains: the clustered ``{name, tid, left, ...}``
order and the ``{tid, id, ...}`` permutation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ..relational.planner import AccessPath, match_index


class _IndexShim(NamedTuple):
    """Just enough of a SortedIndex for the planner's matcher."""

    name: str
    columns: tuple[str, ...]


class ColumnarCatalog:
    """The lowering catalog over one column store."""

    def __init__(self, store) -> None:
        self.store = store
        names = store.column_names
        self._indexes = (
            _IndexShim("clustered", ("name",) + names[:6]),
            _IndexShim("idx_tid_id", (names[0], names[4], names[1], names[2], names[3], names[5])),
        )

    def size(self) -> int:
        return len(self.store)

    def frequency(self, name: Optional[str]) -> int:
        return self.store.frequency(name)

    def tree_count(self) -> int:
        return self.store.tree_count()

    def name_stats(self, name: Optional[str]):
        return self.store.name_stats(name)

    def access_path(
        self, eq_columns: Sequence[str], range_column: Optional[str] = None
    ) -> Optional[AccessPath]:
        best: Optional[AccessPath] = None
        for index in self._indexes:
            candidate = match_index(index, eq_columns, range_column)
            if candidate is not None and (best is None or candidate.score > best.score):
                best = candidate
        return best
