"""Heuristic access-path scoring.

The shared plan lowerer (:mod:`repro.plan`) knows, per query step, which
columns of the label relation are equality-constrained (``name``, ``tid``,
sometimes ``id`` or ``pid``) and which single column carries a range
constraint (``left`` or ``start``).  :func:`match_index` scores how much
of an index's key prefix covers those constraints, modelling the
clustered-index-first behaviour of the paper's commercial RDBMS; the
columnar catalog (:class:`repro.columnar.catalog.ColumnarCatalog`) picks
the best-scoring of its physical layouts with it.
"""

from __future__ import annotations

from typing import Optional, Sequence


class AccessPath:
    """A chosen index plus how much of its prefix the constraints cover."""

    __slots__ = ("index", "eq_columns", "range_column", "score")

    def __init__(
        self,
        index,
        eq_columns: tuple[str, ...],
        range_column: Optional[str],
        score: float,
    ) -> None:
        self.index = index
        self.eq_columns = eq_columns
        self.range_column = range_column
        self.score = score

    def explain(self) -> str:
        parts = [f"index={self.index.name}", f"eq={list(self.eq_columns)}"]
        if self.range_column:
            parts.append(f"range={self.range_column}")
        return " ".join(parts)


def match_index(
    index, eq_columns: Sequence[str], range_column: Optional[str]
) -> Optional[AccessPath]:
    """How well one index serves the constraints; ``None`` when useless."""
    available = set(eq_columns)
    usable: list[str] = []
    for column in index.columns:
        if column in available:
            usable.append(column)
        else:
            break
    next_position = len(usable)
    range_usable = (
        range_column is not None
        and next_position < len(index.columns)
        and index.columns[next_position] == range_column
    )
    if not usable and not range_usable:
        return None
    score = len(usable) + (0.5 if range_usable else 0.0)
    return AccessPath(index, tuple(usable), range_column if range_usable else None, score)
