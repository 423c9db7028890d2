"""Columnar backend: parallel-array storage + batch plan execution.

The physical layer for the shared logical IR in :mod:`repro.plan`:
:class:`ColumnStore` holds the label relation as clustered parallel
arrays, :class:`ColumnarRuntime`/:func:`compile_plan` execute optimized
plans batch-at-a-time over row ids, and the store answers the
optimizer's size and statistics questions directly.  Every engine runs
its queries here.

Hierarchical joins additionally come in a *set-at-a-time* flavor
(:mod:`repro.columnar.structural`): merge-eligible axis steps evaluate as
structural merge joins over the sorted span columns when the optimizer's
statistics-driven cost model picks them (``REPRO_FORCE_JOIN`` forces a
side for differential testing).
"""

from .executor import ColumnarPlan, ColumnarRuntime, compile_plan
from .store import ColumnStore, MappedColumnStore, NameStats, StringColumn
from .structural import MergeJoinStep, MergeSpec, choose_join, merge_spec

__all__ = [
    "ColumnStore",
    "ColumnarPlan",
    "ColumnarRuntime",
    "MappedColumnStore",
    "MergeJoinStep",
    "MergeSpec",
    "NameStats",
    "StringColumn",
    "choose_join",
    "compile_plan",
    "merge_spec",
]
