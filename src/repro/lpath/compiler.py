"""Compile LPath queries through the shared logical-plan IR.

Following Section 4 of the paper, every LPath axis becomes a join whose
condition is the Table 2 label comparison; joins are evaluated against the
paper's physical design (the clustered ``{name, tid, left, ...}`` order
plus a ``{tid, id, ...}`` permutation), held as the parallel arrays of a
:class:`~repro.columnar.store.ColumnStore`.

All of the step/predicate machinery lives in :mod:`repro.plan` —
:mod:`~repro.plan.lower` builds the logical plan with the Definition-4.1
axis semantics of :class:`~repro.plan.schemes.LPathScheme`,
:mod:`~repro.plan.optimizer` runs predicate pushdown, cost-based join
selection and (with ``pivot=True``) selectivity-driven join reordering,
and :mod:`repro.columnar` executes the result.  This module only keeps the
engine-facing façade.

The :mod:`repro.plan` imports are deliberately lazy: that package lowers
*this* package's AST, so importing it at module scope would be circular.
"""

from __future__ import annotations

from typing import Iterable, Union

from collections import Counter

from ..plan.ir import Aggregate, Limit, PlanNode, ROW_WIDTH, render
from .ast import Path
from .errors import LPathCompileError

Query = Union[str, Path]


class CompiledQuery:
    """A compiled main pipeline ready to execute.

    ``limit`` carries a logical :class:`~repro.plan.ir.Limit` (top-k in
    output order) the physical plan was compiled under; ``agg`` carries
    an :class:`~repro.plan.ir.Aggregate` operation.  Both are recorded
    here (the physical pipeline ends at Distinct/Project) and applied by
    :meth:`rows` / :meth:`aggregate`."""

    def __init__(
        self,
        plan,
        result_base: int,
        description: str,
        logical: PlanNode = None,
        limit: int = None,
        agg: str = None,
    ) -> None:
        self.plan = plan
        self.result_base = result_base
        self.description = description
        self.logical = logical
        self.limit = limit
        self.agg = agg

    def rows(self) -> Iterable[tuple]:
        """Distinct ``(tid, id)`` pairs of the result step, sorted —
        the top-k when the plan carries a limit, found by early
        termination instead of truncation."""
        if self.limit is not None:
            return self.plan.rows_limited(self.limit)
        return sorted(self.plan)

    def count(self) -> int:
        if self.limit is not None:
            return len(self.rows())
        # Counted without materializing a result list (partition bounds
        # for bare scans, distinct key cardinality otherwise).
        return self.plan.count_rows()

    def aggregate(self) -> dict:
        """Evaluate the plan's aggregate: ``{"count": n}`` for plain
        counts, ``{group: n}`` for the grouped forms (the group value is
        the third component of the extended distinct key)."""
        if self.agg is None:
            raise LPathCompileError("plan carries no aggregate")
        if self.agg == "count":
            return {"count": self.count()}
        counts = Counter()
        for key in self.plan:
            counts[key[2]] += 1
        return dict(counts)

    def explain(self) -> str:
        """The logical IR (uniform across dialects) plus the physical plan."""
        parts = [self.description]
        if self.logical is not None:
            parts.append("logical plan:\n" + render(self.logical, indent=2))
        parts.append("physical plan:\n" + self.plan.explain(indent=2))
        return "\n".join(parts)


class PlanCompiler:
    """Compiles parsed LPath queries against one column store.

    Subclasses (the XPath baseline) override :attr:`dialect`,
    :attr:`result_class` and the scheme; the compile pipeline itself —
    parse → lower (pivoted or not) → optimize → physical-compile — exists
    only here, and the batch columnar executor (:mod:`repro.columnar`)
    runs the optimized IR."""

    dialect = "LPath"
    result_class = CompiledQuery

    def __init__(self, column_store, scheme=None) -> None:
        from ..columnar import ColumnarCatalog, ColumnarRuntime
        from ..plan.lower import Lowerer
        from ..plan.schemes import LPathScheme

        self.scheme = scheme if scheme is not None else LPathScheme()
        self.catalog = ColumnarCatalog(column_store)
        self.lowerer = Lowerer(self.scheme, self.catalog, self.dialect)
        self.runtime = ColumnarRuntime(column_store, self.scheme)

    def compile(
        self, query: Query, pivot: bool = False,
        limit: int = None, agg: str = None,
    ) -> CompiledQuery:
        """Compile a query; ``pivot=True`` enables selectivity-driven join
        ordering: when the query is a plain step chain, the join starts at
        the step with the rarest tag and extends leftward through inverted
        axes (and downward-only ``exists`` predicates pivot the same way).
        An optimization beyond the paper (see DESIGN.md ablations).

        ``limit`` compiles a top-k plan; ``agg`` an aggregate plan
        (mutually exclusive)."""
        from ..plan.lower import lower_and_optimize

        root, lowered = lower_and_optimize(
            self.lowerer, query, pivot, limit=limit, agg=agg
        )
        return self.compile_physical(root, lowered)

    def compile_physical(
        self, root: PlanNode, lowered, executor: str = "columnar"
    ) -> CompiledQuery:
        """Compile an already optimized logical plan against *this*
        store.  Split out of :meth:`compile` so a segmented engine can
        lower and optimize a query once and physical-compile it against
        every segment (:mod:`repro.plan.segmented`).  ``executor`` names
        the one physical executor, ``"columnar"``; any other value raises.

        A ``Limit``/``Aggregate`` wrapper is peeled off here: the
        physical pipeline ends at Distinct/Project, so the wrapper
        becomes an attribute of the compiled query (applied in
        :meth:`CompiledQuery.rows` / :meth:`CompiledQuery.aggregate`)
        while ``explain()`` still renders it from the logical root."""
        from ..columnar import compile_plan
        from ..plan.lower import check_executor

        check_executor(executor)
        inner, limit, agg = root, None, None
        if isinstance(inner, Limit):
            limit, inner = inner.count, inner.input
        elif isinstance(inner, Aggregate):
            agg, inner = inner.op, inner.input
        return self.result_class(
            compile_plan(inner, self.runtime),
            lowered.result_slot * ROW_WIDTH, lowered.description,
            root, limit=limit, agg=agg,
        )
