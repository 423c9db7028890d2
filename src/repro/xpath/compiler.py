"""Query compiler for the baseline XPath engine (start/end labeling, [11]).

Shares the whole compilation pipeline with the LPath engine through the
unified IR in :mod:`repro.plan`: :class:`XPathPlanCompiler` is
:class:`~repro.plan.compiler.PlanCompiler` with the
:class:`~repro.plan.schemes.StartEndScheme` axis semantics over the
relation ``xnode(tid, start, end, depth, id, pid, name, value)``.  Only
the XPath-expressible axes are supported; the immediate-* axes, subtree
scoping and edge alignment raise
:class:`~repro.lpath.errors.LPathCompileError` — this asymmetry is exactly
what Figure 10 measures (same cost on shared queries, fewer supported
queries).
"""

from __future__ import annotations

from ..plan.compiler import PlanCompiler
from ..plan.schemes import StartEndScheme, VERTICAL_FRAGMENT, XPATH_AXES

__all__ = ["VERTICAL_FRAGMENT", "XPATH_AXES", "XPathPlanCompiler"]


class XPathPlanCompiler(PlanCompiler):
    """Compile the XPath-expressible fragment against column stores of
    the xnode relation."""

    dialect = "XPath"

    def __init__(
        self, stores, axes: frozenset = VERTICAL_FRAGMENT, **options
    ) -> None:
        super().__init__(stores, scheme=StartEndScheme(axes), **options)
