"""Optimizer passes over the logical IR.

Four passes run between lowering and execution, for both dialects:

* :func:`push_down` — classic predicate pushdown over the main pipeline:
  every :class:`~repro.plan.ir.Filter` condition sinks to the deepest
  :class:`Scan`/:class:`Join` whose bound slots cover it, and equality
  conditions on the ``name`` column upgrade the access path itself (a
  table scan, or the per-tree ``idx_tid_id`` fallback probe, becomes a
  clustered name probe);
* :func:`reorder_exists_subplans` — the selectivity-driven join
  reordering of ``pivot=True`` generalized to correlated ``exists``
  predicate subplans: a downward-only chain is re-lowered to start at its
  rarest step (main-chain reordering lives in
  :meth:`repro.plan.lower.Lowerer.lower_pivot`);
* :func:`order_conditions` — evaluate cheap column comparisons before
  positional checks and correlated subplans on every node; with corpus
  statistics available, subplan predicates of the same shape additionally
  order by their estimated seed cardinality (the rarest ``exists`` runs
  first) instead of the static cost class alone;
* :func:`annotate_join_physical` — the cost-based
  physical-join selection: every merge-eligible ``Join`` is costed as a
  per-binding probe join vs. a set-at-a-time structural merge join using
  the collected per-name cardinality/partition/depth statistics, and the
  winner is recorded on the node (``Join.physical`` / ``Join.est_in``) so
  ``explain()`` shows the choice.  The per-segment physical compile
  re-runs the same model against each shard's own statistics.

All passes mutate the IR in place and preserve results exactly; they are
covered by the cross-backend differential sweeps.
"""

from __future__ import annotations

from typing import Optional

from .ir import (
    AllPred,
    AnyPred,
    BoolConst,
    Cmp,
    Col,
    Const,
    Context,
    CountCmpPred,
    ExistsPred,
    Filter,
    IndexProbe,
    Join,
    NotPred,
    PlanNode,
    PositionPred,
    Pred,
    Scan,
    TableScan,
    ValueCmpPred,
    child_of,
    linearize,
    pred_slots,
    set_child,
    N,
)
from .lower import Lowerer


def optimize(root: PlanNode, lowerer: Lowerer, pivot: bool = False) -> PlanNode:
    """Run every pass; returns the (mutated) root."""
    if pivot:
        reorder_exists_subplans(root, lowerer)
    root = push_down(root)
    order_conditions(root, lowerer.stats)
    annotate_join_physical(root, lowerer.stats)
    return root


# -- predicate pushdown -------------------------------------------------------


def push_down(root: PlanNode) -> PlanNode:
    """Sink Filter conditions down the main pipeline and upgrade access
    paths that a sunk name-equality condition can narrow."""
    chain = linearize(root)
    if not isinstance(chain[0], Scan):
        return root  # correlated subplans are built tight already
    bound: dict[int, set[int]] = {}
    slots: set[int] = set()
    for position, node in enumerate(chain):
        if isinstance(node, (Scan, Join)):
            slots = slots | {node.slot}
        bound[position] = slots

    for position, node in enumerate(chain):
        if not isinstance(node, Filter):
            continue
        remaining: list[Pred] = []
        for condition in node.conditions:
            target = _sink_target(chain, position, condition, bound)
            if target is None:
                remaining.append(condition)
            else:
                target.conditions = tuple(target.conditions) + (condition,)
        node.conditions = tuple(remaining)

    for node in chain:
        if isinstance(node, (Scan, Join)):
            _upgrade_access(node)

    return _drop_empty_filters(root)


def _sink_target(
    chain: list[PlanNode], position: int, condition: Pred, bound: dict[int, set[int]]
) -> Optional[PlanNode]:
    """The deepest Scan/Join below ``position`` that binds every slot the
    condition reads, or ``None`` to leave it in place."""
    refs = pred_slots(condition)
    for index in range(position - 1, -1, -1):
        node = chain[index]
        if not isinstance(node, (Scan, Join)):
            continue
        if refs <= bound[index]:
            return node
    return None


def _upgrade_access(node) -> None:
    """Turn a broad access path plus a name-equality condition into a
    clustered name probe (predicate pushdown into the index)."""
    name_cond = None
    for condition in node.conditions:
        if (
            isinstance(condition, Cmp)
            and condition.op == "="
            and isinstance(condition.left, Col)
            and condition.left.col == N
            and condition.left.slot == node.slot
            and isinstance(condition.right, Const)
            and isinstance(condition.right.value, str)
        ):
            name_cond = condition
            break
    if name_cond is None:
        return
    name = name_cond.right.value
    keep = tuple(c for c in node.conditions if c is not name_cond)
    if isinstance(node, Scan) and isinstance(node.access, TableScan):
        node.access = IndexProbe("clustered", (Const(name),))
        node.conditions = keep
        node.label = f"{node.label} named {name}"
        return
    if (
        isinstance(node, Join)
        and isinstance(node.access, IndexProbe)
        and node.access.index == "idx_tid_id"
        and len(node.access.eq) == 1
        and node.access.low is None
        and node.access.high is None
        and node.access.self_slot is None
    ):
        tid = node.access.eq[0]
        node.access = IndexProbe("clustered", (Const(name), tid))
        node.conditions = keep


def _drop_empty_filters(root: PlanNode) -> PlanNode:
    chain = linearize(root)
    rebuilt: Optional[PlanNode] = None
    for node in chain:
        if isinstance(node, Filter) and not node.conditions:
            continue
        if rebuilt is not None and child_of(node) is not None:
            set_child(node, rebuilt)
        rebuilt = node
    return rebuilt if rebuilt is not None else root


# -- join reordering for predicate subplans -----------------------------------


def reorder_exists_subplans(root: PlanNode, lowerer: Lowerer) -> None:
    """Pivot downward-only ``exists`` subplans to start at their rarest step."""
    for node in linearize(root):
        if isinstance(node, (Scan, Join, Filter)):
            for condition in node.conditions:
                _reorder_in_pred(condition, lowerer)


def _reorder_in_pred(pred: Pred, lowerer: Lowerer) -> None:
    if isinstance(pred, (AllPred, AnyPred)):
        for part in pred.parts:
            _reorder_in_pred(part, lowerer)
        return
    if isinstance(pred, NotPred):
        _reorder_in_pred(pred.part, lowerer)
        return
    if isinstance(pred, (ValueCmpPred, CountCmpPred)):
        # Reordering changes which slot is materialized last; these need the
        # original result step's rows, so only recurse into nested exists.
        reorder_exists_subplans(pred.subplan, lowerer)
        return
    if not isinstance(pred, ExistsPred):
        return
    reorder_exists_subplans(pred.subplan, lowerer)
    replacement = _pivoted_subplan(pred.subplan, lowerer)
    if replacement is not None:
        pred.subplan = replacement


def _pivoted_subplan(subplan: PlanNode, lowerer: Lowerer) -> Optional[PlanNode]:
    chain = linearize(subplan)
    if not isinstance(chain[0], Context) or len(chain) < 3:
        return None
    joins = chain[1:]
    if not all(isinstance(node, Join) for node in joins):
        return None  # self-step filters pin evaluation order
    steps = []
    for join in joins:
        if join.step is None or join.scope_slot is not None:
            return None
        steps.append(join.step)
    ctx = joins[0].ctx_slot
    free_slot = joins[0].slot
    return lowerer.lower_subchain_pivot(steps, ctx, free_slot)


# -- physical join selection --------------------------------------------------


def annotate_join_physical(root: PlanNode, stats) -> None:
    """Record the cost-based probe vs. structural-merge choice on every
    merge-eligible main-chain ``Join``, from the collected corpus
    statistics (``REPRO_FORCE_JOIN`` pins the choice for differential
    testing).  Merge choices carry the resolved kernel backend
    (``merge/native`` | ``merge/python``) so ``explain()`` output can
    never silently cross backends.  Correlated subplans always run
    binding-at-a-time, so only the main pipeline is annotated."""
    from ..columnar.kernels.api import kernels_backend
    from ..columnar.structural import chain_estimates, decide_join, force_mode

    chain = linearize(root)
    if not chain or not isinstance(chain[0], Scan):
        return
    estimates = chain_estimates(chain, stats)
    force = force_mode()
    backend = kernels_backend()
    for node in chain:
        if not isinstance(node, Join):
            continue
        spec, choice, est_in = decide_join(node, estimates, stats, force)
        if spec is None:
            node.physical = None
            node.est_in = None
            continue
        node.est_in = est_in
        node.physical = f"merge/{backend}" if choice == "merge" else choice


# -- condition ordering -------------------------------------------------------


def _condition_cost(pred: Pred) -> int:
    if isinstance(pred, (Cmp, BoolConst)):
        return 0
    if isinstance(pred, (AllPred, AnyPred, NotPred)):
        return 1 + max((_condition_cost(p) for p in _parts(pred)), default=0)
    if isinstance(pred, PositionPred):
        return 4
    if isinstance(pred, ExistsPred):
        return 6
    if isinstance(pred, (ValueCmpPred, CountCmpPred)):
        return 8
    return 0  # IsElement / IsAttr / RightEdge


def _parts(pred: Pred):
    if isinstance(pred, NotPred):
        return (pred.part,)
    return pred.parts


def _subplan_seed_estimate(pred: Pred, stats) -> float:
    """Estimated cardinality of a subplan predicate's seeding probe — the
    statistics-driven tiebreak between same-shape subplan conditions (a
    rare ``exists`` refutes bindings more cheaply than a common one)."""
    if not isinstance(pred, (ExistsPred, ValueCmpPred, CountCmpPred)):
        return 0.0
    for node in linearize(pred.subplan):
        if isinstance(node, Join) and isinstance(node.access, IndexProbe):
            operand = node.access.eq[0] if node.access.eq else None
            if isinstance(operand, Const) and isinstance(operand.value, str):
                return float(stats.frequency(operand.value))
            return float(stats.size())
    return float(stats.size())


def order_conditions(root: PlanNode, stats=None) -> None:
    """Stable-sort every node's conditions so cheap column comparisons run
    before correlated subplans; with corpus statistics, subplans of the
    same cost class additionally order by estimated seed cardinality.
    Recurses into subplans."""
    if stats is None:
        key = _condition_cost
    else:
        def key(pred: Pred):
            return (_condition_cost(pred), _subplan_seed_estimate(pred, stats))

    for node in linearize(root):
        if isinstance(node, (Scan, Join, Filter)):
            node.conditions = tuple(sorted(node.conditions, key=key))
            for condition in node.conditions:
                _order_in_pred(condition, stats)


def _order_in_pred(pred: Pred, stats=None) -> None:
    if isinstance(pred, (AllPred, AnyPred)):
        for part in pred.parts:
            _order_in_pred(part, stats)
    elif isinstance(pred, NotPred):
        _order_in_pred(pred.part, stats)
    elif isinstance(pred, (ExistsPred, ValueCmpPred, CountCmpPred)):
        order_conditions(pred.subplan, stats)
