"""The one compile path, for engines of any segment count.

Following Section 4 of the paper, every axis is a join against one
physical design (the clustered ``{name, tid, left, ...}`` order plus a
``{tid, id, ...}`` permutation), held per segment as the parallel arrays
of a :class:`~repro.columnar.store.ColumnStore`.  An engine holds one
store per segment — a disjoint set of trees — and :class:`PlanCompiler`
compiles for all of them at once:

* parse → lower → optimize exactly **once**, against a
  :class:`CorpusStats` that sums the stores' statistics, so selectivity
  and join-cost decisions see the whole corpus;
* physical-compile the optimized IR per segment
  (:meth:`~repro.columnar.executor.ColumnarRuntime.compile_physical`),
  which re-decides probe vs. merge from that shard's own statistics.

The resulting :class:`CompiledQuery` holds one physical plan per segment
and merges their sorted outputs.  Because every result row belongs to
exactly one tree, the per-segment runs need no cross-segment joins and
no deduplication: ``heapq.merge`` of the sorted per-segment ``(tid, id)``
lists is the answer, byte-identical to a one-segment engine over the
same trees.  A one-segment query runs its plan inline — no pool, no
merge.  Fan-out to threads or worker processes, and recovery from dying
workers, come from :mod:`repro.plan.segmented`.
"""

from __future__ import annotations

import os
from collections import Counter
from heapq import merge
from typing import Callable, Iterable, Optional, Sequence

from ..faults import maybe_delay_segment
from ..lpath.errors import LPathCompileError
from .ir import PlanNode, render
from .lower import Lowerer, lower_and_optimize
from .segmented import RemoteSpec, RemoteTask, _unpack_pairs, run_remote


class CorpusStats:
    """The optimizer's statistics, summed over every segment's store.

    Sizes, name frequencies and tree counts add across tree-disjoint
    shards; per-name statistics merge (cardinalities and partition counts
    add, depth ranges widen, the largest partition is the max)."""

    def __init__(self, stores: Sequence) -> None:
        if not stores:
            raise ValueError("corpus statistics need at least one store")
        self._stores = list(stores)

    def size(self) -> int:
        return sum(store.size() for store in self._stores)

    def frequency(self, name: Optional[str]) -> int:
        return sum(store.frequency(name) for store in self._stores)

    def tree_count(self) -> int:
        return sum(store.tree_count() for store in self._stores)

    def name_stats(self, name: Optional[str]):
        from ..columnar.store import NameStats

        merged = None
        for store in self._stores:
            stats = store.name_stats(name)
            if stats.rows == 0:
                continue
            if merged is None:
                merged = stats
            else:
                merged = NameStats(
                    merged.rows + stats.rows,
                    merged.partitions + stats.partitions,
                    max(merged.max_partition, stats.max_partition),
                    min(merged.min_depth, stats.min_depth),
                    max(merged.max_depth, stats.max_depth),
                )
        return merged if merged is not None else NameStats(0, 0, 0, 0, 0)


class Segment:
    """One shard of an engine's corpus: a disjoint set of trees and the
    physical context that compiles plans against them."""

    __slots__ = ("compiler", "kind")

    def __init__(self, compiler, kind: str = "base") -> None:
        self.compiler = compiler  # the shard's ColumnarRuntime
        self.kind = kind          # "base" (immutable store) or "delta" (WAL)


class CompiledQuery:
    """A query compiled for every segment of an engine.

    ``parts[i]`` is segment ``i``'s :class:`~repro.columnar.ColumnarPlan`.
    ``limit`` (top-k in output order) and ``agg`` (an aggregate
    operation) are applied here, since the physical pipelines end at
    Distinct/Project.  ``get_pool`` is a zero-argument callable supplied
    by the owning engine returning a ``concurrent.futures`` executor, or
    ``None`` for sequential execution — a callable rather than a pool so
    cached plans survive the engine's pool being recycled by ``close``.

    ``rows`` and ``aggregate`` take an optional ``shared`` list of
    per-segment signature → batch caches (:mod:`repro.plan.batch`): each
    segment's plan resumes from the longest step prefix already computed
    in its own cache, and feeds it."""

    def __init__(
        self,
        parts: Sequence,
        description: str,
        logical: PlanNode,
        limit: Optional[int] = None,
        agg: Optional[str] = None,
        get_pool: Optional[Callable] = None,
        remote: Optional[RemoteTask] = None,
        kinds: Sequence[str] = (),
    ) -> None:
        self.parts = list(parts)
        self.description = description
        self.logical = logical
        self.limit = limit
        self.agg = agg
        self.get_pool = get_pool
        self.remote = remote
        self.kinds = list(kinds)

    def _map(self, task: Callable, shared: Optional[list] = None) -> list:
        """``task(plan, cache)`` for every segment, on the engine's pool
        when it has one; a single segment runs inline."""
        caches = shared if shared is not None else [None] * len(self.parts)
        if len(self.parts) == 1:
            return [task(self.parts[0], caches[0])]

        def run(item):
            maybe_delay_segment()  # segment_slow bites the thread path too
            return task(*item)

        items = list(zip(self.parts, caches))
        pool = self.get_pool() if self.get_pool is not None else None
        if pool is None:
            return [run(item) for item in items]
        return list(pool.map(run, items))

    def _map_remote(self, kind: str) -> Optional[list]:
        """Per-segment results from worker processes, or ``None`` when
        the in-process path should run instead."""
        if self.remote is None:
            return None
        return run_remote(self.get_pool, self.remote, len(self.parts), kind)

    def _part_rows(self, plan, shared: Optional[dict]) -> list:
        if self.limit is None:
            return plan.rows() if shared is None else sorted(plan.execute(shared))
        if shared is None or not any(
            signature in shared for signature in plan.signatures
        ):
            # Nothing to reuse: early termination beats materializing the
            # full result just to seed a cache nobody reads.
            return plan.rows_limited(self.limit)
        return sorted(plan.execute(shared))[: self.limit]

    def rows(self, shared: Optional[list] = None) -> Iterable[tuple]:
        """Distinct, sorted ``(tid, id)`` pairs across every segment —
        the top-k under a limit, found by early termination in each
        segment (each could hold the k globally-smallest keys), so the
        merge only has to truncate."""
        if len(self.parts) == 1:  # nothing to fan out or merge
            return self._part_rows(self.parts[0], shared[0] if shared else None)
        packed = self._map_remote("rows")
        if packed is not None:
            from ..columnar.kernels.api import merge_packed_pairs

            merged = merge_packed_pairs(packed)
            if merged is None:
                merged = merge(*(_unpack_pairs(blob) for blob in packed))
        else:
            merged = merge(*self._map(self._part_rows, shared))
        if self.limit is not None:
            return list(merged)[: self.limit]
        return merged

    def count(self) -> int:
        """Result size, counted without materializing a result list
        where the plan allows (partition bounds for bare scans, distinct
        key cardinality otherwise); per-segment counts add."""
        if self.limit is not None:
            return len(list(self.rows()))
        counts = self._map_remote("count")
        if counts is None:
            counts = self._map(lambda plan, _shared: plan.count_rows())
        return sum(counts)

    def _part_aggregate(self, plan, shared: Optional[dict]) -> dict:
        if self.agg == "count":
            if shared is None or len(plan.steps) == 1:
                # Partition-bounds fast path beats any sharing.
                return {"count": plan.count_rows()}
            return {"count": len(plan.execute(shared))}
        keys = plan if shared is None else plan.execute(shared)
        # The group value is the third component of the extended key.
        return dict(Counter(key[2] for key in keys))

    def aggregate(self, shared: Optional[list] = None) -> dict:
        """The plan's aggregate: ``{"count": n}``, or ``{group: n}`` for
        the grouped forms; group counts add across segments."""
        if self.agg is None:
            raise LPathCompileError("plan carries no aggregate")
        results = self._map_remote("agg")
        if results is None:
            results = self._map(self._part_aggregate, shared)
        if len(results) == 1:
            return results[0]
        merged: Counter = Counter()
        for result in results:
            merged.update(result)
        return dict(merged)

    def explain(self) -> str:
        """The logical IR (uniform across dialects) plus the first
        segment's physical plan (every segment compiles the same IR)."""
        header = "physical plan:"
        if len(self.parts) > 1:
            mix = ""
            if "delta" in self.kinds:
                delta = self.kinds.count("delta")
                mix = f": {len(self.kinds) - delta} base + {delta} delta"
            header = (
                f"physical plan (x{len(self.parts)} segments{mix}, "
                "segment 0 shown):"
            )
        return "\n".join((
            self.description,
            "logical plan:\n" + render(self.logical, indent=2),
            header + "\n" + self.parts[0].explain(indent=2),
        ))


class PlanCompiler:
    """Compile queries once, against one or more segment stores.

    The XPath baseline subclass overrides :attr:`dialect` and the scheme;
    the pipeline itself — parse → lower (pivoted or not) → optimize →
    physical-compile per segment — exists only here."""

    dialect = "LPath"

    def __init__(
        self,
        stores: Sequence,
        scheme=None,
        get_pool: Optional[Callable] = None,
        remote: Optional[RemoteSpec] = None,
    ) -> None:
        from ..columnar import ColumnarRuntime
        from .schemes import LPathScheme

        scheme = scheme if scheme is not None else LPathScheme()
        self.lowerer = Lowerer(scheme, CorpusStats(stores), self.dialect)
        self.segments = [
            Segment(ColumnarRuntime(store, scheme)) for store in stores
        ]
        self.get_pool = get_pool
        self.remote = remote

    def compile(
        self, query, pivot: bool = False,
        limit: Optional[int] = None, agg: Optional[str] = None,
    ) -> CompiledQuery:
        """Compile a query; ``pivot=True`` enables selectivity-driven join
        ordering: when the query is a plain step chain, the join starts at
        the step with the rarest tag and extends leftward through inverted
        axes (and downward-only ``exists`` predicates pivot the same way).

        ``limit`` compiles a top-k plan; ``agg`` an aggregate plan
        (mutually exclusive).  Engines over an ``LPDB0004`` file attach a
        :class:`~repro.plan.segmented.RemoteTask` so a process pool can
        re-run the same query worker-side without pickling any plan or
        store."""
        root, lowered = lower_and_optimize(
            self.lowerer, query, pivot, limit=limit, agg=agg
        )
        parts = [
            segment.compiler.compile_physical(root) for segment in self.segments
        ]
        remote_task = None
        if self.remote is not None and len(parts) > 1:
            from ..columnar.kernels.api import KERNELS_ENV
            from ..columnar.structural import force_mode

            remote_task = RemoteTask(
                self.remote,
                query if isinstance(query, str) else str(query),
                pivot,
                force_mode(),
                os.environ.get(KERNELS_ENV) or None,
                limit,
                agg,
            )
        return CompiledQuery(
            parts, lowered.description, root, limit, agg,
            self.get_pool, remote_task,
            kinds=[segment.kind for segment in self.segments],
        )
