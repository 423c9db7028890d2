"""Shared-scan batch execution over the columnar executor.

A workload of related queries (the fig6/fig9 suites, a daemon's
concurrent clients) repeats leaf work constantly: the same name-block
scans, and often the same first joins — ``//S//VP//NP[...]`` and
``//S//VP//PP[...]`` agree on everything up to the last step.  The
columnar executor fingerprints every step prefix with a cumulative
structural signature (:func:`repro.columnar.executor.compile_plan`), and
two plans whose prefixes carry equal signatures compute identical
intermediate batches.  This module exploits that:

* :func:`run_batch` executes a list of compiled queries through one
  signature → batch cache, so each shared scan (and every shared join
  prefix) runs **once** and fans its output to every consumer.  Batches
  are immutable by convention — every step returns fresh arrays — so
  fan-out needs no copies.  Entries are dropped as soon as the last
  consumer has run, bounding the cache to the live working set.
* :func:`explain_batch` renders the implied DAG: each query's step list
  with reuse annotations pointing at the query that computes the shared
  prefix.

Every compiled query holds one physical plan per segment, and every
segment's plan of a query carries the same signatures (they fingerprint
the shared logical IR), so a batch keeps one cache per segment and each
segment's plans read and feed only their own.  Process-mode engines
still send each member to their worker pool, where the caches do not
reach.  Results are byte-identical to per-query execution: the cache
only ever substitutes a batch for a recomputation of the same step
prefix.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence


class BatchState:
    """The per-segment shared-prefix caches plus per-signature reference
    counts for one batch run.  A cached batch is dropped the moment its
    last consumer has run, bounding memory to the live working set."""

    __slots__ = ("shared", "remaining")

    def __init__(self, compiled: Sequence) -> None:
        segments = max((len(query.parts) for query in compiled), default=0)
        self.shared: list = [{} for _ in range(segments)]
        self.remaining: Counter = Counter()
        for query in compiled:
            self.remaining.update(query.parts[0].signatures)

    def execute_one(self, query):
        """Execute one member against the shared caches; returns exactly
        what the query would produce standalone — the sorted (and
        top-k-truncated) row list, or the aggregate dict."""
        try:
            if query.agg is not None:
                return query.aggregate(self.shared)
            return [tuple(row) for row in query.rows(self.shared)]
        finally:
            signatures = query.parts[0].signatures
            self.remaining.subtract(signatures)
            for signature in signatures:
                if self.remaining[signature] <= 0:
                    for cache in self.shared:
                        cache.pop(signature, None)


def run_batch(compiled: Sequence) -> list:
    """Execute compiled queries through one shared-prefix batch cache
    per segment; one result per query, in order."""
    state = BatchState(compiled)
    return [state.execute_one(query) for query in compiled]


def explain_batch(compiled: Sequence) -> str:
    """Render the shared-scan DAG of a batch: every query's pipeline
    (segment 0's, on a segmented engine — every segment shares the same
    prefixes), annotating each step prefix with the query that computes
    it."""
    seen: dict = {}
    total = reused = 0
    lines: list[str] = []
    for index, query in enumerate(compiled):
        header = f"[q{index}] {query.description}"
        extras = []
        if query.limit is not None:
            extras.append(f"top-k k={query.limit}")
        if query.agg is not None:
            extras.append(f"aggregate {query.agg}")
        if extras:
            header += f"  ({', '.join(extras)})"
        lines.append(header)
        plan = query.parts[0]
        signatures = plan.signatures
        start = 0
        for prefix in range(len(signatures), 0, -1):
            owner = seen.get(signatures[prefix - 1])
            if owner is not None:
                start = prefix
                lines.append(
                    f"  steps 1..{prefix}: shared with q{owner}"
                )
                break
        total += len(plan.steps)
        reused += start
        for step in range(start, len(plan.steps)):
            seen.setdefault(signatures[step], index)
            lines.append(f"  {step + 1}. {plan.steps[step].describe()}")
    header = (
        f"shared-scan batch: {len(compiled)} queries, "
        f"{total} pipeline steps, {reused} served from shared prefixes"
    )
    segments = len(compiled[0].parts) if compiled else 1
    if segments > 1:
        header += f" (x{segments} segments, segment 0 shown)"
    return "\n".join([header] + lines)
