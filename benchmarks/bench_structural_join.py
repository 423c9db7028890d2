"""A/B benchmark: set-at-a-time structural merge joins vs per-binding probes.

Both physical joins execute the *same* optimized logical plans over the
same columnar store; the ``REPRO_FORCE_JOIN`` knob pins the choice so the
comparison isolates the join algorithm.  The workload is the paper's
deep-axis territory — fig. 6(b)/6(c)-style descendant chains (three-plus
hierarchical steps) plus fig. 9-style broad scans — where binding-at-a-
time probing pays ``O(|bindings| * log n)`` binary-search work that the
sorted-span merge replaces with one forward pass per partition.

Assertions:

* the structural merge join beats the per-binding probe join by >= 2x in
  aggregate over the deep-axis suite;
* the optimizer's *unforced* cost-based choice picks ``merge`` for every
  deep-axis query here (the statistics say the bindings are plentiful),
  visible in ``explain()``;
* both join algorithms agree on every result size.

``BENCH_structural_join.json`` carries the per-query timings so CI can
diff runs against the uploaded baseline artifact
(``benchmarks/diff_bench.py``).
"""

import os

from repro.bench import datasets
from repro.bench.datasets import bench_sentences
from repro.bench.harness import paper_timing
from repro.lpath.engine import LPathEngine

#: The deep-axis suite must not shrink with the CI smoke corpus: the
#: merge join's advantage is a statement about corpora large enough for
#: per-binding probe overhead to dominate ("the large profile").
LARGE_SENTENCES = max(1000, bench_sentences())

#: Deep descendant chains (the asserted suite) and broad scans
#: (reported, not asserted — their cost is output-dominated).
DEEP_QUERIES = ("//S//NP//NN", "//NP//NP", "//S//VP//NP//NN", "//VP//NP//PP")
SCAN_QUERIES = ("//S//NP", "//S//VP//NP")

SPEEDUP_FLOOR = 2.0


def _engine() -> LPathEngine:
    trees = datasets.corpus("wsj", LARGE_SENTENCES)
    return LPathEngine(list(trees), keep_trees=False)


def _forced(engine: LPathEngine, query: str, mode: str, repeats: int):
    os.environ["REPRO_FORCE_JOIN"] = mode
    try:
        engine.count(query)  # warm the plan cache for this mode
        return paper_timing(lambda: engine.count(query), repeats)
    finally:
        del os.environ["REPRO_FORCE_JOIN"]


def _format(rows) -> str:
    header = (
        f"{'suite':10s} {'query':18s} {'probe (s)':>11s} "
        f"{'merge (s)':>11s} {'speedup':>8s} {'rows':>7s}"
    )
    lines = [header, "-" * len(header)]
    for suite, query, probe_s, merge_s, size in rows:
        speedup = probe_s / merge_s if merge_s else float("inf")
        lines.append(
            f"{suite:10s} {query:18s} {probe_s:11.5f} "
            f"{merge_s:11.5f} {speedup:7.2f}x {size:7d}"
        )
    return "\n".join(lines)


def test_structural_join_ab(benchmark, write_result, write_json, repeats):
    engine = _engine()

    rows = []
    payload = []
    deep_probe = deep_merge = 0.0
    for suite, queries in (("deep-axis", DEEP_QUERIES), ("fig9 scan", SCAN_QUERIES)):
        for query in queries:
            probe_s, probe_n = _forced(engine, query, "probe", repeats)
            merge_s, merge_n = _forced(engine, query, "merge", repeats)
            assert probe_n == merge_n, (
                f"join algorithms disagree on {query}: {probe_n} vs {merge_n}"
            )
            rows.append((suite, query, probe_s, merge_s, probe_n))
            payload.append(
                {
                    "suite": suite,
                    "query": query,
                    "probe_seconds": probe_s,
                    "merge_seconds": merge_s,
                    "speedup": probe_s / merge_s if merge_s else None,
                    "rows": probe_n,
                }
            )
            if suite == "deep-axis":
                deep_probe += probe_s
                deep_merge += merge_s

    # The optimizer's own statistics-driven choice must pick the merge
    # join for the deep-axis chains (no forcing involved).
    choices = []
    for query in DEEP_QUERIES:
        plan = engine.explain(query)
        assert "[merge" in plan, (
            f"cost model did not pick the structural merge join for {query}:\n{plan}"
        )
        choices.append(f"{query}: merge (cost-based)")

    speedup = deep_probe / deep_merge if deep_merge else float("inf")
    table = _format(rows)
    summary = (
        f"\ndeep-axis suite: probe {deep_probe:.5f}s, merge {deep_merge:.5f}s "
        f"({speedup:.2f}x) over {LARGE_SENTENCES} sentences\n"
        + "\n".join(choices)
    )
    write_result(
        "structural_join_ab.txt",
        "Structural merge join vs per-binding probe join\n" + table + summary,
    )
    write_json(
        "structural_join",
        {
            "sentences": LARGE_SENTENCES,
            "queries": payload,
            "deep_axis_speedup": speedup,
        },
    )

    # Regression benchmark: the merge join on the deepest chain.
    os.environ["REPRO_FORCE_JOIN"] = "merge"
    try:
        benchmark(lambda: engine.count(DEEP_QUERIES[2]))
    finally:
        del os.environ["REPRO_FORCE_JOIN"]

    assert speedup >= SPEEDUP_FLOOR, (
        f"structural merge join fell below the {SPEEDUP_FLOOR}x floor on the "
        f"deep-axis suite: probe {deep_probe:.5f}s vs merge {deep_merge:.5f}s "
        f"({speedup:.2f}x)"
    )
