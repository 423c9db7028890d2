"""Ablation: physical-design and planning choices the paper calls out.

Three ablations beyond the paper's figures (indexed in DESIGN.md):

1. **Reverse-axis index** — the paper's clustering leads on ``left``, so
   immediate-preceding probes must range-scan and filter on ``right``.
   Adding a ``{name, tid, right}`` index turns them into equality probes.
   Measured on the relational translation itself: the emitted SQL runs on
   SQLite over the paper's Section 5 indexes, with and without the extra
   index.
2. **Value-driven seeding** — wildcard value queries (``//_[@lex=w]``)
   can seed from the ``{value, tid, id}`` index instead of scanning every
   element row; this is what makes the high-selectivity Q12/Q13 fast.
3. **Pivot join ordering** — starting a chain at its rarest tag and
   traversing inverted axes leftward, instead of always joining left to
   right as the paper's translation does.

Ablations 2 and 3 run on the LPath engine.
"""

from repro.bench import datasets
from repro.bench.harness import paper_timing
from repro.labeling import label_corpus
from repro.lpath import LPathEngine
from repro.relational import SQLiteBackend

PRECEDING_QUERY = "//NP<-VB"
VALUE_QUERY = "//_[@lex=rapprochement]"
PIVOT_QUERY = "//S//NP//WHPP"
REVERSE_INDEX = (
    'CREATE INDEX idx_name_tid_right ON "node" '
    '("name", "tid", "right", "left", "depth", "id", "pid")'
)


def test_ablation_reverse_axis_index(benchmark, write_result, repeats):
    trees = list(datasets.corpus("wsj"))
    engine = LPathEngine(trees, keep_trees=False)
    sql = engine.to_sql(PRECEDING_QUERY)
    plain = SQLiteBackend(label_corpus(trees))
    extra = SQLiteBackend(label_corpus(trees))
    extra.connection.execute(REVERSE_INDEX)
    try:
        expected = sorted(engine.query(PRECEDING_QUERY))
        assert sorted(plain.execute(sql)) == expected
        assert sorted(extra.execute(sql)) == expected
        assert engine.query(PIVOT_QUERY, pivot=True) == engine.query(PIVOT_QUERY)

        plain_seconds, size = paper_timing(lambda: plain.count(sql), repeats)
        extra_seconds, _ = paper_timing(lambda: extra.count(sql), repeats)

        value_scan_seconds, value_size = paper_timing(
            lambda: engine.count(VALUE_QUERY), repeats
        )

        default_seconds, pivot_size = paper_timing(
            lambda: engine.count(PIVOT_QUERY), repeats
        )
        pivot_seconds, _ = paper_timing(
            lambda: len(engine.query(PIVOT_QUERY, pivot=True)), repeats
        )

        lines = [
            "Ablation: physical design and planning",
            f"query {PRECEDING_QUERY} ({size} results, emitted SQL on SQLite)",
            f"  paper physical design (range scan + filter): {plain_seconds:.4f}s",
            f"  + {{name,tid,right}} index (equality probe):  {extra_seconds:.4f}s",
            f"query {VALUE_QUERY} ({value_size} results)",
            f"  with {{value,tid,id}} seeding:                {value_scan_seconds:.4f}s",
            f"query {PIVOT_QUERY} ({pivot_size} results)",
            f"  left-to-right join order (paper):            {default_seconds:.4f}s",
            f"  pivot join order (rarest tag first):         {pivot_seconds:.4f}s",
        ]
        write_result("ablation_indexes.txt", "\n".join(lines))

        benchmark(lambda: extra.count(sql))
        # The reverse index must never lose; usually it wins.
        assert extra_seconds <= plain_seconds * 1.5
        assert pivot_seconds <= default_seconds * 1.5
    finally:
        plain.close()
        extra.close()
