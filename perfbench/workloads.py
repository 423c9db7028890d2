"""The four workloads: inputs, set-up, timed loop, checks, metrics, report.

fig6c-engine    the 23 Figure 6(c) queries on a 2-segment LPDB0004 store
                through ``LPathEngine`` (one caller, warm plan cache).
serve-explore   two keep-alive connections to ``repro serve`` drawing from
                ~400 distinct queries with Zipf skew, every page fetched.
live-ingest     one connection appends small batches to a served live
                corpus and reads its writes back; the other runs the
                Figure 6(c) mix.
adhoc-treebank  bracketed text parsed and built into ``LPathEngine(trees)``
                with default arguments, then the Figure 6(c) queries.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro.columnar.kernels import kernel_info
from repro.labeling.lpath_scheme import label_corpus
from repro.lpath.engine import LPathEngine
from repro.lpath.parser import parse
from repro.lpath.sql import SQLGenerator
from repro.relational.sqlite_backend import SQLiteBackend
from repro.serve.client import ServeClient
from repro.store import save_corpus
from repro.tree.bracket import iter_trees

import inputs
from common import (
    MIN_OPS, P99_TAIL, Tracer, beyond, dump, load, mean, median, percentile,
    provenance, rows_digest, text_digest,
)
from daemon import Daemon, explore_loop, live_loop, start_repeatedly
from probes import library_probes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DAEMON_SETUP_REPS = 5  # daemon starts, each ~0.4 s
WARM_S = 2.0
PROBE_S = 4.0
LIVE_COMPACT_ROWS = 2_500   # several compactions in a live-ingest run
PROBE_COMPACT_ROWS = 2_000  # at least one compaction in a short probe
CHILD_TIMEOUT_S = 170.0
IDLE_TIMEOUT_S = 60.0


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list = []      # (name, ok, detail)
        self.e2e: dict = {}         # name -> (value, unit, samples)
        self.extra: dict = {}       # workload-specific end-to-end figures
        self.layers: dict = {}      # per-layer metrics of a traced run
        self.self_time: dict = {}   # layer -> seconds, traced loop only
        self.inputs: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def timings(self, latencies, elapsed, setup_times, rss_mb) -> None:
        """The end-to-end metrics every workload reports."""
        millis = [value * 1e3 for value in latencies]
        self.e2e["setup_s"] = (median(setup_times), "s", len(setup_times))
        self.e2e["qps"] = (len(latencies) / elapsed, "1/s", len(latencies))
        self.e2e["p50_ms"] = (percentile(millis, 50), "ms", len(millis))
        self.e2e["p99_ms"] = (percentile(millis, 99), "ms", len(millis))
        self.e2e["peak_rss_mb"] = (rss_mb, "MB", 1)
        tail = beyond(millis, 99)
        self.extra["p99_samples_beyond"] = (tail, "count", len(millis))
        self.check(
            f"at least {P99_TAIL} samples beyond p99", tail >= P99_TAIL,
            f"{tail} of {len(millis)}",
        )


# -- the SQLite oracle ----------------------------------------------------------


def sqlite_oracle(rows, queries) -> dict:
    """Every query's sorted distinct rows from the emitted SQL on SQLite
    over the label ``rows``."""
    backend = SQLiteBackend(rows)
    generator = SQLGenerator()
    try:
        return {
            query: sorted(
                tuple(row) for row in backend.execute(
                    generator.generate(parse(query))
                )
            )
            for query in dict.fromkeys(queries)
        }
    finally:
        backend.connection.close()


# -- traced runs ------------------------------------------------------------------


def merged_tracer(parts) -> Tracer:
    merged = Tracer()
    for part in parts:
        merged.spans.extend(tuple(span) for span in part["spans"])
        for name, values in part["samples"].items():
            merged.samples.setdefault(name, []).extend(values)
    return merged


def stats_delta(before: dict, after: dict, tracer) -> None:
    """Serve-layer counters from two ``/stats`` snapshots."""
    old, new = before["result_cache"], after["result_cache"]
    hits = new["hits"] - old["hits"]
    misses = new["misses"] - old["misses"]
    tracer.count("serve.result_cache_hit_rate", hits / max(hits + misses, 1))
    tracer.count(
        "serve.result_cache_evictions", new["evictions"] - old["evictions"]
    )
    tracer.count(
        "serve.rejected",
        after["server"]["rejected"] - before["server"]["rejected"],
    )


def plan_cache_rate(before: dict, after: dict) -> float:
    old = before["stores"][0]["plan_cache"]
    new = after["stores"][0]["plan_cache"]
    hits, misses = new["hits"], new["misses"]
    if new["hits"] >= old["hits"] and new["misses"] >= old["misses"]:
        hits, misses = hits - old["hits"], misses - old["misses"]
    return hits / max(hits + misses, 1)


def live_figures(out: dict, before: dict, after: dict, tracer) -> None:
    old = before["stores"][0]["live"]
    new = after["stores"][0]["live"]
    tracer.count("live.compactions", new["compactions"] - old["compactions"])
    for seconds in out["compact_seconds"]:
        tracer.count("live.compact_s", seconds)
    tracer.count("live.delta_rows_peak", out["delta_rows_peak"])
    tracer.count(
        "live.write_bytes_per_append",
        out["write_bytes"] / max(len(out["acked"]), 1),
    )


def serve_session(store, pool, seed, tracer) -> None:
    """A short traced serve session on a workload's own store and queries,
    for the traced run of a workload that does not serve."""
    daemon = Daemon(store)
    daemon.start()
    try:
        with ServeClient(daemon.url) as client:
            before = client.stats()
            explore_loop(daemon.url, pool, PROBE_S, seed, tracer)
            after = client.stats()
        stats_delta(before, after, tracer)
    finally:
        daemon.stop()


def live_session(trees, work, seed, order, tracer) -> None:
    """A short traced append session on a live corpus made from a
    workload's own trees, for the traced run of a workload without one."""
    root = os.path.join(work, "probe-live")
    save_corpus(trees, root, segments=2, format="lpdb0005")
    daemon = Daemon(root, ["--compact-rows", str(PROBE_COMPACT_ROWS)])
    daemon.start()
    try:
        with ServeClient(daemon.url) as client:
            before = client.stats()
            out = live_loop(
                daemon, inputs.append_batches(seed), order, PROBE_S,
                inputs.corpus_words(trees), tracer, poll_stats=True,
            )
            wait_idle(client)
            after = client.stats()
        live_figures(out, before, after, tracer)
    finally:
        daemon.stop()


def wait_idle(client) -> dict:
    """The live block of ``/stats`` once no compaction is running."""
    deadline = time.monotonic() + IDLE_TIMEOUT_S
    while True:
        live = client.stats()["stores"][0]["live"]
        if not live["compacting"] or time.monotonic() > deadline:
            return live
        time.sleep(0.05)


def first(values):
    return values[0]


SPAN, SAMPLE = "span", "sample"

#: Per-layer metrics: name -> (unit, source kind, span or counter name,
#: reducer, scale).  ``BENCHMARK.json`` lists the same names; README.md says
#: which end-to-end metric and workload each one should move.
LAYER_METRICS = {
    "tree.parse_s": ("s", SPAN, "tree.parse", median, 1.0),
    "labeling.label_s": ("s", SPAN, "labeling.label", median, 1.0),
    "relational.table_build_s": (
        "s", SPAN, "relational.table_build", median, 1.0
    ),
    "volcano.exec_pred_ms": ("ms", SAMPLE, "volcano.exec_pred_ms", mean, 1.0),
    "volcano.exec_path_ms": ("ms", SAMPLE, "volcano.exec_path_ms", mean, 1.0),
    "store.save_s": ("s", SPAN, "store.save", median, 1.0),
    "store.open_ms": ("ms", SPAN, "store.open", median, 1e3),
    "store.fingerprint_ms": ("ms", SPAN, "store.fingerprint", median, 1e3),
    "lpath.parse_ms": ("ms", SPAN, "lpath.parse", mean, 1e3),
    "plan.lower_ms": ("ms", SPAN, "plan.lower", mean, 1e3),
    "plan.physical_ms": ("ms", SPAN, "plan.physical", mean, 1e3),
    "plan.cache_hit_rate": ("ratio", SAMPLE, "plan.cache_hit_rate", first, 1.0),
    "plan.merge_ms": ("ms", SAMPLE, "plan.merge_ms", mean, 1.0),
    "columnar.exec_pred_ms": (
        "ms", SAMPLE, "columnar.exec_pred_ms", mean, 1.0
    ),
    "columnar.exec_path_ms": (
        "ms", SAMPLE, "columnar.exec_path_ms", mean, 1.0
    ),
    "columnar.join_regret": (
        "ratio", SAMPLE, "columnar.join_regret", first, 1.0
    ),
    "columnar.rows_out": ("count", SAMPLE, "columnar.rows_out", mean, 1.0),
    "serve.rtt_ms": ("ms", SAMPLE, "serve.rtt_ms", mean, 1.0),
    "serve.server_ms": ("ms", SAMPLE, "serve.server_ms", mean, 1.0),
    "serve.transport_ms": ("ms", SAMPLE, "serve.transport_ms", mean, 1.0),
    "serve.miss_ms": ("ms", SAMPLE, "serve.miss_ms", mean, 1.0),
    "serve.result_cache_hit_rate": (
        "ratio", SAMPLE, "serve.result_cache_hit_rate", first, 1.0
    ),
    "serve.result_cache_evictions": (
        "count", SAMPLE, "serve.result_cache_evictions", first, 1.0
    ),
    "serve.pages_per_query": (
        "count", SAMPLE, "serve.pages_per_query", mean, 1.0
    ),
    "serve.response_bytes_per_row": (
        "B/row", SAMPLE, "serve.response_bytes_per_row", first, 1.0
    ),
    "serve.rejected": ("count", SAMPLE, "serve.rejected", first, 1.0),
    "live.compactions": ("count", SAMPLE, "live.compactions", first, 1.0),
    "live.compact_s": ("s", SAMPLE, "live.compact_s", mean, 1.0),
    "live.delta_rows_peak": (
        "count", SAMPLE, "live.delta_rows_peak", first, 1.0
    ),
    "live.write_bytes_per_append": (
        "B", SAMPLE, "live.write_bytes_per_append", first, 1.0
    ),
}


def layer_metrics(outcome: Outcome, loop: Tracer, probe: Tracer,
                  paired) -> None:
    """Per-layer metrics from the traced loop and the probes together, the
    tracing overhead between the median latencies of the untraced and
    traced operations of the traced window (``paired``: their latencies,
    in that order), and self
    time per layer of the traced loop alone."""
    every = merged_tracer([
        {"spans": loop.spans, "samples": loop.samples},
        {"spans": probe.spans, "samples": probe.samples},
    ])
    rows = sum(every.samples.get("serve.rows", []))
    every.count(
        "serve.response_bytes_per_row",
        sum(every.samples.get("serve.bytes", [])) / max(rows, 1),
    )
    for name, (unit, kind, key, reduce, scale) in LAYER_METRICS.items():
        values = (
            every.durations(key) if kind == SPAN
            else every.samples.get(key, [])
        )
        if not values:
            raise RuntimeError(f"the traced run measured no {key}")
        outcome.layers[name] = (reduce(values) * scale, unit, len(values))
    untraced, traced = paired
    overhead = (median(traced) / median(untraced) - 1.0) * 100.0
    outcome.layers["trace.overhead_pct"] = (overhead, "%", len(traced))
    outcome.self_time = loop.self_time_by_layer()


# -- workloads ----------------------------------------------------------------------


def run_library(args, work: str, outcome: Outcome) -> None:
    """fig6c-engine and adhoc-treebank, in the library host process."""
    fig6c = args.workload == "fig6c-engine"
    trees = inputs.corpus(
        args.seed, args.workload,
        inputs.FIG6C_TREES if fig6c else inputs.ADHOC_TREES,
    )
    text = inputs.bracketed(trees)
    order = inputs.fig6c_order(args.seed)
    corpus_path = os.path.join(work, "corpus.mrg")
    with open(corpus_path, "w") as handle:
        handle.write(text)
    spec = {
        "workload": args.workload, "corpus": corpus_path,
        "store": os.path.join(work, "store.lpdb"),
        "probe_store": os.path.join(work, "probe.lpdb"),
        "order": order, "seconds": args.seconds, "trace": args.trace,
    }
    spec_path = os.path.join(work, "spec.json")
    out_path = os.path.join(work, "out.json")
    dump(spec_path, spec)
    outcome.inputs = {
        "profile": inputs.PROFILE, "trees": len(trees),
        "corpus_digest": text_digest(text),
        "order": [qid for qid, _ in order],
    }
    subprocess.run(
        [sys.executable, os.path.join(HERE, "library.py"), spec_path, out_path],
        check=True, timeout=CHILD_TIMEOUT_S,
    )
    result = load(out_path)
    outcome.attempted = len(result["latencies"]) + sum(
        len(group) for group in result.get("paired_latencies", [])
    )
    outcome.timings(
        result["latencies"], sum(result["latencies"]), result["setup_s"],
        result["peak_rss_mb"],
    )
    # Answers against the SQLite oracle, outside the timed window.
    labels = list(label_corpus(trees))
    oracle = sqlite_oracle(labels, [lpath for _, lpath in order])
    rows = len(labels)
    outcome.inputs["label_rows"] = rows
    wrong = 0
    for qid, lpath in order:
        expected = oracle[lpath]
        seen = result["answers"][str(qid)]
        digest_ok = result["digests"][str(qid)] == rows_digest(expected)
        for count, ops in seen.items():
            if count == "None":
                continue  # failed, already counted
            if count != str(len(expected)) or not digest_ok:
                wrong += ops
    outcome.failed = result["failed"] + wrong
    outcome.check(
        "answers match the SQLite oracle", wrong == 0,
        f"{wrong} wrong of {outcome.attempted}",
    )
    if fig6c:
        outcome.extra["open_to_first_ms"] = (
            result["open_to_first_ms"], "ms", result["open_to_first_samples"]
        )
        outcome.extra["store_bytes_per_row"] = (
            result["store_bytes"] / rows, "B/row", 1
        )
    if args.trace:
        loop = merged_tracer([result["trace"]["loop"]])
        probe = merged_tracer([result["trace"]["probe"]])
        fig6c_queries = [lpath for _, lpath in order]
        serve_session(
            spec["probe_store"], fig6c_queries, args.seed, probe
        )
        live_session(trees, work, args.seed, order, probe)
        layer_metrics(outcome, loop, probe, result["paired_latencies"])


def run_serve_explore(args, work: str, outcome: Outcome) -> None:
    trees = inputs.corpus(args.seed, "fig6c-engine", inputs.FIG6C_TREES)
    store = os.path.join(work, "store.lpdb")
    rows = save_corpus(trees, store, segments=2, format="lpdb0004")
    pool = inputs.exploration_pool(args.seed, trees)
    outcome.inputs = {
        "profile": inputs.PROFILE, "trees": len(trees), "label_rows": rows,
        "corpus_digest": text_digest(inputs.bracketed(trees)),
        "pool_size": len(pool), "pool_digest": text_digest("\n".join(pool)),
    }
    daemon = Daemon(store)
    setup_times = start_repeatedly(daemon, DAEMON_SETUP_REPS)
    try:
        explore_loop(daemon.url, pool, WARM_S, args.seed + 1)
        with ServeClient(daemon.url) as client:
            before = client.stats()
            out = explore_loop(
                daemon.url, pool, args.seconds, args.seed, min_ops=MIN_OPS
            )
            after = client.stats()
            rss = daemon.peak_rss_mb()
            windows = [out]
            if args.trace:
                loop = Tracer()
                traced = explore_loop(
                    daemon.url, pool, args.seconds, args.seed, loop
                )
                windows.append(traced)
                traced_after = client.stats()
                stats_delta(after, traced_after, loop)
                loop.count(
                    "plan.cache_hit_rate",
                    plan_cache_rate(after, traced_after),
                )
            # Checks, outside the timed window.
            answers = [answer for w in windows for answer in w["answers"]]
            engine = LPathEngine.open(store)
            try:
                expected = {
                    rank: engine.query(pool[rank])
                    for rank in sorted({rank for rank, _ in answers})
                }
            finally:
                engine.close()
            bad_ranks = {
                rank for rank, rows_ in expected.items()
                if client.query(pool[rank]) != rows_
            }
    finally:
        daemon.stop()
    wrong = sum(
        1 for rank, count in answers
        if count is not None
        and (count != len(expected[rank]) or rank in bad_ranks)
    )
    outcome.attempted = sum(len(w["latencies"]) for w in windows)
    outcome.failed = sum(w["failed"] for w in windows) + wrong
    outcome.timings(out["latencies"], out["elapsed"], setup_times, rss)
    outcome.check(
        "daemon answers match an in-process engine", wrong == 0,
        f"{wrong} wrong of {outcome.attempted}; "
        f"{len(expected)} distinct queries compared row by row",
    )
    lookups = (
        after["result_cache"]["hits"] + after["result_cache"]["misses"]
        - before["result_cache"]["hits"] - before["result_cache"]["misses"]
    )
    outcome.check(
        "/stats books: hits + misses == requests", lookups == out["pages"],
        f"{lookups} lookups, {out['pages']} page requests",
    )
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    outcome.extra["result_cache_hit_rate"] = (
        hits / max(lookups, 1), "ratio", lookups
    )
    if args.trace:
        probe = Tracer()
        library_probes(
            inputs.bracketed(trees), os.path.join(work, "probe.lpdb"), pool,
            probe,
        )
        live_session(
            trees, work, args.seed,
            inputs.fig6c_order(args.seed), probe,
        )
        layer_metrics(outcome, loop, probe, traced["by_tracer"])


def _joined(windows: list) -> dict:
    """The timed window and, in a traced run, the traced one after it, as
    one history of appends and reads for the checks."""
    return {
        "acked": [ack for w in windows for ack in w["acked"]],
        "answers": [answer for w in windows for answer in w["answers"]],
        "rw_wrong": sum(w["rw_wrong"] for w in windows),
        "failed": sum(w["failed"] + w["append_failed"] for w in windows),
    }


def run_live_ingest(args, work: str, outcome: Outcome) -> None:
    base = inputs.corpus(args.seed, "live-base", inputs.LIVE_BASE_TREES)
    batches = inputs.append_batches(args.seed)
    order = inputs.fig6c_order(args.seed)
    lpaths = [lpath for _, lpath in order]
    root = os.path.join(work, "live")
    rows = save_corpus(base, root, segments=2, format="lpdb0005")
    outcome.inputs = {
        "profile": inputs.PROFILE, "trees": len(base), "label_rows": rows,
        "corpus_digest": text_digest(inputs.bracketed(base)),
        "append_digest": text_digest("".join(b["text"] for b in batches)),
        "append_batch_trees": inputs.APPEND_BATCH_TREES,
        "compact_rows": LIVE_COMPACT_ROWS,
        "flush": "every append fsync'd before it is acknowledged",
    }
    daemon = Daemon(
        root, ["--compact-rows", str(LIVE_COMPACT_ROWS)]
    )
    setup_times = start_repeatedly(daemon, DAEMON_SETUP_REPS)
    loop = Tracer()
    try:
        with ServeClient(daemon.url) as client:
            for lpath in lpaths:  # warm the reader's plans
                client.query(lpath)
            nodes = client.count("//_")
            words = inputs.corpus_words(base)
            before = client.stats()
            out = live_loop(
                daemon, batches, order, args.seconds, words, min_ops=MIN_OPS
            )
            rss = daemon.peak_rss_mb()
            windows = [out]
            if args.trace:
                traced_before = client.stats()
                windows.append(live_loop(
                    daemon, batches, order, args.seconds, words, loop,
                    poll_stats=True,
                ))
            live = wait_idle(client)
            after = client.stats()
            final_nodes = client.count("//_")
            final_counts = {lpath: client.count(lpath) for lpath in lpaths}
    finally:
        daemon.stop()
    # Checks, outside the timed window.
    history = _joined(windows)
    acked_rows = sum(count for _, count in history["acked"])
    base_rows = before["stores"][0]["live"]["base_rows"]
    total_rows = live["base_rows"] + live["delta_rows"]
    outcome.check(
        "rows after the last compaction == base + acknowledged",
        total_rows == base_rows + acked_rows,
        f"{total_rows} == {base_rows} + {acked_rows}",
    )
    expected_nodes = nodes + sum(
        batches[index % len(batches)]["nodes"] for index, _ in history["acked"]
    )
    outcome.check(
        "node count == base + acknowledged nodes",
        final_nodes == expected_nodes, f"{final_nodes} vs {expected_nodes}",
    )
    appended, next_tid = [], len(base)
    for index, _ in history["acked"]:
        text = batches[index % len(batches)]["text"]
        chunk = list(iter_trees(text, start_tid=next_tid))
        next_tid += len(chunk)
        appended.extend(chunk)
    low = sqlite_oracle(list(label_corpus(base)), lpaths)
    high = sqlite_oracle(list(label_corpus(base + appended)), lpaths)
    differ = [
        f"{lpath} {final_counts[lpath]} != {len(high[lpath])}"
        for lpath in lpaths if final_counts[lpath] != len(high[lpath])
    ]
    wrong_final = len(differ)
    outcome.check(
        "final counts match the SQLite oracle", wrong_final == 0,
        f"{wrong_final} of {len(lpaths)} differ {differ}",
    )
    by_qid = dict(order)
    wrong_reads, last = 0, {}
    for qid, count in history["answers"]:
        if count is None:
            continue
        lpath = by_qid[qid]
        if not len(low[lpath]) <= count <= len(high[lpath]) \
                or count < last.get(qid, 0):
            wrong_reads += 1
        last[qid] = count
    outcome.check(
        "reads between the base and final oracle, never shrinking",
        wrong_reads == 0, f"{wrong_reads} wrong reads",
    )
    outcome.check(
        "read-your-writes after every ack", history["rw_wrong"] == 0,
        f"{history['rw_wrong']} of {len(history['acked'])} acks",
    )
    outcome.attempted = sum(
        len(w["latencies"]) + len(w["acked"]) + w["append_failed"]
        for w in windows
    )
    outcome.failed = (
        history["failed"] + history["rw_wrong"] + wrong_reads + wrong_final
    )
    outcome.timings(out["latencies"], out["elapsed"], setup_times, rss)
    operations = len(out["latencies"]) + len(out["acked"])
    outcome.e2e["qps"] = (operations / out["elapsed"], "1/s", operations)
    append_ms = [value * 1e3 for value in out["append_latencies"]]
    for q in (50, 99):
        outcome.extra[f"append_p{q}_ms"] = (
            percentile(append_ms, q), "ms", len(append_ms)
        )
    acked_bytes = sum(
        batches[index % len(batches)]["bytes"] for index, _ in out["acked"]
    )
    outcome.extra["write_amp"] = (
        out["write_bytes"] / acked_bytes, "ratio", len(out["acked"])
    )
    outcome.extra["compactions"] = (
        live["compactions"] - before["stores"][0]["live"]["compactions"],
        "count", 1,
    )
    if args.trace:
        traced = windows[1]
        live_figures(traced, traced_before, after, loop)
        stats_delta(traced_before, after, loop)
        loop.count("plan.cache_hit_rate", plan_cache_rate(traced_before, after))
        probe = Tracer()
        library_probes(
            inputs.bracketed(base), os.path.join(work, "probe.lpdb"), lpaths,
            probe,
        )
        layer_metrics(outcome, loop, probe, traced["by_tracer"])


RUNNERS = {
    "fig6c-engine": run_library,
    "adhoc-treebank": run_library,
    "serve-explore": run_serve_explore,
    "live-ingest": run_live_ingest,
}


# -- report -----------------------------------------------------------------------


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {
        0: [metric["name"] for metric in declared["end_to_end"]],
        1: [metric["name"] for metric in declared["per_layer"]],
    }


def report(args, outcome: Outcome) -> dict:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(
        provenance(ROOT, args.seed, args.workload, outcome.inputs),
        sort_keys=True,
    ))
    for title, table in (("end-to-end", outcome.e2e),
                         ("workload", outcome.extra),
                         ("per-layer", outcome.layers)):
        for name, (value, unit, samples) in table.items():
            print(f"{title:10s} {name:30s} {value:14.6g} {unit:6s} n={samples}")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    print(f"{'end-to-end':10s} {'error_rate':30s} {error_rate:14.6g} "
          f"{'ratio':6s} n={outcome.attempted}")
    if outcome.self_time:
        total = sum(outcome.self_time.values())
        for layer, seconds in sorted(
            outcome.self_time.items(), key=lambda item: -item[1]
        ):
            print(f"{'self-time':10s} {layer:30s} {seconds * 1e3:14.6g} ms     "
                  f"{100.0 * seconds / total:5.1f}%")
    for name, ok, detail in outcome.checks:
        print(f"{'check':10s} {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    wanted = declared_metrics()[args.trace]
    source = outcome.layers if args.trace else outcome.e2e
    missing = [name for name in wanted if name not in source]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": all(ok for _, ok, _ in outcome.checks),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": source[name][0], "unit": source[name][1]}
            for name in wanted
        },
    }


def run_workload(args, work: str) -> int:
    info = kernel_info()  # builds the native kernels on a fresh checkout
    if info["error"]:
        print(f"perfbench: native kernels unavailable: {info['error']}",
              file=sys.stderr)
    outcome = Outcome()
    RUNNERS[args.workload](args, work, outcome)
    result = report(args, outcome)
    print(json.dumps(result))
    return 0
