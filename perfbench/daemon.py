"""The daemon workloads: serve-explore and live-ingest.

The daemon runs as its own process (``python -m repro serve``); this
process is the load generator, with one thread and one keep-alive
connection per caller, so the two never share an interpreter lock.
"""

from __future__ import annotations

import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.serve.client import ServeClient, ServeClientError
from repro.serve.service import MAX_PAGE_ROWS

from common import NullTracer, proc_peak_rss_mb, proc_write_bytes
from inputs import derive, zipf_weights

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
CALLERS = 2
#: The live-ingest writer appends at most this often: a fixed write rate,
#: so the reads see the same cache invalidations and engine swaps on a
#: fast or a slow machine.
APPEND_PERIOD_S = 0.1


class Daemon:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self, store: str, args=()) -> None:
        self.command = [
            sys.executable, "-m", "repro", "serve", store, "--port", "0",
            *args,
        ]
        self.proc = None
        self.url = None

    def start(self) -> float:
        """Start the daemon; returns seconds until ``/readyz`` says ready."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.split(" on ", 1)[1].split()[0]
        with ServeClient(self.url, max_retries=0) as client:
            while not client.ready().get("ready"):
                if time.perf_counter() - started > START_TIMEOUT_S:
                    self.stop()
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.002)
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def write_bytes(self) -> int:
        return proc_write_bytes(self.proc.pid)

    def stop(self) -> None:
        """Ask the daemon to drain (SIGINT) and wait until it has exited."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def start_repeatedly(daemon: Daemon, reps: int) -> list:
    """Set-up time ``reps`` times over; the last daemon stays up."""
    times = []
    for rep in range(reps):
        times.append(daemon.start())
        if rep < reps - 1:
            daemon.stop()
    return times


class PageClient(ServeClient):
    """A ``ServeClient`` that also keeps the size of the last response."""

    last_bytes = 0

    def _roundtrip(self, *args, **kwargs):
        response, raw = super()._roundtrip(*args, **kwargs)
        self.last_bytes = len(raw)
        return response, raw


class WrongTotal(Exception):
    """The pages of one result did not add up to the total it declared."""


def fetch_all(client: PageClient, query: str, tracer, limit=None) -> int:
    """Every page of one query (at the default page size unless ``limit``
    says otherwise); returns the row count and records the per-page serve
    figures on ``tracer``."""
    offset, rows, pages = 0, 0, 0
    while True:
        started = time.perf_counter()
        with tracer.span("serve.page"):
            page = client.query_page(query, offset=offset, limit=limit)
        rtt_ms = (time.perf_counter() - started) * 1e3
        got = len(page["matches"])
        rows += got
        pages += 1
        client.pages_sent += 1
        tracer.count("serve.rtt_ms", rtt_ms)
        tracer.count("serve.server_ms", page["elapsed_ms"])
        tracer.count("serve.transport_ms", rtt_ms - page["elapsed_ms"])
        if not page["cached"]:
            tracer.count("serve.miss_ms", page["elapsed_ms"])
        tracer.count("serve.bytes", client.last_bytes)
        tracer.count("serve.rows", got)
        if page["next_offset"] is None:
            break
        offset = page["next_offset"]
    tracer.count("serve.pages_per_query", pages)
    if rows != page["total"]:
        raise WrongTotal(f"{query}: {rows} rows paged, total {page['total']}")
    return rows


def _client(url: str) -> PageClient:
    # No transport retries: a refused request counts as failed.
    client = PageClient(url, max_retries=0)
    client.pages_sent = 0
    return client


def _run_callers(callers) -> list:
    with ThreadPoolExecutor(len(callers)) as pool:
        futures = [pool.submit(caller) for caller in callers]
        return [future.result() for future in futures]


def _tracers(tracer) -> tuple:
    """The tracers a window's operations take turns under: only the null
    one in a measured window; untraced and traced in a traced window, so
    the tracing overhead is measured within one window."""
    return (NullTracer(),) if tracer is None else (NullTracer(), tracer)


def explore_loop(url: str, pool: list, seconds: float, seed: int,
                 tracer=None, min_ops: int = 0) -> dict:
    """``CALLERS`` keep-alive connections, closed loop, each drawing
    queries from ``pool`` with Zipf skew by rank; with a ``tracer`` each
    caller's operations alternate untraced and traced.  The window
    outlasts ``seconds`` until it holds ``min_ops`` operations."""
    tracers = _tracers(tracer)
    cumulative = zipf_weights(len(pool))
    ranks = range(len(pool))
    deadline = time.perf_counter() + seconds
    own_min = -(-min_ops // CALLERS)

    def caller(index: int):
        rng = random.Random(derive(seed, f"caller-{index}"))
        latencies = [[] for _ in tracers]
        answers, failed, op = [], 0, 0
        with _client(url) as client:
            while True:
                rank = rng.choices(ranks, cum_weights=cumulative)[0]
                which = op % len(tracers)
                current = tracers[which]
                op += 1
                started = time.perf_counter()
                try:
                    with current.span("op.query"):
                        count = fetch_all(client, pool[rank], current)
                except (ServeClientError, WrongTotal):
                    failed += 1
                    count = None
                ended = time.perf_counter()
                latencies[which].append(ended - started)
                answers.append((rank, count))
                if ended >= deadline and op >= own_min:
                    return latencies, answers, failed, client.pages_sent

    begin = time.perf_counter()
    results = _run_callers([lambda i=i: caller(i) for i in range(CALLERS)])
    by_tracer = [
        [x for r in results for x in r[0][which]]
        for which in range(len(tracers))
    ]
    return {
        "elapsed": time.perf_counter() - begin,
        "latencies": [x for group in by_tracer for x in group],
        "by_tracer": by_tracer,
        "answers": [x for r in results for x in r[1]],
        "failed": sum(r[2] for r in results),
        "pages": sum(r[3] for r in results),
    }


def live_loop(daemon: Daemon, batches: list, order: list, seconds: float,
              words, tracer=None, poll_stats: bool = False,
              min_ops: int = 0) -> dict:
    """One connection appends a batch, then reads back the count of one
    of its words, which must include the batch (``words`` counts every
    word of the corpus so far and is kept up to date); the other runs the
    Figure 6(c) mix, with a ``tracer`` alternating untraced and traced
    passes of it.  The window outlasts ``seconds`` until the reader has
    made ``min_ops`` reads.  Returns the reads, the acknowledged appends
    and the writer's read-your-writes misses."""
    tracers = _tracers(tracer)
    tracer = tracers[-1]
    reads_done = threading.Event()
    deadline = time.perf_counter() + seconds
    write_start = daemon.write_bytes()

    def writer():
        latencies, acked, wrong, failed = [], [], 0, 0
        compactions = {}
        delta_peak = 0
        with _client(daemon.url) as client:
            index = 0
            while True:
                batch = batches[index % len(batches)]
                index += 1
                started = time.perf_counter()
                with tracer.span("op.append"):
                    try:
                        with tracer.span("live.append"):
                            ack = client.append(batch["text"])
                    except ServeClientError:
                        failed += 1
                        ack = None
                    if ack is not None:
                        latencies.append(time.perf_counter() - started)
                        acked.append((index - 1, ack["rows"]))
                        words.update(batch["words"])
                        word = batch["probe"]
                        try:
                            with tracer.span("serve.count"):
                                seen = client.count(f"//_[@lex={word}]")
                            wrong += seen != words[word]
                        except ServeClientError:
                            failed += 1
                pause = started + APPEND_PERIOD_S - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                if poll_stats:
                    live = client.stats()["stores"][0]["live"]
                    delta_peak = max(delta_peak, live["delta_rows"])
                    last = live.get("last_compaction") or {}
                    if last.get("seconds") is not None:
                        compactions[last["generation"]] = last["seconds"]
                if reads_done.is_set():
                    return {
                        "append_latencies": latencies, "acked": acked,
                        "rw_wrong": wrong, "append_failed": failed,
                        "compact_seconds": list(compactions.values()),
                        "delta_rows_peak": delta_peak,
                    }

    def reader():
        latencies = [[] for _ in tracers]
        answers, failed = [], 0
        with _client(daemon.url) as client:
            index = 0
            while True:
                qid, lpath = order[index % len(order)]
                which = index // len(order) % len(tracers)
                current = tracers[which]
                index += 1
                started = time.perf_counter()
                try:
                    # One page per read: offset paging across an append
                    # would stitch two snapshots together.
                    with current.span("op.query"):
                        count = fetch_all(
                            client, lpath, current, limit=MAX_PAGE_ROWS
                        )
                except (ServeClientError, WrongTotal):
                    failed += 1
                    count = None
                ended = time.perf_counter()
                latencies[which].append(ended - started)
                answers.append((qid, count))
                if ended >= deadline and index >= min_ops:
                    return {
                        "latencies": [x for group in latencies for x in group],
                        "by_tracer": latencies,
                        "answers": answers,
                        "failed": failed, "pages": client.pages_sent,
                    }

    def reader_then_stop():
        try:
            return reader()
        finally:
            reads_done.set()

    begin = time.perf_counter()
    written, read = _run_callers([writer, reader_then_stop])
    written["elapsed"] = time.perf_counter() - begin
    written["write_bytes"] = daemon.write_bytes() - write_start
    return {**written, **read}
