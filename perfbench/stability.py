"""Check that the benchmark's figures repeat: two sets of runs, compared.

    python3 perfbench/stability.py --seeds 10 --seconds 20 [--workload W ...]

Runs every workload of ``BENCHMARK.json`` (or those named) ``--seeds``
times in each of two sets, set A on seeds 1..N and set B on seeds
N+1..2N, alternating A and B run by run so that drift of the machine
falls on both.  For every end-to-end metric it prints each set's median
and spread (interquartile range over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and how much
worse set B's median is than set A's, as a share of A's, next to the
metric's bound.  Each run's last output line is appended to ``--log``
when one is given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--log")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    values: dict = {}  # (set, workload, metric) -> [value]
    for index in range(args.seeds):
        for label, seed in (("A", 1 + index), ("B", 1 + args.seeds + index)):
            for workload in workloads:
                started = time.monotonic()
                result = run_once(workload, seed, args.seconds)
                wall = time.monotonic() - started
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: not correct: {result}")
                    return 1
                if args.log:
                    with open(args.log, "a") as handle:
                        handle.write(json.dumps(
                            {"set": label, "workload": workload,
                             "seed": seed, "result": result}
                        ) + "\n")
                for name, metric in result["metrics"].items():
                    values.setdefault((label, workload, name), []).append(
                        metric["value"]
                    )
                print(f"set {label} seed {seed:3d} {workload} done in "
                      f"{wall:.0f} s", flush=True)
    print(f"{'workload':16s} {'metric':12s} {'median A':>11s} {'median B':>11s} "
          f"{'spread A':>8s} {'spread B':>8s} {'B worse':>8s} {'bound':>6s}")
    for workload in workloads:
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a, b = values[("A", workload, name)], values[("B", workload, name)]
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(f"{workload:16s} {name:12s} {median_a:11.4g} {median_b:11.4g} "
                  f"{spread(a):8.3f} {spread(b):8.3f} "
                  f"{worse_by(median_a, median_b, metric['better']):8.3f} "
                  f"{metric['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
