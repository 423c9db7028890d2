"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from ``--seed``;
the program is driven through its public entry points only: the
``LPathEngine`` library, the ``repro serve`` daemon over HTTP and the
live-corpus append path.  Answers are checked outside the timed window.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the same loop runs again with
spans around each layer call, and the JSON holds the per-layer metrics
(``BENCHMARK.json`` names both sets).  The lines before it are a readable
report: provenance, every metric with its unit and sample count, the
workload-specific figures, self time per layer and the checks.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig6c-engine", "serve-explore", "live-ingest", "adhoc-treebank")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"no source tree at {SRC}; run from a repository checkout")
    scratch = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(scratch, "tmp")
    work = os.path.join(
        scratch, f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(work)
    # Everything the benchmark and the program write stays in the checkout,
    # the native-kernel build's temporary files included.
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path[:0] = [SRC, HERE]
    # A shell that starts this in the background leaves SIGINT ignored,
    # and children would inherit that: the daemon must see SIGINT to drain.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        from workloads import run_workload

        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
