"""The ramify benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints, as the last line of stdout,
{"correct", "attempted", "failed", "metrics"} with every end-to-end
metric of BENCHMARK.json (--trace 0) or every per-layer one
(--trace 1), each with its unit.  Failed cases are listed on stderr.

End-to-end figures:
  setup_s         median over fresh interpreters of the time to import
                  ramify.cli and build its parser (the floor of every call)
  sweep_s         time of a median pass over the workload's cases: the
                  sum over cases of each case's median over the passes,
                  each case timed by wall clock and scaled to a nominal
                  host speed by the speed gauge run around it (worker.py)
  slowest_case_s  the largest of those per-case medians
  peak_rss_mb     peak resident memory of the process that ran the workload
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    return env


def setup_seconds():
    """Wall time of a fresh interpreter that imports the CLI and builds
    its parser.  No timeout: with one, the wait polls in steps of up to
    50 ms and the figure comes out in 50 ms steps."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import ramify.cli as c; c.build_parser()"],
        env=_env(), check=True,
    )
    return time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1].strip())
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ramify", "cli.py")):
        print("error: no ramify sources under %s/src; run from the root of a checkout" % root,
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        setup = [setup_seconds() for _ in range(SETUP_RUNS)] if not args.trace else []
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), workdir],
            env=_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print("error: workload process exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = result["metrics"]
    if setup:
        found["setup_s"] = statistics.median(setup)
    # a layer the workload never reaches has no spans and reports 0
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
