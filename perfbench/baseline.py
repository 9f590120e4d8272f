"""Runs the benchmark several times per workload and summarizes it.

    python3 perfbench/baseline.py

Run from the root of a checkout.  For each workload it makes RUNS
end-to-end runs (seeds 1..RUNS) and one traced run (seed 1), then
writes to `BASELINE.json` in this directory, per end-to-end metric,
the ten values, their median, quartiles (`statistics.quantiles(values,
n=4)`) and spread = (Q3 - Q1) / median, next to the per-layer figures
of the traced run and the machine the figures come from.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True, timeout=200,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    import numpy

    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run(workload, seed, bench["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        traced = run(workload, 1, bench["run_seconds"], 1)
        e2e = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            e2e[name] = summarize([r["metrics"][name]["value"] for r in runs])
            e2e[name]["bound"] = metric["bound"]
            print("%-12s %-15s median %10.4f  spread %.3f  (bound %.2f)" % (
                workload, name, e2e[name]["median"], e2e[name]["spread"], metric["bound"]),
                file=sys.stderr)
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "BASELINE.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
