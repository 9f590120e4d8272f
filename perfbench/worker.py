"""Runs one workload in a process of its own and prints its figures.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

Run from the root of a checkout.  The workload's cases go through
`ramify.cli.main(argv)` in this process, one after another (a closed
loop with one client).  Every CLI call builds its law and ring from
scratch, so nothing is reused across cases or passes.

TRACE 0 repeats passes over the cases, at least MIN_PASSES while they
fit in the worker's budget and more while another fits in SECONDS, and
reports the end-to-end figures, with each case's time scaled by the
`gauge()` samples around it.  TRACE 1 runs one pass untraced, one
traced, then the known-defect probes, and reports the per-layer
figures.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import make_cases  # noqa: E402

import ramify.cli  # noqa: E402

CASE_LIMIT_S = 20.0  # a case still running after this is stopped and fails
TRACED_CASE_LIMIT_S = 60.0
PROBE_LIMIT_S = 3.0  # the over-limit probes run for minutes at the seed commit
WORKER_BUDGET_S = 140.0  # cases not started by then are counted as failed
MIN_PASSES = 5
GAUGE_EVERY_S = 0.1  # a gauge sample is taken between cases at most this often
GAUGE_NOMINAL_S = 0.01  # reported seconds are at the host speed where gauge() takes this


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so no `except Exception` in
    the program swallows it."""


def _alarm(signum, frame):
    raise CaseTimeout()


def run_case(case, limit):
    """(seconds, exit code or None, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ramify.cli.main(list(case.argv))
    except CaseTimeout:
        err.write("stopped at the %.0f s case limit\n" % limit)
    except Exception as exc:  # a traceback is a failed case, not a dead benchmark
        err.write("crashed: %r\n" % exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def gauge():
    """Seconds of a fixed pure-Python loop: the host's speed right now.

    On a shared host the speed of the same code changes by 10-30% within
    seconds and from run to run.  Each case's time is scaled by the
    gauges taken just before and after it, so that most of the change
    cancels."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(60000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return time.perf_counter() - start


class Runner:
    def __init__(self, transcript, deadline):
        self.transcript = transcript
        self.deadline = deadline  # perf_counter value past which no case starts
        self.attempted = 0
        self.failed = 0
        self.gauges = []
        self._gauged = 0.0

    def _gauge(self):
        self.gauges.append(gauge())
        self._gauged = time.perf_counter()

    def run(self, cases, limit, probes=False):
        """One pass: (wall seconds, per-case seconds, failure reasons).
        A case's seconds are scaled by the mean of the gauges taken
        just before and just after it.  Probe failures are known
        defects: reported, not counted."""
        results, before = [], []
        start = time.perf_counter()
        for case in cases:
            now = time.perf_counter()
            if now > self.deadline:
                results.append((0.0, None, "", "not started: worker time budget used up"))
                before.append(None)
                continue
            if now - self._gauged > GAUGE_EVERY_S:
                self._gauge()
            before.append(len(self.gauges) - 1)
            results.append(run_case(case, limit))
        self._gauge()
        wall = time.perf_counter() - start
        g = self.gauges
        scaled = [0.0 if i is None else r[0] * 2 * GAUGE_NOMINAL_S / (g[i] + g[i + 1])
                  for r, i in zip(results, before)]
        failures = []
        for case, (seconds, code, out, err) in zip(cases, results):
            reason = err.strip() if code is None else checks.check(
                case, code, out, err, self.transcript)
            if reason is not None:
                failures.append("%s: %s" % (case.key, reason))
        if not probes:
            self.attempted += len(cases)
            self.failed += len(failures)
        for line in failures:
            print("%s %s" % ("known defect" if probes else "FAILED", line), file=sys.stderr)
        return wall, scaled, failures


def main(argv):
    workload, seed, seconds, trace, workdir = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    with open(os.path.join(HERE, "transcript.json"), encoding="utf-8") as fh:
        transcript = json.load(fh)
    cases, probes = make_cases(workload, seed, workdir)
    start = time.perf_counter()
    runner = Runner(transcript, start + WORKER_BUDGET_S)
    metrics = {}
    if trace == 0:
        walls, passes = [], []
        while True:
            wall, times, _ = runner.run(cases, CASE_LIMIT_S)
            walls.append(wall)
            passes.append(times)
            # slow code gets fewer passes rather than cases cut by the budget
            horizon = seconds if len(walls) >= MIN_PASSES else WORKER_BUDGET_S
            if time.perf_counter() + wall > start + horizon:
                break
        # each case at its median over the passes: a burst of host noise
        # during one pass does not move the figure
        medians = [statistics.median(times) for times in zip(*passes)]
        metrics["sweep_s"] = sum(medians)
        metrics["slowest_case_s"] = max(medians)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print("passes %d, pass walls %s, median gauge %.5f s of %d" % (
            len(walls), ["%.3f" % w for w in walls], statistics.median(runner.gauges),
            len(runner.gauges)), file=sys.stderr)
    else:
        untraced, _, _ = runner.run(cases, CASE_LIMIT_S)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, sweep_failures = runner.run(cases, TRACED_CASE_LIMIT_S)
        finally:
            tracer.uninstall()
        _, _, probe_failures = runner.run(probes, PROBE_LIMIT_S, probes=True)
        metrics.update(tracer.metrics())
        metrics["trace.overhead_s"] = traced - untraced
        metrics["probe.failed"] = len(probe_failures)
        metrics["failed_ratio"] = (len(sweep_failures) + len(probe_failures)) / (
            len(cases) + len(probes))
    print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
