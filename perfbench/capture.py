"""Captures `transcript.json`: the answers that have no closed form.

    python3 perfbench/capture.py

Run from the root of a checkout of the commit whose answers are the
reference.  Each workload's cases are built with seed 0; the recorded
answers do not depend on the seed (see `workloads.py`).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import worker  # puts src/ and this directory on sys.path
from checks import transcript_entry
from workloads import WORKLOADS, make_cases


def main():
    transcript = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    try:
        for workload in WORKLOADS:
            cases, _ = make_cases(workload, 0, workdir)
            for case in cases:
                _, code, out, err = worker.run_case(case, 600)
                if code != 0:
                    continue
                doc = json.loads(out)
                entry = transcript_entry(case, doc["result"], doc["verdict"])
                if entry is not None:
                    transcript[case.key] = entry
    finally:
        shutil.rmtree(workdir)
    path = os.path.join(worker.HERE, "transcript.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(transcript, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d answers written to %s" % (len(transcript), path), file=sys.stderr)


if __name__ == "__main__":
    main()
