"""Regenerate the golden CLI transcripts, the table and the JSON
report of every GOLDEN invocation.

Run from the repository root:

    python tests/regen_golden.py

Inspect the diff before committing; the test suite treats these files
as byte-exact expectations.
"""

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from test_cli import GOLDEN_BOTH  # noqa: E402

from ramify.cli import main  # noqa: E402


def regenerate():
    here = os.path.dirname(os.path.abspath(__file__))
    os.chdir(here)
    for fname, argv in GOLDEN_BOTH.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
        if rc != 0:
            raise SystemExit("%s exited with %d" % (" ".join(argv), rc))
        path = os.path.join(here, "golden", fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        print("wrote", path)


if __name__ == "__main__":
    regenerate()
