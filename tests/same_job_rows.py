#!/usr/bin/env python3
"""Checks that two `luis sweep --json` reports hold the same job rows.

    python3 tests/same_job_rows.py A.json B.json

Rows are compared in order, field by field, apart from `engine` and
`timings`, which differ between engines and between runs. Exits 0 when
every row matches and 1, naming the first differing row, otherwise. The
cli_sweep_ref_engine test runs it on one grid swept on both engines, and
cli_sweep_threads_agree on one grid swept at 1 and at 4 threads.
"""

import json
import sys

IGNORED = ("engine", "timings")


def job_rows(path):
    with open(path, encoding="utf-8") as f:
        jobs = json.load(f)["jobs"]
    return [{k: v for k, v in job.items() if k not in IGNORED} for job in jobs]


def main():
    if len(sys.argv) != 3:
        print("usage: same_job_rows.py A.json B.json", file=sys.stderr)
        return 2
    a, b = job_rows(sys.argv[1]), job_rows(sys.argv[2])
    if len(a) != len(b):
        print("%d rows vs %d rows" % (len(a), len(b)), file=sys.stderr)
        return 1
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            print("row %d differs:\n  %s\n  %s" % (i, x, y), file=sys.stderr)
            return 1
    print("%d job rows equal" % len(a))
    return 0


if __name__ == "__main__":
    sys.exit(main())
