#!/usr/bin/env python3
"""Prints the deterministic work counts of one traced `luis sweep`.

    luis --trace-out T.json sweep --threads 1 --quiet --json S.json
    python3 tests/grid_work_counts.py T.json S.json

Prints one line per span name with its count (as tools/trace_summary.py
pairs the spans), then the solver, execution and cache counters of the
report's summary. These counts are identical run to run and at every
thread count, unlike wall time, so the cli_grid_work_counts test (one
thread) and cli_grid_work_counts_threads4 (four) diff them against the
same tests/golden/grid_work_counts.txt. A change that alters the work on
purpose regenerates that file with the two commands above on the full grid
and says why in CHANGES.md.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import trace_summary  # noqa: E402


def main():
    if len(sys.argv) != 3:
        print("usage: grid_work_counts.py TRACE.json REPORT.json",
              file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        rows = trace_summary.summarize(json.load(f)["traceEvents"])
    with open(sys.argv[2], encoding="utf-8") as f:
        summary = json.load(f)["summary"]
    for name in sorted(rows):
        print("span %s %d" % (name, rows[name][0]))
    for key, value in (
            ("solver_nodes", summary["solver_nodes"]),
            ("solver_iterations", summary["solver_iterations"]),
            ("batch.lanes", summary["batch"]["lanes"]),
            ("batch.unique_lanes", summary["batch"]["unique_lanes"]),
            ("cache.lookups", summary["cache"]["lookups"]),
            ("cache.hits", summary["cache"]["hits"])):
        print("summary %s %d" % (key, value))
    return 0


if __name__ == "__main__":
    sys.exit(main())
