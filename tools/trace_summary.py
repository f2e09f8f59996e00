#!/usr/bin/env python3
"""Summarizes a LUIS Chrome trace-event file by span name.

    python3 tools/trace_summary.py TRACE.json [--max-unattributed PCT]

Pairs every duration begin (B) with its end (E) on the same thread and
prints, per span name, the number of spans, their total time and their
self time (a span's duration minus the durations of its direct children),
in milliseconds, sorted by self time. Self times over all names add up to
the time some span covers, so the table shows where a run spent its time
without double counting nested spans.

With --max-unattributed PCT it also prints the self time of the longest
top-level span (one with no open parent on its thread, such as sweep.run)
as a share of that span's duration: the time the run spent that no named
span inside it accounts for.

Exit status 0 on success, 1 when the file cannot be read, its B/E events
do not balance on some thread (an E without an open B, an E whose name
differs from the open B's, or a B never closed), or that share exceeds
PCT percent.
"""

import argparse
import json
import sys
from collections import defaultdict


def fail(msg):
    print("trace_summary: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def summarize(events, roots=None):
    """Returns {name: [count, total_us, self_us]} over the B/E pairs, and
    appends (name, duration_us, self_us) of every top-level span to the
    list `roots` when one is given."""
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    stacks = defaultdict(list)  # tid -> [name, begin_us, child_us] frames
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in ("B", "E"):
            continue
        tid, name, ts = ev.get("tid"), ev.get("name"), ev.get("ts")
        if not isinstance(ts, (int, float)):
            fail("event %d has bad ts %r" % (i, ts))
        stack = stacks[tid]
        if ph == "B":
            stack.append([name, ts, 0.0])
            continue
        if not stack:
            fail("event %d: E %r with no open B on tid %r" % (i, name, tid))
        open_name, begin, child = stack.pop()
        if open_name != name:
            fail("event %d: E %r closes B %r on tid %r"
                 % (i, name, open_name, tid))
        duration = ts - begin
        row = rows[name]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if stack:
            stack[-1][2] += duration
        elif roots is not None:
            roots.append((name, duration, duration - child))
    for tid, stack in stacks.items():
        if stack:
            fail("tid %r ends with unclosed spans: %s"
                 % (tid, [frame[0] for frame in stack]))
    return rows


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("trace", help="trace JSON file (luis --trace-out)")
    ap.add_argument("--max-unattributed", type=float, metavar="PCT",
                    help="fail when the longest top-level span's self time "
                         "exceeds PCT%% of its duration")
    args = ap.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot parse %s: %s" % (args.trace, e))
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        fail("top level must be an object with a traceEvents array")

    roots = []
    rows = summarize(doc["traceEvents"], roots)
    width = max([len("span")] + [len(name) for name in rows])
    print("%-*s %8s %12s %12s" % (width, "span", "count", "total_ms", "self_ms"))
    for name, (count, total, self_) in sorted(
            rows.items(), key=lambda kv: (-kv[1][2], kv[0])):
        print("%-*s %8d %12.3f %12.3f"
              % (width, name, count, total / 1e3, self_ / 1e3))
    if args.max_unattributed is None:
        return 0
    if not roots:
        fail("no span to attribute time in")
    name, duration, self_ = max(roots, key=lambda root: root[1])
    pct = 100.0 * self_ / duration if duration > 0 else 0.0
    print("unattributed: %.3f of %.3f ms of %s (%.2f%%, limit %g%%)"
          % (self_ / 1e3, duration / 1e3, name, pct, args.max_unattributed))
    if pct > args.max_unattributed:
        fail("%s leaves %.2f%% of its time to no span inside it (limit %g%%)"
             % (name, pct, args.max_unattributed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
