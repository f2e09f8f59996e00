#!/usr/bin/env python3
"""Self-test of the LUIS benchmark.

    python3 perfbench/selftest.py

Builds luis_perfbench (as run.py does), then runs one short pass per workload
with tracing off and on, and checks that:
  * every end-to-end metric of BENCHMARK.json is printed with its unit
    (tracing off), and every per-layer metric likewise (tracing on);
  * every run passes its output checks, and each traced run writes a trace
    that tools/validate_trace.py accepts;
  * a corrupted expected cell in fig2_speedup.csv, and a corrupted expected
    value in certify_expected.txt, each drive ok_ratio below 1 and make the
    exit status non-zero.
Exit status 0 when all checks hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build + paths)

SCRATCH = os.path.join(run.ROOT, ".bench_build", "selftest")
failures = []


def check(cond, what):
    print("%s: %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def run_bench(workload, trace, speedup_csv=None, certify_expected=None,
              trace_out=None):
    """One short pass; returns (exit code, parsed last stdout line)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", "0.01", "--trace", str(trace),
           "--speedup-csv", speedup_csv or os.path.join(run.ROOT, "fig2_speedup.csv"),
           "--mpe-csv", os.path.join(run.ROOT, "fig2_mpe.csv"),
           "--certify-expected", certify_expected or run.CERTIFY_EXPECTED]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result


def main():
    run.build()
    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    validator = os.path.join(run.ROOT, "tools", "validate_trace.py")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            trace_out = (os.path.join(SCRATCH, "trace_%s.json" % workload)
                         if trace else None)
            code, result = run_bench(workload, trace, trace_out=trace_out)
            tag = "%s --trace %d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  "%s passes its output checks" % tag)
            metrics = (result or {}).get("metrics", {})
            missing = [m["name"] for m in expected[trace]
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing, "%s prints every metric with its unit%s"
                  % (tag, (": missing " + ", ".join(missing)) if missing else ""))
            if trace and os.path.isfile(validator):
                v = subprocess.run([sys.executable, validator, trace_out],
                                   capture_output=True, text=True)
                check(v.returncode == 0, "%s trace validates" % tag)

    # Corrupt one expected value per kind of workload: each must notice.
    with open(os.path.join(run.ROOT, "fig2_speedup.csv"), encoding="utf-8") as f:
        rows = [line.rstrip("\n").split(",") for line in f]
    rows[1][1] = rows[1][1] + "1"
    corrupted_csv = os.path.join(SCRATCH, "fig2_speedup_corrupted.csv")
    with open(corrupted_csv, "w", encoding="utf-8") as f:
        f.write("".join(",".join(r) + "\n" for r in rows))
    with open(run.CERTIFY_EXPECTED, encoding="utf-8") as f:
        lines = f.read().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    last = lines[first][-1]  # the last hex digit of the line's last value
    lines[first] = lines[first][:-1] + ("1" if last == "0" else "0")
    corrupted_cert = os.path.join(SCRATCH, "certify_expected_corrupted.txt")
    with open(corrupted_cert, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    for workload, kwargs in (("grid_serial", {"speedup_csv": corrupted_csv}),
                             ("certify", {"certify_expected": corrupted_cert})):
        code, result = run_bench(workload, 0, **kwargs)
        ok_ratio = (result or {}).get("metrics", {}).get("ok_ratio", {}).get("value")
        check(code != 0, "%s: a corrupted expected value makes the exit status "
              "non-zero" % workload)
        check(ok_ratio is not None and ok_ratio < 1.0,
              "%s: a corrupted expected value drives ok_ratio below 1 (got %r)"
              % (workload, ok_ratio))

    print("selftest: %s" % ("FAIL (%d)" % len(failures) if failures else "OK"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
