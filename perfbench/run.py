#!/usr/bin/env python3
"""Builds the LUIS benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload grid_serial --seed 1 --seconds 30 --trace 0

Run from the repository root. luis_perfbench and the product's libraries are
built (RelWithDebInfo, as the product's own default) into .bench_build/ on
first use; later runs only re-check the build. Build output goes to stderr,
so the last line of stdout is luis_perfbench's JSON result. The exit status
is luis_perfbench's: 0 when every output check passed. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "luis_perfbench")
CERTIFY_EXPECTED = os.path.join(HERE, "certify_expected.txt")
WORKLOADS = ("grid_serial", "grid_parallel", "certify")
BUILD_JOBS = "4"


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings luis_perfbench up to date."""
    for needed in ("src/CMakeLists.txt", "fig2_speedup.csv", "fig2_mpe.csv"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full LUIS checkout" % needed)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "luis_perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: %s" % " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--speedup-csv", os.path.join(ROOT, "fig2_speedup.csv"),
           "--mpe-csv", os.path.join(ROOT, "fig2_mpe.csv"),
           "--certify-expected", CERTIFY_EXPECTED]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(ROOT, ".bench_build",
                             "trace_%s.json" % args.workload)]
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
