#!/usr/bin/env python3
"""Builds and runs the view-matching optimizer benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_fig2 --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the repository's
libraries from src/ plus the driver) into .bench_build/perfbench; later
runs reuse that build. Build output goes to stderr, so the last line of
stdout is the driver's JSON result. The exit code is the driver's (non-
zero when a correctness check fails), or 1 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "run")
SPAN_DIR = os.path.join(BUILD_ROOT, "spans")
WORKLOADS = ("paper_fig2", "view_answerable", "serve_churn")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    os.makedirs(SPAN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "mvopt_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.trace:
        cmd += ["--span-file", os.path.join(
            SPAN_DIR, "%s-%d.tsv" % (args.workload, args.seed))]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        # mvopt_perfbench removes its scratch directories itself; this
        # also covers a run that was killed or timed out.
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
