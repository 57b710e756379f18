#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <sampled-distinct|hot-repeat> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/CMakeLists.txt (Release) into
.bench_build/perfbench, then runs the `perfbench` binary with the same
arguments. Build output and the binary's human-readable report go to
standard error; the last line of standard output is the binary's JSON
result. The exit code is the binary's (nonzero on any correctness
violation), or 1 when the build fails. Traced runs write their spans to
.bench_build/perfbench/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if lines:
        print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
