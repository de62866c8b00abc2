#!/usr/bin/env python3
"""Builds the split-serving benchmark from source and runs one workload.

Usage (from the repository root):

    python3 splitbench/run.py --workload edge-frame --seed 1 --seconds 20 --trace 0
    python3 splitbench/run.py --selftest

The library is built by the repository's own CMakeLists.txt (tests,
benches and examples off) into .bench_build/, then the benchmark binary
runs the workload. Build output goes to standard error; the binary's
standard output, whose last line is the JSON result, is passed through.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "splitbench")
# A run ends well within 180 s; this only stops a hung one.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "splitbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            print("splitbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 2
    try:
        result = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("splitbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
