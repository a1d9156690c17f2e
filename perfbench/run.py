#!/usr/bin/env python3
"""Build and run the Patty benchmark.

    python3 perfbench/run.py --workload analyze|execute|serve --seed N \
        --seconds S --trace 0|1 [--short]

Run from the repository root. The first call configures and builds the
benchmark (and the Patty libraries it links) under .bench_build/; later calls
only rebuild what changed. Build output goes to stderr; the benchmark's own
standard output is passed through, and its last line is the JSON result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "patty_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no Patty sources under ./src; run from "
                         "the repository root\n")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs,
              "--target", "patty_perfbench"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main():
    if not build():
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
