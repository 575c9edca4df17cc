#!/usr/bin/env python3
"""Build and run the SARA end-to-end benchmark.

    python3 perfbench/run.py --workload compile_cold|simulate_warm|serve_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # the benchmark's own unit tests

Run from the root of a source tree. The driver and the SARA libraries
are built from source (Release) into .bench_build/perfbench; the build
is reused when nothing changed. Build output goes to standard error, so
the last line of standard output is the driver's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175
JOBS = str(min(4, os.cpu_count() or 1))


def sh(cmd, **kw):
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, **kw).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no SARA sources (src/) next to perfbench/",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if sh(["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return False
    return sh(["cmake", "--build", BUILD, "--target", target,
               "-j", JOBS]) == 0


def main(argv):
    if argv == ["--test"]:
        if not build("perfbench_tests"):
            return 2
        return sh([os.path.join(BUILD, "perfbench_tests")])
    if not build("perfbench"):
        return 2
    try:
        return subprocess.run([os.path.join(BUILD, "perfbench")] + argv,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
