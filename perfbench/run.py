#!/usr/bin/env python3
"""Builds and runs the xaos layer-ledger benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the library modules under src/ plus the
driver into .bench_build/perfbench (Release); later runs rebuild
incrementally. Build output goes to standard error, so the last line of
standard output is the driver's JSON result. Traced runs also write a
Chrome-trace JSON of their spans to .bench_build/perfbench/trace-NAME.json
unless --trace-out is given. The exit code is the driver's (0 = every
output matched the oracle), or 1 if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# The driver's own run is bounded by --seconds plus set-up and oracle work.
RUN_TIMEOUT_S = 170


def flag_value(args, name):
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: src/CMakeLists.txt not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    if flag_value(args, "--trace") == "1" and \
            flag_value(args, "--trace-out") is None:
        workload = flag_value(args, "--workload") or "unknown"
        trace_file = "trace-%s.json" % os.path.basename(workload)
        args += ["--trace-out", os.path.join(BUILD, trace_file)]
    sys.stdout.flush()
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
