#!/usr/bin/env python3
"""Builds and runs the simulator speed benchmark.

Run from the repository root:

  python3 simbench/run.py --workload NAME --seed N --seconds N --trace 0|1
  python3 simbench/run.py --list
  python3 simbench/run.py --selftest

The first call configures and builds simbench/ (which compiles ../src) into
.bench_build/simbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
A traced run (--trace 1) writes its spans to .bench_build/traces/.
--selftest builds and runs the benchmark's own tests instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("simbench: %s has no src/ to build the simulator from"
              % ROOT, file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr.fileno()).returncode != 0:
            print("simbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def flag_value(args, flag, default):
    if flag in args:
        index = args.index(flag)
        if index + 1 < len(args):
            return args[index + 1]
    return default


def main(args):
    if args == ["--selftest"]:
        if not build("simbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "simbench_tests")]).returncode
    if not build("simbench"):
        return 1
    command = [os.path.join(BUILD, "simbench")] + args
    if flag_value(args, "--trace", "0") == "1" and "--trace-out" not in args:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (flag_value(args, "--workload", "none"),
                                   flag_value(args, "--seed", "1"))
        command += ["--trace-out", os.path.join(traces, os.path.basename(name))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
