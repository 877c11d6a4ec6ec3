#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the election library from src/) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload and passes its
output through: the last line of stdout is the run's JSON result. Build
output goes to stderr. Exits non-zero, printing no result, when the build
or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(out, "perfbench")
    done = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print("perfbench: run failed with code %d" % done.returncode,
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
