#!/usr/bin/env python3
"""RLPlanner end-to-end benchmark: builds the program from source, runs one
workload and prints its result as the last stdout line.

    python3 e2ebench/run.py --workload sa_anneal --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the current directory, is always Release, and is
incremental after the first run. The run refuses to start when the
environment carries a variable that changes the measured program.
"""
import argparse
import os
import re
import subprocess
import sys

WORKLOADS = ("sa_anneal", "rl_train", "thermal_eval")

# Allocator tuning changes the first-pass timings (see README.md); the
# RLPLANNER_* variables force SIMD levels, inject faults or turn on tracing.
GUARDED = re.compile(r"^(MALLOC_|RLPLANNER_)|^(GLIBC_TUNABLES|LD_PRELOAD)$")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    guarded = sorted(k for k in os.environ if GUARDED.search(k))
    if guarded:
        print("e2ebench: refusing to run with " + ", ".join(guarded) +
              " set", file=sys.stderr)
        return 2

    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(os.path.abspath(build_root), "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build, "--target", "e2ebench", "-j", jobs]]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", here, "-B", build,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("e2ebench: build failed", file=sys.stderr)
            return 3

    cmd = [os.path.join(build, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
