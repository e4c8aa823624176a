#!/usr/bin/env python3
"""Builds the benchmark against ../src and runs one workload.

    python3 perfbench/run.py --workload paged --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build (both relative to the current directory); build output
goes to stderr so the last line of stdout is the benchmark's JSON result.
Exits nonzero without a result when the engine sources are missing or the
build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live-wire", "paged")


def build(build_dir):
    """Configures and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "banks", "engine.h")):
        sys.exit("run.py: engine sources not found under %s/src"
                 % ROOT)
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    scratch = os.path.join(build_dir, "run")
    os.makedirs(scratch, exist_ok=True)
    sys.stdout.flush()
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--scratch", scratch])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
