#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver (perfbench/perfbench.cpp) and the library it measures are
configured and built under .bench_build/perfbench on first use, then
incrementally. Build output goes to stderr, so the last stdout line is the
driver's JSON result. A traced run also writes its span log to
.bench_build/spans/<workload>-seed<N>.jsonl. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def build():
    """Configure once, then build the driver incrementally; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    result = subprocess.run(command, stdout=subprocess.PIPE, check=False,
                            text=True)
    if result.returncode != 0:
        print(f"perfbench: driver exited with {result.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
