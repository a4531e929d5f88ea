#!/usr/bin/env python3
"""Builds leakydsp_bench from this checkout, then runs it.

    python3 benchmark/run.py --workload campaign_long --seed 7 --seconds 20 --trace 0

Every argument goes to leakydsp_bench unchanged (see benchmark/README.md).
The Release build lives in .bench_build/ at the checkout root and is reused
by later runs. Build output goes to stderr, so the benchmark's result stays
the last line of stdout. Exits non-zero, printing no result, when the build
fails -- for example outside a full checkout of the repository.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "leakydsp_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "leakydsp_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("run.py: building leakydsp_bench failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process left to
    # wait for and signals reach it directly.
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
