#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--elements <n> | --scale <f>]

The simulator library (src/) and the driver (perfbench/*.cc) are built
in Release mode under $CARGO_TARGET_DIR (default .bench_build); build
output goes to stderr. The driver's stdout is passed through, and its
last line is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# These change the simulated path (naive scheduler) or add output (stat
# dumps, per-cell timing lines); the driver refuses to run with them.
TAINTING_ENV = ("DX_NAIVE_TICK", "DX_STATS_JSON", "DX_CELL_TIME")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build; returns the driver's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from the root "
             "of a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Keep stdout for the result: build chatter goes to stderr.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    # Anything else (--elements, --scale, --cells, --reference) goes to
    # the driver unchanged.
    args, extra = ap.parse_known_args()

    env = dict(os.environ)
    for var in TAINTING_ENV:
        if env.pop(var, None) is not None:
            print(f"perfbench: cleared {var} for this run", file=sys.stderr)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--reference", os.path.join(HERE, "reference.txt")] + extra
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
