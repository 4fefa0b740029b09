#!/usr/bin/env bash
# Regenerate the golden references under tests/golden/:
#   - the golden-stats corpus (<workload>_{baseline,dx100,dmp}.json,
#     read by test_golden_stats);
#   - fig09_stdout.txt and fig09_bench.json, which the CI
#     release-bit-identity job byte-compares against a fresh fig09 run
#     made with the same flags as below.
#
# Run this after an *intended* behavioral change, then review the
# corpus diff like any other code change — every changed field is a
# claim that the new number is the right one.
#
# Usage: tools/regen_golden.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}

cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target test_golden_stats fig09_speedup
DX_REGEN_GOLDEN=1 "$BUILD_DIR/tests/test_golden_stats"

# fig09 writes BENCH_fig09.json into its working directory: run it in a
# temporary one so the repo root is left untouched.
repo=$(pwd)
fig09=$(cd "$BUILD_DIR/bench" && pwd)/fig09_speedup
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$work" &&
    "$fig09" --jobs=2 --scale=0.05 --json \
        > "$repo/tests/golden/fig09_stdout.txt")
cp "$work/BENCH_fig09.json" tests/golden/fig09_bench.json

echo
echo "Golden references regenerated. Review with: git diff tests/golden/"
