#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

Run from the root of a checkout (builds the driver first, ~1 minute
from clean):

    python3 perfbench/selftest.py

They check the benchmark's own checks: a corrupted reference entry
fails its cell, a traced run reproduces the untimed run, every metric
printed is the one BENCHMARK.json declares, the tainting environment
variables are refused, and a directory without the simulator sources is
refused without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
REFERENCE = os.path.join(HERE, "reference.txt")

# Two small cells of allhit_update: one without and one with DX100.
BASE_CELL = "Gather-SPD/baseline"
DX_CELL = "Gather-SPD/dx100"


def scratch_dir():
    """A fresh directory under the benchmark's build root."""
    root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=root)


def run(trace, cells, *extra, env=None):
    """Run the benchmark on allhit_update; returns (rc, result, stdout)."""
    cmd = [sys.executable, RUN, "--workload", "allhit_update", "--seed",
           "1", "--seconds", "0", "--trace", str(trace), "--cells",
           ",".join(cells)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       env=env)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p.returncode, result, p.stdout


def metric(result, name):
    return result["metrics"][name]["value"]


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.tmp = scratch_dir()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_clean_cells_pass(self):
        rc, res, _ = run(0, [BASE_CELL, DX_CELL])
        self.assertEqual(rc, 0)
        self.assertTrue(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (2, 0))
        self.assertEqual(metric(res, "cells_ok_frac"), 1.0)

    def test_corrupted_reference_fails_the_cell(self):
        ref = os.path.join(self.tmp, "corrupt_reference.txt")
        with open(REFERENCE) as src, open(ref, "w") as dst:
            for line in src:
                if f" {BASE_CELL} " in line and "allhit_update" in line:
                    # One more simulated cycle than was recorded.
                    head, _, tail = line.partition(" cycles=")
                    cycles, _, rest = tail.partition(" ")
                    line = f"{head} cycles={int(cycles) + 1} {rest}"
                dst.write(line)
        rc, res, _ = run(0, [BASE_CELL, DX_CELL], "--reference", ref)
        self.assertEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (2, 1))
        self.assertEqual(metric(res, "cells_ok_frac"), 0.5)

    def test_missing_reference_fails_every_cell(self):
        empty = os.path.join(self.tmp, "empty_reference.txt")
        open(empty, "w").close()
        rc, res, _ = run(0, [BASE_CELL], "--reference", empty)
        self.assertEqual(rc, 0)
        self.assertEqual((res["correct"], res["failed"]), (False, 1))

    def test_traced_run_matches_untimed(self):
        rc, res, out = run(1, [BASE_CELL, DX_CELL])
        self.assertEqual(rc, 0, out)
        # A traced registry that differed would have failed the cell.
        self.assertTrue(res["correct"], out)
        self.assertEqual(res["failed"], 0)
        # Spans never exceed the traced run, so the loop remainder that
        # completes the sum is non-negative.
        self.assertGreaterEqual(metric(res, "sim.loop_s"), 0.0)
        self.assertGreater(metric(res, "dx100.host_s"), 0.0)
        rc, res, _ = run(1, [BASE_CELL])
        self.assertEqual(metric(res, "dx100.host_s"), 0.0)
        self.assertEqual(metric(res, "dx100.instructions"), 0.0)

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, _ = run(trace, [DX_CELL])
            self.assertEqual(rc, 0)
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want, f"--trace {trace}")
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})

    def test_tainting_environment_is_refused(self):
        build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        binary = os.path.join(ROOT, build_root, "perfbench", "perfbench")
        run(0, [DX_CELL])  # make sure the driver is built
        for var in ("DX_NAIVE_TICK", "DX_STATS_JSON", "DX_CELL_TIME"):
            env = dict(os.environ, **{var: "1"})
            p = subprocess.run(
                [binary, "--workload", "allhit_update", "--seed", "1",
                 "--seconds", "0", "--trace", "0", "--cells", DX_CELL],
                cwd=ROOT, capture_output=True, text=True, env=env)
            self.assertNotEqual(p.returncode, 0, var)
            self.assertEqual(p.stdout, "", var)
            # run.py clears the variable instead and runs normally.
            rc, res, _ = run(0, [DX_CELL], env=env)
            self.assertEqual((rc, res["correct"]), (0, True), var)

    def test_refuses_without_simulator_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "allhit_update", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("correct", p.stdout)


if __name__ == "__main__":
    unittest.main()
