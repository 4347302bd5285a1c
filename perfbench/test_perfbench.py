"""Tests for the repo benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke test builds the benchmark (a few minutes the first time).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402


def fake_rep(ops_s, layer, read_p99_us=3.0):
    """One repetition's record, shaped as lidi_perfbench prints it."""
    return {
        "attempted": 10, "failed": 0, "transport": "sim", "data_dir": "memfs",
        "steal_pct": 0.0,
        "metrics": {"setup_s": 1.0, "ops_s": ops_s, "read_p50_us": 2.0,
                    "read_p99_us": read_p99_us, "write_p50_us": 4.0,
                    "write_p99_us": 5.0, "peak_rss_mb": 6.0},
        "layers": {"proc.cpu_us_per_op": layer, "net.calls_per_op": layer},
    }


class SummarizeTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_end_to_end_is_median_over_repetitions(self):
        reps = {"plain": [fake_rep(100, 1, read_p99_us=9.0), fake_rep(300, 1),
                          fake_rep(200, 1, read_p99_us=1.0)]}
        result, missing = run.summarize(self.spec, reps, trace=False)
        self.assertEqual(missing, [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 30)
        metrics = result["metrics"]
        self.assertEqual(metrics["ops_s"], {"value": 200, "unit": "ops/s"})
        self.assertEqual(metrics["read_p99_us"], {"value": 3.0, "unit": "us"})
        self.assertEqual(len(metrics), len(self.spec["end_to_end"]))

    def test_overheads_compare_modes(self):
        reps = {"plain": [fake_rep(100, 1)], "traced": [fake_rep(80, 2)],
                "obs_off": [fake_rep(110, 3)]}
        result, missing = run.summarize(self.spec, reps, trace=True)
        metrics = result["metrics"]
        self.assertAlmostEqual(metrics["bench.trace_overhead_pct"]["value"], 25.0)
        self.assertAlmostEqual(metrics["obs.overhead_pct"]["value"], 10.0)
        # proc.* comes from the untraced repetitions, the rest from traced.
        self.assertEqual(metrics["proc.cpu_us_per_op"]["value"], 1)
        self.assertEqual(metrics["net.calls_per_op"]["value"], 2)
        self.assertFalse(result["correct"])  # the fake layers omit most metrics
        self.assertIn("kafka.msgs_per_fetch", missing)

    def test_a_failed_operation_fails_the_run(self):
        rep = fake_rep(100, 1)
        rep["failed"] = 1
        result, _ = run.summarize(self.spec, {"plain": [rep]}, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class ContractTest(unittest.TestCase):
    def test_without_sources_it_fails_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "capture",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)

    def test_smoke(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=1800)
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(json.loads(proc.stdout.strip().splitlines()[-1]),
                         {"smoke": "ok"})


if __name__ == "__main__":
    unittest.main()
