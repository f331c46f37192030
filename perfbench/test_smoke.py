#!/usr/bin/env python3
"""Smoke test of the benchmark with tiny inputs.

    python3 perfbench/test_smoke.py

Run from the root of a checkout; the first run builds the benchmark program (see
run.py). For every workload in BENCHMARK.json it checks that

  * an untraced run prints every end-to-end metric, with its unit, and
    a traced run every per-layer metric, in a last line that has
    exactly the keys correct, attempted, failed and metrics;
  * a deliberately short instruction budget makes operations fail
    (failed > 0) without crashing the run or its output checks.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, trace=0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        for metric in expected:
            self.assertIn(metric["name"], result["metrics"])
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"])

    def test_every_metric_is_printed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, text = run(workload)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"], text)
                self.assertEqual(result["failed"], 0, text)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][metric["name"]]["value"], 0,
                        metric["name"])

                result, text = run(workload, trace=1)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"], text)

    def test_short_budget_fails_without_crashing(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, text = run(workload, "--max-insts", "1000")
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertGreater(result["failed"], 0, text)
                self.assertTrue(result["correct"], text)
                self.assertRegex(text, r"fail_ratio = (0\.\d*[1-9]|1) ")


if __name__ == "__main__":
    unittest.main(verbosity=2)
