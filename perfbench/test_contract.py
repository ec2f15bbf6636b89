"""Checks the benchmark's output against BENCHMARK.json.

Run from the repository root:

    python3 -m unittest discover -s perfbench

Each workload runs briefly, untraced and traced, through run.py (which
builds the benchmark first).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer values that are counts or sizes, not times: for a given
# seed they must repeat exactly.
EXACT = [
    "model_cycles_per_instant",
    "model_code_bytes",
    "codegen.c_bytes",
    "rtk.dispatches_per_instant",
    "rtk.deliveries_per_instant",
    "rtk.events_lost",
    "efsm.rows_per_hit",
    "efsm.fused_ops_per_instant",
    "efsm.walk_fallbacks",
    "ecl-types.hook_runs_per_instant",
    "ecl-types.vm_ops_per_instant",
    "ecl-types.fallback_stmts",
    "efsm.states",
    "efsm.fused_rows",
    "fleet.checkpoints_per_session",
    "fleet.restarts",
]


def run(workload, seed, trace, seconds="0.5"):
    """One run; returns its exit code and parsed last line."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False,
    )
    return out.returncode, json.loads(out.stdout.strip().splitlines()[-1])


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            cls.bench = json.load(f)

    def test_printed_metrics_match_benchmark_json(self):
        for w in self.bench["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result = run(w["name"], 1, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.bench[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_counts_repeat_for_a_seed(self):
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]):
                a = run(w["name"], 7, 1)[1]["metrics"]
                b = run(w["name"], 7, 1)[1]["metrics"]
                for name in EXACT:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)
                self.assertGreater(a["model_code_bytes"]["value"], 0)

    def test_unknown_workload_fails_without_a_result(self):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "none",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
