"""Self-tests of the benchmark, on smoke-sized workloads.

Run from the repository root::

    python3 perfbench/selftest.py

Not collected by the repository's pytest run (the file name does not
match ``test_*.py``): each workload characterizes thermal tables, which
takes a few seconds even at smoke size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.chiplet import Placement  # noqa: E402
from repro.systems import get_benchmark  # noqa: E402

SEED = 3


class SmokeWorkloads(unittest.TestCase):
    """Each workload once untraced and once traced, at ``TINY`` sizes."""

    @classmethod
    def setUpClass(cls):
        scratch_root = ROOT / ".perfbench_tmp"
        scratch_root.mkdir(exist_ok=True)
        cls.scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
        cls.declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {}
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                # seconds=0: exactly one unit of work per arm workload.
                cls.runs[name, trace] = workloads.run_workload(
                    name, SEED, 0.0, trace, cls.scratch, workloads.TINY
                )

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)
        try:
            cls.scratch.parent.rmdir()
        except OSError:  # a benchmark run's scratch is still there
            pass

    def test_smoke_passes_output_checks(self):
        for (name, trace), (result, _values, _tracer) in self.runs.items():
            with self.subTest(workload=name, trace=trace):
                self.assertGreaterEqual(result.attempted, 1)
                self.assertEqual(result.failed, 0)

    def test_traced_run_computes_the_same_results(self):
        for name in workloads.WORKLOADS:
            plain, plain_values, _ = self.runs[name, False]
            traced, traced_values, _ = self.runs[name, True]
            with self.subTest(workload=name):
                for metric in ("best_cost", "thermal_mae_k"):
                    self.assertEqual(plain_values[metric], traced_values[metric])
                self.assertEqual(
                    plain.extra.get("rl.deadlock_rate"),
                    traced.extra.get("rl.deadlock_rate"),
                )

    def test_printed_metrics_are_declared(self):
        sections = {False: "end_to_end", True: "per_layer"}
        for (name, trace), (result, values, tracer) in self.runs.items():
            declared = {
                metric["name"]: metric for metric in self.declared[sections[trace]]
            }
            printed = run.format_result(result, values, tracer)["metrics"]
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(set(printed), set(declared))
                for metric, entry in printed.items():
                    self.assertEqual(entry["unit"], declared[metric]["unit"])
                    self.assertIn(declared[metric]["better"], ("higher", "lower"))
                    self.assertIsInstance(entry["value"], (int, float))
                if not trace:
                    for metric, entry in printed.items():
                        self.assertGreater(entry["value"], 0, metric)

    def test_sharded_training_runs_no_bump_assignment(self):
        _result, _values, tracer = self.runs["rl_sharded", True]
        self.assertEqual(tracer.counts.get("bumps.assign.calls", 0), 0)
        self.assertGreater(tracer.counts.get("parallel.collect.calls", 0), 0)
        _result, _values, tracer = self.runs["rl_train", True]
        self.assertGreater(tracer.counts.get("bumps.assign.calls", 0), 0)


class Checks(unittest.TestCase):
    def test_overlapping_placement_is_a_problem(self):
        system = get_benchmark("synthetic1").system
        placement = Placement(system)
        for name in system.chiplet_names:
            placement.place(name, 0.0, 0.0)
        self.assertTrue(workloads._placement_problems(placement))
        self.assertTrue(workloads._placement_problems(None))

    def test_unit_counts_failures(self):
        result = workloads.Run(0, 0.0, workloads.TINY, None, ROOT)
        self.assertTrue(result.unit([], "unit"))
        self.assertFalse(result.unit(["wrong answer"], "unit"))
        self.assertEqual((result.attempted, result.failed), (2, 1))


class Command(unittest.TestCase):
    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(HERE, Path(bare) / HERE.name)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            completed = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "rl_train",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"metrics"', completed.stdout)


if __name__ == "__main__":
    unittest.main()
