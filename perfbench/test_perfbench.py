#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build favbench (as run.py does) and run every workload for its
minimum number of repetitions, untraced and traced: a few minutes in all.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT):
    """One run.py invocation at its minimum length; returns the process."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        for name, unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))


class Workloads(unittest.TestCase):
    def check_metrics(self, result, table):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [n for n, _ in table])
        for name, unit in table:
            self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_each_workload_prints_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.check_metrics(result, run.END_TO_END)
                for name, _ in run.END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_layer_self_times_cover_the_traced_campaign(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.check_metrics(result, run.PER_LAYER)
                coverage = result["metrics"]["trace.coverage"]["value"]
                self.assertGreaterEqual(coverage, 0.9)
                self.assertLessEqual(coverage, 1.0)

    def test_refuses_to_run_without_the_library(self):
        bare = run.BUILD_ROOT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("rad-sampled", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
