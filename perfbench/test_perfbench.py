#!/usr/bin/env python3
"""The benchmark's own tests: BENCHMARK.json is well-formed and matches
what the benchmark prints, and every workload passes a smoke run at reduced
size, untraced and traced.

    python3 perfbench/test_perfbench.py        (from the repository root)

The first test to run builds the benchmark, which takes a minute or two.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark entry point, for its workload list)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra):
    """Run one quick workload; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        for path in SPEC["paths"]:
            self.assertTrue((ROOT / path).is_dir(), path)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_metrics(self):
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_result(self, lines, declared):
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(metrics[m["name"]]["value"]), m["name"])
        record = json.loads(lines[-2])
        for key in ("nproc", "build_type", "compiler", "git_sha", "seed", "workload"):
            self.assertIn(key, record["provenance"])
        return metrics

    def test_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = bench(workload, 0)
                self.assertEqual(code, 0, lines[-1:] if lines else "no output")
                e2e = self.check_result(lines, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertNotEqual(e2e[m["name"]]["value"], 0, m["name"])

                code, lines = bench(workload, 1)
                self.assertEqual(code, 0)
                self.check_result(lines, SPEC["per_layer"])
                trace = json.loads((run.BUILD / "traces" / f"{workload}-seed1.json").read_text())
                self.assertEqual(trace["otherData"]["workload"], workload)
                spans = trace["traceEvents"]
                self.assertTrue(spans)
                for i, span in enumerate(spans):
                    self.assertEqual(span["args"]["id"], i)
                    self.assertLess(span["args"]["parent"], i)
                    self.assertTrue(NAME.fullmatch(span["name"]), span["name"])
                layers = {s["name"] for s in spans if "." in s["name"]}
                self.assertIn("eval.evaluate", layers)
                self.assertIn("drc.verify", layers)
                self.assertIn("io.solution_to_string", layers)

    def test_bad_arguments_print_no_result(self):
        proc = subprocess.run(
            [str(run.BINARY), "--workload", "nope", "--seed", "1", "--seconds", "1",
             "--trace", "0"], capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
