#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny run length.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs every workload for
one second, so the binary times only its minimum number of steps.
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SECONDS = 1


def digest(lines):
    for line in lines:
        m = re.search(r"inputs_digest ([0-9a-f]{16})", line)
        if m:
            return m.group(1)
    raise AssertionError("no inputs_digest line")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.runs = {}

    def result(self, workload, trace, seed=1):
        key = (workload, trace, seed)
        if key not in self.runs:
            self.runs[key] = run.run_workload(self.binary, workload, seed,
                                              SECONDS, trace)
        return self.runs[key]

    def test_every_metric_printed_with_unit(self):
        for trace in (0, 1):
            want = run.expected_metrics(trace)
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    lines, res = self.result(w, trace)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    text = "\n".join(lines)
                    for name, unit in want.items():
                        self.assertRegex(text, re.compile(
                            rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                            re.M))

    def test_seed_changes_inputs_not_metric_set(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                lines1, res1 = self.result(w, 0, seed=1)
                lines2, res2 = self.result(w, 0, seed=2)
                self.assertNotEqual(digest(lines1), digest(lines2))
                self.assertEqual(set(res1["metrics"]), set(res2["metrics"]))

    def test_same_seed_same_inputs(self):
        w = "resnet18_sscnn"
        lines1, _ = self.result(w, 0)
        lines2, _ = self.result(w, 1)
        self.assertEqual(digest(lines1), digest(lines2))

    def test_corrupted_replay_fails_the_checks(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                _, res = run.run_workload(self.binary, "resnet18_sscnn", 1,
                                          SECONDS, trace, inject_nan=True)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                m = res["metrics"]
                if trace:
                    self.assertGreater(m["failed_step_ratio"]["value"], 0)
                else:
                    self.assertLess(m["passed_step_ratio"]["value"], 1)

    def test_trace_accounts_for_each_step(self):
        self.result("vgg19_split4x4", 1)
        path = run.build_dir() / "traces" / "vgg19_split4x4-seed1.json"
        events = json.loads(path.read_text())["traceEvents"]
        by_id = {e["args"]["id"]: e for e in events}
        steps = [e for e in events if e["name"] == "train.step"
                 and e["args"]["step"] >= 0]
        self.assertTrue(steps)
        self.assertTrue(any(e["name"] == "infer.forward" for e in events))
        for st in steps:
            children = [e for e in events
                        if e["args"]["parent"] == st["args"]["id"]]
            names = {e["name"] for e in children}
            self.assertTrue({"data.batch", "train.forward", "train.loss",
                             "train.backward", "train.sgd"} <= names)
            covered = sum(e["dur"] for e in children)
            self.assertLessEqual(covered, st["dur"])
            # Layer spans cover all but bookkeeping of the step.
            self.assertGreater(covered, 0.95 * st["dur"])
            for e in children:
                self.assertIs(by_id[e["args"]["parent"]], st)


if __name__ == "__main__":
    unittest.main()
