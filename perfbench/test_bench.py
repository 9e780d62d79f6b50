#!/usr/bin/env python3
"""The benchmark's own test.

Run from the root of a checkout:  python3 perfbench/test_bench.py

It runs one short traced set of wc-freq and checks that every per-layer
metric named in BENCHMARK.json is emitted, that the ledger gap is
printed, that the Chrome trace's spans nest under their parents, and
that the analyzer's critical path is printed. It also checks that the
benchmark fails without printing a result when the sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.proc = run_bench(ROOT, "--workload", "wc-freq", "--seed", "3",
                             "--seconds", "1", "--trace", "1")
        cls.lines = cls.proc.stdout.strip().splitlines()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_exits_cleanly_with_correct_result(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr[-2000:])
        result = json.loads(self.lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_per_layer_metric_is_emitted(self):
        metrics = json.loads(self.lines[-1])["metrics"]
        for entry in self.spec["per_layer"]:
            self.assertIn(entry["name"], metrics)
            self.assertEqual(metrics[entry["name"]]["unit"], entry["unit"])
        for name in ("ledger.unattributed_s", "ledger.gap_frac",
                     "obs.trace_overhead_frac", "mr.hash_over_sort",
                     "cluster.overhead_s"):
            self.assertIn(name, metrics)

    def test_gap_and_critical_path_are_printed(self):
        text = "\n".join(self.lines[:-1])
        self.assertIn("ledger.gap_frac", text)
        self.assertIn("ledger.unattributed_s", text)
        self.assertIn("critical path", text)

    def test_trace_spans_nest(self):
        path = os.path.join(ROOT, ".bench_out", "trace-wc-freq.json")
        with open(path) as f:
            events = [e for e in json.load(f)["traceEvents"]
                      if e.get("ph") == "X"]
        self.assertTrue(events)
        by_id = {e["args"]["span"]: e for e in events}
        self.assertEqual(len(by_id), len(events), "span ids must be unique")
        self.assertEqual({e["args"]["job"] for e in events},
                         {events[0]["args"]["job"]})
        names = {e["name"] for e in events}
        self.assertTrue({"map_phase", "reduce_phase", "map_task",
                         "reduce_task"} <= names)
        for e in events:
            parent = e["args"]["parent"]
            if parent == 0:
                self.assertIn(e["name"], ("map_phase", "reduce_phase"))
                continue
            self.assertIn(parent, by_id)
            p = by_id[parent]
            self.assertGreaterEqual(e["ts"], p["ts"])
            self.assertLessEqual(e["ts"] + e["dur"], p["ts"] + p["dur"] + 0.01)
        phases = sorted((e for e in events if e["args"]["parent"] == 0),
                        key=lambda e: e["ts"])
        self.assertLessEqual(phases[0]["ts"] + phases[0]["dur"],
                             phases[1]["ts"] + 0.01)


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_work", "test-bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, "--workload", "wc-freq", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
