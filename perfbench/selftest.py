#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny sizes (a few seconds in all).

    python3 perfbench/selftest.py

Not collected by the package's test suite: the file name does not match
pytest's ``test_*.py`` pattern, so the benchmark stays out of tier 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import spans

sys.path.insert(0, run.SRC)

TINY = {"fuzz-small": 12, "support-growth": 3, "cli-cold": 2}


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class TinyRuns(unittest.TestCase):
    def test_every_workload_emits_every_metric_and_fails_nothing(self):
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            for workload, size in TINY.items():
                with self.subTest(workload=workload, trace=trace):
                    result, _ = run.measure(workload, run.DEFAULT_SEED, 0.3, trace, size=size, repeats=1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, declared(kind))
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_traced_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            result, _ = run.measure("fuzz-small", 7, 0.0, True, size=TINY["fuzz-small"], repeats=1)
            counts.append({name: m["value"] for name, m in result["metrics"].items()
                           if m["unit"] in ("count", "ratio")})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["zariski.decompose.calls"], 0)

    def test_a_wrong_digest_counts_as_failed(self):
        import workloads

        wl = workloads.make("support-growth", run.SRC, run.OUT_DIR)
        deck = wl.build(run.DEFAULT_SEED, 2)
        verifier = run.Verifier(wl, deck, run.DEFAULT_SEED, ["0" * 16, "0" * 16])
        done = run.run_items(wl.run, deck, verifier, lambda i, timed: i >= 2, run.IN_PROCESS)
        self.assertEqual((len(done.times), done.failed), (2, 2))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (holding c [2, 3]) and b [5, 9].
        tree = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
        self.assertEqual(spans.self_times(tree), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_counted_once(self):
        tree = [(0.0, 10.0, -1), (1.0, 5.0, 0), (4.0, 12.0, 0)]
        self.assertEqual(spans.self_times(tree)[0], 1.0)

    def test_tracer_rebinds_and_restores(self):
        from zarlat import bounds, linalg, zariski

        original = linalg.det
        tracer = spans.Tracer()
        with tracer:
            self.assertIs(zariski.det, linalg.det)
            self.assertIsNot(bounds.det, original)
            linalg.det([[2, 1], [1, 2]])
        self.assertIs(linalg.det, original)
        self.assertIs(bounds.det, original)
        self.assertEqual(tracer.summary()["linalg.det"]["calls"], 1)


class Contract(unittest.TestCase):
    def test_fails_without_the_package_sources(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.OUT_DIR)
        try:
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fuzz-small", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
