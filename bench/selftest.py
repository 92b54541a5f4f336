"""Fast self-test of the benchmark harness (a few seconds).

    python3 bench/selftest.py

Covers span self-time arithmetic, the tracer's wrapping and restoring,
``BENCHMARK.json`` against the benchmark's rules, the per-layer metrics of
one small traced round (names, and the counts the program's shapes fix),
and every result file left under ``.bench_runs/``. The file name keeps it
out of the repository's pytest run.
"""

from __future__ import annotations

import json
import math
import re
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import workloads
from spans import Tracer, layer_of, self_times

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTimes(unittest.TestCase):
    def test_children_overlapping_and_overrunning(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 3.0, 6.0, 0],     # overlaps a: the union counts once
            ["a.inner", 2.0, 3.0, 1],
            ["c", 8.0, 12.0, 0],    # runs past its parent: clipped at 10
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 3.0, 1.0, 4.0])

    def test_leaf_and_layer(self):
        self.assertEqual(self_times([["x", 2.0, 2.5, -1]]), [0.5])
        self.assertEqual(layer_of("kernels.squared_distances"), "kernels")


class Tracing(unittest.TestCase):
    def test_wraps_nests_and_restores(self):
        ns = SimpleNamespace()
        ns.inner = lambda x: x + 1
        ns.outer = lambda x: ns.inner(x) * 2
        original = ns.inner
        tracer = Tracer()
        with tracer.installed([(ns, "outer", "m.outer"), (ns, "inner", "m.inner"), (ns, "gone", "m.gone")]):
            with tracer.span("bench.round"):
                self.assertEqual(ns.outer(1), 4)
        self.assertIs(ns.inner, original)
        self.assertFalse(hasattr(ns, "gone"))
        self.assertEqual([(s[0], s[3]) for s in tracer.spans],
                         [("bench.round", -1), ("m.outer", 0), ("m.inner", 1)])
        self.assertTrue(all(s[1] <= s[2] for s in tracer.spans))


class BenchmarkFile(unittest.TestCase):
    def test_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(BENCHMARK["command"], ["python3", "bench/run.py"])
        self.assertEqual(BENCHMARK["paths"], ["bench"])
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metrics(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))


class TracedRound(unittest.TestCase):
    """One small traced round: 10 identities, P=3, K=2, 17 epochs of 6 steps."""

    P, K, TRIALS = 3, 2, 4

    def test_layer_metrics(self):
        workloads.load_program()
        import harness
        import layers
        import run

        with tempfile.TemporaryDirectory() as tmp:
            cfg = workloads.config("train-default", 7, Path(tmp), {
                "data.num_identities": "10", "data.samples_per_identity": "4",
                "batch.p": str(self.P), "batch.k": str(self.K), "train.epochs": "17",
                "encoder.specific_widths": "8,12", "encoder.shared_widths": "12,12",
                "eval.trials": str(self.TRIALS),
            })
            tracer = Tracer()
            untraced = harness.run_round(cfg)
            with tracer.installed(layers.targets(harness.MODULES)), tracer.span(layers.ROUND):
                traced = harness.run_round(cfg)
            counts = harness.replay_mmd(cfg, tracer)
        counts.update(kernel_pairs=traced["kernel_pairs"], center_distances=traced["center_distances"],
                      untraced_pipeline_s=[untraced["pipeline_s"]], span_cost_s=1e-6)
        metrics = layers.layer_metrics(tracer.spans, counts)

        out = run.result(BENCHMARK["per_layer"], metrics, True, 3, 0)
        self.assertEqual(list(out["metrics"]), [m["name"] for m in BENCHMARK["per_layer"]])
        self.assertTrue(all(math.isfinite(m["value"]) for m in out["metrics"].values()))
        p, k = self.P, self.K
        # per class: one median-heuristic distance matrix plus xx, yy, xy
        self.assertEqual(metrics["kernels.squared_distances_calls_per_step"], 4 * p)
        pairs = k * (k + 1) // 2 * 2 + k * k
        self.assertEqual(metrics["mmd.kernel_pairs_per_step"], p * pairs)
        self.assertEqual(metrics["losses.center_distances_per_step"], p + 4 * p * (p - 1))
        self.assertEqual(metrics["evaluation.similarity_matrix_calls_per_evaluate"], self.TRIALS)
        self.assertTrue(0.0 <= metrics["mmd.gate_open_share"] <= 1.0)
        self.assertGreater(metrics["encoder.forward_us_p90"], 0.0)


class ResultFiles(unittest.TestCase):
    def test_results_match_benchmark(self):
        for path in sorted(workloads.RUNS.glob("*/result.json")):
            with self.subTest(path=path.parent.name):
                res = json.loads(path.read_text())
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(res["attempted"], 1)
                declared = BENCHMARK["per_layer" if "-trace1-" in path.parent.name else "end_to_end"]
                self.assertEqual({n: m["unit"] for n, m in res["metrics"].items()},
                                 {m["name"]: m["unit"] for m in declared})


if __name__ == "__main__":
    unittest.main()
