#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py          # from the repository root

The percentile tests are instant. The end-to-end tests build the binary (if
needed) and run every workload three times with a one-second budget — two
traced runs and one plain run on the same seed — about eight minutes, since
every pass measures at least nine rounds whatever its budget.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

# Values that are a pure function of the seed: they must repeat exactly.
DETERMINISTIC_END_TO_END = ("estimate_error_pp", "replay_cost_ratio")
DETERMINISTIC_LAYER = (
    "ml.kmeans_iterations", "ml.sweep_points",
    "replayer.distinct_replays", "replayer.attempts",
    "ingest.valid", "ingest.reweight", "ingest.refit",
    "ingest.incremental_refit", "ingest.refits_suppressed",
    "ingest.quarantined_rows", "ingest.cheap_action_ratio",
    "ingest.stage_recomputes",
    "serve.shed", "serve.timeout", "serve.failed",
    "serve.coalesced_groups", "serve.epoch",
)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}:\n{done.stdout[-3000:]}{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    deterministic = next(l for l in lines if l.startswith("deterministic "))
    return json.loads(lines[-1]), json.loads(deterministic.split(" ", 1)[1])


class PercentileRule(unittest.TestCase):
    def test_p90_refuses_fewer_than_100_samples(self):
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile([float(i) for i in range(99)], 0.9)

    def test_p90_with_100_samples(self):
        self.assertAlmostEqual(metrics.percentile([float(i) for i in range(100)], 0.9), 89.1)

    def test_median_needs_one_sample(self):
        self.assertEqual(metrics.percentile([3.0], 0.5), 3.0)
        with self.assertRaises(metrics.TooFewSamples):
            metrics.percentile([], 0.5)

    def test_tail_rule_keeps_ten_samples_beyond(self):
        self.assertEqual(metrics.min_samples(0.9), 100)
        self.assertEqual(metrics.min_samples(0.99), 1000)


class Workloads(unittest.TestCase):
    """Every workload, end to end, against BENCHMARK.json."""

    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for w in SPEC["workloads"]:
            name = w["name"]
            cls.runs[name] = {
                "plain": run(name, 0),
                "traced": run(name, 1),
                "traced_again": run(name, 1),
            }

    def test_metric_names_match_benchmark_json(self):
        e2e = [m["name"] for m in SPEC["end_to_end"]]
        layer = [m["name"] for m in SPEC["per_layer"]]
        for name, runs in self.runs.items():
            with self.subTest(workload=name):
                plain, _ = runs["plain"]
                traced, _ = runs["traced"]
                self.assertEqual(sorted(plain), ["attempted", "correct", "failed", "metrics"])
                self.assertEqual(list(plain["metrics"]), e2e)
                self.assertEqual(list(traced["metrics"]), layer)
                units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
                for result in (plain, traced):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    for metric, value in result["metrics"].items():
                        self.assertEqual(value["unit"], units[metric])

    def test_same_seed_repeats_deterministic_metrics(self):
        for name, runs in self.runs.items():
            with self.subTest(workload=name):
                plain, det_plain = runs["plain"]
                first, det_first = runs["traced"]
                second, det_second = runs["traced_again"]
                self.assertEqual(det_plain, det_first)
                self.assertEqual(det_first, det_second)
                for metric in DETERMINISTIC_END_TO_END:
                    self.assertEqual(plain["metrics"][metric]["value"], det_first[metric])
                for metric in DETERMINISTIC_LAYER:
                    self.assertEqual(first["metrics"][metric]["value"],
                                     second["metrics"][metric]["value"], metric)


if __name__ == "__main__":
    unittest.main()
