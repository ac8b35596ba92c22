#!/usr/bin/env python3
"""Self-test of the e2ebench benchmark.

Run from anywhere (the first test builds the benchmark, ~1 minute):

    python3 e2ebench/test_e2ebench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics read from the host clock or the host's memory; every other
# metric is a simulated quantity or a count and must repeat exactly.
HOST_UNITS = {"s", "ns", "ms/s", "MiB"}
HOST_RATIOS = {"sim.profile_overhead", "sim.partition.worker_idle_share",
               "sim.partition.parallel_speedup"}


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(ROOT, "e2ebench", "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)


def short_run(workload, seed, trace, *extra):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                 "--trace", str(trace), *extra)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact_metrics(metrics):
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in HOST_UNITS and name not in HOST_RATIOS}


class EmitsEveryMetric(unittest.TestCase):
    def test_every_named_metric_with_unit_and_direction(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m for m in SPEC[key]}
            for m in declared.values():
                self.assertIn(m["better"], ("lower", "higher"), m["name"])
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = short_run(workload, 3, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = result_of(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], declared[name]["unit"], name)
                        if key == "end_to_end":
                            self.assertGreater(m["value"], 0, name)
                    if key == "per_layer":
                        self.assert_layers_sum_to_window(result["metrics"])

    def assert_layers_sum_to_window(self, metrics):
        parts = [m["value"] for name, m in metrics.items() if name.endswith(".window_self_s")]
        for part in parts:
            self.assertGreaterEqual(part, 0.0)
        self.assertAlmostEqual(sum(parts), metrics["bench.window_worker_s"]["value"], places=9)


class RepeatsExactly(unittest.TestCase):
    def test_simulated_metrics_and_counts_repeat_for_one_seed(self):
        for workload in ("rack_faults", "cluster16_cross"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    first = result_of(short_run(workload, 11, trace))
                    second = result_of(short_run(workload, 11, trace))
                    self.assertTrue(first["correct"] and second["correct"])
                    self.assertEqual(exact_metrics(first["metrics"]),
                                     exact_metrics(second["metrics"]))

    def test_cluster_runs_threaded_repetition_under_digest_gate(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                proc = short_run("cluster16_cross", 5, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertTrue(result_of(proc)["correct"])
                record = json.loads(proc.stdout.strip().splitlines()[-2])
                self.assertGreaterEqual(record["parallel_threads"], 2)
                if trace:
                    metrics = result_of(proc)["metrics"]
                    self.assertGreater(metrics["sim.partition.parallel_speedup"]["value"], 0)
                    self.assertGreater(metrics["sim.partition.worker_idle_share"]["value"], 0)


class GatesFail(unittest.TestCase):
    def test_forced_digest_mismatch_fails_the_run(self):
        for perturbed in ("profiled", "telemetry"):
            with self.subTest(pass_=perturbed):
                proc = short_run("rack_mixed", 1, 0, "--perturb-pass", perturbed)
                self.assertEqual(proc.returncode, 1)
                self.assertFalse(result_of(proc)["correct"])
                self.assertIn("workload rack_mixed, " + perturbed + " pass", proc.stderr)
                self.assertIn("digest mismatch", proc.stderr)


class StrictArguments(unittest.TestCase):
    def test_rejects_bad_input_with_usage(self):
        good = {"--workload": "rack_mixed", "--seed": "1", "--seconds": "0.3", "--trace": "0"}
        bad = [
            {"--workload": "rack_mixd"},
            {"--seed": "12x"},
            {"--seed": "-1"},
            {"--seed": ""},
            {"--seed": "99999999999999999999999"},
            {"--seconds": "0.5s"},
            {"--seconds": "0"},
            {"--seconds": "nan"},
            {"--seconds": "1e9"},
            {"--trace": "2"},
            {"--perturb-pass": "timing"},
            {"--bogus": "1"},
        ]
        for change in bad:
            args = dict(good, **change)
            with self.subTest(change=change):
                proc = bench(*[x for kv in args.items() for x in kv])
                self.assertEqual(proc.returncode, 2, proc.stdout[-500:])
                self.assertIn("usage: e2ebench", proc.stderr)
                self.assertNotIn('"correct"', proc.stdout)
        proc = bench("--workload", "rack_mixed", "--seed", "1", "--seconds", "0.3")
        self.assertEqual(proc.returncode, 2)
        self.assertIn("usage: e2ebench", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
