#!/usr/bin/env python3
"""Unit tests of run.py's pure helpers on synthetic inputs.

    python3 e2ebench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def step(name, **kw):
    base = {"name": name, "acked": 100, "ack_p50_us": 1000.0,
            "ack_p99_us": 5000.0, "server_cpu_us": 10000, "achieved_rps": 0.0,
            "passed": True}
    base.update(kw)
    return base


class PromTest(unittest.TestCase):
    TEXT = "\n".join([
        "# HELP x y",
        "sched_cycles_total 10",
        'sched_cycle_us_bucket{shard="0",le="50"} 4',
        'sched_cycle_us_bucket{shard="0",le="100"} 8',
        'sched_cycle_us_bucket{shard="0",le="+Inf"} 10',
        'sched_cycle_us_bucket{shard="1",le="50"} 1',
        'sched_cycle_us_bucket{shard="1",le="100"} 2',
        'sched_cycle_us_bucket{shard="1",le="+Inf"} 10',
        'wire_connections_accepted_total{reactor="0"} 2',
        'wire_connections_accepted_total{reactor="1"} 3',
    ])

    def test_sums_over_labels(self):
        samples = run.parse_prom(self.TEXT)
        self.assertEqual(run.prom_sum(samples, "sched_cycles_total"), 10)
        self.assertEqual(
            run.prom_sum(samples, "wire_connections_accepted_total"), 5)

    def test_bucket_percentile_of_a_delta(self):
        after = run.prom_buckets(run.parse_prom(self.TEXT), "sched_cycle_us")
        self.assertEqual(after, {50.0: 5, 100.0: 10, float("inf"): 20})
        before = {50.0: 1, 100.0: 2, float("inf"): 4}
        # delta: 4 at <=50, 8 at <=100, 16 total
        self.assertEqual(run.bucket_percentile(before, after, 0.25), 50.0)
        self.assertEqual(run.bucket_percentile(before, after, 0.50), 100.0)
        # Beyond the last finite bound: report that bound.
        self.assertEqual(run.bucket_percentile(before, after, 0.99), 100.0)
        self.assertEqual(run.bucket_percentile(after, after, 0.5), 0.0)


class MetricsTest(unittest.TestCase):
    def result(self):
        return {
            "max_rate_step": 7,
            "steps": [
                step("warm"),
                step("light.0", ack_p50_us=300.0, server_cpu_us=30000),
                step("light.1", ack_p50_us=900.0, server_cpu_us=20000),
                step("light.2", ack_p50_us=400.0, server_cpu_us=90000),
                step("busy.0", server_cpu_us=12000),
                step("busy.1", server_cpu_us=8000),
                step("busy.2", server_cpu_us=10000),
                step("ladder0", achieved_rps=1234.5),
                step("ladder1", achieved_rps=1400.0, passed=False),
            ],
        }

    def test_end_to_end(self):
        m = run.end_to_end_metrics(self.result(), self.result(),
                                   [(0.03, 0.05), (0.01, 0.04), (0.02, 0.09)],
                                   40.0)
        self.assertAlmostEqual(m["setup_s"], 0.02)
        self.assertAlmostEqual(m["setup_wall_s"], 0.05)
        # median over the three windows, not the mean
        self.assertAlmostEqual(m["ack_p50_ms.light"], 0.4)
        self.assertAlmostEqual(m["max_rate_rps"], 1234.5)
        self.assertAlmostEqual(m["server_cpu_us_per_req.light"], 300.0)
        self.assertAlmostEqual(m["server_cpu_us_per_req.busy"], 100.0)
        self.assertEqual(m["peak_rss_mb"], 40.0)
        self.assertEqual({n for n, _ in run.END_TO_END}, set(m))

    def test_no_passing_step(self):
        r = self.result()
        r["max_rate_step"] = -1
        self.assertEqual(
            run.end_to_end_metrics(r, r, [(1, 1)], 1)["max_rate_rps"], 0.0)

    def test_host_share(self):
        share = run.host_share((10, 0, 0, 100), (60, 10, 20, 200))
        self.assertEqual(share, {"busy": 0.5, "iowait": 0.1, "steal": 0.2})


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        import json
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as fh:
            bench = json.load(fh)
        # Every listed metric is computed, with the same unit.
        for key, computed in (("end_to_end", run.END_TO_END),
                              ("per_layer", run.PER_LAYER)):
            units = dict(computed)
            for m in bench[key]:
                self.assertEqual(units.get(m["name"]), m["unit"], m["name"])
        self.assertIn("setup_s", [m["name"] for m in bench["end_to_end"]])
        for w in bench["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
