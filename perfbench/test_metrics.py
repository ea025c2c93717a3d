"""Tests of the benchmark's metric arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.tail(values), (90.0, 90, 10))
        self.assertEqual(metrics.pooled_tail(list(range(1000)))[0], 99.0)
        self.assertEqual(metrics.tail(list(range(20)))[0], 50.0)

    def test_windows(self):
        self.assertEqual([len(w) for w in metrics.windows(list(range(250)))],
                         [125, 125])
        self.assertEqual(len(metrics.windows(list(range(199)))), 1)
        self.assertEqual(sum(metrics.windows(list(range(1000))), []),
                         list(range(1000)))

    def test_long_runs_report_the_median_of_window_tails(self):
        calm = list(range(1, 101))
        slowed = [1000] * 100  # one window on a slowed-down host
        values = calm + slowed + calm
        self.assertEqual(metrics.pooled_tail(values), (90.0, 1000, 30))
        self.assertEqual(metrics.tail(values), (90.0, 90, 30))
        # Each window of 100 allows p90 only, however long the run.
        self.assertEqual(metrics.tail(list(range(1000)))[0], 90.0)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (50.0, 2.0, 1))
        self.assertEqual(metrics.tail(list(range(10))), (50.0, 4, 5))

    def test_nearest_rank(self):
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 100), 5)


class GoodputTest(unittest.TestCase):
    flat = [40.0] * 40

    def test_backlog(self):
        self.assertFalse(metrics.backlog_grows(self.flat))
        ramp = [10.0 + 20.0 * i for i in range(40)]
        self.assertTrue(metrics.backlog_grows(ramp))
        burst = [60.0] * 10 + [40.0] * 20 + [150.0] * 10  # +90 ms: noise
        self.assertFalse(metrics.backlog_grows(burst))

    def test_highest_passing_rate_before_first_miss(self):
        slow = [400.0] * 40
        points = [(5, self.flat, 0), (10, self.flat, 0), (15, slow, 0),
                  (20, self.flat, 0)]
        self.assertEqual(metrics.goodput(points), 10.0)

    def test_failures_and_backlog_miss(self):
        ramp = [10.0 + 5.0 * i for i in range(40)]  # tail under 250 ms
        self.assertLess(metrics.tail(ramp)[1], 250.0)
        self.assertEqual(metrics.goodput([(5, self.flat, 0),
                                          (10, ramp, 0)]), 5.0)
        self.assertEqual(metrics.goodput([(5, self.flat, 1)]), 0.0)


def span(name, start, end, parent=-1, req=0, tid=1):
    return [name, start, end, parent, req, tid]


class SelfTimeTest(unittest.TestCase):
    spans = [
        span("bench.sample", 0, 100),
        span("ckks.evaluator.multiply", 10, 30, 0),
        span("core.device.synchronize", 20, 50, 0),  # overlaps a sibling
        span("ckks.evaluator.rotate", 60, 70, 0),
        span("core.ntt.fwd", 62, 64, 3),
    ]

    def test_self_is_span_minus_covered_children(self):
        self.assertEqual(metrics.self_times(self.spans),
                         [100 - 50, 20, 30, 8, 2])

    def test_coverage_and_table(self):
        self.assertAlmostEqual(metrics.coverage(self.spans), 0.5)
        table = {r[0]: r for r in metrics.self_time_table(self.spans)}
        self.assertEqual(table["ckks.evaluator"][1], 2)
        self.assertAlmostEqual(table["ckks.evaluator"][3], 0.028)


class ChromeTraceTest(unittest.TestCase):
    def test_round_trip_and_nesting(self):
        spans = [
            span("bench.sample", 0, 100),
            span("ckks.evaluator.multiply", 10, 30, 0),
            span("core.device.synchronize", 30, 50, 0),
            span("bench.request", 0, 90, -1, 7, 2),
            span("bench.request", 5, 95, -1, 8, 2),  # overlapping roots
            span("ckks.serial.upload", 1, 4, 3, 7, 2),
            span("ckks.serial.upload", 6, 9, 4, 8, 2),
        ]
        trace = json.loads(json.dumps(metrics.chrome_trace(spans)))
        metrics.check_nesting(trace)
        phases = [e["ph"] for e in trace["traceEvents"]]
        self.assertEqual(phases.count("b"), 2)
        self.assertEqual(phases.count("e"), 2)

    def test_overlapping_spans_rejected(self):
        bad = metrics.chrome_trace([span("a.b", 0, 10), span("a.c", 5, 15)])
        with self.assertRaises(ValueError):
            metrics.check_nesting(bad)


class MetricsTest(unittest.TestCase):
    def test_end_to_end_and_idle_layers(self):
        rec = {"series": {"latency_ms": [float(i) for i in range(1, 31)],
                          "setup_s": [1.0, 3.0, 2.0],
                          "rotate_ms": [4.0], "precision_bits": [20.0],
                          "untraced.latency_ms": [10.0]},
               "values": {"mem_peak_mb": 12.5}}
        e2e, detail = metrics.end_to_end(rec)
        self.assertEqual(e2e["setup_s"], 2.0)
        self.assertEqual(e2e["p50_ms"], 15.0)
        self.assertEqual(e2e["tail_ms"], 15.0)  # p90 has only 3 beyond
        self.assertEqual(detail["tail_percentile"], 50.0)
        layer, idle = metrics.per_layer(rec, [])
        self.assertIn("serve.goodput_rps", idle)
        self.assertEqual(layer["serve.goodput_rps"], 0.0)
        self.assertAlmostEqual(layer["bench.trace.overhead"], 0.55)
        self.assertEqual(len(layer), len(metrics.PER_LAYER))

    def test_serve_layers_from_the_record(self):
        flat, slow = [40.0] * 40, [400.0] * 40
        rec = {"series": {"latency_ms": [30.0],
                          "serve.server.service_ms.stats": [20.0, 22.0],
                          "serve.server.service_ms.mean": [50.0],
                          "serve.server.service_ms.affine": [5.0],
                          "lat_ms.stats": [25.0], "lat_ms.mean": [80.0],
                          "lat_ms.affine": [9.0],
                          "grid.5.latency_ms": flat,
                          "grid.10.latency_ms": flat,
                          "grid.15.latency_ms": slow,
                          "bench.gen.late_ms": [0.1, 0.3, 0.2]},
               "values": {"grid.5.failed": 0, "grid.10.failed": 0,
                          "grid.15.failed": 0,
                          "ckks.graph.warmup_ms.stats": 31.0,
                          "ckks.graph.warmup_ms.mean": 50.0,
                          "ckks.graph.warmup_ms.affine": 5.0}}
        layer, idle = metrics.per_layer(rec, [])
        self.assertEqual(layer["serve.goodput_rps"], 10.0)
        self.assertEqual(layer["serve.server.queue_wait_ms.stats"], 4.0)
        self.assertEqual(layer["serve.server.queue_wait_ms.mean"], 30.0)
        self.assertEqual(layer["ckks.graph.capture_ms"], 10.0)
        self.assertEqual(layer["bench.gen.late_ms_max"], 0.3)
        self.assertNotIn("serve.goodput_rps", idle)


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics run.py prints."""

    def test_declared_metrics_match(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        doc = json.loads(path.read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            list(metrics.PER_LAYER))
        names = [m["name"] for k in ("end_to_end", "per_layer", "workloads")
                 for m in doc[k]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        for m in doc["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in doc["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
