"""Tests of the benchmark's metric math. Run: python3 e2ebench/run.py --self-test"""

import math
import os
import tempfile
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_known_samples(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.50), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        self.assertEqual(stats.percentile([7], 0.99), 7)

    def test_small_sample_rounds_up(self):
        self.assertEqual(stats.percentile([1, 2, 3], 0.5), 2)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 0.5), 2)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 0.51), 3)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)

    def test_quartiles_match_statistics_quantiles(self):
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)


class CensoredLatencyTest(unittest.TestCase):
    def write(self, lines):
        fd, path = tempfile.mkstemp()
        with os.fdopen(fd, "w") as f:
            f.write("".join(lines))
        self.addCleanup(os.remove, path)
        return path

    def test_unacked_requests_stay_in_the_sample(self):
        # 98 requests acked at 10 ms; 2 never acked, censored at 5 s.
        lines = ["10000000 1 100000\n"] * 98 + ["5000000000 0 100000\n"] * 2
        lat, late, acked = stats.read_latency_sample(self.write(lines))
        self.assertEqual(acked, 98)
        s = stats.latency_summary(lat, late)
        self.assertEqual(s["samples"], 100)
        self.assertAlmostEqual(s["p50_ms"], 10.0)
        # Dropping the censored entries would report 10 ms; they must show.
        self.assertAlmostEqual(s["p99_ms"], 5000.0)
        self.assertAlmostEqual(s["p999_ms"], 5000.0)
        self.assertAlmostEqual(s["late_p99_ms"], 0.1)

    def test_losses_cannot_improve_latency(self):
        fast = ["1000000 1 0\n"] * 50
        slow = ["90000000 1 0\n"] * 50
        lost = ["90000000 0 0\n"] * 50  # censored at the same age
        a = stats.latency_summary(*stats.read_latency_sample(self.write(fast + slow))[:2])
        b = stats.latency_summary(*stats.read_latency_sample(self.write(fast + lost))[:2])
        self.assertEqual(a["p99_ms"], b["p99_ms"])
        self.assertEqual(a["p999_ms"], b["p999_ms"])


class ProcCpuTest(unittest.TestCase):
    STAT = ("4242 (leopard node) S 1 4242 4242 0 -1 4194304 100 0 0 0 "
            "250 50 0 0 20 0 3 0 123 456 78 18446744073709551615")

    def test_utime_plus_stime(self):
        self.assertAlmostEqual(stats.proc_cpu_seconds(self.STAT, 100), 3.0)

    def test_command_with_parentheses(self):
        text = self.STAT.replace("(leopard node)", "(a) b (c)")
        self.assertAlmostEqual(stats.proc_cpu_seconds(text, 100), 3.0)

    def test_diff_counts_new_threads_from_zero(self):
        d = stats.cpu_diff({"main": 1.0, "gone": 5.0}, {"main": 1.5, "new": 0.25})
        self.assertEqual(d, {"main": 0.5, "new": 0.25})


class PrometheusTest(unittest.TestCase):
    TEXT = """# HELP leopard_net_frames_sent_total Frames written
# TYPE leopard_net_frames_sent_total counter
leopard_net_frames_sent_total 120
leopard_chaos_byz_actions_total{attack="silence",kind="suppressed"} 42
leopard_request_stage_ns_bucket{stage="generation",le="1024"} 10
leopard_request_stage_ns_bucket{stage="generation",le="2048"} 30
leopard_request_stage_ns_bucket{stage="generation",le="+Inf"} 40
leopard_request_stage_ns_bucket{stage="agreement",le="1024"} 7
leopard_request_stage_ns_count{stage="generation"} 40
weird{path="a,b",q="x=y"} 1.5e3
"""

    def test_plain_and_labelled_series(self):
        m = stats.parse_prometheus(self.TEXT)
        self.assertEqual(stats.metric(m, "leopard_net_frames_sent_total"), 120)
        self.assertEqual(stats.metric(m, "leopard_chaos_byz_actions_total",
                                      attack="silence", kind="suppressed"), 42)
        self.assertEqual(stats.metric(m, "weird", path="a,b", q="x=y"), 1500)
        self.assertEqual(stats.metric(m, "absent_total"), 0)

    def test_histogram_buckets_filter_by_label(self):
        m = stats.parse_prometheus(self.TEXT)
        b = stats.histogram_buckets(m, "leopard_request_stage_ns", stage="generation")
        self.assertEqual(b, [(1024.0, 10), (2048.0, 30), (math.inf, 40)])

    def test_quantile_of_the_window_only(self):
        before = stats.parse_prometheus(self.TEXT)
        after = stats.parse_prometheus(self.TEXT.replace(
            'le="1024"} 10', 'le="1024"} 10').replace(
            'le="2048"} 30', 'le="2048"} 130').replace('le="+Inf"} 40', 'le="+Inf"} 140'))
        # The window added 100 observations, all in (1024, 2048].
        q = stats.histogram_quantile_diff([before], [after], "leopard_request_stage_ns", 0.5,
                                          stage="generation")
        self.assertAlmostEqual(q, 1024 + 1024 * 0.5)
        self.assertEqual(stats.histogram_quantile_diff([before], [before],
                                                       "leopard_request_stage_ns", 0.5,
                                                       stage="generation"), 0.0)

    def test_quantile_sums_endpoints(self):
        a = stats.parse_prometheus('h_bucket{le="10"} 0\nh_bucket{le="20"} 0\n')
        b1 = stats.parse_prometheus('h_bucket{le="10"} 50\nh_bucket{le="20"} 50\n')
        b2 = stats.parse_prometheus('h_bucket{le="10"} 0\nh_bucket{le="20"} 50\n')
        q = stats.histogram_quantile_diff([a, a], [b1, b2], "h", 0.75)
        self.assertAlmostEqual(q, 15.0)


if __name__ == "__main__":
    unittest.main()
