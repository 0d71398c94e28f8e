"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_is_exact_at_round_counts(self):
        # 0.9 * 100 is 90.00000000000001 in floating point; the rank must
        # still be 90, leaving exactly ten samples beyond p90.
        self.assertEqual(metrics.nearest_rank(100, 90), 90)
        self.assertEqual(metrics.samples_beyond(100, 90), 10)
        self.assertEqual(metrics.nearest_rank(1000, 99.9), 999)

    def test_highest_supported_needs_ten_beyond(self):
        self.assertIsNone(metrics.highest_supported(19))
        self.assertEqual(metrics.highest_supported(20), 50)
        self.assertEqual(metrics.highest_supported(99), 50)
        self.assertEqual(metrics.highest_supported(100), 90)
        self.assertEqual(metrics.highest_supported(999), 90)
        self.assertEqual(metrics.highest_supported(1000), 99)
        self.assertEqual(metrics.highest_supported(10000), 99.9)

    def test_percentile_uses_requested_when_supported(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), (50.0, 50, 100))
        self.assertEqual(metrics.percentile(values, 90), (90.0, 90, 100))

    def test_percentile_falls_back_to_highest_supported(self):
        values = [float(v) for v in range(1, 201)]
        value, used, n = metrics.percentile(values, 99)
        self.assertEqual((used, n), (90, 200))
        self.assertEqual(value, 180.0)

    def test_percentile_of_too_few_samples(self):
        self.assertEqual(metrics.percentile([], 50), (0.0, None, 0))
        value, used, n = metrics.percentile([3.0, 1.0, 2.0], 50)
        self.assertEqual((value, used, n), (2.0, None, 3))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(metrics.percentile(values, 50)[0], 3.0)


class Stamps(unittest.TestCase):
    def test_ttft_is_first_stamp_and_gaps_are_successive(self):
        stamps = [[2.0, 3.5, 6.0], [1.0], [], [4.0, 4.25]]
        ttft, gaps = metrics.ttft_and_gaps(stamps)
        self.assertEqual(ttft, [2.0, 1.0, 4.0])
        self.assertEqual(gaps, [1.5, 2.5, 0.25])

    def test_gaps_never_cross_requests(self):
        ttft, gaps = metrics.ttft_and_gaps([[1.0, 2.0], [10.0, 11.0]])
        self.assertEqual(gaps, [1.0, 1.0])


class Ratios(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        self.assertEqual(metrics.ratio(3, 4), (0.75, 4))

    def test_empty_base_reads_zero(self):
        self.assertEqual(metrics.ratio(0, 0), (0.0, 0))


def raw_decoder_record(workload="decode_batch"):
    pass_ = {
        "wall_ms": 2000.0,
        "stamps_ms": [[10.0 + i, 12.0 + i, 15.0 + i] for i in range(120)],
        "request_ms": [float(i) for i in range(120)],
        "latency_rounds": [float(i) for i in range(120)],
        "served_rows": 1000,
        "gen_tokens": 360,
        "slo_ok": 90,
        "sent": 120,
        "exact": {"digest": "x"},
    }
    return {
        "workload": workload,
        "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_kb": 2048,
        "table1_err_pct": 3.5,
        "passes": [pass_, dict(pass_, wall_ms=4000.0)],
    }


class EndToEnd(unittest.TestCase):
    def test_every_metric_is_reported_with_its_unit(self):
        out = metrics.end_to_end(raw_decoder_record())
        self.assertEqual(list(out), [name for name, _ in metrics.END_TO_END])
        self.assertEqual(out["setup_s"][:2], (0.2, "s"))
        self.assertEqual(out["peak_rss_mb"][0], 2.0)
        # median over passes of 1000 rows / 2 s and / 4 s
        self.assertEqual(out["tok_s"][0], 375.0)
        self.assertEqual(out["ttft_ms_p50"][0], 69.0)
        self.assertEqual(out["slo_ok_ratio"][0], 0.75)
        # 240 gaps per pass, 2 ms and 3 ms each
        self.assertEqual(out["tpot_ms_p50"][0], 2.0)
        self.assertIn("p90 of n=240", out["tpot_ms_p99"][2])

    def test_percentiles_are_per_pass_medians(self):
        raw = raw_decoder_record()
        slow = dict(raw["passes"][0])
        slow["request_ms"] = [2 * ms for ms in slow["request_ms"]]
        raw["passes"].append(slow)
        # per-pass p50s are 59, 59 and 118: the slow pass does not move it
        self.assertEqual(metrics.end_to_end(raw)["request_ms_p50"][0], 59.0)

    def test_encoder_time_per_token_is_per_output_row(self):
        raw = raw_decoder_record("encoder_batch")
        for p in raw["passes"]:
            p["rows_per_request"] = 10
        out = metrics.end_to_end(raw)
        self.assertEqual(out["tpot_ms_p50"][0], 5.9)

    def test_exact_part_must_repeat(self):
        raw = raw_decoder_record()
        self.assertEqual(metrics.check_exact_repeats(raw["passes"]), [])
        raw["passes"][1] = dict(raw["passes"][1], exact={"digest": "y"})
        self.assertEqual(len(metrics.check_exact_repeats(raw["passes"])), 1)


class PerLayer(unittest.TestCase):
    def test_not_applicable_metrics_read_zero(self):
        raw = {
            "workload": "encoder_batch",
            "layers": {name: 1.0 for name in (
                "qgemm.m1.gmac_s", "qgemm.m1_ffn.gmac_s", "qgemm.m16.gmac_s",
                "qgemm.m128.gmac_s", "session.busy_ns", "stage.busy_ns",
                "plain.wall_ns")},
            "layers_exact": {"engine.macs": 8.0, "served_tokens": 4.0,
                             "model.cycles": 2.0, "model.encoder_ms": 1.5},
            "samples": {},
        }
        raw["layers"]["traced.wall_ns"] = 1.25
        out = metrics.per_layer(raw)
        self.assertEqual(len(out), len(metrics.PER_LAYER))
        self.assertEqual(out["engine.macs_per_tok"][0], 2.0)
        self.assertEqual(out["trace.overhead_share"][0], 0.25)
        self.assertEqual(out["prefix.hit_ratio"][:2], (0.0, "ratio"))
        self.assertIn("n/a", out["traffic.preemptions"][2])

    def test_replay_totals_are_not_applicable_on_the_storm(self):
        keys = set()
        for _, _, _, kind, source in metrics.PER_LAYER:
            if kind == "value":
                keys.add(source)
            elif kind != "pct":
                keys.update(source)
        raw = {"workload": "prefix_storm", "layers": {k: 2.0 for k in keys},
               "samples": {}}
        out = metrics.per_layer(raw)
        for name in ("engine.macs_per_tok", "engine.gmac_s", "model.cycles_per_tok",
                     "kv.span_runs_per_step", "traffic.overhead_share"):
            self.assertEqual(out[name][0], 0.0)
            self.assertIn("does not repeat the engine's schedule", out[name][2])
        self.assertEqual(out["prefix.hit_ratio"][0], 1.0)

    def test_missing_value_is_refused(self):
        with self.assertRaises(metrics.BenchError):
            metrics.per_layer({"workload": "decode_batch", "layers": {}})


if __name__ == "__main__":
    unittest.main()
