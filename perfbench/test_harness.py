"""Tests of the benchmark's statistics and accounting rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

REF = harness.REFERENCE_LOOP_S


def span(name, ident, parent, start, end, pass_=1):
    return {"name": name, "id": ident, "parent": parent, "thread": 0,
            "pass": pass_, "start_ns": start, "end_ns": end, "submit_ns": start}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        with self.assertRaises(ValueError):
            harness.percentile(list(range(999)), 0.99)
        self.assertEqual(harness.percentile(list(range(1000)), 0.99), 989)

    def test_median_needs_one_sample(self):
        self.assertEqual(harness.percentile([7.0], 0.5), 7.0)

    def test_plain_run_with_too_few_answers_reports_no_p99(self):
        raw = {"workload": "decompose", "setup_s": [1.0], "setup_ref_s": [REF],
               "passes": [{"pass": 0, "traced": False, "wall_s": 1.0, "ref_s": REF,
                           "rss_mb": 1.0}],
               "samples": [{"name": "cpu.phase_full", "pass": 0, "ms": 1.0, "ok": True}] * 999}
        with self.assertRaises(ValueError):
            harness.end_to_end(raw)


class FailedFractionBase(unittest.TestCase):
    def test_busy_and_error_envelopes_are_attempted_and_failed(self):
        records = [
            {"status": "ok", "match": True},
            {"status": "busy", "match": False},
            {"status": "error", "match": False},
            {"status": "ok", "match": False},
            {"status": "io", "match": False},
        ]
        self.assertEqual(harness.outcome_counts(records), (5, 4))

    def test_served_run_counts_every_timed_request(self):
        raw = {"passes": [{"pass": 0}, {"pass": 1}], "failures": [],
               "requests": [{"pass": 0, "status": "ok", "match": True},
                            {"pass": 1, "status": "busy", "match": False},
                            {"pass": 1, "status": "ok", "match": True}]}
        attempted, failed, problems = harness.served_outcome(raw)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertTrue(problems)

    def test_batch_pass_with_a_wrong_digest_fails_all_its_calls(self):
        raw = {"failures": [], "checks": [{"name": "ladder", "ok": True}],
               "passes": [{"pass": 0, "traced": False, "digest": "a", "counts": {}},
                          {"pass": 1, "traced": True, "digest": "b", "counts": {}}],
               "samples": [{"pass": 0, "ok": True}, {"pass": 1, "ok": True},
                           {"pass": 1, "ok": True}, {"pass": -1, "ok": True}]}
        attempted, failed, _ = harness.batch_outcome(raw, expected_digest="a")
        self.assertEqual((attempted, failed), (4, 2))

    def test_traced_pass_with_other_counts_fails_all_its_calls(self):
        raw = {"failures": [], "checks": [],
               "passes": [{"pass": 0, "traced": False, "digest": "a", "counts": {"n": 1}},
                          {"pass": 1, "traced": True, "digest": "a", "counts": {"n": 2}}],
               "samples": [{"pass": 0, "ok": True}, {"pass": 1, "ok": True},
                           {"pass": 1, "ok": False}]}
        attempted, failed, problems = harness.batch_outcome(raw)
        self.assertEqual((attempted, failed), (3, 2))
        self.assertEqual(len(problems), 1)


class Breakdown(unittest.TestCase):
    def test_served_answers_split_into_warm_and_cold(self):
        raw = {"workload": "served_mix",
               "passes": [{"pass": 0, "traced": False, "ref_s": REF},
                          {"pass": 1, "traced": True, "ref_s": REF}],
               "requests": [{"pass": 0, "warm": False, "ms": 30.0},
                            {"pass": 0, "warm": True, "ms": 1.0},
                            {"pass": 0, "warm": True, "ms": 2.0},
                            {"pass": 0, "warm": True, "ms": 7.0},
                            {"pass": 1, "warm": False, "ms": 90.0}]}
        kinds, at = harness.breakdown(raw)
        self.assertEqual(kinds["cold"]["count"], 1)
        self.assertEqual(kinds["warm"]["count"], 3)
        self.assertEqual(kinds["warm"]["p50_ms"], 2.0)
        self.assertIsNone(kinds["warm"]["p99_ms"])
        self.assertAlmostEqual(kinds["cold"]["time_share"], 0.75)
        self.assertEqual(at, {"p50_ms": "warm"})


class HostSpeed(unittest.TestCase):
    def test_a_slower_host_moment_reads_the_same(self):
        # Pass 1 ran while the host was half as fast: its pass, its
        # answers and the set-up round beside it took twice as long,
        # and so did the reference loop.
        raw = {"workload": "decompose", "setup_s": [0.2, 0.4],
               "setup_ref_s": [REF, 2 * REF],
               "passes": [{"pass": 0, "traced": False, "wall_s": 1.0, "ref_s": REF,
                           "rss_mb": 1.0},
                          {"pass": 1, "traced": False, "wall_s": 2.0, "ref_s": 2 * REF,
                           "rss_mb": 1.0}],
               "samples": ([{"name": "cpu.phase_full", "pass": 0, "ms": 5.0, "ok": True}] * 500
                           + [{"name": "cpu.phase_full", "pass": 1, "ms": 10.0, "ok": True}] * 500)}
        m = harness.end_to_end(raw)
        self.assertAlmostEqual(m["wall_s"], 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["p50_ms"], 5.0)
        self.assertAlmostEqual(m["p99_ms"], 5.0)
        self.assertAlmostEqual(m["served_rps"], 500.0)


class SelfTime(unittest.TestCase):
    def test_parent_minus_union_of_children(self):
        # Overlapping children count once; a child's part outside the
        # parent counts not at all.
        self.assertEqual(
            harness.self_time((0, 100), [(10, 30), (20, 40), (90, 120)]), 60)

    def test_without_children_self_time_is_duration(self):
        self.assertEqual(harness.self_time((5, 9), []), 4)

    def test_sweep_self_time_excludes_its_provider_spans(self):
        ms = 1_000_000
        raw = {"workload": "traffic_sweep", "jobs": 1, "setup_counts": {},
               "passes": [
                   {"pass": 0, "traced": False, "wall_s": 1.0, "ref_s": REF,
                    "start_ns": 0, "end_ns": 1000 * ms, "counts": {}},
                   {"pass": 1, "traced": True, "wall_s": 1.0, "ref_s": REF,
                    "start_ns": 0, "end_ns": 1000 * ms, "counts": {}}],
               "spans": [span("exec.sweep", 1, 0, 0, 1000 * ms),
                         span("trace.block_stream", 2, 1, 0, 300 * ms),
                         span("trace.block_stream", 3, 1, 200 * ms, 400 * ms)]}
        m = harness.layer_metrics(
            raw, ["exec.sweep_s", "trace.block_stream_s", "tracing.span_coverage"])
        self.assertAlmostEqual(m["exec.sweep_s"], 0.6)
        self.assertAlmostEqual(m["trace.block_stream_s"], 0.5)
        self.assertAlmostEqual(m["tracing.span_coverage"], 1.0)


if __name__ == "__main__":
    unittest.main()
