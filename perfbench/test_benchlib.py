#!/usr/bin/env python3
"""Self-tests of the benchmark's own rules (no build, no daemon needed).

    python3 perfbench/test_benchlib.py
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(bl.percentile(values, 0.50), 500)
        self.assertEqual(bl.percentile(values, 0.99), 990)
        self.assertEqual(bl.percentile([5.0] * 20 + [1.0], 0.5, 0), 5.0)

    def test_ten_samples_beyond(self):
        # 1000 samples leave exactly ten beyond p99; 999 leave nine.
        bl.percentile(list(range(1000)), 0.99)
        with self.assertRaises(bl.InsufficientSamples):
            bl.percentile(list(range(999)), 0.99)
        with self.assertRaises(bl.InsufficientSamples):
            bl.percentile(list(range(15)), 0.50)
        self.assertEqual(bl.percentile(list(range(20)), 0.50), 9)
        with self.assertRaises(bl.InsufficientSamples):
            bl.percentile([], 0.50)

    def test_min_samples(self):
        self.assertEqual(bl.min_samples(0.99), 1000)
        self.assertEqual(bl.min_samples(0.50), 20)


class FailureRuleTest(unittest.TestCase):
    def test_failed_requests_count_at_the_timeout(self):
        self.assertEqual(bl.latency_ms(True, 0.002), 2.0)
        self.assertEqual(bl.latency_ms(False, 0.002),
                         bl.REQUEST_TIMEOUT_S * 1e3)
        self.assertEqual(bl.latency_ms(False, 0.0, timeout_s=1.5), 1500.0)

    def test_tally(self):
        t = run.Tally()
        for _ in range(985):
            t.record(True, 0.001)
        for _ in range(10):
            t.record(False, 0.0001, "overloaded")
        for _ in range(5):
            t.record(True, 0.001, mismatch=True)
        self.assertEqual((t.attempted, t.failed, t.mismatched), (1000, 15, 5))
        lat = sorted(t.lat_ms)
        # Fifteen failures sit at the timeout, so p99 is the timeout.
        self.assertEqual(bl.percentile(lat, 0.99), bl.REQUEST_TIMEOUT_S * 1e3)
        self.assertEqual(bl.percentile(lat, 0.50), 1.0)
        self.assertEqual(bl.fail_share(t.attempted, t.failed), 0.015)

    def test_fail_share(self):
        self.assertEqual(bl.fail_share(10, 3), 0.3)
        self.assertEqual(bl.fail_share(4, 0), 0.0)
        with self.assertRaises(ValueError):
            bl.fail_share(0, 0)
        with self.assertRaises(ValueError):
            bl.fail_share(3, 4)


class PointTallyTest(unittest.TestCase):
    def row(self, i, ok=True, mean=2.0, trust="certified"):
        return {"i": i, "ok": ok, "lat_s": 0.001, "mean": mean,
                "p_empty": 0.5, "tail500": 0.0, "trust": trust}

    def test_a_point_fails_at_most_once(self):
        rows = [self.row(0), self.row(1), self.row(2, trust="suspect"),
                self.row(3, ok=False)]
        after = [{"i": i, "w1_mean": 9.0} for i in range(4)]
        after.append({"solves": 4, "fallbacks": 0})
        t, extra = run.point_tally(rows, after)
        # Point 0 and 1 fail their width-1 check; 2 and 3 had failed.
        self.assertEqual((t.attempted, t.failed, t.mismatched), (4, 4, 3))
        self.assertEqual((extra["w1_mismatch"], extra["solves"]), (4, 4))

    def test_width1_match_keeps_the_point(self):
        t, _ = run.point_tally([self.row(0)], [{"i": 0, "w1_mean": 2.0}])
        self.assertEqual((t.failed, t.mismatched), (0, 0))


class WindowTest(unittest.TestCase):
    def test_least_stolen_windows_are_reported(self):
        wins = [{"steal": st, "n": i}
                for i, st in enumerate((0.2, 0.01, 0.05, 0.0, 0.1))]
        self.assertEqual([w["n"] for w in bl.calmest(wins, 2)], [1, 3])
        self.assertEqual([w["n"] for w in bl.calmest(wins, 4)], [1, 2, 3, 4])

    def test_report_count(self):
        self.assertEqual(bl.report_count(30), 10)  # a third
        self.assertEqual(bl.report_count(31), 11)  # rounded up
        self.assertEqual(bl.report_count(30, least=17), 17)
        self.assertEqual(bl.report_count(12, least=17), 12)  # all there are


class SeedTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        self.assertEqual(bl.warm_requests(7, 3), bl.warm_requests(7, 3))
        self.assertNotEqual(bl.warm_requests(7, 3), bl.warm_requests(8, 3))
        a = bl.serve_requests(7, 100.0, 5.0, 2000)
        self.assertEqual(a, bl.serve_requests(7, 100.0, 5.0, 2000))
        self.assertNotEqual(a, bl.serve_requests(8, 100.0, 5.0, 2000))

    def test_same_seed_same_points(self):
        self.assertEqual(bl.cold_points(3, 4), bl.cold_points(3, 4))
        self.assertNotEqual(bl.cold_points(3, 4), bl.cold_points(4, 4))
        self.assertEqual(bl.companion_points(5), bl.companion_points(5))

    def test_blocks_keep_their_mix(self):
        lines = bl.warm_requests(11, 4)
        self.assertEqual(len(lines), 4 * bl.BLOCK_SIZE)
        blocks = [sorted(json.loads(x)["op"] for x in
                         lines[i:i + bl.BLOCK_SIZE])
                  for i in range(0, len(lines), bl.BLOCK_SIZE)]
        self.assertTrue(all(b == blocks[0] for b in blocks))

    def test_points_are_distinct_and_warm_requests_hit(self):
        points = [p for p in bl.cold_points(1, 6) if not p.get("warmup")]
        keys = {json.dumps(p, sort_keys=True) for p in points}
        self.assertEqual(len(keys), len(points))
        warm = {json.dumps(m, sort_keys=True)
                for _, m in bl.working_set().values()}
        for line in bl.warm_requests(2, 2):
            model = {k: v for k, v in json.loads(line).items()
                     if k in ("repair", "n", "tpt_phases", "rho")}
            self.assertIn(json.dumps(model, sort_keys=True), warm)

    def test_blowup_point(self):
        self.assertAlmostEqual(bl.blowup_rhos(2)[0], 0.6087, places=4)


class TraceTest(unittest.TestCase):
    def test_self_time(self):
        events = [bl.chrome_event("a", 0, 100, 1, 1, 0, "r"),
                  bl.chrome_event("b", 10, 30, 1, 2, 1, "r"),
                  bl.chrome_event("b", 50, 20, 1, 3, 1, "r"),
                  bl.chrome_event("a", 0, 7, 2, 1, 0, "s")]
        self.assertEqual(bl.self_times_us(events), {"a": 57.0, "b": 50.0})

    def test_strip_request_ids(self):
        reply = b'{"id":"s1","op":"mean","qid":"q-9-3","ok":true,"value":1.5}'
        self.assertEqual(run.canonical_answer(reply),
                         b'{"op":"mean","ok":true,"value":1.5}')

    def test_points_per_s(self):
        fams = {"ld/0": [0.1, 0.3, 0.2], "ld/1": [0.3], "small/0": [9.0]}
        self.assertAlmostEqual(bl.points_per_s(fams, "ld"), 2 / 0.5)


if __name__ == "__main__":
    unittest.main()
