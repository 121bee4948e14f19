#!/usr/bin/env python3
"""Self-tests of the benchmark's own code: statistics, open-loop
accounting, request schedule and spec parsing.

    python3 perfbench/test_perfbench.py
"""

import copy
import math
import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan  # noqa: E402
import spec as specmod  # noqa: E402
import stats  # noqa: E402

SPEC = specmod.load(os.path.join(HERE, "workloads.json"))


class SummaryTest(unittest.TestCase):
    def test_median_and_quartiles_of_known_sample(self):
        s = stats.summary([7, 1, 3, 5, 9, 11, 13])
        self.assertEqual(s["n"], 7)
        self.assertEqual(s["median"], 7)
        # statistics.quantiles(n=4), the 'exclusive' method: positions
        # (n+1)/4 = 2 and 3(n+1)/4 = 6 of the sorted sample.
        self.assertEqual((s["q1"], s["q3"]), (3, 11))
        self.assertEqual((s["min"], s["max"]), (1, 13))

    def test_even_count_interpolates(self):
        s = stats.summary([4, 1, 3, 2])
        self.assertEqual(s["median"], 2.5)
        self.assertEqual((s["q1"], s["q3"]), (1.25, 3.75))

    def test_matches_statistics_module(self):
        values = [0.3 * i * i - 2 * i for i in range(37)]
        s = stats.summary(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((s["median"], s["q1"], s["q3"]),
                         (statistics.median(values), q1, q3))

    def test_single_sample_has_degenerate_quartiles(self):
        self.assertEqual(stats.summary([2.5])["q1"], 2.5)
        self.assertEqual(stats.summary([2.5])["q3"], 2.5)

    def test_empty_sample_refused(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.summary([])


class NearestRankTest(unittest.TestCase):
    def test_p95_needs_two_hundred_samples(self):
        self.assertEqual(stats.min_samples(0.95), 200)
        self.assertEqual(stats.min_samples(0.99), 1000)
        with self.assertRaises(stats.TooFewSamples):
            stats.nearest_rank(range(199), 0.95)

    def test_p95_is_the_nearest_rank(self):
        values = list(range(1, 201))  # 1..200
        self.assertEqual(stats.nearest_rank(reversed(values), 0.95), 190)
        self.assertEqual(stats.nearest_rank(range(1, 1001), 0.95), 950)
        self.assertEqual(stats.nearest_rank(range(1, 202), 0.95), 191)

    def test_failures_push_the_percentile_to_infinity(self):
        values = [1.0] * 189 + [math.inf] * 11
        self.assertEqual(stats.nearest_rank(values, 0.95), math.inf)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # The generator stalled: requests due at 1 and 2 went out at 5.
        rows = [(0.0, 0.0, 1.0, True), (1.0, 5.0, 6.0, True), (2.0, 5.0, 7.5, True)]
        out = stats.open_loop(rows)
        self.assertEqual([lat for lat, _ in out], [1.0, 5.0, 5.5])
        self.assertEqual([late for _, late in out], [0.0, 4.0, 3.0])

    def test_failed_or_unanswered_requests_are_missing(self):
        rows = [(0.0, 0.1, 2.0, False), (1.0, 1.0, None, False), (2.0, None, None, False)]
        out = stats.open_loop(rows)
        self.assertTrue(all(lat == math.inf for lat, _ in out))
        self.assertIsNone(out[2][1])

    def test_schedule_is_a_constant_rate(self):
        reqs = plan.requests(SPEC, "store_rw", 5, 4)
        interval = 1000.0 / SPEC["workloads"]["store_rw"]["rate_per_s"]
        for i, r in enumerate(reqs):
            self.assertAlmostEqual(r["due_ms"], i * interval)


class ScheduleTest(unittest.TestCase):
    def setUp(self):
        self.reqs = plan.requests(SPEC, "store_rw", 9, 4)

    def test_same_seed_same_inputs(self):
        self.assertEqual(self.reqs, plan.requests(SPEC, "store_rw", 9, 4))
        self.assertNotEqual(self.reqs, plan.requests(SPEC, "store_rw", 10, 4))

    def test_method_and_repeat_counts_are_exact(self):
        n = SPEC["serve"]["requests"]
        counts = plan.exact_counts({m: e["weight"] for m, e in SPEC["serve"]["mix"].items()}, n)
        self.assertEqual(sum(counts.values()), n)
        for method, count in counts.items():
            mine = [r for r in self.reqs if r["frame"]["method"] == method]
            self.assertEqual(len(mine), count)
            repeats = sum(r["repeat_of"] >= 0 for r in mine)
            self.assertEqual(repeats, round(SPEC["serve"]["repeat_share"] * count))

    def test_repeats_copy_an_old_enough_request_of_the_same_tenant(self):
        age = SPEC["serve"]["repeat_min_age_ms"]
        for r in self.reqs:
            j = r["repeat_of"]
            if j < 0:
                continue
            first = self.reqs[j]
            self.assertEqual(first["repeat_of"], -1)
            self.assertLessEqual(first["due_ms"], r["due_ms"] - age)
            for key in ("tenant", "method", "params"):
                self.assertEqual(first["frame"][key], r["frame"][key])
            self.assertEqual(first["conn"], r["conn"])

    def test_fresh_requests_are_distinct(self):
        keys = [(r["frame"]["tenant"], r["frame"]["method"],
                 repr(sorted(r["frame"]["params"].items())))
                for r in self.reqs if r["repeat_of"] < 0]
        self.assertEqual(len(keys), len(set(keys)))

    def test_connections_stay_within_the_cap(self):
        self.assertTrue(all(0 <= r["conn"] < 4 for r in self.reqs))
        self.assertTrue(all(r["conn"] == 0 for r in plan.requests(SPEC, "store_rw", 9, 1)))


class SpecTest(unittest.TestCase):
    def broken(self, edit):
        doc = copy.deepcopy(SPEC)
        edit(doc)
        with self.assertRaises(specmod.SpecError):
            specmod.parse(doc)

    def test_checked_in_spec_parses(self):
        self.assertIn("store_rw", SPEC["workloads"])

    def test_unknown_method_rejected(self):
        self.broken(lambda d: d["serve"]["mix"].update({"reboot": {"weight": 1}}))

    def test_unknown_tuner_rejected(self):
        self.broken(lambda d: d["serve"]["mix"]["tune"]["tuners"].update({"magic": 1}))

    def test_non_positive_weights_rejected(self):
        self.broken(lambda d: d["serve"]["mix"]["predict"].update({"weight": 0}))
        self.broken(lambda d: d["serve"]["mix"]["dta"].update({"weight": -0.5}))
        self.broken(lambda d: d["serve"]["mix"]["tune"]["tuners"].update({"dta": 0}))

    def test_non_positive_rate_rejected(self):
        self.broken(lambda d: d["workloads"]["store_rw"].update({"rate_per_s": 0}))
        self.broken(lambda d: d["workloads"]["store_off"].update({"rate_per_s": -1}))
        self.broken(lambda d: d["workloads"]["store_off"].update({"rate_per_s": "fast"}))

    def test_unknown_store_mode_rejected(self):
        self.broken(lambda d: d["workloads"]["store_off"].update({"daemon_store": "ro"}))

    def test_thread_counts(self):
        self.assertEqual(specmod.resolve_threads("nproc", 4, "x"), 4)
        self.assertEqual(specmod.resolve_threads("nproc-2", 4, "x"), 2)
        self.assertEqual(specmod.resolve_threads("nproc-2", 2, "x"), 1)
        self.assertEqual(specmod.resolve_threads(3, 4, "x"), 3)
        for bad in (0, "all", "nproc+1", "nproc-x", True):
            with self.assertRaises(specmod.SpecError):
                specmod.resolve_threads(bad, 4, "x")


if __name__ == "__main__":
    unittest.main()
