#!/usr/bin/env python3
"""Tests of the benchmark's own statistics, on fixed inputs.

    python3 perfbench/test_stats.py
"""

import unittest

import run
import stats

TEN = [10.0, 10.1, 9.9, 10.05, 9.95, 10.2, 9.8, 10.0, 10.1, 9.9]


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = list(range(1, 11))
        self.assertEqual(stats.quartiles(values), (2.75, 8.25))
        self.assertEqual(stats.iqr(values), 5.5)
        self.assertEqual(stats.median(values), 5.5)
        self.assertAlmostEqual(stats.relative_spread(values), 1.0)

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([3.0]), (3.0, 3.0))
        self.assertEqual(stats.relative_spread([3.0]), 0.0)

    def test_zero_median_has_no_relative_spread(self):
        self.assertEqual(stats.relative_spread([0.0, 0.0, 0.0]), 0.0)


class PairWins(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        parent = [10.0] * 10
        change = [9.0] * 8 + [10.0, 11.0]
        self.assertEqual(stats.pair_wins(parent, change, "lower"), (8, 1))
        self.assertEqual(stats.pair_wins(parent, change, "higher"), (1, 8))


class Verdict(unittest.TestCase):
    def test_improved_needs_nine_in_ten_and_more_than_the_iqr(self):
        change = [v - 1.0 for v in TEN]
        self.assertEqual(stats.verdict(TEN, change, "lower", 0.1),
                         "improved")
        self.assertEqual(stats.verdict(TEN, change, "higher", 0.2),
                         "worse")

    def test_eight_wins_in_ten_is_not_a_gain(self):
        change = [v - 1.0 for v in TEN[:8]] + [v + 0.01 for v in TEN[8:]]
        self.assertEqual(stats.verdict(TEN, change, "lower", 0.15),
                         "unchanged")

    def test_gain_within_the_parent_iqr_is_not_a_gain(self):
        change = [v - 0.05 for v in TEN]  # wins every pair, IQR is 0.15
        self.assertEqual(stats.verdict(TEN, change, "lower", 0.1),
                         "unchanged")

    def test_fewer_than_ten_pairs_are_unresolved(self):
        change = [v - 1.0 for v in TEN]
        self.assertEqual(stats.verdict(TEN[:9], change[:9], "lower", 0.2),
                         "unresolved")

    def test_worse_beyond_the_bound(self):
        change = [v * 1.2 for v in TEN]
        self.assertEqual(stats.verdict(TEN, change, "lower", 0.1), "worse")
        self.assertEqual(stats.verdict(TEN, change, "lower", 0.25),
                         "worse")  # still loses every pair by > IQR

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [5.0, 20.0, 8.0, 16.0, 10.0, 6.0, 18.0, 9.0, 12.0, 10.0]
        change = [v + 0.1 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.2),
                         "unresolved")

    def test_every_change_run_better_is_not_unresolved(self):
        noisy = [5.0, 20.0, 8.0, 16.0, 10.0, 6.0, 18.0, 9.0, 12.0, 10.0]
        change = [4.0] * 10  # beats every run, but by less than the IQR
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.2),
                         "unchanged")

    def test_row_mark_is_the_worst_verdict(self):
        self.assertEqual(stats.worst(["unchanged", "improved"]), "improved")
        self.assertEqual(
            stats.worst(["improved", "unresolved", "unchanged"]),
            "unresolved")
        self.assertEqual(stats.worst(["unresolved", "worse"]), "worse")
        self.assertEqual(stats.worst([]), "unchanged")


class LayerArithmetic(unittest.TestCase):
    def test_busy_ratio_is_cell_seconds_over_wall_times_jobs(self):
        self.assertEqual(stats.busy_ratio([1.0, 1.0, 1.0, 1.0], 2.0, 2), 1.0)
        self.assertEqual(stats.busy_ratio([1.0, 1.0], 2.0, 2), 0.5)
        self.assertEqual(stats.busy_ratio([], 0.0, 4), 0.0)
        self.assertEqual(stats.idle_seconds([1.0, 1.0], 2.0, 2), 2.0)

    def test_useful_ratio_is_commits_over_commits_plus_replays(self):
        self.assertEqual(stats.useful_ratio(80, 20), 0.8)
        self.assertEqual(stats.useful_ratio(5, 0), 1.0)
        self.assertEqual(stats.useful_ratio(0, 0), 0.0)

    def test_clock_reads_come_off_each_segment(self):
        span = {"calls": 10, "segments": 20, "seconds": 1e-6}
        self.assertAlmostEqual(stats.corrected_seconds(span, 2e-8), 6e-7)
        self.assertAlmostEqual(stats.per_call_ns(span, 2e-8), 60.0)
        self.assertEqual(stats.corrected_seconds(span, 1e-7), 0.0)
        self.assertEqual(
            stats.per_call_ns({"calls": 0, "segments": 0, "seconds": 0}, 0),
            0.0)


class EndToEnd(unittest.TestCase):
    def test_metrics_from_raw_driver_output(self):
        raw = {
            "config_mpki": {"tage-gsc": 4.0, "tage-gsc+i": 3.0,
                            "tage-gsc+i@sic.logsize=8": 2.0},
            "wall_s": [2.0, 4.0, 3.0],
            "cpu_s": [8.0, 9.0, 7.0],
            "conditionals_per_pass": 300,
            "setup_s": [0.5, 0.1, 0.2],
            "peak_rss_kb": [1024, 2048, 4096],
        }
        m = run.end_to_end(raw)
        self.assertEqual(m["wall_s"], 3.0)
        self.assertEqual(m["cpu_s"], 8.0)
        self.assertEqual(m["branches_per_s"], 100.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["mpki_mean"], 2.5)
        self.assertAlmostEqual(m["imli_gain_pct"], 37.5)


class CallShares(unittest.TestCase):
    def test_shares_sum_to_one_largest_first(self):
        values = {m: 0.0 for m in run.CALL_METRICS}
        values["predictors.restore_s"] = 3.0
        values["predictors.predict_s"] = 1.0
        shares = run.call_shares(values)
        self.assertEqual(shares[0], (0.75, "predictors.restore_s"))
        self.assertEqual(shares[1], (0.25, "predictors.predict_s"))
        self.assertAlmostEqual(sum(s for s, _ in shares), 1.0)


if __name__ == "__main__":
    unittest.main()
