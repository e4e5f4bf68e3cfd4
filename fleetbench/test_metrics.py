"""Checks of the benchmark's own arithmetic on synthetic inputs.

Run from the repository root: python3 -m unittest discover -s fleetbench
"""

import math
import unittest

import metrics as m


class PercentileTest(unittest.TestCase):
    def test_p95_of_200_leaves_exactly_ten_beyond(self):
        values = list(range(1, 201))
        value, tail = m.percentile(values, 0.95)
        self.assertEqual(value, 190)
        self.assertEqual(tail, 10)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_refuses_percentile_with_too_few_beyond(self):
        with self.assertRaises(ValueError):
            m.percentile(range(199), 0.95)
        with self.assertRaises(ValueError):
            m.percentile([], 0.5)

    def test_order_of_input_does_not_matter(self):
        values = [((i * 7919) % 1000) / 10.0 for i in range(1000)]
        self.assertEqual(m.percentile(values, 0.95),
                         m.percentile(sorted(values), 0.95))

    def test_slow_share_counts_blocks_beyond_twice_the_median(self):
        blocks = [1.0] * 95 + [2.0] * 2 + [2.5] * 3
        self.assertAlmostEqual(m.slow_share(blocks), 0.03)


class LaneIdleTest(unittest.TestCase):
    def test_fully_busy_lanes_are_never_idle(self):
        self.assertAlmostEqual(m.lane_idle_share(20.0, 10.0, 2), 0.0)

    def test_one_of_two_lanes_asleep_is_half_idle(self):
        self.assertAlmostEqual(m.lane_idle_share(10.0, 10.0, 2), 0.5)

    def test_rejects_empty_region(self):
        with self.assertRaises(ValueError):
            m.lane_idle_share(1.0, 0.0, 2)


class LedgerTest(unittest.TestCase):
    def test_parts_that_sum_to_the_total_close_the_ledger(self):
        self.assertAlmostEqual(m.unaccounted_share(1000.0, [600.0, 400.0]),
                               0.0)

    def test_missing_layer_shows_as_unaccounted(self):
        self.assertAlmostEqual(m.unaccounted_share(1000.0, [600.0, 300.0]),
                               0.1)

    def test_double_counting_shows_as_negative(self):
        self.assertLess(m.unaccounted_share(1000.0, [700.0, 400.0]), 0.0)

    def test_weights_apply_per_profile(self):
        entries = [{"profile": 0, "x": 10.0}, {"profile": 1, "x": 30.0}]
        self.assertAlmostEqual(
            m.weighted(entries, [0.75, 0.25], lambda e: e["x"]), 15.0)


class ArenaSlopeTest(unittest.TestCase):
    def test_linear_growth_is_recovered(self):
        points = [(t, 1850.0 + 1100.0 * t) for t in (0.0, 1.5, 3.0, 7.25)]
        self.assertAlmostEqual(m.slope(points), 1100.0)

    def test_stationary_arena_has_zero_slope(self):
        points = [(float(t), 5000.0 + (40.0 if t % 2 else -40.0))
                  for t in range(20)]
        self.assertAlmostEqual(m.slope(points), 0.0, delta=5.0)

    def test_slope_needs_two_distinct_times(self):
        with self.assertRaises(ValueError):
            m.slope([(1.0, 2.0)])
        with self.assertRaises(ValueError):
            m.slope([(1.0, 2.0), (1.0, 3.0)])


class SpreadTest(unittest.TestCase):
    def test_iqr_share_uses_python_quartiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        self.assertAlmostEqual(m.iqr_share(values), (17.25 - 11.75) / 14.5)


class QualityTest(unittest.TestCase):
    def test_cancellation_is_the_db_of_the_mean_energy_ratio(self):
        sessions = [{"dist_energy": 10.0, "res_energy": 1.0},
                    {"dist_energy": 10.0, "res_energy": 1e8}]
        self.assertAlmostEqual(m.cancellation_db(sessions),
                               10.0 * math.log10((10.0 + 1e-7) / 2.0))

    def test_sessions_without_scored_span_are_skipped(self):
        sessions = [{"dist_energy": 0.0, "res_energy": 0.0},
                    {"dist_energy": 4.0, "res_energy": 1.0}]
        self.assertAlmostEqual(m.cancellation_db(sessions),
                               10.0 * math.log10(4.0))

    def test_judging_uses_the_never_louder_margin(self):
        sessions = [{"windows": 3, "worst_excess_db": 3.0},
                    {"windows": 3, "worst_excess_db": 3.01},
                    {"windows": 0, "worst_excess_db": 99.0}]
        self.assertEqual(m.judge_sessions(sessions), (2, 1))


if __name__ == "__main__":
    unittest.main()
