"""Tests for the across-run statistics of spread.py.

Run from the repository root: python3 -m unittest discover -s e2ebench
"""

import math
import unittest

from spread import parse_seeds, summarize


class SummarizeTest(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        med, q1, q3, spread = summarize(list(range(1, 11)))
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(spread, 1.0)

    def test_order_does_not_matter(self):
        self.assertEqual(summarize([3.0, 1.0, 2.0]), summarize([1.0, 2.0, 3.0]))

    def test_single_value_has_no_spread(self):
        self.assertEqual(summarize([4.0]), (4.0, 4.0, 4.0, 0.0))

    def test_zero_median_has_undefined_spread(self):
        self.assertTrue(math.isnan(summarize([0.0, 0.0, 0.0])[3]))

    def test_steady_values_have_small_spread(self):
        _, _, _, spread = summarize([100.0, 101.0, 99.0, 100.5, 99.5])
        self.assertLess(spread, 0.02)


class SeedsTest(unittest.TestCase):
    def test_ranges_and_lists(self):
        self.assertEqual(parse_seeds("1-4"), [1, 2, 3, 4])
        self.assertEqual(parse_seeds("7,9"), [7, 9])


if __name__ == "__main__":
    unittest.main()
