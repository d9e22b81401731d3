"""Tests of the comparison verdicts (run: python3 -m unittest discover
-s perfbench -p '*_test.py')."""
import unittest

from compare import agree, quartiles, verdict


def paired(base, new):
    return list(zip(base, new))


class VerdictTest(unittest.TestCase):
    BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_same_runs_are_unchanged(self):
        self.assertEqual(
            verdict(self.BASE, self.BASE, "lower", 0.1,
                    paired(self.BASE, self.BASE)), "unchanged")

    def test_consistent_gain_beyond_the_spread_is_improved(self):
        new = [v * 0.9 for v in self.BASE]
        self.assertEqual(
            verdict(self.BASE, new, "lower", 0.1, paired(self.BASE, new)),
            "improved")
        # The same gain on a higher-is-better metric is a loss.
        self.assertEqual(
            verdict(self.BASE, new, "higher", 0.05, paired(self.BASE, new)),
            "worse")

    def test_gain_needs_nine_tenths_of_the_pairs(self):
        new = [v * 0.9 for v in self.BASE]
        new[0] = new[1] = 200  # two pairs lost: 8/10 wins
        self.assertEqual(
            verdict(self.BASE, new, "lower", 0.5, paired(self.BASE, new)),
            "unchanged")

    def test_gain_inside_the_base_spread_is_not_claimed(self):
        base = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        new = [v - 1 for v in base]  # wins every pair by a hair
        self.assertEqual(
            verdict(base, new, "lower", 0.25, paired(base, new)),
            "unchanged")

    def test_regression_beyond_the_bound_is_worse(self):
        new = [v * 1.2 for v in self.BASE]
        self.assertEqual(
            verdict(self.BASE, new, "lower", 0.1, paired(self.BASE, new)),
            "worse")
        self.assertEqual(
            verdict(self.BASE, new, "lower", 0.25, paired(self.BASE, new)),
            "unchanged")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        new = [v * 1.02 for v in noisy]
        self.assertEqual(
            verdict(noisy, new, "lower", 0.1, paired(noisy, new)),
            "unresolved")

    def test_every_new_run_better_overrides_a_wide_spread(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        new = [50, 55, 52, 58, 51, 54, 56, 53, 57, 59]
        # Not a gain claim (pairs are unmatched), but not unresolved either.
        self.assertEqual(verdict(noisy, new, "lower", 0.1, []), "unchanged")

    def test_self_agreement_needs_tight_sets_and_close_medians(self):
        self.assertTrue(agree(self.BASE, self.BASE, 0.1))
        shifted = [v * 1.2 for v in self.BASE]
        self.assertFalse(agree(self.BASE, shifted, 0.1))
        self.assertTrue(agree(self.BASE, shifted, 0.25))
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertFalse(agree(noisy, noisy, 0.1))

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))
        self.assertEqual(quartiles([7]), (7, 7, 7))


if __name__ == "__main__":
    unittest.main()
