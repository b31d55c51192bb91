"""Tests for the three-way comparators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    BootstrapComparator,
    Comparison,
    IntervalOverlapComparator,
    MannWhitneyComparator,
    MeanComparator,
    MedianComparator,
    MinimumComparator,
)


def _sample(rng: np.random.Generator, mean: float, std: float, n: int = 60) -> np.ndarray:
    return np.abs(rng.normal(mean, std, size=n))


ALL_COMPARATORS = [
    BootstrapComparator(seed=1),
    MeanComparator(rel_tolerance=0.02),
    MedianComparator(rel_tolerance=0.02),
    MinimumComparator(rel_tolerance=0.02),
    MannWhitneyComparator(),
    IntervalOverlapComparator(seed=1),
]


@pytest.mark.parametrize("comparator", ALL_COMPARATORS, ids=lambda c: type(c).__name__ + getattr(c, "name", ""))
class TestCommonComparatorBehaviour:
    def test_clear_separation_is_better(self, rng, comparator):
        fast = _sample(rng, 1.0, 0.02)
        slow = _sample(rng, 5.0, 0.1)
        assert comparator.compare(fast, slow) is Comparison.BETTER
        assert comparator.compare(slow, fast) is Comparison.WORSE

    def test_identical_data_is_equivalent(self, rng, comparator):
        data = _sample(rng, 2.0, 0.1)
        assert comparator.compare(data, data.copy()) is Comparison.EQUIVALENT

    def test_rejects_empty_arrays(self, comparator):
        with pytest.raises(ValueError):
            comparator.compare(np.array([]), np.array([1.0]))

    def test_rejects_nan(self, comparator):
        with pytest.raises(ValueError):
            comparator.compare(np.array([1.0, np.nan]), np.array([1.0, 2.0]))


class TestBootstrapComparator:
    def test_overlapping_distributions_are_equivalent(self, rng):
        comparator = BootstrapComparator(seed=3)
        a = _sample(rng, 2.0, 0.3, n=100)
        b = _sample(rng, 2.02, 0.3, n=100)
        assert comparator.compare(a, b) is Comparison.EQUIVALENT

    def test_win_fraction_antisymmetry(self, rng):
        comparator = BootstrapComparator(seed=5)
        a = _sample(rng, 2.0, 0.3)
        b = _sample(rng, 2.2, 0.3)
        assert comparator.win_fraction(a, b) == pytest.approx(1.0 - comparator.win_fraction(b, a))

    def test_comparison_antisymmetry(self, rng):
        comparator = BootstrapComparator(seed=5)
        for _ in range(10):
            a = _sample(rng, rng.uniform(1, 3), 0.3)
            b = _sample(rng, rng.uniform(1, 3), 0.3)
            assert comparator.compare(a, b) is comparator.compare(b, a).flipped()

    def test_deterministic_across_calls(self, rng):
        comparator = BootstrapComparator(seed=11)
        a = _sample(rng, 2.0, 0.4)
        b = _sample(rng, 2.1, 0.4)
        assert comparator.compare(a, b) is comparator.compare(a, b)
        assert comparator.win_fraction(a, b) == comparator.win_fraction(a, b)

    def test_higher_is_better_mode(self, rng):
        comparator = BootstrapComparator(seed=2, lower_is_better=False)
        high = _sample(rng, 10.0, 0.1)
        low = _sample(rng, 1.0, 0.1)
        assert comparator.compare(high, low) is Comparison.BETTER

    def test_min_relative_difference_widens_equivalence(self, rng):
        a = _sample(rng, 2.0, 0.01)
        b = _sample(rng, 2.1, 0.01)
        strict = BootstrapComparator(seed=4, min_relative_difference=0.0)
        loose = BootstrapComparator(seed=4, min_relative_difference=0.2)
        assert strict.compare(a, b) is Comparison.BETTER
        assert loose.compare(a, b) is Comparison.EQUIVALENT

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            BootstrapComparator(equivalence_margin=0.7)
        with pytest.raises(ValueError):
            BootstrapComparator(quantiles=())
        with pytest.raises(ValueError):
            BootstrapComparator(n_resamples=0)
        with pytest.raises(ValueError):
            BootstrapComparator(min_relative_difference=-0.1)

    @pytest.mark.parametrize("quantiles", [(0.25, float("nan")), (float("nan"),)])
    def test_nan_quantile_level_rejected_at_construction(self, quantiles):
        with pytest.raises(ValueError, match="quantiles"):
            BootstrapComparator(quantiles=quantiles)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_min_relative_difference_rejected(self, value):
        """NaN used to call every pair equivalent: no level could clear the tolerance."""
        with pytest.raises(ValueError, match="min_relative_difference"):
            BootstrapComparator(min_relative_difference=value)

    @given(
        shift=st.floats(min_value=0.0, max_value=3.0),
        scale=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry_property(self, shift, scale):
        rng = np.random.default_rng(17)
        comparator = BootstrapComparator(seed=17, n_resamples=80)
        a = np.abs(rng.normal(2.0, scale, size=40))
        b = np.abs(rng.normal(2.0 + shift, scale, size=40))
        assert comparator.compare(a, b) is comparator.compare(b, a).flipped()


class TestSingleStatisticComparators:
    def test_mean_comparator_tolerance(self):
        a = np.array([1.00, 1.02, 0.98])
        b = np.array([1.01, 1.03, 0.99])
        assert MeanComparator(rel_tolerance=0.05).compare(a, b) is Comparison.EQUIVALENT
        assert MeanComparator(rel_tolerance=0.0).compare(a, b) is Comparison.BETTER

    def test_minimum_comparator_uses_best_run(self):
        a = np.array([5.0, 1.0, 5.0])
        b = np.array([2.0, 2.0, 2.0])
        assert MinimumComparator().compare(a, b) is Comparison.BETTER

    def test_median_comparator_ignores_outliers(self):
        a = np.array([1.0, 1.0, 1.0, 100.0])
        b = np.array([2.0, 2.0, 2.0, 2.0])
        assert MedianComparator().compare(a, b) is Comparison.BETTER

    def test_zero_measurements_are_equivalent(self):
        assert MeanComparator().compare(np.zeros(3), np.zeros(3)) is Comparison.EQUIVALENT

    def test_higher_is_better(self):
        a = np.array([10.0, 11.0])
        b = np.array([1.0, 2.0])
        comparator = MeanComparator()
        comparator.lower_is_better = False
        assert comparator.compare(a, b) is Comparison.BETTER


class TestToleranceValidation:
    """NaN or out-of-range tolerances used to be accepted and then compared
    silently wrong (a NaN tolerance never holds, so tiny differences won)."""

    @pytest.mark.parametrize("factory", [MeanComparator, MedianComparator, MinimumComparator])
    @pytest.mark.parametrize("tolerance", [float("nan"), -0.01, float("inf")])
    def test_rel_tolerance_rejected(self, factory, tolerance):
        with pytest.raises(ValueError, match="rel_tolerance"):
            factory(rel_tolerance=tolerance)

    @pytest.mark.parametrize("alpha", [float("nan"), 0.0, 1.0, 2.0, -0.05])
    def test_mann_whitney_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            MannWhitneyComparator(alpha=alpha)

    @pytest.mark.parametrize("tolerance", [0.0, 0.05, 3.0])
    def test_valid_rel_tolerance_accepted(self, tolerance):
        assert MeanComparator(rel_tolerance=tolerance).rel_tolerance == tolerance


class TestMannWhitneyComparator:
    def test_small_shift_large_noise_is_equivalent(self, rng):
        a = rng.normal(2.0, 1.0, size=30)
        b = rng.normal(2.05, 1.0, size=30)
        assert MannWhitneyComparator().compare(a, b) is Comparison.EQUIVALENT

    def test_alpha_controls_sensitivity(self, rng):
        a = rng.normal(2.0, 0.5, size=200)
        b = rng.normal(2.2, 0.5, size=200)
        sensitive = MannWhitneyComparator(alpha=0.2)
        assert sensitive.compare(a, b) is Comparison.BETTER

    def test_significant_test_with_tied_medians_is_equivalent_and_antisymmetric(self):
        """Hugely different distributions with identical medians give no direction:
        both orderings must agree (the median tie-break used to claim WORSE twice)."""
        a = np.array([-10.0] * 50 + [0.0] + [0.5] * 50)
        b = np.array([-0.5] * 50 + [0.0] + [10.0] * 50)
        comparator = MannWhitneyComparator()
        assert comparator.compare(a, b) is Comparison.EQUIVALENT
        assert comparator.compare(b, a) is Comparison.EQUIVALENT


class TestIntervalOverlapComparator:
    def test_custom_statistic(self, rng):
        comparator = IntervalOverlapComparator(
            statistic=lambda m: np.mean(m, axis=-1), seed=3
        )
        fast = _sample(rng, 1.0, 0.05)
        slow = _sample(rng, 3.0, 0.05)
        assert comparator.compare(fast, slow) is Comparison.BETTER

    def test_repeated_comparisons_agree(self, rng):
        """The per-pair generator depends only on the data and the seed."""
        comparator = IntervalOverlapComparator(seed=2)
        a = _sample(rng, 2.0, 0.3)
        b = _sample(rng, 2.1, 0.3)
        first = comparator.compare(a, b)
        for _ in range(5):
            assert comparator.compare(a, b) is first

    def test_antisymmetry(self, rng):
        comparator = IntervalOverlapComparator(seed=2)
        for _ in range(10):
            a = _sample(rng, rng.uniform(1, 3), 0.2)
            b = _sample(rng, rng.uniform(1, 3), 0.2)
            assert comparator.compare(a, b) is comparator.compare(b, a).flipped()

    def test_pairs_draw_independent_resamples(self, rng):
        """Different pairs derive different generators (no shared fixed stream)."""
        from repro.core import derive_pair_rng

        a = _sample(rng, 2.0, 0.3)
        b = _sample(rng, 2.1, 0.3)
        c = _sample(rng, 2.2, 0.3)
        rng_ab = derive_pair_rng(0, a.tobytes(), b.tobytes())
        rng_ac = derive_pair_rng(0, a.tobytes(), c.tobytes())
        assert rng_ab.integers(0, 2**31, 8).tolist() != rng_ac.integers(0, 2**31, 8).tolist()

    def test_default_statistic_is_picklable(self):
        """A module-level default statistic keeps the comparator picklable."""
        import pickle

        comparator = IntervalOverlapComparator(seed=0)
        restored = pickle.loads(pickle.dumps(comparator))
        data_a = np.array([1.0, 1.1, 0.9, 1.05])
        data_b = np.array([5.0, 5.1, 4.9, 5.05])
        assert restored.compare(data_a, data_b) is comparator.compare(data_a, data_b)
