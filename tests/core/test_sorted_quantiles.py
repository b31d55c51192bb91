"""Pins for the sort-once quantile helpers behind the bootstrap comparator.

``_sorted_quantile`` and ``_sorted_median`` read quantiles from rows sorted
once instead of calling ``np.quantile``/``np.median``.  numpy itself is the
oracle: the helpers must reproduce its default ``linear`` method and its
median bit for bit, so a change to numpy's arithmetic fails here loudly
instead of drifting into the comparator's outcomes.  The randomized and
hypothesis pins then hold the whole comparator -- batched matrix, per-call
win fraction and the stochastic stream -- against a test-local replica that
bootstraps each array once from its own generator with ``np.quantile``, and
against two draws per stochastic call from one stream.  The last pins hold
the outcomes to one integer threshold, antisymmetric at every margin.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BootstrapComparator, Comparison
from repro.core.bootstrap import (
    _sorted_median,
    _sorted_quantile,
    bootstrap_indices,
    bootstrap_quantiles,
    bootstrap_summaries,
)

LEVELS = np.array([0.0, 0.025, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 0.975, 1.0])
SUBNORMAL = 5e-324


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _sorted_levels(ordered: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``_sorted_quantile`` at every level, stacked level-major."""
    return np.stack([_sorted_quantile(ordered, level) for level in levels])


def _assert_pinned(rows: np.ndarray, levels: np.ndarray = LEVELS) -> None:
    """Helper output == np.quantile / np.median on the unsorted rows, bit for bit."""
    ordered = np.sort(rows, axis=-1)
    assert _bits(_sorted_levels(ordered, levels)) == _bits(np.quantile(rows, levels, axis=-1))
    assert _bits(_sorted_median(ordered)) == _bits(np.median(rows, axis=-1))


class TestHelperEdges:
    @pytest.mark.parametrize("width", range(1, 12))
    def test_odd_and_even_widths(self, rng, width):
        _assert_pinned(rng.normal(size=(17, width)))

    def test_one_measurement_and_one_resample(self, rng):
        _assert_pinned(rng.normal(size=(1, 1)))  # N = 1, R = 1
        _assert_pinned(rng.normal(size=(9, 1)))  # N = 1
        _assert_pinned(rng.normal(size=(1, 9)))  # R = 1

    @pytest.mark.parametrize("value", [2.5, -1.0, 0.0, -0.0, SUBNORMAL, -SUBNORMAL])
    @pytest.mark.parametrize("width", [1, 2, 5, 6])
    def test_rows_of_equal_values(self, value, width):
        _assert_pinned(np.full((4, width), value))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_among_other_values(self, rng, zero):
        """One sign of zero per row: ties among equal bits sort identically."""
        pool = np.array([zero, 1.0, -1.0, SUBNORMAL, -SUBNORMAL, 3.0])
        for width in range(1, 10):
            _assert_pinned(rng.choice(pool, size=(40, width)))

    def test_subnormals(self, rng):
        pool = SUBNORMAL * np.arange(-4, 5, dtype=float)
        pool = pool[pool != 0]
        for width in range(1, 10):
            _assert_pinned(rng.choice(pool, size=(40, width)))

    def test_levels_zero_and_one_are_min_and_max(self, rng):
        rows = rng.normal(size=(30, 7))
        _assert_pinned(rows, np.array([0.0, 1.0]))
        ends = _sorted_levels(np.sort(rows, axis=-1), np.array([0.0, 1.0]))
        assert np.array_equal(ends[0], rows.min(axis=-1))
        assert np.array_equal(ends[1], rows.max(axis=-1))

    def test_mixed_zero_signs_agree_in_value(self, rng):
        """Where -0.0 and +0.0 tie in a row, a sort and numpy's partition may
        leave either at a position; the values (and every comparison of them)
        still agree, which is all the comparator reads."""
        pool = np.array([0.0, -0.0, 1.0, -1.0])
        rows = rng.choice(pool, size=(200, 8))
        ordered = np.sort(rows, axis=-1)
        expected = np.quantile(rows, LEVELS, axis=-1)
        assert np.array_equal(_sorted_levels(ordered, LEVELS), expected)
        assert np.array_equal(_sorted_median(ordered), np.median(rows, axis=-1))

    def test_fills_a_strided_output_view(self, rng):
        ordered = np.sort(rng.normal(size=(4, 6, 9)), axis=-1)
        out = np.full((4, 3, 6), np.nan)
        for k, level in enumerate([0.1, 0.5, 0.975]):
            view = out[:, k]
            assert _sorted_quantile(ordered, level, out=view) is view
            assert _bits(view) == _bits(np.quantile(ordered, level, axis=-1))

    def test_kernel_summaries_match_per_array(self, rng):
        """Mixed widths in one call: every array's interval bounds and median
        equal np.quantile/np.median over its own resamples, and arrays that
        share a generator draw from it in the order given."""
        levels, confidence, n_resamples = np.array([0.0, 0.1, 0.5, 0.9, 1.0]), 0.9, 6
        arrays = [rng.normal(size=n) for n in (3, 4, 3, 1, 4, 30, 1, 2)]
        shared = np.random.default_rng(99)
        generators = [np.random.default_rng(k) for k in range(5)] + [shared] * 3
        low, high, mid = bootstrap_summaries(list(zip(arrays, generators)), levels, n_resamples, confidence)
        alpha = 1.0 - confidence
        streams = [np.random.default_rng(k) for k in range(5)] + [np.random.default_rng(99)] * 3
        for k, (v, stream) in enumerate(zip(arrays, streams)):
            samples = v[bootstrap_indices(v.size, n_resamples, stream)]
            profiles = np.quantile(samples, levels, axis=-1)  # (levels, resamples)
            bounds = np.quantile(profiles, [alpha / 2.0, 1.0 - alpha / 2.0], axis=-1)
            assert _bits(low[k]) == _bits(bounds[0])
            assert _bits(high[k]) == _bits(bounds[1])
            assert _bits(mid[k]) == _bits(np.median(profiles, axis=-1))
        for generator, stream in zip(generators, streams):
            assert generator.bit_generator.state == stream.bit_generator.state

    def test_bootstrap_quantiles_equal_numpy_on_the_same_draws(self, rng):
        data = np.round(rng.normal(3.0, 1.0, size=23), 1)
        levels = [0.1, 0.25, 0.5, 0.75, 0.9]
        got = bootstrap_quantiles(data, levels, 50, np.random.default_rng(8))
        samples = data[bootstrap_indices(data.size, 50, np.random.default_rng(8))]
        expected = np.ascontiguousarray(np.quantile(samples, levels, axis=-1).T)
        assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("levels", [[0.5, float("nan")], [-0.1], [1.5]])
    def test_invalid_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="quantiles"):
            bootstrap_quantiles(np.arange(5.0), levels, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="quantiles"):
            bootstrap_summaries([(np.arange(3.0), np.random.default_rng(0))], levels, 10, 0.9)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, float("nan")])
    def test_kernel_rejects_invalid_confidence(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_summaries([(np.arange(3.0), np.random.default_rng(0))], [0.5], 10, confidence)


# -- the np.quantile formulation, kept here as the oracle ----------------------


def _array_rng(seed: int, v: np.ndarray) -> np.random.Generator:
    """Each array's generator: keyed by the seed and the array's bytes."""
    digest = hashlib.blake2b(v.tobytes(), digest_size=8).digest()
    return np.random.default_rng([int.from_bytes(digest, "little"), seed])


def _reference_profiles(c, v, rng):
    samples = v[bootstrap_indices(v.size, c.n_resamples, rng)]
    return np.quantile(samples, np.asarray(c.quantiles, float), axis=-1).T


def _reference_summary(c, profiles):
    """Per level: the percentile interval and median of one array's profiles."""
    alpha = 1.0 - c.confidence
    lo, hi = np.quantile(profiles, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return lo, hi, np.median(profiles, axis=0)


def _reference_fraction(c, summary_a, summary_b) -> float:
    """The mean of a's per-level scores: 1 win, 0.5 tie, 0 loss."""
    (lo_a, hi_a, mid_a), (lo_b, hi_b, mid_b) = summary_a, summary_b
    tol = c.min_relative_difference * 0.5 * (np.abs(mid_a) + np.abs(mid_b))
    a_wins = (hi_a < lo_b) & (mid_b - mid_a > tol)
    b_wins = (hi_b < lo_a) & (mid_a - mid_b > tol)
    return float(np.where(a_wins, 1.0, np.where(b_wins, 0.0, 0.5)).mean())


def _reference_matrix(c, arrays) -> np.ndarray:
    """Every array bootstrapped once from its own generator, every pair scored."""
    summaries = [_reference_summary(c, _reference_profiles(c, v, _array_rng(c.seed, v))) for v in arrays]
    return np.array([[_reference_fraction(c, sa, sb) for sb in summaries] for sa in summaries])


def _reference_score(c, va, vb, rng) -> float:
    """The stochastic stream: a's resamples, then b's, from one generator."""
    qa = _reference_profiles(c, va, rng)
    qb = _reference_profiles(c, vb, rng)
    return _reference_fraction(c, _reference_summary(c, qa), _reference_summary(c, qb))


def _random_table(rng: np.random.Generator):
    p = int(rng.integers(2, 20))
    width = int(rng.integers(1, 60))
    mixed = rng.random() < 0.3
    arrays = []
    for i in range(p):
        n = int(rng.integers(1, 60)) if mixed else width
        # Rounded values: ties within and across measurement vectors.
        arrays.append(np.round(np.abs(rng.normal(2.0 + 0.05 * i, 0.3, size=n)), 1))
    if p > 2 and rng.random() < 0.3:
        arrays[1] = arrays[0].copy()  # identical data: an exact 0.5 tie
    return arrays


@pytest.mark.parametrize("case", range(40))
def test_comparator_equals_per_array_formulation(case):
    """win_fraction_matrix, per-call win_fraction and the stochastic stream are
    bitwise equal to the np.quantile formulation on random tables: p 2-19,
    N 1-59, R 1-249, rounded ties, min_relative_difference 0 and 0.01."""
    rng = np.random.default_rng(1000 + case)
    arrays = _random_table(rng)
    options = dict(
        n_resamples=int(rng.integers(1, 250)),
        min_relative_difference=(0.0, 0.01)[case % 2],
        seed=case,
    )
    comparator = BootstrapComparator(**options)
    expected = _reference_matrix(comparator, arrays)
    assert _bits(comparator.win_fraction_matrix(arrays)) == _bits(expected)

    for i, j in [(0, 1), (1, 0), (len(arrays) - 1, 0)]:
        got = comparator.win_fraction(arrays[i], arrays[j])
        assert _bits(np.float64(got)) == _bits(expected[i, j])

    stochastic = BootstrapComparator(stochastic=True, **options)
    stream = np.random.default_rng(case)
    for k in range(6):
        a, b = arrays[k % len(arrays)], arrays[(k + 1) % len(arrays)]
        got = stochastic.win_fraction(a, b)
        expected = _reference_score(stochastic, a, b, stream)
        assert _bits(np.float64(got)) == _bits(np.float64(expected))


def test_mixed_zero_signs_leave_win_fractions_bitwise_equal(rng):
    """The one place the helper may differ from numpy (the sign of a tied
    zero) never reaches a win fraction."""
    pool = np.array([0.0, -0.0, 0.1, 0.2])
    arrays = [rng.choice(pool, size=12) for _ in range(6)]
    arrays[1] += 0.3  # one clearly worse algorithm, the rest tie around zero
    comparator = BootstrapComparator(seed=3, n_resamples=64)
    assert _bits(comparator.win_fraction_matrix(arrays)) == _bits(
        _reference_matrix(comparator, arrays)
    )


# -- the per-array kernel ---------------------------------------------------------


@st.composite
def _tables(draw):
    """2-7 measurement vectors of equal or mixed widths 1-40, rounded so that
    ties, negative values and ``-0.0`` occur, sometimes with a duplicate."""
    p = draw(st.integers(2, 7))
    if draw(st.booleans()):
        widths = draw(st.lists(st.integers(1, 40), min_size=p, max_size=p))
    else:
        widths = [draw(st.integers(1, 40))] * p
    decimals = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = [np.round(rng.normal(0.3 * i, 0.5, size=n), decimals) for i, n in enumerate(widths)]
    if draw(st.booleans()):
        arrays[-1] = arrays[0].copy()
    return arrays


_OPTIONS = st.fixed_dictionaries(
    {
        "quantiles": st.lists(
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=1, max_size=5, unique=True
        ).map(tuple),
        "n_resamples": st.integers(1, 120),
        "confidence": st.sampled_from([0.5, 0.8, 0.95]),
        "min_relative_difference": st.sampled_from([0.0, 0.01, 0.5]),
        "seed": st.integers(0, 1000),
    }
)


@settings(max_examples=40, deadline=None)
@given(arrays=_tables(), options=_OPTIONS)
def test_kernel_equals_np_quantile_formulation(arrays, options):
    comparator = BootstrapComparator(**options)
    expected = _reference_matrix(comparator, arrays)
    assert _bits(comparator.win_fraction_matrix(arrays)) == _bits(expected)
    for i, j in [(0, 1), (len(arrays) - 1, 0)]:
        got = comparator.win_fraction(arrays[i], arrays[j])
        assert _bits(np.float64(got)) == _bits(expected[i, j])


@settings(max_examples=25, deadline=None)
@given(arrays=_tables(), options=_OPTIONS)
def test_matrix_entries_are_the_per_call_fractions(arrays, options):
    """Every entry is ``win_fraction`` and ``compare`` of its pair; the two
    directions of a pair split ``2L`` half-units and their outcomes are exact
    flips; identical arrays, the diagonal included, tie at exactly 0.5."""
    comparator = BootstrapComparator(**options)
    matrix = comparator.win_fraction_matrix(arrays)
    outcomes = comparator.outcome_matrix(arrays)
    total = 2 * len(options["quantiles"])
    for i, a in enumerate(arrays):
        for j, b in enumerate(arrays):
            assert _bits(matrix[i, j]) == _bits(np.float64(comparator.win_fraction(a, b)))
            assert outcomes[i][j] is comparator.compare(a, b) is outcomes[j][i].flipped()
            assert round(matrix[i, j] * total) + round(matrix[j, i] * total) == total
            if a.tobytes() == b.tobytes():
                assert matrix[i, j] == 0.5 and outcomes[i][j] is Comparison.EQUIVALENT


@settings(max_examples=25, deadline=None)
@given(arrays=_tables(), options=_OPTIONS)
def test_stochastic_sequence_is_unchanged(arrays, options):
    """Consecutive calls share one generator; each equals two draws from the
    same stream, ``a``'s then ``b``'s."""
    stochastic = BootstrapComparator(stochastic=True, **options)
    stream = np.random.default_rng(options["seed"])
    for k in range(5):
        a, b = arrays[k % len(arrays)], arrays[(k + 1) % len(arrays)]
        got = stochastic.win_fraction(a, b)
        assert _bits(np.float64(got)) == _bits(np.float64(_reference_score(stochastic, a, b, stream)))
    assert stochastic._stochastic_rng.bit_generator.state == stream.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 70),
    n_resamples=st.integers(1, 300),
    before=st.integers(0, 3),
)
def test_one_draw_equals_two_draws(seed, n, n_resamples, before):
    """One (2R, n) index draw is bit for bit two (R, n) draws and leaves the
    generator in the same state, also when an odd number of earlier 32-bit
    draws left half of a 64-bit output buffered.  So the stochastic stream's
    two draws per call replay the earlier single ``(2R, n)`` draw."""
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    one.integers(0, 7, size=before)
    two.integers(0, 7, size=before)
    joint = bootstrap_indices(n, 2 * n_resamples, one)
    first = bootstrap_indices(n, n_resamples, two)
    second = bootstrap_indices(n, n_resamples, two)
    assert _bits(joint) == _bits(np.concatenate([first, second]))
    assert one.bit_generator.state == two.bit_generator.state


# -- outcomes from one integer threshold ------------------------------------------

#: (levels, margin, half-unit count) where the rule this replaced -- the
#: reverse direction decided on ``1 - f`` against ``0.5 - margin`` -- was not
#: antisymmetric: a scan of 1-40 levels and margins 0.05-0.45 in steps of 0.01.
ASYMMETRIC_BEFORE = [
    (5, 0.2, 7), (5, 0.4, 1), (10, 0.2, 14), (10, 0.4, 2), (10, 0.45, 1), (10, 0.45, 19),
    (15, 0.2, 21), (15, 0.4, 3), (20, 0.2, 28), (20, 0.4, 4), (20, 0.45, 2), (20, 0.45, 38),
    (25, 0.08, 29), (25, 0.2, 35), (25, 0.28, 11), (25, 0.4, 5), (25, 0.44, 47), (30, 0.2, 42),
    (30, 0.4, 6), (30, 0.45, 3), (30, 0.45, 57), (35, 0.2, 49), (35, 0.4, 7), (40, 0.2, 56),
    (40, 0.4, 8), (40, 0.45, 4), (40, 0.45, 76),
]


def _assert_threshold_outcomes(levels: int, margin: float, count: int, lower_is_better: bool) -> None:
    """Two algorithms whose per-level intervals are points, so that ``a`` wins
    exactly ``count - levels`` levels over ``b`` (or ``b`` wins ``levels -
    count`` over ``a``) and ties the rest: ``b`` sits at 1.0 and 2.0 in equal
    shares, so its resampled minimum is 1.0 and its maximum 2.0 (a resample
    of one value only has probability 2**-30); ``a`` is constant at 1.0 for
    ``count >= levels`` and 2.0 otherwise.  Then outcome_matrix, compare and
    the forward rule ``f >= 0.5 + margin`` (``f > 0.5``) must agree, and the
    reverse outcome is the exact flip."""
    wins = abs(count - levels)
    a_low = count >= levels
    quantiles = (1.0 if a_low else 0.0,) * wins + (0.0 if a_low else 1.0,) * (levels - wins)
    comparator = BootstrapComparator(
        quantiles=quantiles, n_resamples=8, equivalence_margin=margin, lower_is_better=lower_is_better
    )
    arrays = [np.full(30, 1.0 if a_low else 2.0), np.tile([1.0, 2.0], 15)]
    fractions = comparator.win_fraction_matrix(arrays)
    assert fractions[0, 1] == count / (2 * levels)
    assert fractions[1, 0] == (2 * levels - count) / (2 * levels)
    outcomes = comparator.outcome_matrix(arrays)
    assert outcomes[0][1] is outcomes[1][0].flipped()
    assert outcomes[0][1] is comparator.compare(*arrays)
    assert outcomes[1][0] is comparator.compare(*arrays[::-1])
    better = Comparison.BETTER if lower_is_better else Comparison.WORSE
    for i, j in [(0, 1), (1, 0)]:
        f = fractions[i, j]
        assert (outcomes[i][j] is better) == (f > 0.5 and f >= 0.5 + margin)


@pytest.mark.parametrize("levels, margin, count", ASYMMETRIC_BEFORE)
def test_outcomes_antisymmetric_where_the_old_rule_was_not(levels, margin, count):
    _assert_threshold_outcomes(levels, margin, count, lower_is_better=True)


@settings(max_examples=60, deadline=None)
@given(
    levels=st.integers(1, 40),
    margin=st.floats(0.05, 0.45),
    data=st.data(),
    lower_is_better=st.booleans(),
)
def test_outcomes_antisymmetric_at_every_margin(levels, margin, data, lower_is_better):
    count = data.draw(st.integers(0, 2 * levels))
    _assert_threshold_outcomes(levels, margin, count, lower_is_better)
