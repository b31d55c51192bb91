"""Pins for the sort-once quantile helpers behind the bootstrap comparator.

``_sorted_quantile`` and ``_sorted_median`` read quantiles from rows sorted
once instead of calling ``np.quantile``/``np.median``.  numpy itself is the
oracle: the helpers must reproduce its default ``linear`` method and its
median bit for bit, so a change to numpy's arithmetic fails here loudly
instead of drifting into the comparator's outcomes.  The randomized pins then
hold the whole comparator -- batched matrix, per-call win fraction and the
stochastic stream -- against a test-local replica of the ``np.quantile``
formulation it replaced, and the hypothesis pins hold the one-pass kernel
(one ``(2R, n)`` draw per pair of equal widths) to the same replica, to the
per-pair calls and to the two-draw stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BootstrapComparator, derive_pair_rng
from repro.core.bootstrap import (
    _sorted_median,
    _sorted_quantile,
    bootstrap_indices,
    bootstrap_pair_summaries,
    bootstrap_quantiles,
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
        """Mixed widths in one call: equal widths draw once, unequal widths
        twice, and either way each pair consumes exactly the two-draw stream,
        and every array's interval bounds and median equal
        np.quantile/np.median over its own resamples."""
        levels, confidence, n_resamples = np.array([0.0, 0.1, 0.5, 0.9, 1.0]), 0.9, 6
        widths = [(3, 4), (3, 3), (1, 4), (4, 4), (2, 1), (1, 1), (30, 1)]
        arrays = [(rng.normal(size=nx), rng.normal(size=ny)) for nx, ny in widths]
        pairs = [(x, y, np.random.default_rng(k)) for k, (x, y) in enumerate(arrays)]
        low, high, mid = bootstrap_pair_summaries(pairs, levels, n_resamples, confidence)
        alpha = 1.0 - confidence
        for k, (x, y) in enumerate(arrays):
            stream = np.random.default_rng(k)
            for side, v in enumerate((x, y)):
                samples = v[bootstrap_indices(v.size, n_resamples, stream)]
                profiles = np.quantile(samples, levels, axis=-1)  # (levels, resamples)
                bounds = np.quantile(profiles, [alpha / 2.0, 1.0 - alpha / 2.0], axis=-1)
                assert _bits(low[side, k]) == _bits(bounds[0])
                assert _bits(high[side, k]) == _bits(bounds[1])
                assert _bits(mid[side, k]) == _bits(np.median(profiles, axis=-1))
            assert pairs[k][2].bit_generator.state == stream.bit_generator.state

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
            bootstrap_pair_summaries([(np.arange(3.0), np.arange(3.0), np.random.default_rng(0))], levels, 10, 0.9)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, float("nan")])
    def test_kernel_rejects_invalid_confidence(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_pair_summaries([(np.arange(3.0), np.arange(3.0), np.random.default_rng(0))], [0.5], 10, confidence)


# -- the replaced np.quantile formulation, kept here as the oracle -------------


def _reference_level_scores(c: BootstrapComparator, qa, qb, axis):
    alpha = 1.0 - c.confidence
    lo_a, hi_a = np.quantile(qa, [alpha / 2.0, 1.0 - alpha / 2.0], axis=axis)
    lo_b, hi_b = np.quantile(qb, [alpha / 2.0, 1.0 - alpha / 2.0], axis=axis)
    mid_a = np.median(qa, axis=axis)
    mid_b = np.median(qb, axis=axis)
    tol = c.min_relative_difference * 0.5 * (np.abs(mid_a) + np.abs(mid_b))
    a_wins = (hi_a < lo_b) & (mid_b - mid_a > tol)
    b_wins = (hi_b < lo_a) & (mid_a - mid_b > tol)
    return np.where(a_wins, 1.0, np.where(b_wins, 0.0, 0.5))


def _reference_profiles(c, v, rng):
    samples = v[bootstrap_indices(v.size, c.n_resamples, rng)]
    return np.quantile(samples, np.asarray(c.quantiles, float), axis=-1).T


def _reference_score(c, va, vb, rng) -> float:
    qa = _reference_profiles(c, va, rng)
    qb = _reference_profiles(c, vb, rng)
    return float(_reference_level_scores(c, qa, qb, axis=0).mean())


def _reference_win_fraction(c, va, vb) -> float:
    bytes_a, bytes_b = va.tobytes(), vb.tobytes()
    if bytes_a == bytes_b:
        return 0.5
    if bytes_b < bytes_a:
        return 1.0 - _reference_win_fraction(c, vb, va)
    return _reference_score(c, va, vb, derive_pair_rng(c.seed, bytes_a, bytes_b))


def _reference_matrix(c, arrays) -> np.ndarray:
    """All pairs' profiles stacked per width and reduced with axis=1, as before."""
    p = len(arrays)
    out = np.full((p, p), 0.5)
    pairs = []
    for i in range(p):
        for j in range(i + 1, p):
            bi, bj = arrays[i].tobytes(), arrays[j].tobytes()
            if bi != bj:
                pairs.append((i, j) if bi < bj else (j, i))
    if not pairs:
        return out
    qa, qb = [], []
    for x, y in pairs:
        rng = derive_pair_rng(c.seed, arrays[x].tobytes(), arrays[y].tobytes())
        qa.append(_reference_profiles(c, arrays[x], rng))
        qb.append(_reference_profiles(c, arrays[y], rng))
    scores = _reference_level_scores(c, np.stack(qa), np.stack(qb), axis=1)
    for (x, y), f in zip(pairs, scores.mean(axis=1)):
        out[x, y] = float(f)
        out[y, x] = 1.0 - float(f)
    return out


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
def test_comparator_equals_replaced_formulation(case):
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
    matrix = comparator.win_fraction_matrix(arrays)
    assert _bits(matrix) == _bits(_reference_matrix(comparator, arrays))

    for i, j in [(0, 1), (1, 0), (len(arrays) - 1, 0)]:
        got = comparator.win_fraction(arrays[i], arrays[j])
        assert _bits(np.float64(got)) == _bits(
            np.float64(_reference_win_fraction(comparator, arrays[i], arrays[j]))
        )

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


# -- the one-pass kernel --------------------------------------------------------


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
    assert _bits(comparator.win_fraction_matrix(arrays)) == _bits(_reference_matrix(comparator, arrays))
    for i, j in [(0, 1), (len(arrays) - 1, 0)]:
        got = comparator.win_fraction(arrays[i], arrays[j])
        assert _bits(np.float64(got)) == _bits(np.float64(_reference_win_fraction(comparator, arrays[i], arrays[j])))


@settings(max_examples=25, deadline=None)
@given(arrays=_tables(), options=_OPTIONS)
def test_matrix_entries_are_the_per_pair_fractions(arrays, options):
    """Every entry is ``win_fraction`` of its pair; the entry of the pair's
    non-canonical direction (larger bytes first) is also exactly one minus
    the reverse call (the canonical one is so only up to rounding)."""
    comparator = BootstrapComparator(**options)
    matrix = comparator.win_fraction_matrix(arrays)
    for i, a in enumerate(arrays):
        for j, b in enumerate(arrays):
            if i != j:
                assert _bits(matrix[i, j]) == _bits(np.float64(comparator.win_fraction(a, b)))
                if a.tobytes() > b.tobytes():
                    assert _bits(matrix[i, j]) == _bits(np.float64(1.0 - comparator.win_fraction(b, a)))


@settings(max_examples=25, deadline=None)
@given(arrays=_tables(), options=_OPTIONS)
def test_stochastic_sequence_is_unchanged(arrays, options):
    """Consecutive calls share one generator; each equals the replaced
    formulation's two draws from the same stream."""
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
    draws left half of a 64-bit output buffered."""
    one, two = np.random.default_rng(seed), np.random.default_rng(seed)
    one.integers(0, 7, size=before)
    two.integers(0, 7, size=before)
    joint = bootstrap_indices(n, 2 * n_resamples, one)
    first = bootstrap_indices(n, n_resamples, two)
    second = bootstrap_indices(n, n_resamples, two)
    assert _bits(joint) == _bits(np.concatenate([first, second]))
    assert one.bit_generator.state == two.bit_generator.state
