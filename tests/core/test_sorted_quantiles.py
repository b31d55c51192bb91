"""Pins for the sort-once quantile helpers behind the bootstrap comparator.

``_sorted_quantiles`` and ``_sorted_median`` read quantiles from rows sorted
once instead of calling ``np.quantile``/``np.median``.  numpy itself is the
oracle: the helpers must reproduce its default ``linear`` method and its
median bit for bit, so a change to numpy's arithmetic fails here loudly
instead of drifting into the comparator's outcomes.  The randomized pins then
hold the whole comparator -- batched matrix, per-call win fraction and the
stochastic stream -- against a test-local replica of the ``np.quantile``
formulation it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BootstrapComparator, derive_pair_rng
from repro.core.bootstrap import (
    _sorted_median,
    _sorted_quantiles,
    batched_quantile_profiles,
    bootstrap_indices,
    bootstrap_quantiles,
)

LEVELS = np.array([0.0, 0.025, 0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 0.9, 0.975, 1.0])
SUBNORMAL = 5e-324


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _assert_pinned(rows: np.ndarray, levels: np.ndarray = LEVELS) -> None:
    """Helper output == np.quantile / np.median on the unsorted rows, bit for bit."""
    ordered = np.sort(rows, axis=-1)
    expected = np.moveaxis(np.quantile(rows, levels, axis=-1), 0, -1)
    assert _bits(_sorted_quantiles(ordered, levels)) == _bits(expected)
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
        ends = _sorted_quantiles(np.sort(rows, axis=-1), np.array([0.0, 1.0]))
        assert np.array_equal(ends[:, 0], rows.min(axis=-1))
        assert np.array_equal(ends[:, 1], rows.max(axis=-1))

    def test_mixed_zero_signs_agree_in_value(self, rng):
        """Where -0.0 and +0.0 tie in a row, a sort and numpy's partition may
        leave either at a position; the values (and every comparison of them)
        still agree, which is all the comparator reads."""
        pool = np.array([0.0, -0.0, 1.0, -1.0])
        rows = rng.choice(pool, size=(200, 8))
        ordered = np.sort(rows, axis=-1)
        expected = np.moveaxis(np.quantile(rows, LEVELS, axis=-1), 0, -1)
        assert np.array_equal(_sorted_quantiles(ordered, LEVELS), expected)
        assert np.array_equal(_sorted_median(ordered), np.median(rows, axis=-1))

    def test_stacked_batches_match_per_matrix(self, rng):
        levels = np.array([0.1, 0.5, 0.9])
        matrices = [rng.normal(size=(6, width)) for width in (3, 4, 3, 1, 4)]
        stacked = batched_quantile_profiles(matrices, levels)
        for k, m in enumerate(matrices):
            expected = np.quantile(m, levels, axis=-1).T
            assert _bits(stacked[k]) == _bits(np.ascontiguousarray(expected))

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
