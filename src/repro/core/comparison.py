"""Three-way comparators: decide *better*, *worse* or *equivalent* between two algorithms.

The clustering methodology of the paper consumes comparisons through a narrow
interface (:class:`repro.core.types.ArrayComparator`): given the raw
measurement arrays of two algorithms, return a :class:`Comparison`.  The
canonical comparator is the **bootstrap quantile-profile comparator** of the
companion work [15] cited by the paper: statistics are repeatedly evaluated on
resampled data and the *win fraction* over the bootstrap rounds determines the
outcome, with an equivalence band around 0.5 capturing "the distributions
significantly overlap".

Several alternative comparators are provided for baselines and ablations:
single-statistic comparators with a relative tolerance (mean / median /
minimum), a Mann-Whitney rank-sum comparator, and a confidence-interval
overlap comparator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bootstrap import bootstrap_statistic, bootstrap_summaries, percentile_interval
from .types import Comparison

__all__ = [
    "Comparator",
    "BootstrapComparator",
    "SingleStatisticComparator",
    "MeanComparator",
    "MedianComparator",
    "MinimumComparator",
    "MannWhitneyComparator",
    "IntervalOverlapComparator",
    "DEFAULT_QUANTILES",
    "derive_pair_rng",
]

#: Quantile profile used by default: the bulk of the distribution, ignoring
#: extreme tails which are dominated by system noise (cf. the caching /
#: system-noise discussion of the paper's Section I).
DEFAULT_QUANTILES: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)


def _validate_one(a: np.ndarray | Sequence[float]) -> np.ndarray:
    va = np.asarray(a, dtype=float).ravel()
    if va.size == 0:
        raise ValueError("measurement arrays must be non-empty")
    if not np.all(np.isfinite(va)):
        raise ValueError("measurement arrays must be finite")
    return va


def _validate(a: np.ndarray | Sequence[float], b: np.ndarray | Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    return _validate_one(a), _validate_one(b)


def derive_pair_rng(seed: int, bytes_a: bytes, bytes_b: bytes) -> np.random.Generator:
    """Generator derived from a pair of measurement blobs and a seed.

    Comparators that bootstrap inside ``compare`` use this to stay reproducible
    *per pair* regardless of how many other pairs were compared before: the
    stream depends only on the data and the seed, not on call order, so
    repeated comparisons of the same pair agree while different pairs draw
    independent resamples.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(bytes_a)
    h.update(b"|")
    h.update(bytes_b)
    return np.random.default_rng([int.from_bytes(h.digest(), "little"), seed])


class Comparator:
    """Base class providing the callable interface and convenience predicates."""

    #: If True (the default for execution time / energy), smaller values are better.
    lower_is_better: bool = True

    # Deterministic contract (opt-in, per concrete class): a comparator whose
    # ``compare(a, b)`` depends only on the data and fixed parameters/seeds --
    # never on call order or per-call randomness -- and is antisymmetric
    # (``compare(b, a)`` is the flip of ``compare(a, b)``) declares
    # ``stochastic = False``, which lets the comparison engine evaluate each
    # pair once, in the ``i < j`` direction, into one outcome matrix.  The
    # base class deliberately does NOT declare it: a subclass that draws
    # fresh randomness per call and predates (or ignores) the contract is
    # then conservatively called on every comparison instead of frozen.

    def compare(self, a: np.ndarray, b: np.ndarray) -> Comparison:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, a: np.ndarray, b: np.ndarray) -> Comparison:
        return self.compare(a, b)

    # Convenience predicates -------------------------------------------------
    def is_better(self, a: np.ndarray, b: np.ndarray) -> bool:
        return self.compare(a, b) is Comparison.BETTER

    def is_worse(self, a: np.ndarray, b: np.ndarray) -> bool:
        return self.compare(a, b) is Comparison.WORSE

    def is_equivalent(self, a: np.ndarray, b: np.ndarray) -> bool:
        return self.compare(a, b) is Comparison.EQUIVALENT

    def _oriented(self, a_better: bool) -> Comparison:
        """Map a "first argument has the smaller metric" verdict to an outcome."""
        if self.lower_is_better:
            return Comparison.BETTER if a_better else Comparison.WORSE
        return Comparison.WORSE if a_better else Comparison.BETTER


@dataclass
class BootstrapComparator(Comparator):
    """Bootstrap quantile-profile comparator (the paper's comparison strategy).

    Both measurement sets are resampled with replacement ``n_resamples`` times
    and, for every quantile level of the profile, the bootstrap distribution of
    that quantile is summarised by a two-sided percentile interval.  Algorithm
    ``a`` *wins* a quantile level when its interval lies entirely below ``b``'s
    (and the midpoints differ by more than ``min_relative_difference``);
    levels whose intervals overlap are ties and count half for each side.  The
    per-level scores are averaged into a win fraction ``f in [0, 1]``:

    * ``f >= 0.5 + equivalence_margin``  ->  ``a`` is **better**;
    * ``b``'s fraction ``1 - f >= 0.5 + equivalence_margin``  ->  ``a`` is
      **worse** (decided on exact half-unit counts, so the two directions of a
      pair are always exact flips);
    * otherwise the distributions overlap significantly -> **equivalent**.

    Because the intervals shrink with the number of measurements ``N``, two
    partially overlapping distributions may be equivalent at ``N = 30`` but
    distinguishable at ``N = 500`` -- exactly the behaviour discussed in
    Section III of the paper ("overlaps become more evident when the number
    of measurements N is small").

    In the default deterministic mode each array's resamples come from a
    generator derived from its bytes and the seed, so an array has the same
    interval summary in every pair and every call: repeated comparisons
    agree, identical arrays tie exactly, and ``compare(a, b)`` is exactly the
    flip of ``compare(b, a)``.  With ``stochastic=True`` every call draws
    fresh resamples (``a``'s, then ``b``'s) from one generator; this
    reproduces the behaviour the paper relies on for the relative scores of
    Procedure 4, where a borderline pair "switches between < and ~" across
    repetitions.

    Parameters
    ----------
    quantiles:
        Quantile levels forming the profile that is compared.
    n_resamples:
        Number of bootstrap rounds.
    confidence:
        Confidence level of the per-quantile percentile intervals.
    equivalence_margin:
        Half-width of the equivalence band around a win fraction of 0.5.
    min_relative_difference:
        Relative difference (w.r.t. the midpoint of the two quantile
        estimates) under which a quantile level is always counted as a tie.
    lower_is_better:
        Whether smaller measurements are better (True for time and energy).
    stochastic:
        Draw fresh resamples on every call instead of deriving them from the
        data (see above).
    seed:
        Seed for the internal random generator.
    """

    quantiles: Sequence[float] = DEFAULT_QUANTILES
    n_resamples: int = 200
    confidence: float = 0.95
    equivalence_margin: float = 0.15
    min_relative_difference: float = 0.0
    lower_is_better: bool = True
    stochastic: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        q = np.asarray(self.quantiles, dtype=float)
        if q.size == 0 or not np.all((q >= 0) & (q <= 1)):
            raise ValueError("quantiles must be a non-empty sequence within [0, 1] (no NaN)")
        if not 0.0 <= self.equivalence_margin < 0.5:
            raise ValueError("equivalence_margin must lie in [0, 0.5)")
        if not (np.isfinite(self.min_relative_difference) and self.min_relative_difference >= 0):
            raise ValueError(
                f"min_relative_difference must be finite and non-negative, "
                f"got {self.min_relative_difference!r}"
            )
        if self.n_resamples <= 0:
            raise ValueError("n_resamples must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        self._stochastic_rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def _rng_for(self, values: np.ndarray) -> np.random.Generator:
        """Generator of one array's resamples, keyed by the seed and the array's
        bytes, so the array's summary is the same in every pair and call."""
        digest = hashlib.blake2b(values.tobytes(), digest_size=8).digest()
        return np.random.default_rng([int.from_bytes(digest, "little"), self.seed])

    def _win_counts(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Integer ``(p, p)`` matrix ``W`` of half-unit win counts among
        ``arrays``: per quantile level a win counts 2, a tie 1 and a loss 0,
        so ``W[i, j] = L + wins[i, j] - wins[j, i]`` and ``W[j, i] = 2L -
        W[i, j]`` for ``L`` levels.  ``W / (2L)`` is bit for bit the mean of
        the per-level scores (1 win, 0.5 tie, 0 loss).  Each array is
        bootstrapped once, from its own generator or, with
        ``stochastic=True``, in order from the comparator's one generator.
        The matrix, per-call and stochastic paths all run this one kernel, so
        they can never diverge."""
        vecs = [_validate_one(a) for a in arrays]
        rngs = [self._stochastic_rng if self.stochastic else self._rng_for(v) for v in vecs]
        lo, hi, mid = bootstrap_summaries(
            list(zip(vecs, rngs)), self.quantiles, self.n_resamples, self.confidence
        )
        mid_a, mid_b = mid[:, None], mid[None, :]
        tol = self.min_relative_difference * 0.5 * (np.abs(mid_a) + np.abs(mid_b))
        wins = ((hi[:, None] < lo[None, :]) & (mid_b - mid_a > tol)).sum(axis=-1)
        return mid.shape[-1] + wins - wins.T

    def _matrix_counts(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        if self.stochastic:
            raise ValueError(
                "win_fraction_matrix requires the deterministic mode; "
                "stochastic comparators draw fresh resamples per call"
            )
        return self._win_counts(arrays)

    def _outcomes(self, counts: np.ndarray) -> np.ndarray:
        """Three-way outcomes of half-unit win counts, as an object array.

        ``a`` is better iff ``W >= T`` and worse iff ``W <= 2L - T``, where
        ``T`` is the smallest count above ``L`` whose fraction ``T / (2L)``
        reaches ``0.5 + equivalence_margin``.  Both directions of a pair read
        the one threshold, so the reverse outcome is exactly the flip at every
        margin, and a fraction of exactly 0.5 is equivalent even with
        ``equivalence_margin=0``.
        """
        total = 2 * len(self.quantiles)
        bound = 0.5 + self.equivalence_margin
        threshold = next(w for w in range(total // 2 + 1, total + 1) if w / total >= bound)
        table = np.array(
            [self._oriented(a_better=False), Comparison.EQUIVALENT, self._oriented(a_better=True)],
            dtype=object,
        )
        return table[1 + (counts >= threshold) - (counts <= total - threshold)]

    def win_fraction(self, a: np.ndarray, b: np.ndarray) -> float:
        """Fraction of quantile levels won by ``a`` (ties count 0.5).

        In the deterministic mode ``win_fraction(a, b)`` and
        ``win_fraction(b, a)`` count ``2L`` half-units between them for ``L``
        levels, so their outcomes are exact flips; the fractions sum to 1 up
        to the rounding of each division.
        """
        return float(self._win_counts([a, b])[0, 1] / (2 * len(self.quantiles)))

    def compare(self, a: np.ndarray, b: np.ndarray) -> Comparison:
        return self._outcomes(self._win_counts([a, b]))[0, 1]

    # -- batched precomputation (used by the comparison engine) --------------
    def win_fraction_matrix(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """``(p, p)`` matrix of win fractions in one vectorized pass.

        Each array is bootstrapped once, from its own generator, and the
        matrix is one broadcast over the ``(p, levels)`` interval summaries,
        so entry ``[i, j]`` equals ``win_fraction(arrays[i], arrays[j])`` bit
        for bit and the diagonal is exactly 0.5.  Only available in the
        deterministic mode -- with ``stochastic=True`` every comparison must
        draw fresh resamples, so there is no fixed matrix to precompute.
        """
        return self._matrix_counts(arrays) / (2 * len(self.quantiles))

    def outcome_matrix(self, arrays: Sequence[np.ndarray]) -> list[list[Comparison]]:
        """Full antisymmetric outcome matrix over a list of measurement arrays.

        ``matrix[i][j]`` is the outcome of comparing ``arrays[i]`` against
        ``arrays[j]`` (diagonal entries are ``EQUIVALENT``), mapped from the
        half-unit counts behind :meth:`win_fraction_matrix` in one step.
        """
        return self._outcomes(self._matrix_counts(arrays)).tolist()


@dataclass
class SingleStatisticComparator(Comparator):
    """Baseline comparator: reduce each distribution to one number and compare.

    This is the strategy the paper argues against -- "a single number (such as
    statistical mean, median or minimum) cannot reliably capture the
    performance of an algorithm" -- and is included as the baseline for the
    stability ablations.  Two algorithms are equivalent when their statistics
    differ by less than ``rel_tolerance`` relative to their midpoint.
    """

    statistic: Callable[[np.ndarray], float] = np.mean
    rel_tolerance: float = 0.0
    lower_is_better: bool = True
    name: str = "statistic"

    # Pure function of the data: opts into the outcome matrix (not a dataclass field).
    stochastic = False

    def __post_init__(self) -> None:
        if not (np.isfinite(self.rel_tolerance) and self.rel_tolerance >= 0):
            raise ValueError(
                f"rel_tolerance must be finite and non-negative, got {self.rel_tolerance!r}"
            )

    def compare(self, a: np.ndarray, b: np.ndarray) -> Comparison:
        va, vb = _validate(a, b)
        sa = float(self.statistic(va))
        sb = float(self.statistic(vb))
        midpoint = 0.5 * (abs(sa) + abs(sb))
        if midpoint == 0.0 or abs(sa - sb) <= self.rel_tolerance * midpoint:
            return Comparison.EQUIVALENT
        return self._oriented(a_better=sa < sb)


def MeanComparator(rel_tolerance: float = 0.0, lower_is_better: bool = True) -> SingleStatisticComparator:
    """Single-statistic comparator using the arithmetic mean."""
    return SingleStatisticComparator(np.mean, rel_tolerance, lower_is_better, name="mean")


def MedianComparator(rel_tolerance: float = 0.0, lower_is_better: bool = True) -> SingleStatisticComparator:
    """Single-statistic comparator using the median."""
    return SingleStatisticComparator(np.median, rel_tolerance, lower_is_better, name="median")


def MinimumComparator(rel_tolerance: float = 0.0, lower_is_better: bool = True) -> SingleStatisticComparator:
    """Single-statistic comparator using the minimum (best observed run)."""
    return SingleStatisticComparator(np.min, rel_tolerance, lower_is_better, name="minimum")


@dataclass
class MannWhitneyComparator(Comparator):
    """Three-way comparison via the Mann-Whitney U rank-sum test.

    If the two samples are not significantly different at level ``alpha`` the
    algorithms are equivalent; otherwise the direction is taken from the
    medians.  Provided as a classical-statistics alternative to bootstrapping.
    """

    alpha: float = 0.05
    lower_is_better: bool = True

    # Pure function of the data: opts into the outcome matrix (not a dataclass field).
    stochastic = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly between 0 and 1, got {self.alpha!r}")

    def compare(self, a: np.ndarray, b: np.ndarray) -> Comparison:
        va, vb = _validate(a, b)
        if np.array_equal(va, vb):
            return Comparison.EQUIVALENT
        from scipy import stats  # deferred: scipy.stats would dominate `import repro`
        result = stats.mannwhitneyu(va, vb, alternative="two-sided")
        if result.pvalue >= self.alpha:
            return Comparison.EQUIVALENT
        med_a = float(np.median(va))
        med_b = float(np.median(vb))
        if med_a == med_b:
            # A significant rank difference with *exactly* tied medians gives
            # no defensible direction; calling it equivalent keeps the
            # relation antisymmetric (the alternative would claim WORSE from
            # both points of view).
            return Comparison.EQUIVALENT
        return self._oriented(a_better=med_a < med_b)


def _median_profile(m: np.ndarray) -> np.ndarray:
    """Default interval statistic: the median of each resample (picklable, unlike a lambda)."""
    return np.median(m, axis=-1)


@dataclass
class IntervalOverlapComparator(Comparator):
    """Compare bootstrap confidence intervals of a summary statistic.

    The statistic (median by default) is bootstrapped for both algorithms; if
    the two percentile confidence intervals overlap the algorithms are
    equivalent, otherwise the direction is given by the interval ordering.

    Resamples are drawn from a per-pair generator derived from the data and
    the seed (:func:`derive_pair_rng`), with the pair
    internally canonicalised: repeated comparisons of the same pair agree,
    different pairs draw independent resamples, and ``compare(a, b)`` is
    exactly the flip of ``compare(b, a)``.
    """

    statistic: Callable[[np.ndarray], np.ndarray] = _median_profile
    confidence: float = 0.95
    n_resamples: int = 200
    lower_is_better: bool = True
    seed: int = 0

    # Per-pair derived generators make this a pure function of data and seed.
    stochastic = False

    def compare(self, a: np.ndarray, b: np.ndarray) -> Comparison:
        va, vb = _validate(a, b)
        bytes_a = np.ascontiguousarray(va).tobytes()
        bytes_b = np.ascontiguousarray(vb).tobytes()
        if bytes_a == bytes_b:
            return Comparison.EQUIVALENT
        if bytes_b < bytes_a:
            return self.compare(vb, va).flipped()
        rng = derive_pair_rng(self.seed, bytes_a, bytes_b)
        sa = bootstrap_statistic(va, self.statistic, self.n_resamples, rng)
        sb = bootstrap_statistic(vb, self.statistic, self.n_resamples, rng)
        ia = percentile_interval(sa, self.confidence)
        ib = percentile_interval(sb, self.confidence)
        if ia.overlaps(ib):
            return Comparison.EQUIVALENT
        return self._oriented(a_better=ia.high < ib.low)
