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

from .bootstrap import bootstrap_pair_summaries, bootstrap_statistic, percentile_interval
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
    # never on call order or per-call randomness -- declares ``stochastic =
    # False``, which lets the comparison engine cache its outcomes.  The base
    # class deliberately does NOT declare it: a subclass that draws fresh
    # randomness per call and predates (or ignores) the contract is then
    # conservatively never cached instead of silently frozen.

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
    * ``f <= 0.5 - equivalence_margin``  ->  ``a`` is **worse**;
    * otherwise the distributions overlap significantly -> **equivalent**.

    Because the intervals shrink with the number of measurements ``N``, two
    partially overlapping distributions may be equivalent at ``N = 30`` but
    distinguishable at ``N = 500`` -- exactly the behaviour discussed in
    Section III of the paper ("overlaps become more evident when the number
    of measurements N is small").

    In the default deterministic mode a generator is derived from the data and
    the seed, so repeated comparisons of the same pair agree and
    ``compare(a, b)`` is exactly the flip of ``compare(b, a)``.  With
    ``stochastic=True`` every call draws fresh resamples; this reproduces the
    behaviour the paper relies on for the relative scores of Procedure 4,
    where a borderline pair "switches between < and ~" across repetitions.

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
    def _rng_for(self, bytes_a: bytes, bytes_b: bytes) -> np.random.Generator:
        """Derive a per-pair generator so comparisons are reproducible regardless of call order."""
        return derive_pair_rng(self.seed, bytes_a, bytes_b)

    def _pair_fractions(
        self, pairs: Sequence[tuple[np.ndarray, np.ndarray, np.random.Generator]]
    ) -> np.ndarray:
        """Win fraction of ``x`` over ``y`` for every ``(x, y, rng)`` pair: the
        mean of ``x``'s per-level scores (1 win, 0.5 tie, 0 loss).  The matrix,
        per-call and stochastic paths all run this one kernel, so they can
        never diverge."""
        (lo_a, lo_b), (hi_a, hi_b), (mid_a, mid_b) = bootstrap_pair_summaries(
            pairs, self.quantiles, self.n_resamples, self.confidence
        )
        tol = self.min_relative_difference * 0.5 * (np.abs(mid_a) + np.abs(mid_b))
        a_wins = (hi_a < lo_b) & (mid_b - mid_a > tol)
        b_wins = (hi_b < lo_a) & (mid_a - mid_b > tol)
        return np.where(a_wins, 1.0, np.where(b_wins, 0.0, 0.5)).mean(axis=-1)

    def win_fraction(self, a: np.ndarray, b: np.ndarray) -> float:
        """Fraction of quantile levels won by ``a`` (ties count 0.5).

        In the deterministic mode the pair is internally canonicalised so that
        ``win_fraction(a, b) == 1 - win_fraction(b, a)`` holds exactly, which
        makes the resulting three-way comparison antisymmetric.
        """
        va, vb = _validate(a, b)
        if self.stochastic:
            return float(self._pair_fractions([(va, vb, self._stochastic_rng)])[0])
        bytes_a = np.ascontiguousarray(va).tobytes()
        bytes_b = np.ascontiguousarray(vb).tobytes()
        if bytes_a == bytes_b:
            return 0.5
        if bytes_b < bytes_a:
            return 1.0 - self.win_fraction(vb, va)
        return float(self._pair_fractions([(va, vb, self._rng_for(bytes_a, bytes_b))])[0])

    def _from_fraction(self, f: float) -> Comparison:
        """Map a win fraction to the three-way outcome via the equivalence band.

        A fraction of exactly 0.5 is a perfect tie and is always equivalent,
        even with ``equivalence_margin=0`` -- otherwise both directions of the
        pair would claim ``BETTER`` and the relation would lose antisymmetry.
        """
        if f > 0.5 and f >= 0.5 + self.equivalence_margin:
            return self._oriented(a_better=True)
        if f < 0.5 and f <= 0.5 - self.equivalence_margin:
            return self._oriented(a_better=False)
        return Comparison.EQUIVALENT

    def compare(self, a: np.ndarray, b: np.ndarray) -> Comparison:
        return self._from_fraction(self.win_fraction(a, b))

    # -- batched precomputation (used by the comparison engine) --------------
    def win_fraction_matrix(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Antisymmetric ``(p, p)`` matrix of win fractions in one vectorized pass.

        Entry ``[i, j]`` equals ``win_fraction(arrays[i], arrays[j])`` bit for
        bit: per pair the same canonicalisation and per-pair generator are
        used, but the resamples of *all* pairs land in one buffer
        (:func:`repro.core.bootstrap.bootstrap_pair_summaries`), sorted once
        per stage and summarised with a handful of vectorized reductions
        instead of per-pair round-trips.  Only available in the
        deterministic mode -- with ``stochastic=True`` every comparison must
        draw fresh resamples, so there is no fixed matrix to precompute.
        """
        if self.stochastic:
            raise ValueError(
                "win_fraction_matrix requires the deterministic mode; "
                "stochastic comparators draw fresh resamples per call"
            )
        vecs = [_validate_one(a) for a in arrays]
        blobs = [np.ascontiguousarray(v).tobytes() for v in vecs]
        p = len(vecs)
        fractions = np.full((p, p), 0.5)
        slots: list[tuple[int, int]] = []  # canonical (row, column) of each computed pair
        for i in range(p):
            for j in range(i + 1, p):
                if blobs[i] == blobs[j]:
                    continue  # identical data: win fraction stays 0.5
                slots.append((i, j) if blobs[i] < blobs[j] else (j, i))
        # Batch in chunks: peak memory is 2 * chunk * n_resamples * N floats
        # regardless of p, while each chunk still amortises the sorts over
        # hundreds of pairs (per-row results are independent, so chunking
        # does not change a single bit).
        chunk_pairs = 256
        for start in range(0, len(slots), chunk_pairs):
            chunk = slots[start : start + chunk_pairs]
            pairs = [(vecs[x], vecs[y], self._rng_for(blobs[x], blobs[y])) for x, y in chunk]
            rows, columns = np.array(chunk).T
            f = self._pair_fractions(pairs)
            fractions[rows, columns] = f
            fractions[columns, rows] = 1.0 - f
        return fractions

    def outcome_matrix(self, arrays: Sequence[np.ndarray]) -> list[list[Comparison]]:
        """Full antisymmetric outcome matrix over a list of measurement arrays.

        ``matrix[i][j]`` is the outcome of comparing ``arrays[i]`` against
        ``arrays[j]`` (diagonal entries are ``EQUIVALENT``), computed from the
        batched :meth:`win_fraction_matrix`.
        """
        fractions = self.win_fraction_matrix(arrays)
        p = len(fractions)
        return [
            [
                Comparison.EQUIVALENT if i == j else self._from_fraction(fractions[i, j])
                for j in range(p)
            ]
            for i in range(p)
        ]


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

    # Pure function of the data: opts into engine caching (not a dataclass field).
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

    # Pure function of the data: opts into engine caching (not a dataclass field).
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
    the seed (like :meth:`BootstrapComparator._rng_for`), with the pair
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
