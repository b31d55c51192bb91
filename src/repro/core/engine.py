"""Pairwise comparison engine: precomputed outcome matrices and comparison caching.

The sorting/clustering procedures consume comparisons through the label-level
:data:`~repro.core.types.CompareFn` protocol, but Procedure 4 repeats the
three-way bubble sort ``Rep`` times over the *same* measurement table: with a
deterministic comparator the same pair of algorithms is re-bootstrapped up to
``Rep`` times for an outcome that is guaranteed identical on every call.  The
:class:`ComparisonEngine` sits between an
:class:`~repro.core.types.ArrayComparator` and those procedures and removes
that redundancy without changing a single outcome:

* for **deterministic** comparators (``stochastic`` attribute explicitly
  ``False``, declared by every deterministic built-in) every unique pair is
  evaluated at most once -- either eagerly, through the
  comparator's vectorized ``outcome_matrix`` (the
  :class:`~repro.core.comparison.BootstrapComparator` bootstraps each array
  once into ``(p, levels)`` interval summaries and compares all pairs in one
  broadcast), or lazily through a memoizing :class:`CachedCompareFn`; label-level
  lookups are then O(1), and once the matrix is precomputed
  :meth:`ComparisonEngine.outcome_rows` hands a whole sort its ``p x p``
  outcome table, so the bubble sort reads list entries instead of calling
  the engine per comparison;
* **stochastic** comparators (``stochastic=True``) transparently bypass the
  cache: every call reaches the comparator and draws fresh resamples, which
  preserves the rank-switching behaviour Procedure 4 relies on bit for bit;
* comparators that expose **no** ``stochastic`` attribute are conservatively
  treated like stochastic ones (pass-through, never cached): freezing the
  outcomes of an unknown third-party comparator with hidden per-call
  randomness would silently corrupt Procedure 4, whereas not caching a
  deterministic one merely forgoes the speedup.

The engine is itself a :data:`~repro.core.types.CompareFn`, so it plugs
directly into :func:`~repro.core.sorting.three_way_bubble_sort`,
:func:`~repro.core.clustering.relative_scores` and friends;
:func:`~repro.core.types.bind_comparator` is a thin shim over it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from .types import CompareFn, Comparison, Label

__all__ = ["CachedCompareFn", "ComparisonEngine", "coerce_measurements"]


def coerce_measurements(measurements) -> dict[Label, np.ndarray]:
    """Normalise a measurement table to ``label -> 1-D float array``.

    Accepts a plain mapping or anything exposing ``as_dict()`` (e.g.
    :class:`~repro.measurement.dataset.MeasurementSet`).
    """
    if hasattr(measurements, "as_dict"):
        measurements = measurements.as_dict()
    if not isinstance(measurements, Mapping):
        raise TypeError("measurements must be a mapping of label -> array of measurements")
    coerced: dict[Label, np.ndarray] = {}
    for label, values in measurements.items():
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError(f"algorithm {label!r} has no measurements")
        coerced[label] = arr
    if not coerced:
        raise ValueError("at least one algorithm is required")
    return coerced


class CachedCompareFn:
    """Memoizing wrapper around a label-level :data:`CompareFn`.

    The first evaluation of a pair stores both directions (the reverse via
    :meth:`Comparison.flipped`), so the wrapped function is invoked at most
    once per unordered pair and the cached relation is antisymmetric by
    construction.  Only meaningful for deterministic comparison functions --
    a stochastic function must not be wrapped, since caching would freeze the
    outcome of borderline pairs.

    The inner function must itself be antisymmetric (every bundled comparator
    is), so the flip-store is an optimisation, not a behaviour change.
    """

    def __init__(self, inner: CompareFn):
        self.inner = inner
        self._cache: dict[tuple[Label, Label], Comparison] = {}
        #: Total label-level calls served (hits + misses).
        self.calls = 0
        #: Calls that reached the wrapped function.
        self.misses = 0

    @property
    def hits(self) -> int:
        return self.calls - self.misses

    def __call__(self, a: Label, b: Label) -> Comparison:
        self.calls += 1
        key = (a, b)
        outcome = self._cache.get(key)
        if outcome is None:
            outcome = self.inner(a, b)
            self.misses += 1
            self._cache[key] = outcome
            self._cache[(b, a)] = outcome.flipped()
        return outcome

    def seed_cache(self, outcomes: Mapping[tuple[Label, Label], Comparison]) -> None:
        """Pre-fill the cache with already-known outcomes (both directions as given)."""
        self._cache.update(outcomes)


class ComparisonEngine:
    """Serve label-level three-way comparisons over one measurement table.

    Parameters
    ----------
    measurements:
        Mapping ``label -> measurements`` (or anything with ``as_dict()``).
    comparator:
        Array-level comparator implementing ``compare(a, b)``.  Caching is
        opt-in via the deterministic contract: only comparators whose
        ``stochastic`` attribute is explicitly ``False`` (declared by every
        deterministic built-in) are cached.  A truthy value -- or no
        attribute at all, including :class:`~repro.core.comparison.Comparator`
        subclasses that never declared the contract -- puts the engine in
        pass-through mode, so comparators with hidden per-call randomness are
        never silently frozen.
    precompute:
        Force (``True``) or suppress (``False``) the eager matrix
        precomputation.  The default (``None``) precomputes whenever the
        comparator is cacheable and exposes a batched ``outcome_matrix``;
        other cacheable comparators fall back to lazy memoization, which
        still evaluates each pair at most once.

    Attributes
    ----------
    stochastic:
        Whether the engine is in pass-through (cache-bypass) mode.
    comparator_calls:
        Number of pair evaluations that reached the underlying comparator,
        counting a precomputed matrix as one evaluation per unordered pair.
    """

    def __init__(
        self,
        measurements,
        comparator,
        *,
        precompute: bool | None = None,
    ) -> None:
        if not hasattr(comparator, "compare"):
            raise TypeError("comparator must expose a compare(a, b) method")
        self.arrays = coerce_measurements(measurements)
        self.labels: list[Label] = list(self.arrays)
        self.comparator = comparator
        # Tri-state deterministic contract: cache only on an explicit False.
        self.stochastic = getattr(comparator, "stochastic", True) is not False
        self.comparator_calls = 0
        self._cached: CachedCompareFn | None = None
        # Precomputed outcomes by engine position, and lookups served from them.
        self._rows: list[list[Comparison]] | None = None
        self._position: dict[Label, int] = {}
        self._table_lookups = 0
        if self.stochastic:
            if precompute:
                raise ValueError(
                    "cannot precompute an outcome matrix: the comparator does not declare "
                    "the deterministic contract (stochastic=False), so every call must "
                    "reach it directly"
                )
            self._compare: CompareFn = self._evaluate
        else:
            self._cached = CachedCompareFn(self._evaluate)
            self._compare = self._cached
            if precompute is None:
                precompute = hasattr(comparator, "outcome_matrix")
            if precompute:
                self.precompute()

    # ------------------------------------------------------------------
    def _evaluate(self, a: Label, b: Label) -> Comparison:
        """Resolve labels to arrays and invoke the underlying comparator."""
        try:
            va, vb = self.arrays[a], self.arrays[b]
        except KeyError as exc:
            raise KeyError(f"no measurements recorded for algorithm {exc.args[0]!r}") from exc
        self.comparator_calls += 1
        return self.comparator.compare(va, vb)

    def precompute(self) -> None:
        """Eagerly fill the cache from the comparator's vectorized outcome matrix.

        Idempotent: repeated calls are no-ops once the matrix has been computed.
        """
        if self._cached is None:
            raise ValueError("cannot precompute outcomes for a stochastic comparator")
        if self._rows is not None:
            return
        if not hasattr(self.comparator, "outcome_matrix"):
            raise ValueError(
                f"{type(self.comparator).__name__} does not implement the batched "
                "outcome_matrix(arrays) protocol required for eager precomputation; "
                "omit precompute=True to use lazy memoization instead"
            )
        matrix = self.comparator.outcome_matrix([self.arrays[label] for label in self.labels])
        rows = [list(row) for row in matrix]
        if not all(isinstance(outcome, Comparison) for row in rows for outcome in row):
            raise TypeError(
                f"{type(self.comparator).__name__}.outcome_matrix returned an entry "
                "that is not a Comparison"
            )
        self._cached.seed_cache(
            {
                (a, b): outcome
                for a, row in zip(self.labels, rows)
                for b, outcome in zip(self.labels, row)
            }
        )
        p = len(self.labels)
        self.comparator_calls += p * (p - 1) // 2
        self._rows = rows
        self._position = {label: i for i, label in enumerate(self.labels)}

    # ------------------------------------------------------------------
    def compare(self, a: Label, b: Label) -> Comparison:
        """Label-level three-way comparison (cached unless the comparator is stochastic).

        Unknown labels raise ``KeyError`` (they can never be cache hits, so the
        lookup always reaches :meth:`_evaluate`, which resolves the labels).
        """
        return self._compare(a, b)

    __call__ = compare

    def outcome_rows(self, labels: Sequence[Label]) -> list[Sequence[Comparison]] | None:
        """Precomputed outcomes among ``labels``, for one three-way bubble sort.

        ``rows[i][j]`` is ``compare(labels[i], labels[j])``.  Returns ``None``
        -- the sort then calls the engine for every comparison -- unless the
        full matrix has been precomputed and every label is known.  A bubble
        sort of ``k`` labels reads ``k*(k-1)/2`` entries, which
        :attr:`lookups` counts as served.
        """
        rows = self._rows
        if rows is None:
            return None
        try:
            positions = [self._position[label] for label in labels]
        except KeyError:
            return None
        self._table_lookups += len(positions) * (len(positions) - 1) // 2
        if len(positions) < 2:
            return [[rows[i][i]] for i in positions]
        gather = itemgetter(*positions)
        return [gather(rows[i]) for i in positions]

    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        """Label-level comparisons served so far."""
        if self._cached is not None:
            return self._cached.calls + self._table_lookups
        return self.comparator_calls

    def outcome_table(self) -> dict[tuple[Label, Label], Comparison]:
        """Full ordered-pair outcome table (forces precomputation of missing pairs).

        Raises for stochastic comparators, whose outcomes are not a fixed table.
        """
        if self._cached is None:
            raise ValueError("a stochastic comparator has no fixed outcome table")
        return {
            (a, b): self._compare(a, b)
            for a in self.labels
            for b in self.labels
        }
