"""Pairwise comparison engine: one outcome matrix per measurement table.

The sorting/clustering procedures consume comparisons through the label-level
:data:`~repro.core.types.CompareFn` protocol, but Procedure 4 repeats the
three-way bubble sort ``Rep`` times over the *same* measurement table: with a
deterministic comparator every outcome is fixed once the table is fixed.  The
:class:`ComparisonEngine` binds an :class:`~repro.core.types.ArrayComparator`
to one table and serves those outcomes:

* for **deterministic** comparators (``stochastic`` attribute exactly
  ``False``, declared by every deterministic built-in) it holds one int8
  ``(p, p)`` matrix of outcome :attr:`~ComparisonEngine.codes` (``1`` better,
  ``0`` equivalent, ``-1`` worse), built once per table: from the
  comparator's vectorized ``outcome_matrix`` when it has one (the
  :class:`~repro.core.comparison.BootstrapComparator` bootstraps each array
  once and compares all pairs in one broadcast), otherwise by calling
  ``compare`` once per pair ``i < j`` in table order and mirroring the
  result.  :func:`~repro.core.clustering.relative_scores` runs all ``Rep``
  sorts of Procedure 4 over that matrix at once;
* **stochastic** comparators (``stochastic=True``), and comparators that
  expose **no** ``stochastic`` attribute, are called on every comparison:
  freezing the outcomes of a comparator with hidden per-call randomness
  would silently corrupt Procedure 4's rank-switching, whereas calling a
  deterministic one per comparison merely forgoes the speedup.

The engine is itself a :data:`~repro.core.types.CompareFn`, so it plugs
directly into :func:`~repro.core.sorting.three_way_bubble_sort`,
:func:`~repro.core.clustering.relative_scores` and friends.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .types import Comparison, Label

__all__ = ["ComparisonEngine", "coerce_measurements"]

#: Outcome of each code: ``OUTCOMES[code]`` for ``code`` in ``{-1, 0, 1}``.
OUTCOMES = (Comparison.EQUIVALENT, Comparison.BETTER, Comparison.WORSE)
_CODES = {outcome: code for code, outcome in zip((0, 1, -1), OUTCOMES)}


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


class ComparisonEngine:
    """Serve label-level three-way comparisons over one measurement table.

    Parameters
    ----------
    measurements:
        Mapping ``label -> measurements`` (or anything with ``as_dict()``).
    comparator:
        Array-level comparator implementing ``compare(a, b)``.  Only
        comparators whose ``stochastic`` attribute is exactly ``False``
        get an outcome matrix; any other value -- or no attribute at all,
        including :class:`~repro.core.comparison.Comparator` subclasses that
        never declared the contract -- has every comparison reach the
        comparator.

    Attributes
    ----------
    stochastic:
        Whether every comparison reaches the comparator.
    codes:
        The int8 ``(p, p)`` outcome matrix in table order (``None`` when
        :attr:`stochastic`): ``codes[i, j]`` is ``1``, ``0`` or ``-1`` when
        ``labels[i]`` is better than, equivalent to or worse than
        ``labels[j]``.
    comparator_calls:
        Pair evaluations that reached the comparator, counting the matrix as
        one evaluation per unordered pair.
    lookups:
        Label-level comparisons served, including those of lockstep sorts.
    """

    def __init__(self, measurements, comparator) -> None:
        if not hasattr(comparator, "compare"):
            raise TypeError("comparator must expose a compare(a, b) method")
        self.arrays = coerce_measurements(measurements)
        self.labels: list[Label] = list(self.arrays)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.comparator = comparator
        self.stochastic = getattr(comparator, "stochastic", True) is not False
        self.comparator_calls = 0
        self.lookups = 0
        self.codes: np.ndarray | None = None if self.stochastic else self._outcome_codes()

    def _outcome_codes(self) -> np.ndarray:
        arrays = list(self.arrays.values())
        p = len(arrays)
        batched = hasattr(self.comparator, "outcome_matrix")
        if batched:
            rows = self.comparator.outcome_matrix(arrays)
        else:  # each pair once, i < j in table order, mirrored below
            rows = [
                [self.comparator.compare(arrays[i], arrays[j]) if i < j else Comparison.EQUIVALENT
                 for j in range(p)]
                for i in range(p)
            ]
        try:
            codes = np.array([[_CODES[o] for o in row] for row in rows], dtype=np.int8)
        except (KeyError, TypeError):
            raise TypeError(
                f"{type(self.comparator).__name__} returned an outcome that is not a Comparison"
            ) from None
        self.comparator_calls = p * (p - 1) // 2
        return codes if batched else codes - codes.T

    def position(self, label: Label) -> int:
        """Index of ``label`` in table order (``KeyError`` names unknown labels)."""
        try:
            return self.index[label]
        except KeyError:
            raise KeyError(f"no measurements recorded for algorithm {label!r}") from None

    def compare(self, a: Label, b: Label) -> Comparison:
        """Label-level three-way comparison: a matrix read unless :attr:`stochastic`."""
        i, j = self.position(a), self.position(b)
        self.lookups += 1
        if self.codes is not None:
            return OUTCOMES[self.codes[i, j]]
        self.comparator_calls += 1
        return self.comparator.compare(self.arrays[a], self.arrays[b])

    __call__ = compare

    def outcome_table(self) -> dict[tuple[Label, Label], Comparison]:
        """Full ordered-pair outcome table; stochastic comparators have none."""
        if self.codes is None:
            raise ValueError("a stochastic comparator has no fixed outcome table")
        return {
            (a, b): OUTCOMES[code]
            for a, row in zip(self.labels, self.codes.tolist())
            for b, code in zip(self.labels, row)
        }
