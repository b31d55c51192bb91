"""Fundamental types shared across the relative-performance core.

The paper's methodology revolves around a *three-way comparison*: instead of
reducing two measurement distributions to single numbers and comparing those,
a comparison between two algorithms evaluates to one of three outcomes --
``BETTER``, ``WORSE`` or ``EQUIVALENT``.  Every other component of the core
(the bubble sort of Procedure 1, the relative-score clustering of Procedure 4)
is written against this outcome type and a small comparison-function protocol,
so that comparators can be swapped freely (bootstrap, Mann-Whitney, fixed
oracles for tests, ...).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Protocol, Sequence

import numpy as np

__all__ = [
    "Comparison",
    "Label",
    "CompareFn",
    "ArrayComparator",
    "PairwiseOracle",
    "ComparisonCounter",
]


Label = Hashable
"""Type alias for an algorithm identifier (typically a short string such as ``"DDA"``)."""


class Comparison(enum.Enum):
    """Outcome of a three-way comparison between two algorithms ``a`` and ``b``.

    The outcome is expressed from the point of view of the *first* argument:
    ``BETTER`` means the first algorithm performs better (e.g. runs faster),
    ``WORSE`` means it performs worse, and ``EQUIVALENT`` means the two
    measurement distributions overlap too much to call a winner.
    """

    BETTER = "better"
    WORSE = "worse"
    EQUIVALENT = "equivalent"

    def flipped(self) -> "Comparison":
        """Return the outcome from the point of view of the second argument."""
        if self is Comparison.BETTER:
            return Comparison.WORSE
        if self is Comparison.WORSE:
            return Comparison.BETTER
        return Comparison.EQUIVALENT

    @property
    def symbol(self) -> str:
        """Paper-style symbol: ``>`` (better), ``<`` (worse), ``~`` (equivalent)."""
        return {"better": ">", "worse": "<", "equivalent": "~"}[self.value]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


CompareFn = Callable[[Label, Label], Comparison]
"""A label-level comparison function, as consumed by the sorting/clustering procedures."""


class ArrayComparator(Protocol):
    """Protocol for comparators that operate directly on measurement arrays."""

    def compare(self, a: np.ndarray, b: np.ndarray) -> Comparison:
        """Compare two 1-D arrays of measurements and return a three-way outcome."""
        ...


@dataclass
class PairwiseOracle:
    """A label-level comparison function backed by a table of known outcomes.

    This is the comparison used to reproduce the worked example of Figure 2,
    where the paper fixes the pairwise outcomes (``AD`` beats everything,
    ``DD ~ DA``, ...) and then walks through the sort by hand.  It is also the
    natural comparator for unit tests, because it removes all randomness.

    Parameters
    ----------
    outcomes:
        Mapping from an ordered pair of labels to the outcome *of the first
        element of the pair*.  Only one direction needs to be specified; the
        reverse direction is derived by flipping the outcome.
    default:
        Outcome returned for pairs that are present in neither direction.  If
        ``None`` (the default) an unknown pair raises ``KeyError``.
    """

    outcomes: Mapping[tuple[Label, Label], Comparison]
    default: Comparison | None = None
    #: Number of comparisons served, useful to assert complexity in tests.
    calls: int = field(default=0, init=False)

    def __call__(self, a: Label, b: Label) -> Comparison:
        self.calls += 1
        if a == b:
            return Comparison.EQUIVALENT
        if (a, b) in self.outcomes:
            return self.outcomes[(a, b)]
        if (b, a) in self.outcomes:
            return self.outcomes[(b, a)].flipped()
        if self.default is not None:
            return self.default
        raise KeyError(f"no recorded outcome for pair ({a!r}, {b!r})")


@dataclass
class ComparisonCounter:
    """Wrap a :data:`CompareFn` and count how many times it is invoked.

    The paper notes that the sorting procedure "is not optimized for
    performance"; the counter makes the O(p^2) comparison count observable in
    tests and benchmarks without touching the procedures themselves.
    """

    inner: CompareFn
    calls: int = 0

    def __call__(self, a: Label, b: Label) -> Comparison:
        self.calls += 1
        return self.inner(a, b)


def bind_comparator(
    comparator: ArrayComparator,
    measurements: Mapping[Label, np.ndarray] | Mapping[Label, Sequence[float]],
) -> CompareFn:
    """Turn an array-level comparator plus a measurement table into a label-level compare function.

    Returns a :class:`~repro.core.engine.ComparisonEngine`: a deterministic
    comparator (``stochastic`` exactly ``False``) is evaluated once per pair
    into the table's outcome matrix, any other comparator on every call.
    """
    from .engine import ComparisonEngine  # deferred: engine builds on these types

    return ComparisonEngine(measurements, comparator)
