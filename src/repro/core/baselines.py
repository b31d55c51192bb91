"""Baseline ranking strategies the paper argues against.

The conventional way to compare algorithms is to summarise each measurement
distribution into a single number (mean, median or minimum execution time) and
sort by it.  Section I of the paper points out that under system noise such a
ranking "might not be consistent when the performance measurements are
repeated".  These baselines exist so that the benchmarks can quantify that
instability and contrast it with the relative-performance clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .types import Label

__all__ = ["SingleStatisticRanking", "SingleStatisticRanker", "rank_by_statistic"]


@dataclass(frozen=True)
class SingleStatisticRanking:
    """Result of a single-number ranking.

    Attributes
    ----------
    order:
        Labels sorted from best to worst according to the statistic.
    values:
        The summarised statistic per label.
    ranks:
        Dense ranks (1 = best).  Ties (within the ranker's tolerance) share a rank.
    statistic:
        Name of the statistic used.
    """

    order: tuple[Label, ...]
    values: Mapping[Label, float]
    ranks: Mapping[Label, int]
    statistic: str

    @property
    def n_classes(self) -> int:
        return max(self.ranks.values(), default=0)

    def best(self) -> Label:
        return self.order[0]

    def clusters(self) -> dict[int, list[Label]]:
        out: dict[int, list[Label]] = {}
        for label in self.order:
            out.setdefault(self.ranks[label], []).append(label)
        return out


@dataclass
class SingleStatisticRanker:
    """Rank algorithms by one summary statistic of their measurements.

    Parameters
    ----------
    statistic:
        Reduction applied to each measurement array ("mean", "median", "min",
        "max", "p90" or any callable).
    rel_tolerance:
        Two adjacent algorithms whose statistics differ by less than this
        fraction (relative to the midpoint) are put into the same rank; with
        the default of 0.0 every algorithm gets its own rank unless the values
        are exactly equal.
    lower_is_better:
        Whether smaller statistics are better.
    """

    statistic: str | Callable[[np.ndarray], float] = "mean"
    rel_tolerance: float = 0.0
    lower_is_better: bool = True

    _NAMED: dict[str, Callable[[np.ndarray], float]] = field(
        default=None, init=False, repr=False, compare=False
    )  # type: ignore[assignment]

    def __post_init__(self) -> None:
        named: dict[str, Callable[[np.ndarray], float]] = {
            "mean": np.mean,
            "median": np.median,
            "min": np.min,
            "max": np.max,
            "p90": lambda a: float(np.quantile(a, 0.9)),
        }
        object.__setattr__(self, "_NAMED", named)
        if isinstance(self.statistic, str) and self.statistic not in named:
            raise ValueError(
                f"unknown statistic {self.statistic!r}; choose from {sorted(named)} or pass a callable"
            )
        if not (np.isfinite(self.rel_tolerance) and self.rel_tolerance >= 0):
            raise ValueError(
                f"rel_tolerance must be finite and non-negative, got {self.rel_tolerance!r}"
            )

    @property
    def statistic_name(self) -> str:
        return self.statistic if isinstance(self.statistic, str) else getattr(
            self.statistic, "__name__", "custom"
        )

    def _reduce(self, values: np.ndarray) -> float:
        fn = self._NAMED[self.statistic] if isinstance(self.statistic, str) else self.statistic
        return float(fn(values))

    def rank(
        self, measurements: Mapping[Label, np.ndarray | Sequence[float]]
    ) -> SingleStatisticRanking:
        """Summarise, sort and densely rank the given measurement table."""
        if not measurements:
            raise ValueError("at least one algorithm is required")
        values = {
            label: self._reduce(np.asarray(data, dtype=float))
            for label, data in measurements.items()
        }
        reverse = not self.lower_is_better
        order = tuple(sorted(values, key=lambda label: values[label], reverse=reverse))

        ranks: dict[Label, int] = {}
        current_rank = 1
        previous_value: float | None = None
        for label in order:
            value = values[label]
            if previous_value is not None:
                midpoint = 0.5 * (abs(value) + abs(previous_value))
                tied = (
                    value == previous_value
                    or (midpoint > 0 and abs(value - previous_value) <= self.rel_tolerance * midpoint)
                )
                if not tied:
                    current_rank += 1
            ranks[label] = current_rank
            previous_value = value
        return SingleStatisticRanking(
            order=order, values=values, ranks=ranks, statistic=self.statistic_name
        )


def rank_by_statistic(
    measurements: Mapping[Label, np.ndarray | Sequence[float]],
    statistic: str = "mean",
    rel_tolerance: float = 0.0,
) -> SingleStatisticRanking:
    """Convenience wrapper around :class:`SingleStatisticRanker`."""
    return SingleStatisticRanker(statistic=statistic, rel_tolerance=rel_tolerance).rank(measurements)
