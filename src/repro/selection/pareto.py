"""Multi-criteria (Pareto) view over the algorithm space.

Algorithm selection on the edge is rarely single-objective: execution time,
energy on the constrained device, data moved over the network and operating
cost all matter.  :func:`pareto_front` extracts the non-dominated algorithms
with respect to an arbitrary set of (minimised) criteria, which complements
the cluster-based selection of the paper.

This module is the thin *materialised-profiles facade* over the vectorized
dominance kernel in :mod:`repro.search.pareto`: criterion values are stacked
into one ``(p, c)`` matrix and the non-dominated mask is computed by
:func:`~repro.search.pareto.pareto_mask` (the previous implementation called
:func:`dominates` for every ordered pair -- O(p**2 * c) in pure Python).  For
spaces too large to materialise profiles at all, stream chunks through
:class:`repro.search.SpaceSearch` -- the one selection accumulator behind
``search_space`` and ``search_grid`` -- with a ``frontier``; its frontier
criteria rank plain (one-row) chunks.  Both paths share the same kernel and
return element-for-element identical frontiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.types import Label
from ..offload.execution import AlgorithmProfile
from ..search.pareto import pareto_mask

__all__ = ["Criterion", "pareto_front", "dominates", "DEFAULT_CRITERIA"]


@dataclass(frozen=True)
class Criterion:
    """A named, minimised objective extracted from an :class:`AlgorithmProfile`."""

    name: str
    extract: Callable[[AlgorithmProfile], float]

    def __call__(self, profile: AlgorithmProfile) -> float:
        return float(self.extract(profile))


#: Execution time, total energy and operating cost -- the three axes of Section IV.
DEFAULT_CRITERIA: tuple[Criterion, ...] = (
    Criterion("time_s", lambda p: p.time_s),
    Criterion("energy_j", lambda p: p.energy_j),
    Criterion("operating_cost", lambda p: p.operating_cost),
)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if objective vector ``a`` dominates ``b`` (<= everywhere, < somewhere)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have the same length")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_front(
    profiles: Mapping[Label, AlgorithmProfile],
    criteria: Sequence[Criterion] = DEFAULT_CRITERIA,
) -> dict[Label, dict[str, float]]:
    """Non-dominated algorithms and their objective values.

    Returns a mapping ``label -> {criterion name: value}`` containing only the
    algorithms not dominated by any other algorithm.
    """
    if not profiles:
        raise ValueError("at least one profile is required")
    if not criteria:
        raise ValueError("at least one criterion is required")
    labels = list(profiles)
    values = np.array(
        [[criterion(profiles[label]) for criterion in criteria] for label in labels],
        dtype=float,
    )
    mask = pareto_mask(values)
    return {
        label: {criterion.name: float(value) for criterion, value in zip(criteria, row)}
        for label, row, keep in zip(labels, values, mask)
        if keep
    }
