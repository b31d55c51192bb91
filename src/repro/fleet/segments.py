"""Fleet specifications: weighted user segments over condition distributions.

ROADMAP item 3's "millions of users" is not a cartesian grid -- it is a
*population*: segments of users ("office Wi-Fi", "congested cellular",
"loaded shared host") with per-segment probability mass and, within each
segment, a distribution over condition-axis values.  This module describes
that population as data:

* an **axis sampler** pairs one :class:`~repro.scenarios.ConditionAxis` with
  a distribution over its values -- :class:`UniformAxis`, :class:`NormalAxis`
  (optionally clipped to the axis domain), or :class:`ChoiceAxis`;
* a :class:`UserSegment` is a named, weighted bundle of axis samplers;
* a :class:`FleetSpec` is the full population: a tuple of segments whose
  weights are relative probability masses (not necessarily normalised).

Everything here is a frozen value-type dataclass (picklable, hashable up to
array-free fields) so fleet specs can cross process boundaries in sharded
sweeps; actual sampling lives in :func:`repro.fleet.sample_fleet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..scenarios.conditions import ConditionAxis
from ..scenarios.grid import _check_unique
from ..search.topk import _read_int

__all__ = [
    "AxisSampler",
    "UniformAxis",
    "NormalAxis",
    "ChoiceAxis",
    "UserSegment",
    "FleetSpec",
]


@dataclass(frozen=True)
class AxisSampler:
    """One condition axis plus a distribution over its values.

    Subclasses implement :meth:`sample`, drawing ``n`` float64 values from
    the distribution.  Domain validation (e.g. ``DeviceLoadFactor >= 1``)
    happens where it always has -- inside the axis' own ``apply`` /
    ``scale_arrays`` -- so a sampler whose distribution strays outside the
    axis domain fails loudly at grid-build time, naming the offending value.
    """

    axis: ConditionAxis = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not isinstance(self.axis, ConditionAxis):
            raise TypeError(f"axis must be a ConditionAxis, got {self.axis!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class UniformAxis(AxisSampler):
    """Axis values drawn uniformly from ``[low, high]``."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError(f"uniform bounds must be finite, got [{self.low!r}, {self.high!r}]")
        if self.low > self.high:
            raise ValueError(f"uniform bounds must satisfy low <= high, got [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)


@dataclass(frozen=True)
class NormalAxis(AxisSampler):
    """Axis values drawn from ``Normal(mean, std)``, optionally clipped.

    ``low`` / ``high`` clip the draws into the axis domain (e.g. a load
    factor must stay >= 1); ``None`` leaves the corresponding side open.
    """

    mean: float = 0.0
    std: float = 1.0
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError(f"normal parameters must be finite, got mean={self.mean!r} std={self.std!r}")
        if self.std < 0:
            raise ValueError(f"normal std must be non-negative, got {self.std}")
        for name in ("low", "high"):
            bound = getattr(self, name)
            if bound is not None and math.isnan(bound):
                raise ValueError(f"clip bound {name} must not be NaN (use None for an open side)")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise ValueError(f"clip bounds must satisfy low <= high, got [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = rng.normal(self.mean, self.std, size=n)
        if self.low is not None or self.high is not None:
            values = np.clip(values, self.low, self.high)
        return values

# NormalAxis clipping is deliberate truncation-by-projection (mass piles up at
# the bounds), not rejection sampling: it is O(n), deterministic in the draw
# count, and the piled-up boundary mass models saturation ("fully loaded")
# rather than discarding it.


@dataclass(frozen=True)
class ChoiceAxis(AxisSampler):
    """Axis values drawn from a finite set, optionally with probabilities.

    ``probs=None`` means uniform over ``values``; otherwise one finite
    non-negative probability per value (normalised internally).
    """

    values: tuple[float, ...] = ()
    probs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValueError("ChoiceAxis needs at least one value")
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError(f"choice values must be finite, got values[{i}]={v!r}")
        object.__setattr__(self, "values", values)
        if self.probs is not None:
            probs = tuple(float(p) for p in self.probs)
            if len(probs) != len(values):
                raise ValueError(
                    f"expected {len(values)} probabilities (one per value), got {len(probs)}"
                )
            for i, p in enumerate(probs):
                if not math.isfinite(p) or p < 0:
                    raise ValueError(
                        f"probabilities must be finite and non-negative, got probs[{i}]={p!r}"
                    )
            if sum(probs) <= 0:
                raise ValueError("at least one choice probability must be positive")
            object.__setattr__(self, "probs", probs)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        probs = None
        if self.probs is not None:
            probs = np.array(self.probs)
            probs = probs / probs.sum()
        return rng.choice(np.array(self.values), size=n, p=probs)


@dataclass(frozen=True)
class UserSegment:
    """A named, weighted user segment: one distribution per condition axis.

    ``weight`` is the segment's share of the fleet's probability mass (not
    necessarily normalised across segments).  Sampling one user draws one
    value per axis sampler, pinning that user's scenario.
    """

    name: str
    weight: float = 1.0
    axes: tuple[AxisSampler, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("segment name must be non-empty")
        if not math.isfinite(self.weight) or self.weight <= 0:
            raise ValueError(
                f"segment weight must be finite and positive, got {self.weight!r}"
            )
        axes = tuple(self.axes)
        for sampler in axes:
            if not isinstance(sampler, AxisSampler):
                raise TypeError(f"expected AxisSampler instances, got {sampler!r}")
        object.__setattr__(self, "axes", axes)


@dataclass(frozen=True)
class FleetSpec:
    """A user population: weighted segments with per-axis distributions."""

    segments: tuple[UserSegment, ...]

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a fleet spec needs at least one segment")
        for segment in segments:
            if not isinstance(segment, UserSegment):
                raise TypeError(f"expected UserSegment instances, got {segment!r}")
        _check_unique([segment.name for segment in segments], "segment")
        object.__setattr__(self, "segments", segments)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(segment.name for segment in self.segments)

    def segment(self, name: str) -> UserSegment:
        for candidate in self.segments:
            if candidate.name == name:
                return candidate
        raise KeyError(f"unknown segment {name!r}; available: {list(self.names)}")

    def apportion(self, n_users: int) -> tuple[int, ...]:
        """Users per segment via largest-remainder on the segment weights.

        Deterministic, sums to ``n_users`` exactly, and every segment with
        positive weight gets its proportional share rounded fairly (ties on
        equal remainders break toward earlier segments).
        """
        n_users = _read_int(n_users, "n_users")
        if n_users <= 0:
            raise ValueError(f"n_users must be positive, got {n_users}")
        weights = np.array([segment.weight for segment in self.segments])
        shares = n_users * weights / weights.sum()
        floors = np.floor(shares).astype(int)
        short = n_users - int(floors.sum())
        if short:
            remainders = shares - floors
            # argsort is stable, so equal remainders resolve toward earlier
            # segments -- the deterministic tie rule the docstring promises.
            for i in np.argsort(-remainders, kind="stable")[:short]:
                floors[i] += 1
        return tuple(int(c) for c in floors)
