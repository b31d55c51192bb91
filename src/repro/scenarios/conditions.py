"""Condition axes and scenarios: environment drift as first-class objects.

Every layer below this one assumes a frozen :class:`~repro.devices.platform.Platform`;
real deployments drift -- a Wi-Fi link degrades to LTE, a co-located job loads
the CPU, DVFS throttles the clocks, electricity prices move.  A
:class:`ConditionAxis` describes *one* such drift dimension as a pure platform
transformation; a :class:`Scenario` pins several axes to concrete values (one
named point in condition space); :func:`apply_conditions` derives the
scenario's platform through the :meth:`Platform.with_devices` /
:meth:`Platform.with_links` primitives.

Axes carry **two equivalent transforms**.  :meth:`ConditionAxis.apply` is the
scalar reference: ``(platform, value) -> derived platform``.
:meth:`ConditionAxis.scale_arrays` is the vectorized form the fused grid
builder uses: it mutates a :class:`~repro.devices.params.PlatformParams`
bundle in place, scaling whole ``(scenario, device)`` / ``(scenario, link)``
parameter arrays at once.  Elementwise float64 array arithmetic rounds exactly
like the scalar arithmetic in ``apply``, so the two paths agree **bitwise** --
the contract the differential tests pin.  Custom axes may implement ``apply``
only; grid builds containing them transparently fall back to the
materializing path (see :func:`vectorized_axis`).

All axes are value-type dataclasses (picklable, hashable) so scenarios can
cross process boundaries in sharded sweeps, and applying an axis at its
neutral value (scale ``1.0``, interpolation ``t=0`` with matching endpoints)
reproduces the base platform's cost model **bitwise** (multiplying an IEEE-754
double by ``1.0`` is exact); neutral applications short-circuit and return
the base platform object itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..devices.device import DeviceSpec
from ..devices.link import LinkSpec
from ..devices.platform import Platform
from ..faults.models import DeviceFailure, FaultProfile, LinkDropout

if TYPE_CHECKING:
    from ..devices.params import PlatformParams

__all__ = [
    "ConditionAxis",
    "LinkBandwidthScale",
    "LinkLatencyScale",
    "DeviceLoadFactor",
    "DvfsFrequencyScale",
    "EnergyPriceScale",
    "LinkInterpolation",
    "DeviceFailureRate",
    "LinkDropoutRate",
    "Scenario",
    "apply_conditions",
    "vectorized_axis",
]


def _normalise_pairs(
    links: "Sequence[tuple[str, str]] | None",
) -> "tuple[tuple[str, str], ...] | None":
    if links is None:
        return None
    return tuple((a, b) if a <= b else (b, a) for a, b in links)


class ConditionAxis:
    """One dimension of environment drift: ``value -> platform transformation``.

    Subclasses define :meth:`apply`, a pure function from ``(platform, value)``
    to a derived platform, and expose a ``name`` used in scenario labels.

    Subclasses that also implement :meth:`scale_arrays` (on the **same class**
    that defines their ``apply``, so the two transforms evolve together) are
    eligible for the fused grid build: instead of deriving one platform per
    scenario, the builder gathers the base platform's parameters once and
    calls ``scale_arrays`` with the scenario rows and values that pin this
    axis.  The hook must perform the *same* elementwise float arithmetic as
    ``apply`` (and raise the same validation errors), which makes the fused
    tables bitwise identical to the materializing ones.
    """

    name: str = "condition"

    def apply(self, platform: Platform, value: float) -> Platform:  # pragma: no cover
        raise NotImplementedError

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        """Vectorized form of :meth:`apply` over parameter arrays.

        ``rows`` are the scenario-row indices that pin this axis and
        ``values`` (same length, float64) their axis values; implementations
        mutate ``params.device`` / ``params.link`` arrays in place at those
        rows.  The base class raises: axes without the hook route grid builds
        through the materializing fallback.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the vectorized "
            "scale_arrays hook; grid builds containing this axis fall back "
            "to the materializing path"
        )

    def describe(self, value: float) -> str:
        """Human-readable ``axis=value`` fragment for generated scenario names."""
        return f"{self.name}={value:g}"


def vectorized_axis(axis: ConditionAxis) -> bool:
    """Whether the fused grid builder may use ``axis.scale_arrays``.

    True when the axis implements :meth:`~ConditionAxis.scale_arrays` and the
    defining class is the same one that defines its ``apply`` -- a subclass
    that overrides ``apply`` without re-implementing ``scale_arrays`` (or vice
    versa) would break the bitwise scalar==vectorized contract, so it falls
    back to the materializing path.
    """
    return _vectorized_axis_class(type(axis))


@lru_cache(maxsize=None)
def _vectorized_axis_class(cls: type) -> bool:
    # The MRO walk is pure in the class definition, so grid builds (which ask
    # once per scenario setting) share one verdict per axis class.
    scale_owner = next((k for k in cls.__mro__ if "scale_arrays" in vars(k)), None)
    if scale_owner is None or scale_owner is ConditionAxis:
        return False
    apply_owner = next((k for k in cls.__mro__ if "apply" in vars(k)), None)
    return apply_owner is scale_owner


def _selected_links(
    platform: Platform, links: "tuple[tuple[str, str], ...] | None"
) -> list[tuple[str, str]]:
    if links is None:
        return list(platform.links)
    for a, b in links:
        platform.link(a, b)  # raises with the usual message when absent
    return [(a, b) for (a, b) in links]


def _selected_devices(platform: Platform, devices: "tuple[str, ...] | None") -> list[str]:
    if devices is None:
        return list(platform.devices)
    platform.validate_aliases(devices)
    return list(devices)


def _first_bad(values: np.ndarray, bad: np.ndarray) -> float:
    """The first offending value of a vectorized validation, as a plain float
    so the error message matches the scalar path's ``{value!r}`` exactly."""
    return float(values[bad][0])


def _check_finite(axis: ConditionAxis, values) -> None:
    """Reject NaN/inf condition values, naming the axis and the value.

    Every shipped axis runs this first in both ``apply`` and ``scale_arrays``:
    range checks alone let such values through (NaN compares False against
    every bound, ``inf`` passes the one-sided ones), and they then surfaced
    only deep in the cost math or the search.
    """
    array = np.asarray(values, dtype=float)
    bad = ~np.isfinite(array)
    if bad.any():
        raise ValueError(f"{axis.name} value must be finite, got {float(array[bad][0])!r}")


@dataclass(frozen=True)
class LinkBandwidthScale(ConditionAxis):
    """Multiply the bandwidth of some links (``None`` = every link) by the value.

    ``value > 1`` is an upgrade, ``value < 1`` congestion/degradation.
    """

    links: "tuple[tuple[str, str], ...] | None" = None
    name: str = "link-bandwidth"

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _normalise_pairs(self.links))

    def apply(self, platform: Platform, value: float) -> Platform:
        _check_finite(self, value)
        if value <= 0:
            raise ValueError(f"{self.name} scale must be positive, got {value!r}")
        if value == 1.0:
            _selected_links(platform, self.links)  # validate the selection
            return platform
        return platform.with_links(
            {
                pair: replace(link, bandwidth_gbs=link.bandwidth_gbs * value)
                for pair in _selected_links(platform, self.links)
                for link in (platform.link(*pair),)
            }
        )

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        _check_finite(self, values)
        bad = values <= 0
        if bad.any():
            raise ValueError(
                f"{self.name} scale must be positive, got {_first_bad(values, bad)!r}"
            )
        cols = params.link_columns(self.links)
        params.link["bandwidth_gbs"][np.ix_(rows, cols)] *= values[:, None]


@dataclass(frozen=True)
class LinkLatencyScale(ConditionAxis):
    """Multiply the latency of some links (``None`` = every link) by the value."""

    links: "tuple[tuple[str, str], ...] | None" = None
    name: str = "link-latency"

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _normalise_pairs(self.links))

    def apply(self, platform: Platform, value: float) -> Platform:
        _check_finite(self, value)
        if value < 0:
            raise ValueError(f"{self.name} scale must be non-negative, got {value!r}")
        if value == 1.0:
            _selected_links(platform, self.links)
            return platform
        return platform.with_links(
            {
                pair: replace(link, latency_s=link.latency_s * value)
                for pair in _selected_links(platform, self.links)
                for link in (platform.link(*pair),)
            }
        )

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        _check_finite(self, values)
        bad = values < 0
        if bad.any():
            raise ValueError(
                f"{self.name} scale must be non-negative, got {_first_bad(values, bad)!r}"
            )
        cols = params.link_columns(self.links)
        params.link["latency_s"][np.ix_(rows, cols)] *= values[:, None]


@dataclass(frozen=True)
class DeviceLoadFactor(ConditionAxis):
    """Competing load on some devices: value ``L >= 1`` divides the effective
    compute throughput and memory bandwidth by ``L`` (the task gets a ``1/L``
    share of the device)."""

    devices: "tuple[str, ...] | None" = None
    name: str = "device-load"

    def __post_init__(self) -> None:
        if self.devices is not None:
            object.__setattr__(self, "devices", tuple(self.devices))

    def apply(self, platform: Platform, value: float) -> Platform:
        _check_finite(self, value)
        if value < 1:
            raise ValueError(f"{self.name} must be >= 1 (no load), got {value!r}")
        if value == 1.0:
            _selected_devices(platform, self.devices)
            return platform
        return platform.with_devices(
            {
                alias: replace(
                    spec,
                    peak_gflops=spec.peak_gflops / value,
                    memory_bandwidth_gbs=spec.memory_bandwidth_gbs / value,
                )
                for alias in _selected_devices(platform, self.devices)
                for spec in (platform.device(alias),)
            }
        )

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        _check_finite(self, values)
        bad = values < 1
        if bad.any():
            raise ValueError(
                f"{self.name} must be >= 1 (no load), got {_first_bad(values, bad)!r}"
            )
        ix = np.ix_(rows, params.device_columns(self.devices))
        params.device["peak_gflops"][ix] /= values[:, None]
        params.device["memory_bandwidth_gbs"][ix] /= values[:, None]


@dataclass(frozen=True)
class DvfsFrequencyScale(ConditionAxis):
    """DVFS throttling: frequency factor ``f`` in ``(0, 1]`` scales the peak
    throughput and (to first order, dynamic power being roughly proportional
    to frequency at a fixed voltage step) the active power draw."""

    devices: "tuple[str, ...] | None" = None
    name: str = "dvfs"

    def __post_init__(self) -> None:
        if self.devices is not None:
            object.__setattr__(self, "devices", tuple(self.devices))

    def apply(self, platform: Platform, value: float) -> Platform:
        _check_finite(self, value)
        if not 0 < value <= 1:
            raise ValueError(f"{self.name} frequency factor must lie in (0, 1], got {value!r}")
        if value == 1.0:
            _selected_devices(platform, self.devices)
            return platform
        return platform.with_devices(
            {
                alias: replace(
                    spec,
                    peak_gflops=spec.peak_gflops * value,
                    power_active_w=spec.power_active_w * value,
                )
                for alias in _selected_devices(platform, self.devices)
                for spec in (platform.device(alias),)
            }
        )

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        _check_finite(self, values)
        bad = (values <= 0) | (values > 1)
        if bad.any():
            raise ValueError(
                f"{self.name} frequency factor must lie in (0, 1], "
                f"got {_first_bad(values, bad)!r}"
            )
        ix = np.ix_(rows, params.device_columns(self.devices))
        params.device["peak_gflops"][ix] *= values[:, None]
        params.device["power_active_w"][ix] *= values[:, None]


@dataclass(frozen=True)
class EnergyPriceScale(ConditionAxis):
    """Multiply the operating cost per hour of some devices by the value
    (spot-price moves, peak-hour tariffs)."""

    devices: "tuple[str, ...] | None" = None
    name: str = "energy-price"

    def __post_init__(self) -> None:
        if self.devices is not None:
            object.__setattr__(self, "devices", tuple(self.devices))

    def apply(self, platform: Platform, value: float) -> Platform:
        _check_finite(self, value)
        if value < 0:
            raise ValueError(f"{self.name} multiplier must be non-negative, got {value!r}")
        if value == 1.0:
            _selected_devices(platform, self.devices)
            return platform
        return platform.with_devices(
            {
                alias: replace(spec, cost_per_hour=spec.cost_per_hour * value)
                for alias in _selected_devices(platform, self.devices)
                for spec in (platform.device(alias),)
            }
        )

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        _check_finite(self, values)
        bad = values < 0
        if bad.any():
            raise ValueError(
                f"{self.name} multiplier must be non-negative, got {_first_bad(values, bad)!r}"
            )
        ix = np.ix_(rows, params.device_columns(self.devices))
        params.device["cost_per_hour"][ix] *= values[:, None]


def _interpolate(a: float, b: float, t: float) -> float:
    """Geometric interpolation for positive endpoints, linear otherwise.

    Link qualities span orders of magnitude (Wi-Fi -> LTE is 10x bandwidth,
    15x latency), where geometric steps are the natural parameterisation;
    zero-valued endpoints (e.g. a free link) fall back to linear.  Exact at
    the endpoints: ``t=0`` returns ``a`` and ``t=1`` returns ``b``.
    """
    if t == 0.0:
        return a
    if t == 1.0:
        return b
    if a > 0 and b > 0:
        return math.exp((1.0 - t) * math.log(a) + t * math.log(b))
    return (1.0 - t) * a + t * b


@dataclass(frozen=True)
class LinkInterpolation(ConditionAxis):
    """Morph some links between two reference specs: value ``t`` in ``[0, 1]``.

    ``t=0`` installs ``start`` verbatim, ``t=1`` installs ``end``; in between,
    bandwidth/latency/energy-per-byte interpolate geometrically (linear when
    an endpoint is zero).  This is the wifi->lte degradation axis of the
    robustness experiment.
    """

    links: "tuple[tuple[str, str], ...]" = ()
    start: LinkSpec = None  # type: ignore[assignment]
    end: LinkSpec = None  # type: ignore[assignment]
    name: str = "link-quality"

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("LinkInterpolation needs at least one link pair")
        if self.start is None or self.end is None:
            raise ValueError("LinkInterpolation needs both start and end LinkSpecs")
        object.__setattr__(self, "links", _normalise_pairs(self.links))

    def _spec_at(self, value: float) -> LinkSpec:
        """The interpolated spec at parameter ``value`` (shared by both the
        scalar and vectorized paths so they agree bitwise)."""
        if value == 0.0:
            return self.start
        if value == 1.0:
            return self.end
        return LinkSpec(
            name=f"{self.start.name}~{value:.3g}~{self.end.name}",
            bandwidth_gbs=_interpolate(self.start.bandwidth_gbs, self.end.bandwidth_gbs, value),
            latency_s=_interpolate(self.start.latency_s, self.end.latency_s, value),
            energy_per_byte_j=_interpolate(
                self.start.energy_per_byte_j, self.end.energy_per_byte_j, value
            ),
        )

    def apply(self, platform: Platform, value: float) -> Platform:
        _check_finite(self, value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{self.name} interpolation parameter must lie in [0, 1], got {value!r}")
        spec = self._spec_at(value)
        pairs = _selected_links(platform, self.links)
        if all(platform.link(*pair) == spec for pair in pairs):
            return platform
        return platform.with_links({pair: spec for pair in pairs})

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        _check_finite(self, values)
        bad = (values < 0.0) | (values > 1.0)
        if bad.any():
            raise ValueError(
                f"{self.name} interpolation parameter must lie in [0, 1], "
                f"got {_first_bad(values, bad)!r}"
            )
        cols = params.link_columns(self.links)
        # This axis *installs* values rather than scaling them, so the spec is
        # computed once per distinct parameter through the same scalar helper
        # as apply() and assigned to the matching scenario rows.
        for v in np.unique(values):
            spec = self._spec_at(float(v))
            ix = np.ix_(rows[values == v], cols)
            params.link["bandwidth_gbs"][ix] = spec.bandwidth_gbs
            params.link["latency_s"][ix] = spec.latency_s
            params.link["energy_per_byte_j"][ix] = spec.energy_per_byte_j


@dataclass(frozen=True)
class DeviceFailureRate(ConditionAxis):
    """Per-task-execution failure probability of some devices (``None`` = all).

    A *failure-regime* axis: the value becomes the
    :class:`~repro.faults.models.DeviceFailure` probability of the selected
    devices in the derived platform's attached
    :class:`~repro.faults.models.FaultProfile` (other profile components --
    link dropout, stragglers, other devices' rates -- carry over), so a
    :class:`ScenarioGrid` sweeps failure rates exactly the way it sweeps
    bandwidth or clocks.  Value ``0`` reproduces fault-free evaluation.
    """

    devices: "tuple[str, ...] | None" = None
    name: str = "device-failure"

    def __post_init__(self) -> None:
        if self.devices is not None:
            object.__setattr__(self, "devices", tuple(self.devices))

    def apply(self, platform: Platform, value: float) -> Platform:
        _check_finite(self, value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{self.name} must be a probability in [0, 1], got {value!r}")
        current = platform.faults if platform.faults is not None else FaultProfile()
        failure = current.device_failure if current.device_failure is not None else DeviceFailure()
        if self.devices is None:
            failure = replace(failure, rate=float(value))
        else:
            _selected_devices(platform, self.devices)
            rates = dict(failure.rates)
            for alias in self.devices:
                rates[alias] = float(value)
            failure = replace(failure, rates=tuple(sorted(rates.items())))
        profile = replace(current, device_failure=failure)
        if platform.faults == profile:
            return platform
        return platform.with_faults(profile)

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        _check_finite(self, values)
        # Failure rates live in the derived FaultProfile, not in any cost
        # parameter, so this axis is a cost-table no-op: fault-grid layers
        # re-derive the per-scenario profiles from the lazily applied
        # platforms.  Validation still mirrors apply().
        bad = (values < 0.0) | (values > 1.0)
        if bad.any():
            raise ValueError(
                f"{self.name} must be a probability in [0, 1], "
                f"got {_first_bad(values, bad)!r}"
            )
        if self.devices is not None:
            params.device_columns(self.devices)


@dataclass(frozen=True)
class LinkDropoutRate(ConditionAxis):
    """Per-transfer drop probability of some links (``None`` = every pair).

    The value becomes the :class:`~repro.faults.models.LinkDropout`
    probability of the selected link pairs in the derived platform's attached
    fault profile; every dropped transfer fails the attempt that issued it
    and is re-paid on retry.  Value ``0`` reproduces fault-free evaluation.
    """

    links: "tuple[tuple[str, str], ...] | None" = None
    name: str = "link-dropout"

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _normalise_pairs(self.links))

    def apply(self, platform: Platform, value: float) -> Platform:
        _check_finite(self, value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{self.name} must be a probability in [0, 1], got {value!r}")
        current = platform.faults if platform.faults is not None else FaultProfile()
        dropout = current.link_dropout if current.link_dropout is not None else LinkDropout()
        if self.links is None:
            dropout = replace(dropout, rate=float(value))
        else:
            _selected_links(platform, self.links)
            rates = dict(dropout.rates)
            for pair in self.links:
                rates[pair] = float(value)
            dropout = replace(dropout, rates=tuple(sorted(rates.items())))
        profile = replace(current, link_dropout=dropout)
        if platform.faults == profile:
            return platform
        return platform.with_faults(profile)

    def scale_arrays(
        self, params: "PlatformParams", rows: np.ndarray, values: np.ndarray
    ) -> None:
        _check_finite(self, values)
        # Like DeviceFailureRate: profile-only, no cost parameter moves.
        bad = (values < 0.0) | (values > 1.0)
        if bad.any():
            raise ValueError(
                f"{self.name} must be a probability in [0, 1], "
                f"got {_first_bad(values, bad)!r}"
            )
        if self.links is not None:
            params.link_columns(self.links)


@dataclass(frozen=True)
class Scenario:
    """A named point in condition space: several axes pinned to values.

    ``weight`` is the scenario's probability mass / importance for
    expectation-style robust objectives (weights need not be normalised).
    """

    name: str
    settings: "tuple[tuple[ConditionAxis, float], ...]" = ()
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        # NaN compares False against every bound, so `weight < 0` alone would
        # wave non-finite weights through into weighted reductions.
        if not math.isfinite(self.weight) or self.weight < 0:
            raise ValueError(
                f"scenario weight must be finite and non-negative, got {self.weight!r}"
            )
        object.__setattr__(self, "settings", tuple((axis, float(v)) for axis, v in self.settings))

    def describe(self) -> str:
        """``axis=value`` summary of every pinned condition."""
        if not self.settings:
            return "baseline"
        return ", ".join(axis.describe(value) for axis, value in self.settings)


def apply_conditions(platform: Platform, scenario: Scenario) -> Platform:
    """Derive the platform a scenario describes (pure; the base is untouched).

    Axes apply in ``scenario.settings`` order (they commute unless two axes
    touch the same parameter of the same device/link, in which case the later
    one sees the earlier one's output -- e.g. stacking load on DVFS).  The
    derived platform is renamed ``"<base>@<scenario>"``; a scenario whose
    axes all short-circuit at their neutral values (and an empty scenario)
    returns the base platform object itself, unrenamed -- the cost model is
    identical, and skipping the copy chain keeps identity points free.
    """
    derived = platform
    for axis, value in scenario.settings:
        derived = axis.apply(derived, value)
    if derived is platform:
        return platform
    return Platform(
        devices=derived.devices,
        links=derived.links,
        host=derived.host,
        name=f"{platform.name}@{scenario.name}",
        faults=derived.faults,
    )
