"""Condition-stacked batch execution: all (scenario, placement) pairs at once.

The robustness workload evaluates one placement space under *many* platform
conditions (a scenario grid).  Looping a single-platform evaluation over
per-scenario platforms re-enters Python once per scenario -- table build,
gathers and folds each time.  This module stacks the cost tables of every
scenario platform along a leading condition axis:

* :class:`GridCostTables` holds the per-(task, device) and per-(device,
  device) tables with shape ``(n_conditions, ...)``, built **vectorized
  across scenarios** straight from the :mod:`~repro.devices.costmodel`
  formula functions -- each scenario's slice is bitwise identical to the
  scalar per-task cost model on that platform;
* :func:`execute_placements_grid` evaluates an ``(n_placements, n_tasks)``
  placement matrix against every condition in one NumPy pass, returning
  metrics shaped ``(n_conditions, n_placements)`` that are bitwise identical
  to the sequential executor on each derived platform.

This is the one evaluation core.  Plain single-platform tables
(:class:`~repro.devices.batch.ChainCostTables` /
:class:`~repro.devices.batch.GraphCostTables`) are row 0 of a one-platform
materializing build, and :func:`~repro.devices.batch.execute_placements` runs
the same chain and DAG kernels on a one-scenario view of them: one placement
kernel per workload shape.

Construction has two paths that agree bitwise.  The **fused** path (used by
:func:`repro.devices.tables.build_tables` when given a base platform plus a
:class:`~repro.scenarios.grid.ScenarioGrid` of vectorized axes) never derives
per-scenario ``Platform`` objects: it broadcasts the base platform's
parameters into :class:`~repro.devices.params.PlatformParams` arrays, applies
each condition axis' ``scale_arrays`` hook across all scenario rows at once,
and feeds the arrays to the same formula core.  The **materializing** path
(``build_tables`` over pre-derived platforms, and every plain build) stays
as the differential reference and the fallback for custom axes without the
hook.

Fused builds carry a :class:`GridBuildContext`, which enables **delta
rebuilds**: :meth:`GridCostTables.updated` / :meth:`~GridCostTables.updated_many`
recompute only the replaced scenarios' condition slices and reuse every other
row; with a :class:`~repro.cache.TableCache`, unchanged slices are
content-fingerprint hits (see :meth:`GridCostTables.cache_stats`).

Scenario-independent quantities (byte counts, FLOPs) are stored once without
the condition axis -- conditions change speeds, powers and prices, never how
many bytes a placement moves.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..cache import (
    cached_fingerprint,
    canonical,
    seed_updated_grid_fingerprint,
    table_key_from_fingerprint,
)
from ..tasks.chain import TaskChain
from ..tasks.graph import TaskGraph
from . import costmodel
from .batch import (
    BatchExecutionResult,
    ChainCostTables,
    GraphCostTables,
    as_graph_tables,
    as_placement_matrix,
    placement_labels,
)
from .costmodel import PENALTY_MESSAGE_BYTES
from .params import PlatformParams
from .platform import Platform
from .tables import resolve_aliases

if TYPE_CHECKING:
    from ..cache import TableCache
    from ..scenarios.conditions import Scenario
    from ..scenarios.grid import ScenarioGrid

__all__ = [
    "GridBuildContext",
    "GridCostTables",
    "GridSlice",
    "GridSliceStats",
    "GraphGridCostTables",
    "GridExecutionResult",
    "ScenarioPlatforms",
    "execute_placements_grid",
]


def _device_param(platforms: Sequence[Platform], aliases: Sequence[str], field: str) -> np.ndarray:
    """Per-(scenario, device) array of one DeviceSpec parameter."""
    return np.array(
        [[getattr(platform.device(alias), field) for alias in aliases] for platform in platforms]
    )


class ScenarioPlatforms(SequenceABC):
    """Lazily derived per-scenario platforms of a fused grid build.

    A sequence facade: ``platforms[i]`` is
    ``apply_conditions(base, scenarios[i])``, derived on first access and
    memoized.  The fused builder never needs the platform objects, so this
    keeps ``tables.platforms`` API-compatible (fault profiles, per-scenario
    ``table()`` views) without paying one ``apply_conditions`` per scenario
    up front.
    """

    __slots__ = ("_base", "_scenarios", "_derived")

    def __init__(self, base: Platform, scenarios: "ScenarioGrid") -> None:
        self._base = base
        self._scenarios = scenarios
        self._derived: dict[int, Platform] = {}

    @property
    def base(self) -> Platform:
        return self._base

    @property
    def scenarios(self) -> "ScenarioGrid":
        return self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"platform index {index} out of range for {len(self)} scenarios")
        derived = self._derived.get(i)
        if derived is None:
            from ..scenarios.conditions import apply_conditions

            derived = apply_conditions(self._base, self._scenarios[i])
            self._derived[i] = derived
        return derived

    def __reduce__(self):
        return (type(self), (self._base, self._scenarios))

    def __repr__(self) -> str:
        return f"ScenarioPlatforms(base={self._base.name!r}, n_scenarios={len(self)})"


@dataclass(frozen=True)
class GridSliceStats:
    """How one grid build (or delta rebuild) sourced its scenario slices."""

    #: Scenario slices served from the table cache by content fingerprint.
    served: int = 0
    #: Scenario slices computed fresh.
    built: int = 0

    @property
    def total(self) -> int:
        return self.served + self.built


#: The per-scenario arrays of GridCostTables, i.e. everything a condition can
#: move; scenario-independent arrays (byte counts, FLOPs) are excluded.
_SLICE_FIELDS = (
    "busy",
    "hostio_time",
    "energy_in",
    "energy_out",
    "penalty_time",
    "penalty_energy",
    "first_penalty_time",
    "first_penalty_energy",
    "power_active",
    "power_idle",
    "cost_per_hour",
    "extra_idle_power",
)

#: The fields a plain table shares with its grid row: everything but the
#: platform (one per scenario) and the fingerprint (derived per row).
_ROW_FIELDS = tuple(
    f.name for f in fields(ChainCostTables) if f.name not in ("platform", "fingerprint")
)


@dataclass(frozen=True)
class GridSlice:
    """One scenario's row of every per-scenario grid table (cache unit)."""

    busy: np.ndarray  # (k, m)
    hostio_time: np.ndarray  # (k, m)
    energy_in: np.ndarray  # (k, m)
    energy_out: np.ndarray  # (k, m)
    penalty_time: np.ndarray  # (m, m)
    penalty_energy: np.ndarray  # (m, m)
    first_penalty_time: np.ndarray  # (m,)
    first_penalty_energy: np.ndarray  # (m,)
    power_active: np.ndarray  # (m,)
    power_idle: np.ndarray  # (m,)
    cost_per_hour: np.ndarray  # (m,)
    extra_idle_power: np.ndarray  # (n_extra,)


@dataclass(frozen=True)
class GridBuildContext:
    """The configuration a fused grid build was derived from.

    Carried on :class:`GridCostTables` so delta rebuilds can recompute single
    condition slices (and re-key the result) without the original call site.
    """

    platform: Platform
    scenarios: "ScenarioGrid"
    devices: "tuple[str, ...] | None"
    #: Content fingerprint of the workload the tables were built from.
    workload_fingerprint: str
    #: The workload's per-task costs (scenario-independent).
    task_costs: tuple

    @cached_property
    def _slice_key_prefix(self) -> tuple:
        """The scenario-independent part of every slice cache key."""
        return (
            "grid-slice",
            self.workload_fingerprint,
            cached_fingerprint(self.platform),
            repr(canonical(self.devices)),
        )


@dataclass(frozen=True)
class GridCostTables:
    """Cost tables of one chain under every platform of a scenario grid.

    Same layout as :class:`~repro.devices.batch.ChainCostTables` with a
    leading condition axis on every scenario-dependent array; scenario-
    independent arrays (``hostio_bytes``, ``task_flops``, penalty byte
    counts) carry no condition axis.  ``table(i)`` slices out one scenario's
    :class:`ChainCostTables`, bitwise identical to building it directly.
    """

    task_names: tuple[str, ...]
    #: Per-scenario platforms: a tuple for materializing builds, a lazy
    #: :class:`ScenarioPlatforms` view for fused builds.
    platforms: Sequence[Platform]
    aliases: tuple[str, ...]
    #: Device-iteration order shared by every platform (the energy/cost fold
    #: walks it exactly like the per-platform executor does).
    device_order: tuple[str, ...]
    busy: np.ndarray  # (s, k, m)
    hostio_time: np.ndarray  # (s, k, m)
    hostio_bytes: np.ndarray  # (k, m)
    energy_in: np.ndarray  # (s, k, m)
    energy_out: np.ndarray  # (s, k, m)
    task_flops: np.ndarray  # (k,)
    penalty_time: np.ndarray  # (s, m, m)
    penalty_energy: np.ndarray  # (s, m, m)
    penalty_bytes: np.ndarray  # (m, m)
    first_penalty_time: np.ndarray  # (s, m)
    first_penalty_energy: np.ndarray  # (s, m)
    first_penalty_bytes: np.ndarray  # (m,)
    power_active: np.ndarray  # (s, m)
    power_idle: np.ndarray  # (s, m)
    cost_per_hour: np.ndarray  # (s, m)
    #: Idle power of platform devices outside the candidate aliases, keyed by
    #: position in ``device_order`` restricted to those devices: ``(s, n_extra)``.
    extra_idle_power: np.ndarray
    missing_links: frozenset = frozenset()
    #: Name of the workload the tables were built from (chain/graph name).
    workload: str = ""
    #: Content fingerprint of the build configuration (see
    #: :func:`repro.devices.tables.build_tables`); empty for hand-built tables.
    fingerprint: str = ""
    #: Build provenance enabling delta rebuilds; ``None`` for tables built
    #: from pre-derived platform sequences.
    build_context: "GridBuildContext | None" = None
    #: How this build sourced its scenario slices (cache-served vs computed);
    #: ``None`` for hand-built tables.
    slice_stats: "GridSliceStats | None" = None

    @property
    def n_scenarios(self) -> int:
        return len(self.platforms)

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def n_devices(self) -> int:
        return len(self.aliases)

    @property
    def host(self) -> str:
        return self.platforms[0].host

    def _scenario_index(self, index: int) -> int:
        """Normalize a scenario index (negative counts from the end)."""
        s = self.n_scenarios
        i = operator.index(index)
        j = i + s if i < 0 else i
        if not 0 <= j < s:
            raise IndexError(
                f"scenario index {i} out of range for {s} scenarios (valid: {-s}..{s - 1})"
            )
        return j

    def cache_stats(self) -> GridSliceStats:
        """Slice provenance of this build: how many of its scenario slices
        came out of the table cache vs were computed fresh."""
        if self.slice_stats is not None:
            return self.slice_stats
        return GridSliceStats(served=0, built=self.n_scenarios)

    def table(self, index: int) -> ChainCostTables:
        """The :class:`ChainCostTables` of one scenario (bitwise identical to
        ``build_tables(workload, platforms[index], devices=aliases)``); negative
        indices count from the end, like :meth:`GridExecutionResult.batch`."""
        index = self._scenario_index(index)
        values = {name: getattr(self, name) for name in _ROW_FIELDS}
        for name in _SLICE_FIELDS:
            values[name] = values[name][index]
        return ChainCostTables(
            platform=self.platforms[index],
            fingerprint=f"{self.fingerprint}#scenario{index}" if self.fingerprint else "",
            **values,
        )

    def updated(
        self, scenario_index: int, scenario: "Scenario", *, slice_cache: "TableCache | None" = None
    ) -> "GridCostTables":
        """Delta rebuild: these tables with one scenario replaced.

        Only the replaced scenario's condition slice is recomputed (or served
        from ``slice_cache`` by content fingerprint); every other row is
        reused as-is, which the differential tests pin bitwise against a full
        rebuild.  Negative indices count from the end.
        """
        return self.updated_many({scenario_index: scenario}, slice_cache=slice_cache)

    def updated_many(
        self,
        replacements: "Mapping[int, Scenario] | Sequence[tuple[int, Scenario]]",
        *,
        slice_cache: "TableCache | None" = None,
    ) -> "GridCostTables":
        """Batched :meth:`updated`: replace several scenarios in one pass."""
        context = self.build_context
        if context is None:
            raise ValueError(
                "these grid tables carry no build context for delta rebuilds; "
                "build them from a base platform plus scenarios "
                "(build_tables(..., scenarios=...) or executor.grid_cost_tables) "
                "rather than from pre-derived platforms"
            )
        replacements = dict(replacements)
        if not replacements:
            return self
        Scenario, ScenarioGrid = _scenario_classes()

        normalized: dict[int, "Scenario"] = {}
        for index, scenario in replacements.items():
            i = self._scenario_index(index)
            if i in normalized:
                raise ValueError(f"duplicate replacement for scenario index {i}")
            if not isinstance(scenario, Scenario):
                raise TypeError(f"expected a Scenario replacement, got {scenario!r}")
            normalized[i] = scenario
        entries = list(context.scenarios.scenarios)
        for i, scenario in normalized.items():
            entries[i] = scenario
        new_grid = ScenarioGrid(tuple(entries))  # re-validates name uniqueness

        order = sorted(normalized)
        slices: dict[int, GridSlice] = {}
        to_build: list[int] = []
        if slice_cache is not None:
            for i in order:
                hit = slice_cache.get(_slice_key(context, normalized[i]))
                if hit is not None:
                    slices[i] = hit
                else:
                    to_build.append(i)
        else:
            to_build = order
        if to_build:
            built = _scenario_slices(context, [normalized[i] for i in to_build])
            for i, piece in zip(to_build, built):
                slices[i] = piece
                if slice_cache is not None:
                    slice_cache.put(_slice_key(context, normalized[i]), piece)

        changes: dict[str, np.ndarray] = {}
        for name in _SLICE_FIELDS:
            arr = getattr(self, name).copy()
            for i in order:
                arr[i] = getattr(slices[i], name)
            changes[name] = arr
        new_context = replace(context, scenarios=new_grid)
        new_fingerprint = ""
        if self.fingerprint:
            # Invariant: equals build_tables' key for the updated config, so
            # executor-level caches recognise the rebuilt tables.  Seeding the
            # new grid's digest from the old one's memoized per-scenario parts
            # keeps the re-key O(replacements) instead of O(scenarios).
            seed_updated_grid_fingerprint(context.scenarios, new_grid, order)
            new_fingerprint = table_key_from_fingerprint(
                context.workload_fingerprint,
                context.platform,
                devices=context.devices,
                scenarios=new_grid,
            )
        return replace(
            self,
            platforms=ScenarioPlatforms(context.platform, new_grid),
            build_context=new_context,
            fingerprint=new_fingerprint,
            slice_stats=GridSliceStats(served=len(order) - len(to_build), built=len(to_build)),
            **changes,
        )

    def execute(self, placements: np.ndarray) -> "GridExecutionResult":
        """Evaluate a placement batch under every condition (protocol entry)."""
        return execute_placements_grid(self, placements)


@dataclass(frozen=True)
class GraphGridCostTables(GridCostTables):
    """Condition-stacked cost tables of a :class:`~repro.tasks.graph.TaskGraph`.

    Same value arrays as :class:`GridCostTables` (built over the graph's
    topologically ordered tasks), plus the dependency structure.  Per-scenario
    slices are :class:`~repro.devices.batch.GraphCostTables`, so
    :meth:`GridExecutionResult.batch` views replay graph semantics.
    """

    #: Per topological position, the predecessors' topological positions.
    pred_positions: tuple[tuple[int, ...], ...] = ()

    def table(self, index: int) -> ChainCostTables:
        """The :class:`~repro.devices.batch.GraphCostTables` of one scenario."""
        return as_graph_tables(super().table(index), self.pred_positions)


# ---------------------------------------------------------------------------
# shared construction machinery
# ---------------------------------------------------------------------------


def _grid_build_context(
    workload: TaskChain | TaskGraph,
    platform: Platform,
    scenarios: "ScenarioGrid",
    devices: Sequence[str] | None,
) -> GridBuildContext:
    return GridBuildContext(
        platform=platform,
        scenarios=scenarios,
        devices=tuple(devices) if devices is not None else None,
        workload_fingerprint=cached_fingerprint(workload),
        task_costs=tuple(workload.costs()),
    )


def _attach_build_context(
    tables: GridCostTables,
    workload: TaskChain | TaskGraph,
    platform: Platform,
    scenarios: "ScenarioGrid",
    devices: Sequence[str] | None,
) -> GridCostTables:
    """Equip materializing-fallback tables with delta-rebuild provenance."""
    return replace(tables, build_context=_grid_build_context(workload, platform, scenarios, devices))


@lru_cache(maxsize=None)
def _scenario_classes() -> tuple:
    """``(Scenario, ScenarioGrid)``, imported once off the delta hot path."""
    from ..scenarios.conditions import Scenario
    from ..scenarios.grid import ScenarioGrid

    return Scenario, ScenarioGrid


def _slice_key(context: GridBuildContext, scenario: "Scenario") -> tuple:
    """Content-addressed cache key of one scenario's condition slice."""
    return context._slice_key_prefix + (cached_fingerprint(scenario),)


def _missing_link_topology(
    platform: Platform, aliases: Sequence[str], host: str
) -> tuple[frozenset, np.ndarray]:
    """Which candidate links are absent from the (shared) topology.

    Conditions never rewire a platform, so link presence is a property of the
    base platform alone; this is the single source of truth for both builders.
    """
    links = platform.links

    def has(a: str, b: str) -> bool:
        return ((a, b) if a <= b else (b, a)) in links

    missing: set[tuple[str, str]] = set()
    host_missing = np.zeros(len(aliases), dtype=bool)
    for d, alias in enumerate(aliases):
        if alias != host and not has(host, alias):
            missing.add((host, alias))
            host_missing[d] = True
    for a in aliases:
        for b in aliases:
            if a != b and not has(a, b):
                missing.add((a, b))
    return frozenset(missing), host_missing


@dataclass
class _GridParamArrays:
    """Gathered ``(scenario, ...)`` parameter arrays feeding the formula core."""

    peak: np.ndarray  # (s, m)
    half_saturation: np.ndarray  # (s, m)
    mem_bw: np.ndarray  # (s, m)
    launch: np.ndarray  # (s, m)
    startup: np.ndarray  # (s, m)
    power_active: np.ndarray  # (s, m)
    power_idle: np.ndarray  # (s, m)
    cost_per_hour: np.ndarray  # (s, m)
    host_bw: np.ndarray  # (s, m), NaN where absent
    host_lat: np.ndarray  # (s, m)
    host_epb: np.ndarray  # (s, m)
    host_missing: np.ndarray  # (m,) bool
    pair_bw: np.ndarray  # (s, m, m), NaN where absent
    pair_lat: np.ndarray  # (s, m, m)
    pair_epb: np.ndarray  # (s, m, m)
    extra_idle_power: np.ndarray  # (s, n_extra)
    missing: frozenset


def _materialized_params(
    platforms: Sequence[Platform],
    aliases: Sequence[str],
    host: str,
    device_order: Sequence[str],
) -> _GridParamArrays:
    """Parameter gather of the materializing path: per-platform getattr loops."""
    s, m = len(platforms), len(aliases)
    missing, host_missing = _missing_link_topology(platforms[0], aliases, host)

    def link_params(a: str, b: str) -> list[tuple[float, float, float]]:
        return [
            (link.bandwidth_gbs, link.latency_s, link.energy_per_byte_j)
            for platform in platforms
            for link in (platform.link(a, b),)
        ]

    host_bw = np.full((s, m), np.nan)
    host_lat = np.full((s, m), np.nan)
    host_epb = np.full((s, m), np.nan)
    for d, alias in enumerate(aliases):
        if alias == host or host_missing[d]:
            continue
        params = link_params(host, alias)
        host_bw[:, d] = [p[0] for p in params]
        host_lat[:, d] = [p[1] for p in params]
        host_epb[:, d] = [p[2] for p in params]

    pair_bw = np.full((s, m, m), np.nan)
    pair_lat = np.full((s, m, m), np.nan)
    pair_epb = np.full((s, m, m), np.nan)
    for i, a in enumerate(aliases):
        for j, b in enumerate(aliases):
            if a == b or (a, b) in missing:
                continue
            params = link_params(a, b)
            pair_bw[:, i, j] = [p[0] for p in params]
            pair_lat[:, i, j] = [p[1] for p in params]
            pair_epb[:, i, j] = [p[2] for p in params]

    extra = [alias for alias in device_order if alias not in aliases]
    extra_idle_power = np.array(
        [[platform.device(alias).power_idle_w for alias in extra] for platform in platforms]
    ).reshape(s, len(extra))

    return _GridParamArrays(
        peak=_device_param(platforms, aliases, "peak_gflops"),
        half_saturation=_device_param(platforms, aliases, "half_saturation_flops"),
        mem_bw=_device_param(platforms, aliases, "memory_bandwidth_gbs"),
        launch=_device_param(platforms, aliases, "kernel_launch_overhead_s"),
        startup=_device_param(platforms, aliases, "task_startup_overhead_s"),
        power_active=_device_param(platforms, aliases, "power_active_w"),
        power_idle=_device_param(platforms, aliases, "power_idle_w"),
        cost_per_hour=_device_param(platforms, aliases, "cost_per_hour"),
        host_bw=host_bw,
        host_lat=host_lat,
        host_epb=host_epb,
        host_missing=host_missing,
        pair_bw=pair_bw,
        pair_lat=pair_lat,
        pair_epb=pair_epb,
        extra_idle_power=extra_idle_power,
        missing=missing,
    )


def _fused_params(
    params: PlatformParams, aliases: Sequence[str], host: str
) -> _GridParamArrays:
    """Parameter gather of the fused path: column slices of the array bundle.

    The arrays hold exactly the floats the scalar axis math would have put on
    derived ``DeviceSpec``/``LinkSpec`` objects (elementwise float64 ops round
    identically), so the result is bitwise the materializing gather.
    """
    s, m = params.n_scenarios, len(aliases)
    missing, host_missing = _missing_link_topology(params.base, aliases, host)

    dev_index = {alias: i for i, alias in enumerate(params.device_order)}
    cand = np.array([dev_index[alias] for alias in aliases], dtype=np.intp)

    def dev(name: str) -> np.ndarray:
        return params.device[name][:, cand]

    pair_index = {pair: i for i, pair in enumerate(params.link_pairs)}

    def link_col(a: str, b: str) -> int:
        return pair_index[(a, b) if a <= b else (b, a)]

    host_bw = np.full((s, m), np.nan)
    host_lat = np.full((s, m), np.nan)
    host_epb = np.full((s, m), np.nan)
    for d, alias in enumerate(aliases):
        if alias == host or host_missing[d]:
            continue
        col = link_col(host, alias)
        host_bw[:, d] = params.link["bandwidth_gbs"][:, col]
        host_lat[:, d] = params.link["latency_s"][:, col]
        host_epb[:, d] = params.link["energy_per_byte_j"][:, col]

    pair_bw = np.full((s, m, m), np.nan)
    pair_lat = np.full((s, m, m), np.nan)
    pair_epb = np.full((s, m, m), np.nan)
    for i, a in enumerate(aliases):
        for j, b in enumerate(aliases):
            if a == b or (a, b) in missing:
                continue
            col = link_col(a, b)
            pair_bw[:, i, j] = params.link["bandwidth_gbs"][:, col]
            pair_lat[:, i, j] = params.link["latency_s"][:, col]
            pair_epb[:, i, j] = params.link["energy_per_byte_j"][:, col]

    extra = [alias for alias in params.device_order if alias not in aliases]
    extra_cols = np.array([dev_index[alias] for alias in extra], dtype=np.intp)
    extra_idle_power = params.device["power_idle_w"][:, extra_cols].reshape(s, len(extra))

    return _GridParamArrays(
        peak=dev("peak_gflops"),
        half_saturation=dev("half_saturation_flops"),
        mem_bw=dev("memory_bandwidth_gbs"),
        launch=dev("kernel_launch_overhead_s"),
        startup=dev("task_startup_overhead_s"),
        power_active=dev("power_active_w"),
        power_idle=dev("power_idle_w"),
        cost_per_hour=dev("cost_per_hour"),
        host_bw=host_bw,
        host_lat=host_lat,
        host_epb=host_epb,
        host_missing=host_missing,
        pair_bw=pair_bw,
        pair_lat=pair_lat,
        pair_epb=pair_epb,
        extra_idle_power=extra_idle_power,
        missing=missing,
    )


def _apply_grid_conditions(params: PlatformParams, entries: "Sequence[Scenario]") -> None:
    """Apply every scenario's condition axes to the parameter arrays in place.

    Walks the settings *positions* in order and groups the scenarios that pin
    the same axis at each position into one ``scale_arrays`` call (axes are
    hashable value types).  Each scenario's axes still apply in its own
    settings order, and the grouped rows are disjoint, so the arithmetic per
    row is exactly the scalar sequence of apply() calls.
    """
    max_steps = max((len(scenario.settings) for scenario in entries), default=0)
    for step in range(max_steps):
        groups: "dict[Any, tuple[list[int], list[float]]]" = {}
        for row, scenario in enumerate(entries):
            if step < len(scenario.settings):
                axis, value = scenario.settings[step]
                rows, values = groups.setdefault(axis, ([], []))
                rows.append(row)
                values.append(value)
        for axis, (rows, values) in groups.items():
            axis.scale_arrays(params, np.asarray(rows, dtype=np.intp), np.asarray(values, dtype=float))


def _grid_value_arrays(costs: Sequence, pa: _GridParamArrays, nonhost: np.ndarray) -> dict:
    """The scenario-dependent grid tables from gathered parameter arrays.

    Shared formula core of the materializing and fused builders *and* of delta
    rebuilds.  Every operation is elementwise along the scenario axis, so
    computing any scenario subset reproduces the full build's rows bitwise.
    """
    s, m = pa.peak.shape
    k = len(costs)

    busy = np.empty((s, k, m))
    hostio_time = np.zeros((s, k, m))
    energy_in = np.zeros((s, k, m))
    energy_out = np.zeros((s, k, m))
    any_nonhost = bool(nonhost.any())
    for t, cost in enumerate(costs):
        busy[:, t, :] = costmodel.busy_time(
            cost.flops, cost.kernel_calls, cost.working_set_bytes, pa.peak, pa.half_saturation, pa.mem_bw, pa.launch
        )
        if any_nonhost:
            # Host I/O and startup only exist for offloaded tasks; the same
            # single addition per value as costmodel.task_device_cost.
            hostio_time[:, t, nonhost] = (
                costmodel.transfer_time(cost.input_bytes, pa.host_bw, pa.host_lat)
                + costmodel.transfer_time(cost.output_bytes, pa.host_bw, pa.host_lat)
            )[:, nonhost]
            energy_in[:, t, nonhost] = costmodel.transfer_energy(cost.input_bytes, pa.host_epb)[:, nonhost]
            energy_out[:, t, nonhost] = costmodel.transfer_energy(cost.output_bytes, pa.host_epb)[:, nonhost]
            busy[:, t, nonhost] += pa.startup[:, nonhost]
    # Missing host links poison every link-dependent field, even for zero-byte
    # transfers (task_device_cost NaNs the whole entry via the KeyError path).
    if pa.host_missing.any():
        hostio_time[:, :, pa.host_missing] = np.nan
        energy_in[:, :, pa.host_missing] = np.nan
        energy_out[:, :, pa.host_missing] = np.nan

    offdiag = ~np.eye(m, dtype=bool)
    penalty_time = np.zeros((s, m, m))
    penalty_energy = np.zeros((s, m, m))
    penalty_time[:, offdiag] = costmodel.transfer_time(PENALTY_MESSAGE_BYTES, pa.pair_bw, pa.pair_lat)[
        :, offdiag
    ]
    penalty_energy[:, offdiag] = costmodel.transfer_energy(PENALTY_MESSAGE_BYTES, pa.pair_epb)[:, offdiag]

    first_penalty_time = np.zeros((s, m))
    first_penalty_energy = np.zeros((s, m))
    first_penalty_time[:, nonhost] = costmodel.transfer_time(
        PENALTY_MESSAGE_BYTES, pa.host_bw, pa.host_lat
    )[:, nonhost]
    first_penalty_energy[:, nonhost] = costmodel.transfer_energy(PENALTY_MESSAGE_BYTES, pa.host_epb)[
        :, nonhost
    ]
    if pa.host_missing.any():
        first_penalty_time[:, pa.host_missing] = np.nan
        first_penalty_energy[:, pa.host_missing] = np.nan

    return {
        "busy": busy,
        "hostio_time": hostio_time,
        "energy_in": energy_in,
        "energy_out": energy_out,
        "penalty_time": penalty_time,
        "penalty_energy": penalty_energy,
        "first_penalty_time": first_penalty_time,
        "first_penalty_energy": first_penalty_energy,
        "power_active": pa.power_active,
        "power_idle": pa.power_idle,
        "cost_per_hour": pa.cost_per_hour,
        "extra_idle_power": pa.extra_idle_power,
    }


def _static_value_arrays(costs: Sequence, nonhost: np.ndarray, m: int) -> dict:
    """The scenario-independent grid tables (byte counts, FLOPs)."""
    k = len(costs)
    task_flops = np.array([cost.flops for cost in costs], dtype=float)
    hostio_bytes = np.zeros((k, m))
    if nonhost.any():
        for t, cost in enumerate(costs):
            hostio_bytes[t, nonhost] = cost.transferred_bytes
    offdiag = ~np.eye(m, dtype=bool)
    penalty_bytes = np.where(offdiag, PENALTY_MESSAGE_BYTES, 0.0)
    first_penalty_bytes = np.where(nonhost, PENALTY_MESSAGE_BYTES, 0.0)
    return {
        "hostio_bytes": hostio_bytes,
        "task_flops": task_flops,
        "penalty_bytes": penalty_bytes,
        "first_penalty_bytes": first_penalty_bytes,
    }


def _materialized_grid_tables(
    chain: TaskChain | TaskGraph,
    platforms: Sequence[Platform],
    devices: Sequence[str] | None = None,
) -> GridCostTables:
    """The materializing grid builder: pre-derived platforms in, stacked tables out.

    Every platform must share the base platform's *shape*: the same device
    aliases (in the same order), the same host and the same link topology --
    conditions re-parameterize a platform, they do not rewire it.  The tables
    are computed vectorized across the scenario axis through the
    :mod:`~repro.devices.costmodel` formulas, so each scenario's slice is
    bitwise identical to the scalar per-platform build.  A
    :class:`~repro.tasks.graph.TaskGraph` workload yields
    :class:`GraphGridCostTables` (same values over the topologically ordered
    tasks, plus the dependency structure).

    This path gathers parameters from materialized ``Platform`` objects.  It
    builds every plain table (row 0 of a one-platform build) and serves as the
    differential reference (and custom-axis fallback) for the fused builder,
    which shares its formula core (:func:`_grid_value_arrays`).
    """
    if isinstance(chain, TaskGraph):
        base = _materialized_grid_tables(
            TaskChain(chain.tasks, name=chain.name), platforms, devices
        )
        values = {f.name: getattr(base, f.name) for f in fields(GridCostTables)}
        return GraphGridCostTables(**values, pred_positions=chain.predecessor_positions)
    platforms = tuple(platforms)
    if not platforms:
        raise ValueError("at least one platform is required")
    base = platforms[0]
    device_order = tuple(base.devices)
    link_keys = set(base.links)
    for platform in platforms[1:]:
        if tuple(platform.devices) != device_order:
            raise ValueError(
                f"platform {platform.name!r} has devices {list(platform.devices)}, "
                f"expected {list(device_order)} -- scenario platforms must share "
                f"the base platform's device set"
            )
        if platform.host != base.host:
            raise ValueError(
                f"platform {platform.name!r} has host {platform.host!r}, expected {base.host!r}"
            )
        if set(platform.links) != link_keys:
            raise ValueError(
                f"platform {platform.name!r} has links {sorted(platform.links)}, "
                f"expected {sorted(link_keys)} -- conditions must not rewire the topology"
            )

    aliases = resolve_aliases(base, devices)
    host = base.host
    costs = chain.costs()
    nonhost = np.array([alias != host for alias in aliases])

    pa = _materialized_params(platforms, aliases, host, device_order)
    values = _grid_value_arrays(costs, pa, nonhost)
    static = _static_value_arrays(costs, nonhost, len(aliases))

    return GridCostTables(
        task_names=tuple(chain.task_names),
        platforms=platforms,
        aliases=aliases,
        device_order=device_order,
        missing_links=pa.missing,
        workload=chain.name,
        slice_stats=GridSliceStats(served=0, built=len(platforms)),
        **values,
        **static,
    )


def _try_fused_grid_tables(
    workload: TaskChain | TaskGraph,
    platform: Platform,
    scenarios: "ScenarioGrid",
    devices: Sequence[str] | None = None,
    slice_cache: "TableCache | None" = None,
) -> "GridCostTables | None":
    """The fused array-space grid builder (base platform + scenario grid).

    Returns ``None`` when any scenario pins an axis without the vectorized
    ``scale_arrays`` hook -- the caller falls back to the materializing path.
    With a ``slice_cache``, previously built scenario slices are served by
    content fingerprint instead of recomputed (see
    :meth:`GridCostTables.cache_stats`).
    """
    from ..scenarios.conditions import vectorized_axis

    for scenario in scenarios.scenarios:
        for axis, _ in scenario.settings:
            if not vectorized_axis(axis):
                return None
    context = _grid_build_context(workload, platform, scenarios, devices)
    if isinstance(workload, TaskGraph):
        base = _fused_grid_tables(
            TaskChain(workload.tasks, name=workload.name), platform, scenarios, devices, slice_cache, context
        )
        values = {f.name: getattr(base, f.name) for f in fields(GridCostTables)}
        return GraphGridCostTables(**values, pred_positions=workload.predecessor_positions)
    return _fused_grid_tables(workload, platform, scenarios, devices, slice_cache, context)


def _fused_grid_tables(
    chain: TaskChain,
    platform: Platform,
    scenarios: "ScenarioGrid",
    devices: Sequence[str] | None,
    slice_cache: "TableCache | None",
    context: GridBuildContext,
) -> GridCostTables:
    aliases = resolve_aliases(platform, devices)
    host = platform.host
    costs = context.task_costs
    entries = scenarios.scenarios
    s, m = len(entries), len(aliases)
    nonhost = np.array([alias != host for alias in aliases])

    keys: "list[tuple] | None" = None
    served: dict[int, GridSlice] = {}
    if slice_cache is not None:
        keys = [_slice_key(context, scenario) for scenario in entries]
        for i, key in enumerate(keys):
            hit = slice_cache.get(key)
            if hit is not None:
                served[i] = hit
    need = [i for i in range(s) if i not in served]

    sub = None
    missing: "frozenset | None" = None
    if need:
        params = PlatformParams.gather(platform, len(need))
        _apply_grid_conditions(params, [entries[i] for i in need])
        pa = _fused_params(params, aliases, host)
        sub = _grid_value_arrays(costs, pa, nonhost)
        missing = pa.missing
    if missing is None:
        missing = _missing_link_topology(platform, aliases, host)[0]

    if not served:
        values = sub if sub is not None else {}
    else:
        any_slice = next(iter(served.values()))
        rows = np.asarray(need, dtype=np.intp)
        values = {}
        for name in _SLICE_FIELDS:
            tail = sub[name].shape[1:] if sub is not None else getattr(any_slice, name).shape
            arr = np.empty((s,) + tail)
            if need:
                arr[rows] = sub[name]
            for i, piece in served.items():
                arr[i] = getattr(piece, name)
            values[name] = arr
    if slice_cache is not None and need:
        for pos, i in enumerate(need):
            piece = GridSlice(**{name: sub[name][pos].copy() for name in _SLICE_FIELDS})
            slice_cache.put(keys[i], piece)

    static = _static_value_arrays(costs, nonhost, m)
    return GridCostTables(
        task_names=tuple(chain.task_names),
        platforms=ScenarioPlatforms(platform, scenarios),
        aliases=aliases,
        device_order=tuple(platform.devices),
        missing_links=missing,
        workload=chain.name,
        build_context=context,
        slice_stats=GridSliceStats(served=len(served), built=len(need)),
        **values,
        **static,
    )


def _scenario_slices(context: GridBuildContext, entries: "Sequence[Scenario]") -> list[GridSlice]:
    """Compute the condition slices of some scenarios of a build context.

    Uses the fused array path when every axis is vectorized, the materializing
    apply_conditions path otherwise; either way the formula core is elementwise
    per scenario row, so the slices match a full rebuild bitwise.
    """
    from ..scenarios.conditions import apply_conditions, vectorized_axis

    platform = context.platform
    aliases = resolve_aliases(platform, context.devices)
    host = platform.host
    nonhost = np.array([alias != host for alias in aliases])
    fused = all(
        vectorized_axis(axis) for scenario in entries for axis, _ in scenario.settings
    )
    if fused:
        params = PlatformParams.gather(platform, len(entries))
        _apply_grid_conditions(params, entries)
        pa = _fused_params(params, aliases, host)
    else:
        platforms = tuple(apply_conditions(platform, scenario) for scenario in entries)
        pa = _materialized_params(platforms, aliases, host, tuple(platform.devices))
    values = _grid_value_arrays(context.task_costs, pa, nonhost)
    return [
        GridSlice(**{name: values[name][i].copy() for name in _SLICE_FIELDS})
        for i in range(len(entries))
    ]


@dataclass(frozen=True)
class GridExecutionResult:
    """Array-form execution records of one batch under every condition.

    Scenario-dependent metrics have shape ``(n_conditions, n_placements)``
    (per-device columns ``(n_conditions, n_placements, n_devices)``); byte
    counts and FLOPs, which conditions cannot change, are stored once.
    Every slice along the condition axis is bitwise identical to
    :func:`~repro.devices.batch.execute_placements` on the scenario's derived
    platform -- :meth:`batch` materialises that view on demand.

    The per-device energy breakdowns :attr:`active_j` / :attr:`idle_j` are
    computed lazily on first access: the scalar totals already fold them in,
    so the full ``(s, n, m)`` breakdown cubes only cost memory traffic when a
    caller actually inspects them.
    """

    tables: GridCostTables
    placements: np.ndarray
    total_time_s: np.ndarray  # (s, n)
    busy_by_device: np.ndarray  # (s, n, m)
    flops_by_device: np.ndarray  # (n, m)
    transferred_bytes: np.ndarray  # (n,)
    transfer_energy_j: np.ndarray  # (s, n)
    energy_total_j: np.ndarray  # (s, n)
    operating_cost: np.ndarray  # (s, n)

    @cached_property
    def active_j(self) -> np.ndarray:
        """Per-device active energy ``(s, n, m)``, computed on first access."""
        return self.busy_by_device * self.tables.power_active[:, None, :]

    @cached_property
    def idle_j(self) -> np.ndarray:
        """Per-device idle energy ``(s, n, m)``, computed on first access."""
        return (
            np.maximum(self.total_time_s[:, :, None] - self.busy_by_device, 0.0)
            * self.tables.power_idle[:, None, :]
        )

    def __len__(self) -> int:
        """Number of placements (matching :class:`BatchExecutionResult`)."""
        return self.placements.shape[0]

    @property
    def n_scenarios(self) -> int:
        return self.tables.n_scenarios

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.tables.aliases

    def placement(self, index: int) -> tuple[str, ...]:
        return tuple(self.aliases[d] for d in self.placements[index])

    def label(self, index: int) -> str:
        return "".join(self.placement(index))

    def labels(self) -> list[str]:
        return placement_labels(self.placements, self.aliases)

    def metric_values(self, metric: str = "time") -> np.ndarray:
        """``(n_conditions, n_placements)`` values of one scalar metric."""
        if metric == "time":
            return self.total_time_s
        if metric == "energy":
            return self.energy_total_j
        if metric == "cost":
            return self.operating_cost
        raise ValueError(f"unknown metric {metric!r}; choose 'time', 'energy' or 'cost'")

    def batch(self, index: int) -> BatchExecutionResult:
        """One scenario's :class:`BatchExecutionResult` (views, no copies);
        negative indices count from the end."""
        index = self.tables._scenario_index(index)
        return self._row(index, self.tables.table(index))

    def _row(self, index: int, tables: ChainCostTables) -> BatchExecutionResult:
        """Row ``index`` as a batch result over the given plain tables."""
        return BatchExecutionResult(
            tables=tables,
            placements=self.placements,
            total_time_s=self.total_time_s[index],
            busy_by_device=self.busy_by_device[index],
            flops_by_device=self.flops_by_device,
            transferred_bytes=self.transferred_bytes,
            transfer_energy_j=self.transfer_energy_j[index],
            active_j=self.active_j[index],
            idle_j=self.idle_j[index],
            energy_total_j=self.energy_total_j[index],
            operating_cost=self.operating_cost[index],
        )

    def batches(self):
        """Iterate the per-scenario batch views, in grid order."""
        for index in range(self.n_scenarios):
            yield self.batch(index)


def execute_placements_grid(tables: GridCostTables, placements: np.ndarray) -> GridExecutionResult:
    """Evaluate every placement under every condition in one vectorized pass.

    Every ``(scenario, placement)`` element undergoes the identical sequence
    of IEEE-754 operations as the sequential executor on that scenario's
    platform -- bitwise equal results.  :class:`GraphGridCostTables` route
    through the DAG kernel (critical path, per-edge joins) with the condition
    axis vectorized alongside.
    """
    P = as_placement_matrix(placements, tables.aliases, tables.n_tasks, workload=tables.workload)
    return _run_kernel(tables, P.astype(np.intp, copy=False))


def _run_kernel(tables: GridCostTables, P: np.ndarray) -> GridExecutionResult:
    """Dispatch a validated placement matrix to the chain or DAG kernel."""
    if isinstance(tables, GraphGridCostTables):
        return _execute_graph_placements_grid(tables, P)
    if tables.missing_links:
        # Missing links mean gathered transfer times can be NaN; the checked
        # kernel materializes the full (s, n, k) gathers so the first NaN can
        # be attributed to the exact (placement, task) that crosses the gap.
        return _execute_chain_grid_checked(tables, P)
    return _execute_chain_grid(tables, P)


def _row_view(tables: ChainCostTables) -> GridCostTables:
    """Plain tables as a one-scenario grid: leading-axis views, no copies."""
    values = {name: getattr(tables, name) for name in _ROW_FIELDS}
    for name in _SLICE_FIELDS:
        values[name] = values[name][None]
    view = GridCostTables
    if isinstance(tables, GraphCostTables):
        values["pred_positions"] = tables.pred_positions
        view = GraphGridCostTables
    platform = tables.platform
    return view(platforms=(platform,), device_order=tuple(platform.devices), **values)


def _execute_row(tables: ChainCostTables, P: np.ndarray) -> BatchExecutionResult:
    """The engine behind :func:`~repro.devices.batch.execute_placements`: the
    grid kernels on the one-row view of plain tables, row 0 handed back."""
    return _run_kernel(_row_view(tables), P)._row(0, tables)


def _finalize_row(
    tables: ChainCostTables,
    P: np.ndarray,
    total_time: np.ndarray,
    transferred: np.ndarray,
    transfer_energy: np.ndarray,
    busy_by_device: np.ndarray,
    flops_by_device: np.ndarray,
) -> BatchExecutionResult:
    """Energy/cost finalization of plain-table folds through :func:`_finalize_grid`."""
    result = _finalize_grid(
        _row_view(tables),
        P,
        total_time[None],
        transferred,
        transfer_energy[None],
        busy_by_device[None],
        flops_by_device,
    )
    return result._row(0, tables)


def _execute_chain_grid(tables: GridCostTables, P: np.ndarray) -> GridExecutionResult:
    """The chain kernel on fully linked platforms.

    Condition math runs in compact space: a task's time contribution is
    ``busy + (hostio + penalty)``, which takes at most m*m distinct values
    per (scenario, task) -- one per (previous device, device) pair.  The
    combine therefore runs on (s, m, m) tables and only the final gather and
    accumulator add touch (s, n).  Per element this is the identical
    sequence of IEEE-754 operations as the checked kernel below (the gather
    merely deduplicates them), so results stay bitwise equal.
    """
    n, k = P.shape
    s, m = tables.n_scenarios, tables.n_devices
    energy_in_flat = tables.energy_in.reshape(s, k * m)
    energy_out_flat = tables.energy_out.reshape(s, k * m)
    pen_energy_flat = tables.penalty_energy.reshape(s, m * m)
    hostio_bytes_flat = tables.hostio_bytes.ravel()
    pen_bytes_flat = tables.penalty_bytes.ravel()

    total_time: np.ndarray | None = None
    transfer_energy: np.ndarray | None = None
    transferred = np.zeros(n)
    flops_by_device = np.zeros((n, m))
    # A placement's busy time (and FLOPs) on device d is the task-order sum
    # of the tasks it maps to d: the sequential fold adds ``x * False == 0.0``
    # for the rest, a bitwise no-op on these non-negative values.  When the
    # 2**k possible subset sums per (scenario, device) undercut the per-task
    # work, they are built once and gathered into device-major (s, n) planes
    # (contiguous for the finalizer; the (s, n, m) result is a free
    # transpose).  Otherwise each task scatter-adds into the one device
    # column it runs on: one call per task instead of one per device, which
    # is what small batches (single re-scores, top-k candidates) pay for.
    # The (row, device) pairs of one task are unique, so the fancy ``+=`` is
    # exact.
    subset_fold = (1 << k) <= m * n
    if not subset_fold:
        rows = np.arange(n)
        busy_flat = tables.busy.reshape(s, k * m)
        busy_by_device = np.zeros((s, n, m))

    for t in range(k):
        col = P[:, t]
        cols_t = t * m + col
        if t == 0:
            combined = tables.hostio_time[:, 0, :] + tables.first_penalty_time  # (s, m)
            combined += tables.busy[:, 0, :]
            pen_bytes_t = tables.first_penalty_bytes.take(col)
            pen_energy_t = tables.first_penalty_energy[:, col]
            # The accumulators start at 0.0 and every contribution is
            # non-negative, so seeding them from the first task's (owned)
            # gathers equals the explicit zeros + add of the checked engine.
            total_time = combined[:, col]
            transfer_energy = energy_in_flat[:, cols_t]
        else:
            pair = P[:, t - 1] * m + col
            combined = tables.hostio_time[:, t, None, :] + tables.penalty_time  # (s, m, m)
            combined += tables.busy[:, t, None, :]
            pen_bytes_t = pen_bytes_flat.take(pair)
            pen_energy_t = pen_energy_flat[:, pair]
            np.add(total_time, combined.reshape(s, m * m)[:, pair], out=total_time)
            np.add(transfer_energy, energy_in_flat[:, cols_t], out=transfer_energy)
        transferred += hostio_bytes_flat.take(cols_t) + pen_bytes_t
        np.add(transfer_energy, energy_out_flat[:, cols_t], out=transfer_energy)
        np.add(transfer_energy, pen_energy_t, out=transfer_energy)
        if not subset_fold:
            busy_by_device[:, rows, col] += busy_flat[:, cols_t]
            flops_by_device[rows, col] += tables.task_flops[t]

    if total_time is None:  # zero-task workload: nothing to fold
        total_time = np.zeros((s, n))
        transfer_energy = np.zeros((s, n))
    busy_cols = None
    if subset_fold:
        subset_weights = 1 << np.arange(k)
        flop_sums = np.zeros(1)
        for t in range(k):
            flop_sums = np.concatenate((flop_sums, flop_sums + tables.task_flops[t]))
        busy_block = np.empty((m, s, n))
        for d in range(m):
            sums = np.zeros((s, 1))
            for t in range(k):
                sums = np.concatenate((sums, sums + tables.busy[:, t, d, None]), axis=1)
            subset = ((P == d) * subset_weights).sum(axis=1)
            np.take(sums, subset, axis=1, out=busy_block[d])
            flops_by_device[:, d] = flop_sums.take(subset)
        busy_by_device = busy_block.transpose(1, 2, 0)
        busy_cols = tuple(busy_block)

    return _finalize_grid(
        tables,
        P,
        total_time,
        transferred,
        transfer_energy,
        busy_by_device,
        flops_by_device,
        busy_cols=busy_cols,
    )


def _execute_chain_grid_checked(tables: GridCostTables, P: np.ndarray) -> GridExecutionResult:
    """The chain kernel for platforms with missing links.

    Gathers the full ``(s, n, k)`` per-task cubes up front so a NaN transfer
    time (a placement crossing an undefined link) can be located and reported
    with the exact offending device pair.  Fold order matches the fast path,
    so results are bitwise identical when no placement is rejected.
    """
    n, k = P.shape
    s, m = tables.n_scenarios, tables.n_devices

    # Flat-index takes: one contiguous gather per table instead of broadcast
    # advanced indexing -- same elements, so bitwise identical, with far less
    # index arithmetic.
    flat_cols = ((np.arange(k) * m)[None, :] + P).ravel()

    def take_sk(table: np.ndarray) -> np.ndarray:
        return table.reshape(s, k * m).take(flat_cols, axis=1).reshape(s, n, k)

    busy_pt = take_sk(tables.busy)  # (s, n, k)
    hostio_time_pt = take_sk(tables.hostio_time)
    hostio_bytes_pt = tables.hostio_bytes.ravel().take(flat_cols).reshape(n, k)  # (n, k)
    energy_in_pt = take_sk(tables.energy_in)
    energy_out_pt = take_sk(tables.energy_out)
    pen_time_pt = np.empty((s, n, k))
    pen_energy_pt = np.empty((s, n, k))
    pen_bytes_pt = np.empty((n, k))
    first_col = P[:, 0]
    pen_time_pt[:, :, 0] = tables.first_penalty_time.take(first_col, axis=1)
    pen_energy_pt[:, :, 0] = tables.first_penalty_energy.take(first_col, axis=1)
    pen_bytes_pt[:, 0] = tables.first_penalty_bytes.take(first_col)
    if k > 1:
        pair_flat = (P[:, :-1] * m + P[:, 1:]).ravel()
        pen_time_pt[:, :, 1:] = (
            tables.penalty_time.reshape(s, m * m).take(pair_flat, axis=1).reshape(s, n, k - 1)
        )
        pen_energy_pt[:, :, 1:] = (
            tables.penalty_energy.reshape(s, m * m).take(pair_flat, axis=1).reshape(s, n, k - 1)
        )
        pen_bytes_pt[:, 1:] = tables.penalty_bytes.ravel().take(pair_flat).reshape(n, k - 1)
    transfer_pt = hostio_time_pt + pen_time_pt

    if np.isnan(transfer_pt).any():
        # Same rejection as the sequential executor: only placements that
        # actually traverse a missing link fail, with the offending pair named.
        _, i, t = (int(v) for v in np.argwhere(np.isnan(transfer_pt))[0])
        current = tables.aliases[P[i, t]]
        if np.isnan(hostio_time_pt[:, i, t]).any():
            a, b = tables.host, current
        else:
            a = tables.host if t == 0 else tables.aliases[P[i, t - 1]]
            b = current
        raise KeyError(
            f"no link defined between {a!r} and {b!r} "
            f"(required by placement {placement_labels(P[i : i + 1], tables.aliases)[0]!r})"
        )

    # Left folds in task order: bitwise identical to the per-scenario loop.
    total_time = np.zeros((s, n))
    transferred = np.zeros(n)
    transfer_energy = np.zeros((s, n))
    busy_by_device = np.zeros((s, n, m))
    flops_by_device = np.zeros((n, m))
    rows = np.arange(n)
    for t in range(k):
        total_time += busy_pt[:, :, t] + transfer_pt[:, :, t]
        transferred += hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]
        transfer_energy += energy_in_pt[:, :, t]
        transfer_energy += energy_out_pt[:, :, t]
        transfer_energy += pen_energy_pt[:, :, t]
        col = P[:, t]
        # Scatter-add instead of one masked add per device: each placement row
        # touches exactly one (row, device) cell per task (the index pairs are
        # unique, so plain fancy += is safe), and the accumulator never holds
        # -0.0 (it starts at +0.0 and busy times are >= 0), so dropping the
        # masked +0.0 additions of the other devices is bitwise neutral.
        busy_by_device[:, rows, col] += busy_pt[:, :, t]
        flops_by_device[rows, col] += tables.task_flops[t]

    return _finalize_grid(
        tables, P, total_time, transferred, transfer_energy, busy_by_device, flops_by_device
    )


def _finalize_grid(
    tables: GridCostTables,
    P: np.ndarray,
    total_time: np.ndarray,
    transferred: np.ndarray,
    transfer_energy: np.ndarray,
    busy_by_device: np.ndarray,
    flops_by_device: np.ndarray,
    busy_cols: tuple[np.ndarray, ...] | None = None,
) -> GridExecutionResult:
    """Per-device energy/cost finalization shared by the chain and graph grid engines.

    ``busy_cols`` optionally supplies contiguous per-device ``(s, n)`` views of
    ``busy_by_device`` (the chain kernel's subset fold builds device-major planes);
    when absent, strided column views are taken.  The per-device active/idle
    energy terms are summed column by column -- each column's elementwise
    product and the fold order match the full-cube formulation exactly, so the
    totals are bitwise unchanged while the ``(s, n, m)`` breakdown cubes are
    deferred to :attr:`GridExecutionResult.active_j` / ``idle_j``.
    """
    s, n = total_time.shape
    if busy_cols is None:
        busy_cols = tuple(busy_by_device[:, :, j] for j in range(tables.n_devices))

    # Fold the per-device energy/cost terms in the shared device order,
    # exactly like the sequential executor walks platform.devices; candidate
    # devices contribute active/idle/cost columns, the rest idle throughout.
    column = {alias: j for j, alias in enumerate(tables.aliases)}
    operating_cost = np.zeros((s, n))
    active_sum = np.zeros((s, n))
    idle_sum = np.zeros((s, n))
    # One reusable (s, n) staging buffer: each term is composed with explicit
    # out= steps -- the identical per-element operation sequence as the
    # expression form, without a fresh temporary per operation.
    scratch = np.empty((s, n))
    extra_position = 0
    for alias in tables.device_order:
        j = column.get(alias)
        if j is None:
            idle_w = tables.extra_idle_power[:, extra_position]
            extra_position += 1
            np.subtract(total_time, 0.0, out=scratch)
            np.maximum(scratch, 0.0, out=scratch)
            np.multiply(scratch, idle_w[:, None], out=scratch)
            np.add(idle_sum, scratch, out=idle_sum)
            continue
        b_j = busy_cols[j]
        np.multiply(tables.cost_per_hour[:, j, None], b_j, out=scratch)
        np.divide(scratch, 3600.0, out=scratch)
        np.add(operating_cost, scratch, out=operating_cost)
        np.multiply(b_j, tables.power_active[:, j, None], out=scratch)
        np.add(active_sum, scratch, out=active_sum)
        np.subtract(total_time, b_j, out=scratch)
        np.maximum(scratch, 0.0, out=scratch)
        np.multiply(scratch, tables.power_idle[:, j, None], out=scratch)
        np.add(idle_sum, scratch, out=idle_sum)
    # energy_total = (active + idle) + transfer, folded in place (active_sum
    # is not otherwise retained).
    np.add(active_sum, idle_sum, out=active_sum)
    np.add(active_sum, transfer_energy, out=active_sum)
    energy_total = active_sum

    return GridExecutionResult(
        tables=tables,
        placements=P,
        total_time_s=total_time,
        busy_by_device=busy_by_device,
        flops_by_device=flops_by_device,
        transferred_bytes=transferred,
        transfer_energy_j=transfer_energy,
        energy_total_j=energy_total,
        operating_cost=operating_cost,
    )


def _raise_graph_missing_link(
    aliases: Sequence[str],
    host: str,
    preds: Sequence[int],
    P: np.ndarray,
    i: int,
    t: int,
    hostio_nan: bool,
    pen_nan,
) -> None:
    """Reject placement ``i`` whose task ``t`` traverses a missing link.

    Shared by the DAG kernel and the fault engine (which differ only in how
    they detect a NaN entry): ``hostio_nan`` flags a missing host link at
    ``(i, t)``, ``pen_nan(p)`` whether the hop from predecessor position
    ``p`` is missing.  Names the offending device pair like the chain kernel.
    """
    current = aliases[P[i, t]]
    a = host
    if not hostio_nan:
        for p in preds:
            if pen_nan(p):
                a = aliases[P[i, p]]
                break
    raise KeyError(
        f"no link defined between {a!r} and {current!r} "
        f"(required by placement {placement_labels(P[i : i + 1], aliases)[0]!r})"
    )


def _execute_graph_placements_grid(
    tables: GraphGridCostTables, P: np.ndarray
) -> GridExecutionResult:
    """The DAG kernel: every placement under every condition in one pass.

    Edge-ordered penalty folds, max-over-predecessors ready times and a
    running-max critical path, with a leading condition axis -- every
    ``(scenario, placement)`` element is bitwise identical to
    ``SimulatedExecutor.execute_graph`` on the scenario's platform.
    """
    n, k = P.shape
    s, m = tables.n_scenarios, tables.n_devices
    preds = tables.pred_positions

    # Flat-index takes, as in the chain kernel (bitwise-identical gathers).
    flat_cols = ((np.arange(k) * m)[None, :] + P).ravel()

    def take_sk(table: np.ndarray) -> np.ndarray:
        return table.reshape(s, k * m).take(flat_cols, axis=1).reshape(s, n, k)

    busy_pt = take_sk(tables.busy)  # (s, n, k)
    hostio_time_pt = take_sk(tables.hostio_time)
    hostio_bytes_pt = tables.hostio_bytes.ravel().take(flat_cols).reshape(n, k)  # (n, k)
    energy_in_pt = take_sk(tables.energy_in)
    energy_out_pt = take_sk(tables.energy_out)
    pen_time_pt = np.zeros((s, n, k))
    pen_energy_pt = np.zeros((s, n, k))
    pen_bytes_pt = np.zeros((n, k))
    pen_time_flat = tables.penalty_time.reshape(s, m * m)
    pen_energy_flat = tables.penalty_energy.reshape(s, m * m)
    pen_bytes_flat = tables.penalty_bytes.ravel()
    for t in range(k):
        dst = P[:, t]
        if preds[t]:
            for p in preds[t]:
                edge = P[:, p] * m + dst
                pen_time_pt[:, :, t] += pen_time_flat.take(edge, axis=1)
                pen_energy_pt[:, :, t] += pen_energy_flat.take(edge, axis=1)
                pen_bytes_pt[:, t] += pen_bytes_flat.take(edge)
        else:
            pen_time_pt[:, :, t] = tables.first_penalty_time.take(dst, axis=1)
            pen_energy_pt[:, :, t] = tables.first_penalty_energy.take(dst, axis=1)
            pen_bytes_pt[:, t] = tables.first_penalty_bytes.take(dst)
    transfer_pt = hostio_time_pt + pen_time_pt

    if tables.missing_links and np.isnan(transfer_pt).any():
        # Reject and attribute like the sequential executor, detecting NaNs
        # across the scenario axis.
        _, i, t = (int(v) for v in np.argwhere(np.isnan(transfer_pt))[0])
        _raise_graph_missing_link(
            tables.aliases,
            tables.host,
            preds[t],
            P,
            i,
            t,
            bool(np.isnan(hostio_time_pt[:, i, t]).any()),
            lambda p: bool(np.isnan(tables.penalty_time[:, P[i, p], P[i, t]]).any()),
        )

    total_time = np.zeros((s, n))
    finish = np.zeros((s, n, k))
    available = np.zeros((s, n, m))
    rows = np.arange(n)
    transferred = np.zeros(n)
    transfer_energy = np.zeros((s, n))
    busy_by_device = np.zeros((s, n, m))
    flops_by_device = np.zeros((n, m))
    for t in range(k):
        ready = np.zeros((s, n))
        for p in preds[t]:
            ready = np.maximum(ready, finish[:, :, p])
        # Device serialization, vectorized across the condition axis.
        start = np.maximum(ready, available[:, rows, P[:, t]])
        finish[:, :, t] = start + (busy_pt[:, :, t] + transfer_pt[:, :, t])
        available[:, rows, P[:, t]] = finish[:, :, t]
        total_time = np.maximum(total_time, finish[:, :, t])
        transferred += hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]
        transfer_energy += energy_in_pt[:, :, t]
        transfer_energy += energy_out_pt[:, :, t]
        transfer_energy += pen_energy_pt[:, :, t]
        col = P[:, t]
        # Scatter-add: unique (row, device) pairs per task; see the chain
        # kernel for the bitwise argument.
        busy_by_device[:, rows, col] += busy_pt[:, :, t]
        flops_by_device[rows, col] += tables.task_flops[t]

    return _finalize_grid(
        tables, P, total_time, transferred, transfer_energy, busy_by_device, flops_by_device
    )
