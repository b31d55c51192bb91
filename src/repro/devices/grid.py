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

This is the one evaluation core, with two kernels.  Chain vs DAG is not a
table type but the ``pred_positions`` field every table carries (a chain's
task ``t`` has the single predecessor ``t - 1``).  Fully linked *linear*
tables -- chains, and graphs that are really chains -- run the fast chain
kernel; everything else runs the one checked kernel, which gathers per-task
cubes so a missing link can be attributed, folds hop penalties over the
predecessors in edge order, and branches only in the time fold (a running
sum when linear, the critical path otherwise).  Plain vs grid is not a table
type either: plain single-platform tables are a one-row
:class:`GridCostTables` with ``plain=True``, and
:func:`~repro.devices.batch.execute_placements` runs the same kernels on them
and hands back row 0.

Construction has one path.  Every build fills a
:class:`~repro.devices.params.PlatformParams` bundle, gathers the candidate
columns from it and feeds them to one formula core; builds differ only in how
the bundle is filled.  Plain tables and platform sequences stack their
pre-derived platforms (``PlatformParams.stack``).  A base platform plus a
:class:`~repro.scenarios.grid.ScenarioGrid` never derives per-scenario
``Platform`` objects when every pinned axis has the vectorized
``scale_arrays`` hook: the base parameters are broadcast once and each axis
scales all scenario rows at once.  When any scenario to be built pins a
custom axis without the hook, those scenarios' platforms are derived through
``apply_conditions`` and stacked instead -- the scalar reference the
differential tests hold the hooks to, bit for bit.

Scenario builds carry a :class:`GridBuildContext`, which enables **delta
rebuilds**: :meth:`GridCostTables.updated` / :meth:`~GridCostTables.updated_many`
recompute only the replaced scenarios' condition rows and reuse every other
row.  With a :class:`~repro.cache.TableCache`, the latest scenario build of
each workload, platform and device set is that prefix's **row source**: the
next build gathers every row whose scenario the source holds (by content
fingerprint) and computes only the rest (see :meth:`GridCostTables.cache_stats`).

Scenario-independent quantities (byte counts, FLOPs) are stored once without
the condition axis -- conditions change speeds, powers and prices, never how
many bytes a placement moves.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Mapping, Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

import numpy as np

from ..cache import (
    _grid_fingerprint_parts,
    _scenario_classes,
    cached_fingerprint,
    estimate_nbytes,
    fingerprint,
    seed_updated_grid_fingerprint,
    table_key_from_fingerprint,
)
from ..tasks.chain import TaskChain
from ..tasks.graph import TaskGraph
from . import batch, costmodel
from .batch import (
    BatchExecutionResult,
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
    "GridSliceStats",
    "GridExecutionResult",
    "ScenarioPlatforms",
    "execute_placements_grid",
]


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
    """How one grid build (or delta rebuild) sourced its scenario rows."""

    #: Scenario rows gathered from the prefix's row source by content fingerprint.
    served: int = 0
    #: Scenario rows computed fresh.
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


@dataclass(frozen=True)
class GridBuildContext:
    """The base platform and scenario grid a grid build was derived from.

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
    def _slice_key_prefix(self) -> str:
        """Cache key of this build prefix's row source (workload, platform, devices)."""
        return _row_source_key(self.workload_fingerprint, self.platform, self.devices)


@dataclass(frozen=True)
class GridCostTables:
    """Cost tables of one workload under every platform of a scenario grid.

    Per ``(task, device)``: the busy time (compute + startup) and the
    host<->device transfer time/energy/bytes; per ``(device, device)``: the
    penalty-link costs of a device crossing, with the host feed of source
    tasks in separate ``first_penalty_*`` vectors so the host need not be a
    candidate.  ``aliases`` fixes the device-index encoding of placement
    matrices.  Every scenario-dependent array has a leading condition axis;
    scenario-independent arrays (``hostio_bytes``, ``task_flops``, penalty
    byte counts) and the dependency structure ``pred_positions`` carry none.

    Plain single-platform tables are the one-row case, marked ``plain``:
    their :meth:`execute` returns a
    :class:`~repro.devices.batch.BatchExecutionResult` instead of a
    :class:`GridExecutionResult`.  ``table(i)`` slices out one scenario's
    plain tables, bitwise identical to building them directly.
    """

    # Task names only (not the TaskChain): tables are cached under content
    # fingerprints, and a back-reference would keep every workload object
    # alive for as long as its tables sit in the cache.
    task_names: tuple[str, ...]
    #: Per topological position, the predecessors' topological positions.
    pred_positions: tuple[tuple[int, ...], ...]
    #: Per-scenario platforms: a tuple for platform-sequence builds, a lazy
    #: :class:`ScenarioPlatforms` view for scenario builds.
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
    #: Device pairs without a platform link: their table entries are NaN, and
    #: only placements that actually traverse such a pair are rejected (the
    #: sequential executor likewise fails only when a transfer needs the link).
    missing_links: frozenset = frozenset()
    #: Name of the workload the tables were built from (chain/graph name).
    workload: str = ""
    #: Content fingerprint of the build configuration (see
    #: :func:`repro.devices.tables.build_tables`); empty for hand-built tables.
    fingerprint: str = ""
    #: Build provenance enabling delta rebuilds; ``None`` for tables built
    #: from pre-derived platforms.
    build_context: "GridBuildContext | None" = None
    #: How this build sourced its scenario rows (gathered vs computed);
    #: ``None`` for hand-built tables.
    slice_stats: "GridSliceStats | None" = None
    #: One-row tables of a single platform (``build_tables`` on one platform,
    #: or ``table(i)``): :meth:`execute` returns a plain batch result.
    plain: bool = False

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

    @property
    def platform(self) -> Platform:
        """The platform of one-row (plain) tables."""
        self._require_one_row("platform")
        return self.platforms[0]

    def _require_one_row(self, what: str) -> None:
        """Reject multi-row tables where only plain (one-row) tables fit."""
        if self.n_scenarios != 1:
            raise ValueError(
                f"{what} needs one-row (plain) tables, got grid tables with "
                f"{self.n_scenarios} scenarios; take one scenario with table(i)"
            )

    @cached_property
    def is_linear(self) -> bool:
        """True when every task's only predecessor is the one before it: a
        chain (or a linear graph), run on the fast chain kernel when every
        candidate pair is linked."""
        return all(
            preds == ((t - 1,) if t else ()) for t, preds in enumerate(self.pred_positions)
        )

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
        """Row provenance of this build: how many of its scenario rows were
        gathered from the prefix's row source vs computed fresh."""
        if self.slice_stats is not None:
            return self.slice_stats
        return GridSliceStats(served=0, built=self.n_scenarios)

    def table(self, index: int) -> "GridCostTables":
        """The plain one-row tables of one scenario (bitwise identical to
        ``build_tables(workload, platforms[index], devices=aliases)``); negative
        indices count from the end, like :meth:`GridExecutionResult.batch`.
        The row is a view and carries no build provenance."""
        index = self._scenario_index(index)
        return replace(
            self,
            platforms=(self.platforms[index],),
            fingerprint=f"{self.fingerprint}#scenario{index}" if self.fingerprint else "",
            build_context=None,
            slice_stats=None,
            plain=True,
            **{name: getattr(self, name)[index : index + 1] for name in _SLICE_FIELDS},
        )

    def updated(
        self, scenario_index: int, scenario: "Scenario", *, slice_cache: "TableCache | None" = None
    ) -> "GridCostTables":
        """Delta rebuild: these tables with one scenario replaced.

        Only the replaced scenario's condition row is recomputed (or gathered
        from the row source in ``slice_cache`` when it holds that scenario);
        every other row is reused as-is, which the differential tests pin
        bitwise against a full rebuild.  Negative indices count from the end.
        """
        return self.updated_many({scenario_index: scenario}, slice_cache=slice_cache)

    def updated_many(
        self,
        replacements: "Mapping[int, Scenario] | Sequence[tuple[int, Scenario]]",
        *,
        slice_cache: "TableCache | None" = None,
    ) -> "GridCostTables":
        """Batched :meth:`updated`: replace several scenarios in one pass.

        Each scenario index may appear once (negative indices count from the
        end); a repeated index raises, whether given as a mapping or as pairs.
        With ``slice_cache``, replacements the prefix's row source holds are
        gathered from it, and the result becomes the row source only when
        the prefix has none: an existing source still holds the rows this
        rebuild replaced, so reverting them stays a gather.
        """
        context = self.build_context
        if context is None:
            raise ValueError(
                "these grid tables carry no build context for delta rebuilds; "
                "build them from a base platform plus scenarios "
                "(build_tables(..., scenarios=...) or executor.grid_cost_tables) "
                "rather than from pre-derived platforms"
            )
        Scenario, _ = _scenario_classes()
        pairs = replacements.items() if isinstance(replacements, Mapping) else replacements
        normalized: dict[int, "Scenario"] = {}
        for index, scenario in pairs:
            i = self._scenario_index(index)
            if i in normalized:
                raise ValueError(f"duplicate replacement for scenario index {i}")
            if not isinstance(scenario, Scenario):
                raise TypeError(f"expected a Scenario replacement, got {scenario!r}")
            normalized[i] = scenario
        if not normalized:
            return self
        new_grid = context.scenarios._replaced(normalized)  # re-validates changed names

        order = sorted(normalized)
        # Keying the new grid from the old one's memoized per-scenario parts
        # keeps the re-key O(replacements) instead of O(scenarios).
        digests = seed_updated_grid_fingerprint(context.scenarios, new_grid, order)
        source = None if slice_cache is None else slice_cache.get(context._slice_key_prefix)
        changes, stats = _condition_rows(
            context,
            new_grid._take(order),
            digests,
            source,
            out={name: getattr(self, name).copy() for name in _SLICE_FIELDS},
            at=order,
        )
        new_context = replace(context, scenarios=new_grid)
        new_fingerprint = ""
        if self.fingerprint:
            # Invariant: equals build_tables' key for the updated config, so
            # executor-level caches recognise the rebuilt tables.
            new_fingerprint = table_key_from_fingerprint(
                context.workload_fingerprint,
                context.platform,
                devices=context.devices,
                scenarios=new_grid,
            )
        updated = replace(
            self,
            platforms=ScenarioPlatforms(context.platform, new_grid),
            build_context=new_context,
            fingerprint=new_fingerprint,
            slice_stats=stats,
            **changes,
        )
        if slice_cache is not None and source is None:
            _register_row_source(slice_cache, updated)
        return updated

    def execute(self, placements: np.ndarray) -> "GridExecutionResult | BatchExecutionResult":
        """Evaluate a placement batch under every condition (protocol entry);
        plain tables return their one row as a batch result."""
        if self.plain:
            return batch.execute_placements(self, placements)
        return execute_placements_grid(self, placements)


# ---------------------------------------------------------------------------
# shared construction machinery
# ---------------------------------------------------------------------------


class _RowSource(NamedTuple):
    """The latest scenario build of one prefix, as cached: its tables and
    the row of each of its scenarios, by content fingerprint."""

    tables: GridCostTables
    rows: dict[str, int]


def _row_source_key(workload_fingerprint: str, platform: Platform, devices) -> str:
    """Cache key of the row source of one build prefix: rows are shared only
    between builds of the same workload, platform and candidate devices."""
    devices = tuple(devices) if devices is not None else None
    return fingerprint(("grid-rows", workload_fingerprint, cached_fingerprint(platform), devices))


def _register_row_source(cache: "TableCache", tables: GridCostTables) -> None:
    """Make scenario-built ``tables`` the row source of their prefix in
    ``cache``, replacing the previous one: only the latest build of each
    prefix is a row source, so a stream of drifted grids holds one table."""
    context = tables.build_context
    digests = _grid_fingerprint_parts(context.scenarios)
    rows = dict(zip(digests, range(len(digests))))
    nbytes = estimate_nbytes(tables) + sys.getsizeof(rows)
    cache.put(context._slice_key_prefix, _RowSource(tables, rows), nbytes)


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
    """Candidate-column ``(scenario, ...)`` parameters feeding the formula core."""

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
    nonhost: np.ndarray  # (m,) bool
    pair_bw: np.ndarray  # (s, m, m), NaN where absent
    pair_lat: np.ndarray  # (s, m, m)
    pair_epb: np.ndarray  # (s, m, m)
    extra_idle_power: np.ndarray  # (s, n_extra)
    missing: frozenset


def _candidate_params(
    params: PlatformParams, aliases: Sequence[str], host: str
) -> _GridParamArrays:
    """The candidate-column gather every grid build runs: column slices of
    the parameter bundle, NaN where a link is absent."""
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
        nonhost=np.array([alias != host for alias in aliases]),
        pair_bw=pair_bw,
        pair_lat=pair_lat,
        pair_epb=pair_epb,
        extra_idle_power=extra_idle_power,
        missing=missing,
    )


def _condition_params(platform: Platform, grid: "ScenarioGrid") -> PlatformParams:
    """The parameter rows of the scenarios of ``grid`` under ``platform``.

    When every pinned axis is vectorized, the base platform is broadcast once
    and each axis' ``scale_arrays`` hook runs over all rows; otherwise each
    scenario's platform is derived through ``apply_conditions`` and stacked.
    Both fills hold the same floats bit for bit.
    """
    from ..scenarios.conditions import apply_conditions, vectorized_axis

    pinned = np.bincount(grid.axis_codes.ravel() + 1, minlength=len(grid.axes) + 1)[1:]
    if all(vectorized_axis(axis) for axis, count in zip(grid.axes, pinned) if count):
        params = PlatformParams.gather(platform, len(grid))
        _apply_grid_conditions(params, grid)
        return params
    return PlatformParams.stack([apply_conditions(platform, scenario) for scenario in grid])


def _apply_grid_conditions(params: PlatformParams, grid: "ScenarioGrid") -> None:
    """Apply every scenario's condition axes to the parameter arrays in place.

    Walks the settings *positions* in order and groups the rows that pin
    equal axes at each position into one ``scale_arrays`` call (axes are
    hashable value types), groups in order of their first row, so the first
    bad value an error names is the one a row-by-row walk meets first within
    its position.  Each scenario's axes still apply in its own settings
    order, and the grouped rows are disjoint, so the arithmetic per row is
    exactly the scalar sequence of apply() calls.
    """
    axes = grid.axes
    classes: dict = {}
    class_of = np.array([classes.setdefault(axis, k) for k, axis in enumerate(axes)], dtype=np.intp)
    for codes, values in zip(grid.axis_codes, grid.axis_values):
        rows = np.flatnonzero(codes >= 0)
        groups = class_of[codes[rows]]
        for group in dict.fromkeys(groups.tolist()):
            members = rows[groups == group]
            axes[codes[members[0]]].scale_arrays(params, members, values[members])


def _grid_value_arrays(costs: Sequence, pa: _GridParamArrays) -> dict:
    """The scenario-dependent grid tables from gathered parameter arrays.

    The one formula core of every grid build and delta rebuild.  Every
    operation is elementwise along the scenario axis, so computing any
    scenario subset reproduces the full build's rows bitwise.
    """
    s, m = pa.peak.shape
    k = len(costs)
    nonhost = pa.nonhost

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
    workload: TaskChain | TaskGraph,
    platforms: Sequence[Platform],
    devices: Sequence[str] | None = None,
) -> GridCostTables:
    """The materializing grid builder: pre-derived platforms in, stacked tables out.

    Every platform must share the first one's shape (see
    :meth:`PlatformParams.stack`).  This builds every plain table (row 0 of a
    one-platform build) and every platform-sequence grid, and is the
    differential reference for scenario builds: scalar ``apply_conditions``
    plus ``stack`` against the vectorized ``scale_arrays`` hooks, through the
    same gather and formula core (:func:`_grid_value_arrays`).  A
    :class:`~repro.tasks.graph.TaskGraph`'s tables hold the same values over
    its topologically ordered tasks; only ``pred_positions`` differs.
    """
    platforms = tuple(platforms)
    params = PlatformParams.stack(platforms)
    base = params.base
    aliases = resolve_aliases(base, devices)
    costs = workload.costs()
    pa = _candidate_params(params, aliases, base.host)
    return _assemble_grid_tables(
        workload,
        base,
        platforms,
        aliases,
        costs,
        _grid_value_arrays(costs, pa),
        pa.missing,
        GridSliceStats(served=0, built=params.n_scenarios),
    )


def _fused_grid_tables(
    workload: TaskChain | TaskGraph,
    platform: Platform,
    scenarios: "ScenarioGrid",
    devices: Sequence[str] | None = None,
    slice_cache: "TableCache | None" = None,
    key: str = "",
) -> GridCostTables:
    """The scenario grid builder (base platform + scenario grid).

    Per-scenario platforms are derived lazily (:class:`ScenarioPlatforms`),
    the tables carry a :class:`GridBuildContext` for delta rebuilds, and with
    a ``slice_cache`` they read rows from and then become the row source.
    """
    aliases = resolve_aliases(platform, devices)
    context = GridBuildContext(
        platform=platform,
        scenarios=scenarios,
        devices=tuple(devices) if devices is not None else None,
        workload_fingerprint=cached_fingerprint(workload),
        task_costs=tuple(workload.costs()),
    )
    source = None if slice_cache is None else slice_cache.get(context._slice_key_prefix)
    digests = _grid_fingerprint_parts(scenarios) if source is not None else ()
    values, stats = _condition_rows(context, scenarios, digests, source)
    tables = _assemble_grid_tables(
        workload,
        platform,
        ScenarioPlatforms(platform, scenarios),
        aliases,
        context.task_costs,
        values,
        _missing_link_topology(platform, aliases, platform.host)[0],
        stats,
        context,
        key,
    )
    if slice_cache is not None:
        _register_row_source(slice_cache, tables)
    return tables


def _condition_rows(
    context: GridBuildContext,
    entries: "ScenarioGrid",
    digests: Sequence[str],
    source: "_RowSource | None",
    out: "dict[str, np.ndarray] | None" = None,
    at: "Sequence[int] | None" = None,
) -> "tuple[dict[str, np.ndarray], GridSliceStats]":
    """The condition rows of some scenarios of a build context, and their provenance.

    Rows of scenarios whose content fingerprint (``digests``, one per entry)
    the row ``source`` holds are gathered from its tables, one ``take`` per
    array; the rest are computed in one pass (:func:`_condition_params`).
    The formula core is elementwise per scenario row, so the rows match a
    full build bitwise however they were sourced.  Row ``j`` lands in
    ``out[name][at[j]]`` when ``out`` is given (a delta rebuild's copies);
    otherwise fresh ``(len(entries), ...)`` arrays are returned.
    """
    n = len(entries)
    need: "Sequence[int] | np.ndarray" = range(n)
    if source is not None:
        # -1 marks a scenario the source does not hold: computed below, while
        # its gather reads row 0 as a placeholder that is overwritten.
        take = np.fromiter(map(source.rows.get, digests, repeat(-1, n)), dtype=np.intp, count=n)
        need = np.flatnonzero(take < 0)
        take[need] = 0
    stats = GridSliceStats(served=n - len(need), built=len(need))

    built: dict[str, np.ndarray] = {}
    if len(need):
        platform = context.platform
        todo = entries if stats.served == 0 else entries._take(need)
        params = _condition_params(platform, todo)
        aliases = resolve_aliases(platform, context.devices)
        built = _grid_value_arrays(context.task_costs, _candidate_params(params, aliases, platform.host))
    if out is None:
        if not stats.served:
            return built, stats
        out = {name: getattr(source.tables, name).take(take, axis=0) for name in _SLICE_FIELDS}
        at = range(n)
    elif stats.served:
        for name, arr in out.items():
            arr[at] = getattr(source.tables, name).take(take, axis=0)
    if len(need):
        need_at = np.asarray(at)[need]
        for name, arr in out.items():
            arr[need_at] = built[name]
    return out, stats


def _assemble_grid_tables(
    workload: TaskChain | TaskGraph,
    base: Platform,
    platforms: Sequence[Platform],
    aliases: tuple[str, ...],
    costs: Sequence,
    values: Mapping[str, np.ndarray],
    missing: frozenset,
    slice_stats: GridSliceStats,
    build_context: "GridBuildContext | None" = None,
    key: str = "",
) -> GridCostTables:
    """Every grid build ends here: its condition rows plus the
    scenario-independent arrays and the workload's structure."""
    nonhost = np.array([alias != base.host for alias in aliases])
    return GridCostTables(
        task_names=tuple(workload.task_names),
        pred_positions=workload.predecessor_positions,
        platforms=platforms,
        aliases=aliases,
        device_order=tuple(base.devices),
        missing_links=missing,
        workload=workload.name,
        build_context=build_context,
        slice_stats=slice_stats,
        fingerprint=key,
        **values,
        **_static_value_arrays(costs, nonhost, len(aliases)),
    )


class _KernelOutputs(NamedTuple):
    """Everything a kernel folds besides the total time."""

    busy_by_device: np.ndarray  # (s, n, m)
    flops_by_device: np.ndarray  # (n, m)
    transferred_bytes: np.ndarray  # (n,)
    transfer_energy_j: np.ndarray  # (s, n)
    #: Contiguous per-device ``(s, n)`` planes of ``busy_by_device`` when the
    #: kernel built them (the chain kernel's subset fold); the energy fold
    #: reads them instead of strided column views.
    busy_cols: tuple[np.ndarray, ...] | None = None


def _output(name: str) -> property:
    """A result field read from the kernel outputs, folded on first read."""
    return property(lambda result: getattr(result._outputs, name), doc=f"The kernel's ``{name}``.")


@dataclass(frozen=True)
class GridExecutionResult:
    """Array-form execution records of one batch under every condition.

    Scenario-dependent metrics have shape ``(n_conditions, n_placements)``
    (per-device columns ``(n_conditions, n_placements, n_devices)``); byte
    counts and FLOPs, which conditions cannot change, are stored once.
    Every slice along the condition axis is bitwise identical to
    :func:`~repro.devices.batch.execute_placements` on the scenario's derived
    platform -- :meth:`batch` materialises that view on demand.

    Only the total time is computed eagerly, because every search ranks by
    it.  The chain kernel folds :attr:`busy_by_device` (and
    :attr:`busy_cols`), :attr:`flops_by_device`, :attr:`transferred_bytes`
    and :attr:`transfer_energy_j` in one output fold (:func:`_chain_outputs`)
    run on first read of any of them; :attr:`energy_total_j` and
    :attr:`operating_cost` come from one per-device fold
    (:func:`_finalize_grid`) over those outputs, run on first read of
    either; the breakdown cubes :attr:`active_j` / :attr:`idle_j` likewise
    wait for a caller.  A search that ranks time alone runs none of these
    folds.  The checked and fault kernels compute their outputs eagerly and
    hand them in as ``_eager_outputs``.
    """

    tables: GridCostTables
    placements: np.ndarray
    total_time_s: np.ndarray  # (s, n)
    #: The eager kernels' outputs; ``None`` from the chain kernel.
    _eager_outputs: _KernelOutputs | None = field(default=None, repr=False)

    @cached_property
    def _outputs(self) -> _KernelOutputs:
        """The kernel outputs, folded on first read unless handed in."""
        if self._eager_outputs is not None:
            return self._eager_outputs
        return _chain_outputs(self.tables, self.placements)

    busy_by_device = _output("busy_by_device")
    flops_by_device = _output("flops_by_device")
    transferred_bytes = _output("transferred_bytes")
    transfer_energy_j = _output("transfer_energy_j")
    busy_cols = _output("busy_cols")

    @cached_property
    def _energy_and_cost(self) -> tuple[np.ndarray, np.ndarray]:
        """``(energy_total_j, operating_cost)``, folded on first access."""
        return _finalize_grid(self)

    @property
    def energy_total_j(self) -> np.ndarray:
        """Total energy ``(s, n)``: active + idle + transfer."""
        return self._energy_and_cost[0]

    @property
    def operating_cost(self) -> np.ndarray:
        """Operating cost ``(s, n)`` of the busy device time."""
        return self._energy_and_cost[1]

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

    def _row(self, index: int, tables: GridCostTables) -> BatchExecutionResult:
        """Row ``index`` as a batch result over the given one-row tables."""
        return BatchExecutionResult(
            tables=tables,
            placements=self.placements,
            total_time_s=self.total_time_s[index],
            grid=self,
            row=index,
        )

    def batches(self):
        """Iterate the per-scenario batch views, in grid order."""
        for index in range(self.n_scenarios):
            yield self.batch(index)


def execute_placements_grid(tables: GridCostTables, placements: np.ndarray) -> GridExecutionResult:
    """Evaluate every placement under every condition in one vectorized pass.

    Every ``(scenario, placement)`` element undergoes the identical sequence
    of IEEE-754 operations as the sequential executor on that scenario's
    platform -- bitwise equal results.  Tables with non-linear
    ``pred_positions`` run the critical-path time fold with per-edge joins,
    the condition axis vectorized alongside.
    """
    P = as_placement_matrix(placements, tables.aliases, tables.n_tasks, workload=tables.workload)
    return _run_kernel(tables, P.astype(np.intp, copy=False))


def _run_kernel(tables: GridCostTables, P: np.ndarray) -> GridExecutionResult:
    """Dispatch a validated placement matrix to the chain or the checked kernel.

    Missing links mean gathered transfer times can be NaN; the checked kernel
    materializes the full (s, n, k) gathers so the first NaN can be
    attributed to the exact (placement, task) that crosses the gap.
    """
    if tables.is_linear and not tables.missing_links:
        return _execute_chain_grid(tables, P)
    return _execute_checked_grid(tables, P)


def _execute_chain_grid(tables: GridCostTables, P: np.ndarray) -> GridExecutionResult:
    """The chain kernel on fully linked platforms: the time fold.

    Condition math runs in compact space: a task's time contribution is
    ``busy + (hostio + penalty)``, which takes at most m*m distinct values
    per (scenario, task) -- one per (previous device, device) pair.  The
    combine therefore runs on (s, m, m) tables and only the final gather and
    accumulator add touch (s, n).  Per element this is the identical
    sequence of IEEE-754 operations as the checked kernel's linear time fold
    (the gather merely deduplicates them), so results stay bitwise equal.
    Every other output waits for :func:`_chain_outputs`.
    """
    k = P.shape[1]
    s, m = tables.n_scenarios, tables.n_devices
    combined = tables.hostio_time[:, 0, :] + tables.first_penalty_time  # (s, m)
    combined += tables.busy[:, 0, :]
    # The accumulator starts at 0.0 and every contribution is non-negative,
    # so seeding it from the first task's (owned) gather equals the explicit
    # zeros + add of the checked kernel.
    total_time = combined[:, P[:, 0]]
    for t in range(1, k):
        combined = tables.hostio_time[:, t, None, :] + tables.penalty_time  # (s, m, m)
        combined += tables.busy[:, t, None, :]
        pair = P[:, t - 1] * m + P[:, t]
        np.add(total_time, combined.reshape(s, m * m)[:, pair], out=total_time)
    return GridExecutionResult(tables, P, total_time)


def _chain_outputs(tables: GridCostTables, P: np.ndarray) -> _KernelOutputs:
    """The chain kernel's output fold: busy seconds, FLOPs, bytes and transfer energy.

    Run once per result, on first read of any of them.  Each accumulator
    folds in task order exactly as the checked kernel's does.
    """
    n, k = P.shape
    s, m = tables.n_scenarios, tables.n_devices
    energy_in_flat = tables.energy_in.reshape(s, k * m)
    energy_out_flat = tables.energy_out.reshape(s, k * m)
    pen_energy_flat = tables.penalty_energy.reshape(s, m * m)
    hostio_bytes_flat = tables.hostio_bytes.ravel()
    pen_bytes_flat = tables.penalty_bytes.ravel()

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
            pen_bytes_t = tables.first_penalty_bytes.take(col)
            pen_energy_t = tables.first_penalty_energy[:, col]
            # Seeded from the first task's (owned) gather, as the time fold is.
            transfer_energy = energy_in_flat[:, cols_t]
        else:
            pair = P[:, t - 1] * m + col
            pen_bytes_t = pen_bytes_flat.take(pair)
            pen_energy_t = pen_energy_flat[:, pair]
            np.add(transfer_energy, energy_in_flat[:, cols_t], out=transfer_energy)
        transferred += hostio_bytes_flat.take(cols_t) + pen_bytes_t
        np.add(transfer_energy, energy_out_flat[:, cols_t], out=transfer_energy)
        np.add(transfer_energy, pen_energy_t, out=transfer_energy)
        if not subset_fold:
            busy_by_device[:, rows, col] += busy_flat[:, cols_t]
            flops_by_device[rows, col] += tables.task_flops[t]

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

    return _KernelOutputs(busy_by_device, flops_by_device, transferred, transfer_energy, busy_cols)


def _finalize_grid(result: GridExecutionResult) -> tuple[np.ndarray, np.ndarray]:
    """The per-device energy/cost fold: ``(energy_total_j, operating_cost)``.

    Run once per result, on first access of either value
    (:attr:`GridExecutionResult.energy_total_j` / ``operating_cost``).  It
    reads the result's contiguous ``busy_cols`` planes when the kernel built
    them, strided column views of ``busy_by_device`` otherwise.  The
    per-device active/idle energy terms are summed column by column -- each
    column's elementwise product and the fold order match the full-cube
    formulation exactly, so the totals are bitwise unchanged while the
    ``(s, n, m)`` breakdown cubes stay deferred to
    :attr:`GridExecutionResult.active_j` / ``idle_j``.
    """
    tables, total_time = result.tables, result.total_time_s
    s, n = total_time.shape
    busy_cols = result.busy_cols
    if busy_cols is None:
        busy_cols = tuple(result.busy_by_device[:, :, j] for j in range(tables.n_devices))

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
    # energy_total = (active + idle) + transfer, folded in place.
    np.add(active_sum, idle_sum, out=active_sum)
    np.add(active_sum, result.transfer_energy_j, out=active_sum)
    return active_sum, operating_cost


def _raise_missing_link(
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

    Shared by the checked kernel and the fault engine (which differ only in
    how they detect a NaN entry): ``hostio_nan`` flags a missing host link at
    ``(i, t)``, ``pen_nan(p)`` whether the hop from predecessor position
    ``p`` is missing.  Names the offending device pair as the sequential
    executor does, plus the placement.
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


def _hop_folder(P: np.ndarray, preds: Sequence[Sequence[int]], m: int):
    """Per-task hop terms of a placement matrix, gathered by edge rank.

    Returns ``fold_hops(pair, first, fold=np.add)``, which maps an ``(..., m,
    m)`` edge table and its ``(..., m)`` host-feed vector to ``(..., n, k)``
    per-task terms: a source task draws the host feed, any other task folds
    its incoming edges in canonical edge order -- the first edge assigned,
    each later one combined by ``fold``.  The ``j``-th edges of all tasks
    are gathered in one take, so each element still sees the sequential
    executor's operation order.  Shared by the checked kernel and the fault
    engine.
    """
    n, k = P.shape
    sources = [t for t in range(k) if not preds[t]]
    source_cols = P[:, sources]
    ranks = []
    for j in range(max(len(p) for p in preds)):
        dst = [t for t in range(k) if len(preds[t]) > j]
        src = [preds[t][j] for t in dst]
        ranks.append((dst, P[:, src] * m + P[:, dst]))

    def fold_hops(pair: np.ndarray, first: np.ndarray, fold=np.add) -> np.ndarray:
        lead = first.shape[:-1]  # (s,) or () for the scenario-independent bytes
        out = np.empty(lead + (n, k))
        out[..., sources] = first.take(source_cols, axis=-1)
        flat = pair.reshape(lead + (m * m,))
        for j, (dst, edges) in enumerate(ranks):
            hop = flat.take(edges, axis=-1)
            out[..., dst] = fold(out[..., dst], hop) if j else hop
        return out

    return fold_hops


def _execute_checked_grid(tables: GridCostTables, P: np.ndarray) -> GridExecutionResult:
    """The checked kernel: any workload, any topology, every condition at once.

    Gathers the full ``(s, n, k)`` per-task cubes so a NaN transfer time (a
    placement crossing an undefined link) can be located and reported with
    the exact offending device pair.  Hop penalties fold over the
    predecessors in canonical edge order (the first incoming edge assigned,
    later ones added); only the time fold branches -- a running sum for
    linear tables, otherwise max-over-predecessors ready times and a
    running-max critical path.  Every ``(scenario, placement)`` element is
    bitwise identical to ``SimulatedExecutor.execute_graph`` (``execute``
    for chains) on the scenario's platform.
    """
    n, k = P.shape
    s, m = tables.n_scenarios, tables.n_devices
    preds = tables.pred_positions
    linear = tables.is_linear

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

    fold_hops = _hop_folder(P, preds, m)
    pen_time_pt = fold_hops(tables.penalty_time, tables.first_penalty_time)
    pen_energy_pt = fold_hops(tables.penalty_energy, tables.first_penalty_energy)
    pen_bytes_pt = fold_hops(tables.penalty_bytes, tables.first_penalty_bytes)
    transfer_pt = hostio_time_pt + pen_time_pt

    if tables.missing_links and np.isnan(transfer_pt).any():
        # Reject and attribute like the sequential executor, detecting NaNs
        # across the scenario axis.
        _, i, t = (int(v) for v in np.argwhere(np.isnan(transfer_pt))[0])
        _raise_missing_link(
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
    rows = np.arange(n)
    transferred = np.zeros(n)
    transfer_energy = np.zeros((s, n))
    busy_by_device = np.zeros((s, n, m))
    flops_by_device = np.zeros((n, m))
    if not linear:
        finish = np.zeros((s, n, k))
        available = np.zeros((s, n, m))
    for t in range(k):
        col = P[:, t]
        if linear:
            total_time += busy_pt[:, :, t] + transfer_pt[:, :, t]
        else:
            ready = np.zeros((s, n))
            for p in preds[t]:
                ready = np.maximum(ready, finish[:, :, p])
            # Device serialization, vectorized across the condition axis.
            start = np.maximum(ready, available[:, rows, col])
            finish[:, :, t] = start + (busy_pt[:, :, t] + transfer_pt[:, :, t])
            available[:, rows, col] = finish[:, :, t]
            total_time = np.maximum(total_time, finish[:, :, t])
        transferred += hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]
        transfer_energy += energy_in_pt[:, :, t]
        transfer_energy += energy_out_pt[:, :, t]
        transfer_energy += pen_energy_pt[:, :, t]
        # Scatter-add instead of one masked add per device: each placement row
        # touches exactly one (row, device) cell per task (the index pairs are
        # unique, so plain fancy += is safe), and the accumulator never holds
        # -0.0 (it starts at +0.0 and busy times are >= 0), so dropping the
        # masked +0.0 additions of the other devices is bitwise neutral.
        busy_by_device[:, rows, col] += busy_pt[:, :, t]
        flops_by_device[rows, col] += tables.task_flops[t]

    return GridExecutionResult(
        tables, P, total_time,
        _KernelOutputs(busy_by_device, flops_by_device, transferred, transfer_energy),
    )
