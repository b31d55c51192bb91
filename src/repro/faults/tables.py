"""Fault-augmented cost tables: survival factors precomputed per table entry.

A :class:`FaultChainCostTables` wraps the classic
:class:`~repro.devices.batch.ChainCostTables` (or
:class:`~repro.devices.batch.GraphCostTables`) with everything the
expected-cost-under-faults engine needs per attempt:

* ``node_survival[t, d]`` -- probability that one attempt of task ``t`` on
  device ``d`` survives its device-crash risk and its host I/O transfers,
* ``edge_survival[src, dst]`` -- survival of the device-to-device penalty
  hop (``1.0`` on the diagonal: staying put sends nothing),
* ``first_edge_survival[d]`` -- survival of the host feed into a chain's
  first task (or a graph source).

Each entry is produced by the *scalar* helpers on
:class:`~repro.faults.models.FaultProfile` -- the same calls the sequential
reference and the Monte-Carlo sampler make -- so the vectorized engine is
bitwise pinned by construction, exactly like the base tables are pinned to
the scalar cost model.

:class:`FaultGridCostTables` stacks per-scenario survival tables over a
:class:`~repro.devices.grid.GridCostTables`, one fault profile per scenario
platform (drawn from ``platform.faults`` unless an explicit profile is
given), for failure-regime sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..devices.batch import ChainCostTables, GraphCostTables
from ..devices.grid import GraphGridCostTables, GridCostTables
from ..devices.tables import build_tables
from .models import FaultProfile
from .retry import RetryPolicy, TimeoutPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.platform import Platform
    from ..tasks.chain import TaskChain
    from ..tasks.graph import TaskGraph

__all__ = [
    "FaultChainCostTables",
    "FaultGridCostTables",
    "resolve_fault_profile",
]


def resolve_fault_profile(platform: "Platform", profile: FaultProfile | None) -> FaultProfile:
    """The profile to evaluate under: explicit > platform-attached > fault-free."""
    if profile is not None:
        if not isinstance(profile, FaultProfile):
            raise TypeError(f"faults must be a FaultProfile or None, got {profile!r}")
        profile.validate_aliases(platform.devices)
        return profile
    return platform.faults if platform.faults is not None else FaultProfile()


def _survival_tables(
    base: ChainCostTables,
    profile: FaultProfile,
    costs: Sequence,
    busy: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Survival arrays for one scenario slice (``busy`` is ``(k, m)``)."""
    host = base.platform.host
    aliases = base.aliases
    k, m = busy.shape
    node = np.empty((k, m))
    for t, cost in enumerate(costs):
        for d, alias in enumerate(aliases):
            node[t, d] = profile.node_survival(
                alias, host, float(busy[t, d]), cost.input_bytes, cost.output_bytes
            )
    edge = np.empty((m, m))
    for i, a in enumerate(aliases):
        for j, b in enumerate(aliases):
            edge[i, j] = profile.edge_survival(a, b)
    first_edge = np.array([profile.edge_survival(host, alias) for alias in aliases])
    return node, edge, first_edge


@dataclass(frozen=True)
class FaultChainCostTables:
    """Classic cost tables plus per-attempt survival factors and policies.

    Carries the retry/timeout semantics alongside the probabilities so one
    object fully determines the expected-cost evaluation; the executor caches
    it keyed by (devices, profile, retry, timeout) exactly like the base
    tables are cached by devices.
    """

    base: ChainCostTables
    profile: FaultProfile
    retry: RetryPolicy
    timeout: TimeoutPolicy
    node_survival: np.ndarray  # (k, m)
    edge_survival: np.ndarray  # (m, m)
    first_edge_survival: np.ndarray  # (m,)
    #: Content fingerprint of the build configuration (see
    #: :func:`repro.devices.tables.build_tables`); empty for hand-built tables.
    fingerprint: str = ""

    def execute(self, placements: np.ndarray):
        """Evaluate a placement batch under faults (protocol entry)."""
        from .engine import execute_fault_placements

        return execute_fault_placements(self, placements)

    @property
    def is_graph(self) -> bool:
        return isinstance(self.base, GraphCostTables)

    @property
    def n_tasks(self) -> int:
        return self.base.n_tasks

    @property
    def n_devices(self) -> int:
        return self.base.n_devices

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.base.aliases

    @property
    def platform(self) -> "Platform":
        return self.base.platform

    @property
    def task_names(self) -> tuple[str, ...]:
        return self.base.task_names

    @property
    def workload(self) -> str:
        return self.base.workload


def _check_policies(retry: RetryPolicy, timeout: TimeoutPolicy | None) -> TimeoutPolicy:
    if not isinstance(retry, RetryPolicy):
        raise TypeError(f"retry must be a RetryPolicy, got {retry!r}")
    if timeout is None:
        return TimeoutPolicy()
    if not isinstance(timeout, TimeoutPolicy):
        raise TypeError(f"timeout must be a TimeoutPolicy or None, got {timeout!r}")
    return timeout


def _fault_tables(
    workload: "TaskChain | TaskGraph",
    platform: "Platform",
    devices: Sequence[str] | None = None,
    *,
    retry: RetryPolicy,
    faults: FaultProfile | None = None,
    timeout: TimeoutPolicy | None = None,
) -> FaultChainCostTables:
    """Fault-augmented tables of a workload on a platform (``build_tables``
    with ``retry=``).

    ``faults`` defaults to the platform's attached profile (or the fault-free
    profile if it has none); ``timeout`` defaults to no per-attempt budget.
    """
    timeout = _check_policies(retry, timeout)
    profile = resolve_fault_profile(platform, faults)
    base = build_tables(workload, platform, devices=devices)
    node, edge, first_edge = _survival_tables(base, profile, workload.costs(), base.busy)
    return FaultChainCostTables(
        base=base,
        profile=profile,
        retry=retry,
        timeout=timeout,
        node_survival=node,
        edge_survival=edge,
        first_edge_survival=first_edge,
    )


@dataclass(frozen=True)
class FaultGridCostTables:
    """Condition-stacked fault tables: one profile and survival slice per scenario.

    ``table(i)`` slices out one scenario's :class:`FaultChainCostTables`,
    bitwise identical to ``build_tables(..., retry=...)`` on that scenario's
    platform -- the same slicing guarantee the base grid gives.
    """

    base: GridCostTables
    profiles: tuple[FaultProfile, ...]
    retry: RetryPolicy
    timeout: TimeoutPolicy
    node_survival: np.ndarray  # (s, k, m)
    edge_survival: np.ndarray  # (s, m, m)
    first_edge_survival: np.ndarray  # (s, m)
    #: Content fingerprint of the build configuration (see
    #: :func:`repro.devices.tables.build_tables`); empty for hand-built tables.
    fingerprint: str = ""

    def execute(self, placements: np.ndarray):
        """Evaluate a placement batch under every condition and fault profile."""
        from .engine import execute_fault_placements_grid

        return execute_fault_placements_grid(self, placements)

    @property
    def is_graph(self) -> bool:
        return isinstance(self.base, GraphGridCostTables)

    @property
    def n_scenarios(self) -> int:
        return self.base.n_scenarios

    @property
    def n_tasks(self) -> int:
        return self.base.n_tasks

    @property
    def n_devices(self) -> int:
        return self.base.n_devices

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.base.aliases

    @property
    def workload(self) -> str:
        return self.base.workload

    def cache_stats(self):
        """Slice provenance of the underlying grid build (see
        :meth:`~repro.devices.grid.GridCostTables.cache_stats`)."""
        return self.base.cache_stats()

    def table(self, index: int) -> FaultChainCostTables:
        """One scenario's fault tables (bitwise identical to a direct build);
        negative indices count from the end."""
        index = self.base._scenario_index(index)
        return FaultChainCostTables(
            base=self.base.table(index),
            profile=self.profiles[index],
            retry=self.retry,
            timeout=self.timeout,
            node_survival=self.node_survival[index],
            edge_survival=self.edge_survival[index],
            first_edge_survival=self.first_edge_survival[index],
            fingerprint=f"{self.fingerprint}#scenario{index}" if self.fingerprint else "",
        )


def _fault_grid_tables(
    workload: "TaskChain | TaskGraph",
    platforms: "Sequence[Platform] | None",
    devices: Sequence[str] | None = None,
    *,
    retry: RetryPolicy,
    faults: FaultProfile | None = None,
    timeout: TimeoutPolicy | None = None,
    platform: "Platform | None" = None,
    scenarios=None,
    slice_cache=None,
) -> FaultGridCostTables:
    """Fault-augmented grid tables over scenario platforms (``build_tables``
    with ``retry=`` and several platforms or ``scenarios=``).

    With ``faults=None`` each scenario evaluates under its own platform's
    attached profile -- the shape produced by the failure-regime condition
    axes -- so a single grid sweep spans fault regimes the same way it spans
    link or clock drift.  Given ``platform`` + ``scenarios`` (the fused
    form), the base grid routes
    through the array-space builder and per-scenario platforms are derived
    lazily, only for fault-profile resolution; otherwise ``platforms`` is the
    classic pre-derived sequence.
    """
    timeout = _check_policies(retry, timeout)
    if scenarios is not None:
        base = build_tables(
            workload, platform, devices=devices, scenarios=scenarios, slice_cache=slice_cache
        )
    else:
        base = build_tables(workload, platforms, devices=devices)
    profiles = tuple(resolve_fault_profile(platform, faults) for platform in base.platforms)
    costs = workload.costs()
    s = base.n_scenarios
    node = np.empty((s, base.n_tasks, base.n_devices))
    edge = np.empty((s, base.n_devices, base.n_devices))
    first_edge = np.empty((s, base.n_devices))
    for i in range(s):
        node[i], edge[i], first_edge[i] = _survival_tables(
            base.table(i), profiles[i], costs, base.busy[i]
        )
    return FaultGridCostTables(
        base=base,
        profiles=profiles,
        retry=retry,
        timeout=timeout,
        node_survival=node,
        edge_survival=edge,
        first_edge_survival=first_edge,
    )
