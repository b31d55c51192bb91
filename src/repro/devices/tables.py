"""Unified cost-table backend: one entry point for both table types.

The engine has two table types, both with a leading scenario axis: the
condition-stacked :class:`~repro.devices.grid.GridCostTables` and its
fault-augmented :class:`~repro.faults.tables.FaultGridCostTables`.
:func:`build_tables` is the one place that chooses between them:

====================  ===========================  ==============================
configuration          fault-free                   under faults (``retry=...``)
====================  ===========================  ==============================
one platform           ``GridCostTables``, plain    ``FaultGridCostTables``, plain
platform sequence or   ``GridCostTables``           ``FaultGridCostTables``
``scenarios=...``
====================  ===========================  ==============================

Neither chain vs DAG nor plain vs grid is a type.  Every table carries the
workload's ``pred_positions`` (``((), (0,), ..., (k-2,))`` for a chain), and
the kernels read that field -- fully linked linear tables run the fast chain
kernel, all others the checked kernel with the critical-path time fold where
needed.  Plain tables are one-row grid tables with ``plain=True``, whose
``execute`` returns a :class:`~repro.devices.batch.BatchExecutionResult`
(a :class:`~repro.faults.engine.FaultBatchExecutionResult` under faults).

Every returned object satisfies the :class:`CostTables` protocol --
``execute(placements)``, ``.n_tasks``, ``.aliases`` and a content-addressed
``.fingerprint`` (the composite SHA-256 of the build configuration, see
:mod:`repro.cache`) under which the executor's :class:`~repro.cache.TableCache`
stores it.  It is the only constructor: plain tables are row 0 of a
one-platform grid build, so every table in the system comes out of one code
path and one formula core (:mod:`repro.devices.grid`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Protocol, Sequence, runtime_checkable

import numpy as np

from ..cache import table_key
from .platform import Platform

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids import cycles
    from ..scenarios.grid import ScenarioGrid

__all__ = ["CostTables", "build_tables", "check_fault_args", "resolve_aliases"]


def resolve_aliases(platform: Platform, devices: Sequence[str] | None) -> tuple[str, ...]:
    """Validate and normalise the candidate device aliases.

    The shared preamble of every table builder: ``devices`` defaults to all
    platform devices (host first), must be non-empty, unique, and known to
    the platform.
    """
    aliases = tuple(devices) if devices is not None else tuple(platform.aliases)
    if not aliases:
        raise ValueError("at least one device alias is required")
    if len(set(aliases)) != len(aliases):
        raise ValueError("device aliases must be unique")
    platform.validate_aliases(aliases)
    return aliases


def check_fault_args(retry: Any, faults: Any, timeout: Any) -> None:
    """Reject fault arguments without a retry policy (shared validation)."""
    if retry is None and (faults is not None or timeout is not None):
        raise ValueError(
            "fault-aware evaluation needs retry=RetryPolicy(...); "
            "got faults/timeout without a retry policy"
        )


@runtime_checkable
class CostTables(Protocol):
    """What every table family exposes to the layers above.

    ``execute`` evaluates an ``(n_placements, n_tasks)`` device-index matrix
    (or any placement spelling :func:`~repro.devices.batch.as_placement_matrix`
    accepts) and returns the family's batch result; ``fingerprint`` is the
    content hash of the build configuration (empty for hand-built tables).
    """

    fingerprint: str

    @property
    def n_tasks(self) -> int: ...

    @property
    def aliases(self) -> tuple[str, ...]: ...

    def execute(self, placements: np.ndarray) -> Any: ...


def _as_scenario_grid(platform: Platform, scenarios: Any) -> "ScenarioGrid":
    """Coerce the scenarios argument to a grid (no platform derivation)."""
    from ..scenarios.grid import ScenarioGrid

    if not isinstance(platform, Platform):
        raise TypeError(
            "scenarios need a single base platform to derive from; "
            f"got platform={platform!r}"
        )
    if not isinstance(scenarios, ScenarioGrid):
        scenarios = ScenarioGrid(tuple(scenarios))
    return scenarios


def build_tables(
    workload: Any,
    platform: "Platform | Sequence[Platform]",
    *,
    devices: Sequence[str] | None = None,
    scenarios: Any = None,
    faults: Any = None,
    retry: Any = None,
    timeout: Any = None,
    slice_cache: Any = None,
):
    """Build the cost tables for one configuration, fingerprint attached.

    Parameters
    ----------
    workload:
        A :class:`~repro.tasks.chain.TaskChain` or
        :class:`~repro.tasks.graph.TaskGraph`.
    platform:
        One platform, or a sequence of scenario platforms (grid tables).
    devices:
        Candidate device aliases; defaults to every platform device.
    scenarios:
        A :class:`~repro.scenarios.grid.ScenarioGrid` (or scenario sequence)
        to derive grid tables from ``platform``; mutually exclusive with
        passing a platform sequence.  Scenarios whose pinned axes all
        implement the vectorized
        :meth:`~repro.scenarios.conditions.ConditionAxis.scale_arrays` hook
        are built in array space without deriving per-scenario platforms
        (bitwise identical to the materializing build); the tables carry a
        build context enabling :meth:`~repro.devices.grid.GridCostTables.updated`
        delta rebuilds.
    faults, retry, timeout:
        Fault-aware evaluation: passing ``retry`` wraps the tables in
        :class:`~repro.faults.tables.FaultGridCostTables`;
        ``faults``/``timeout`` without ``retry`` is an error (mirroring the
        executor).
    slice_cache:
        Optional :class:`~repro.cache.TableCache` holding one row source per
        workload, platform and device set: the latest ``scenarios=`` build
        with that prefix.  Rows of scenarios the source holds (by content
        fingerprint) are gathered from it instead of recomputed, and the new
        tables replace it as the source.

    The returned object satisfies :class:`CostTables`; its ``fingerprint``
    is :func:`repro.cache.table_key` of the configuration, which is also the
    key the executor caches it under.
    """
    check_fault_args(retry, faults, timeout)

    platforms: list[Platform] | None = None
    grid: "ScenarioGrid | None" = None
    if scenarios is not None:
        grid = _as_scenario_grid(platform, scenarios)
        key_platform: Any = platform
    elif isinstance(platform, Platform):
        key_platform = platform
    else:
        platforms = list(platform)
        key_platform = platforms

    key = table_key(
        workload,
        key_platform,
        devices=devices,
        scenarios=grid,
        faults=faults,
        retry=retry,
        timeout=timeout,
    )

    if retry is not None:
        from ..faults.tables import _fault_grid_tables

        # A platform iterator is spent by now: hand over the listed platforms.
        tables = _fault_grid_tables(
            workload,
            platform if platforms is None else platforms,
            devices,
            retry=retry,
            faults=faults,
            timeout=timeout,
            scenarios=grid,
            slice_cache=slice_cache,
        )
    elif grid is not None:
        from .grid import _fused_grid_tables

        # Keyed inside: the registered row source must be the object returned.
        return _fused_grid_tables(workload, platform, grid, devices, slice_cache, key)
    else:
        from .grid import _materialized_grid_tables

        if platforms is not None:
            tables = _materialized_grid_tables(workload, platforms, devices)
        else:
            # Plain tables: row 0 of a one-platform grid build.
            tables = _materialized_grid_tables(workload, (platform,), devices).table(0)

    return replace(tables, fingerprint=key)
