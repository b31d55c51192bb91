"""Analytic execution simulator for task chains on a heterogeneous platform.

Given a :class:`~repro.tasks.chain.TaskChain` and a placement (one device
alias per task), the simulator predicts the noise-free execution time, the
per-device busy times and FLOPs, the transferred bytes, the energy breakdown
and the operating cost, and can turn the noise-free estimate into a vector of
``N`` noisy measurements via a :class:`~repro.measurement.noise.NoiseModel` --
the stand-in for the paper's real CPU+GPU testbed (see DESIGN.md, substitution
table).

The timing model per task:

* the executing device pays its compute/launch time (:meth:`DeviceSpec.compute_time`);
* if the task is placed on a non-host device, the task's inputs are shipped to
  it and its outputs shipped back over the platform link, plus a one-time
  task-startup overhead on the device;
* consecutive tasks on different devices exchange the scalar penalty, paying
  one link latency.

Tasks are data-dependent (each consumes the previous task's penalty), so a
chain's total time is the running sum over its tasks -- there is no overlap
to exploit, exactly as in Procedure 5 of the paper.

For DAG workloads (:class:`~repro.tasks.graph.TaskGraph`) the same model
generalizes: a task starts once its slowest predecessor finished *and* its
device is free (tasks sharing a device serialize in topological order;
parallel branches on different devices overlap, so the total time is the
critical path through the schedule), fan-in joins pay one penalty hop per
incoming edge, and source tasks are fed from the host like a chain's first
task.  One scalar fold, :func:`~repro.devices.costmodel._schedule_fold`,
runs both shapes; on linear predecessors every rule degenerates to the
chain rule, so a chain and the same chain as a graph get the same record,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..cache import CacheStats, TableCache, cached_fingerprint, table_key
from ..measurement.dataset import MeasurementSet
from ..measurement.noise import NoiseModel, default_system_noise
from ..tasks.chain import TaskChain
from ..tasks.graph import TaskGraph
from .costmodel import (
    PENALTY_MESSAGE_BYTES,
    _schedule_fold,
    finalize_execution,
    penalty_cost,
    task_device_cost,
)
from .energy import EnergyBreakdown
from .platform import Platform
from .tables import check_fault_args

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch imports us)
    from .batch import BatchExecutionResult
    from .grid import GridCostTables

__all__ = [
    "PENALTY_MESSAGE_BYTES",
    "TaskExecutionRecord",
    "ExecutionRecord",
    "SimulatedExecutor",
]


@dataclass(frozen=True)
class TaskExecutionRecord:
    """Timing/energy attribution of a single task within one execution."""

    task_name: str
    device: str
    busy_time_s: float
    transfer_time_s: float
    transferred_bytes: float
    flops: float

    @property
    def total_time_s(self) -> float:
        return self.busy_time_s + self.transfer_time_s


@dataclass(frozen=True)
class ExecutionRecord:
    """Full accounting of one (noise-free) execution of a placed task chain."""

    placement: tuple[str, ...]
    tasks: tuple[TaskExecutionRecord, ...]
    total_time_s: float
    busy_time_by_device: Mapping[str, float]
    flops_by_device: Mapping[str, float]
    transferred_bytes: float
    energy: EnergyBreakdown
    operating_cost: float

    @property
    def label(self) -> str:
        """The algorithm label, e.g. ``"DDA"``."""
        return "".join(self.placement)

    def flops_on(self, alias: str) -> float:
        """FLOPs executed on one device (the paper's energy proxy for that device)."""
        return self.flops_by_device.get(alias, 0.0)

    def busy_fraction(self, alias: str) -> float:
        """Fraction of the total execution during which the device is busy."""
        if self.total_time_s == 0:
            return 0.0
        return self.busy_time_by_device.get(alias, 0.0) / self.total_time_s


def _execution_record(platform: Platform, task_names, placement, schedule) -> ExecutionRecord:
    """The :class:`ExecutionRecord` of one fault-free schedule fold."""
    energy, cost = finalize_execution(
        platform, schedule.busy_by_device, schedule.total_time_s, schedule.transfer_energy_j
    )
    return ExecutionRecord(
        placement=placement,
        tasks=tuple(
            TaskExecutionRecord(name, alias, *terms[:4])
            for name, alias, terms in zip(task_names, placement, schedule.tasks)
        ),
        total_time_s=schedule.total_time_s,
        busy_time_by_device=schedule.busy_by_device,
        flops_by_device=schedule.flops_by_device,
        transferred_bytes=schedule.transferred_bytes,
        energy=energy,
        operating_cost=cost,
    )


@dataclass
class SimulatedExecutor:
    """Execute task chains analytically on a simulated platform.

    Parameters
    ----------
    platform:
        The heterogeneous platform (devices + links).
    noise:
        Noise model applied when generating measurement vectors; defaults to
        the calibrated system-noise composite.
    seed:
        Seed of the measurement-noise generator.
    cache_executions:
        Keep a shared cache of (workload, placement) -> record, so measuring
        and profiling the same algorithm space no longer executes every chain
        twice.  Records are deterministic functions of the (immutable)
        platform, chain and placement, so caching never changes results.
    execution_cache_size:
        Maximum number of execution records kept (least-recently-used records
        beyond the cap are evicted).
    table_cache:
        The content-addressed :class:`~repro.cache.TableCache` cost tables
        are served from.  Pass a shared instance to pool tables across
        executors (the service layer does); defaults to a private cache.

    Both caches are keyed by content fingerprints (:mod:`repro.cache`), so
    structurally equal workloads share entries across object identities and
    neither cache keeps the workload objects themselves alive.
    """

    platform: Platform
    noise: NoiseModel = field(default_factory=default_system_noise)
    seed: int = 0
    cache_executions: bool = True
    execution_cache_size: int = 4096
    table_cache: TableCache | None = None

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._record_cache = TableCache(max_entries=max(1, self.execution_cache_size))
        if self.table_cache is None:
            self.table_cache = TableCache()

    # ------------------------------------------------------------------
    def _normalise_placement(
        self, workload: TaskChain | TaskGraph, placement: Sequence[str] | str | Mapping[str, str]
    ) -> tuple[str, ...]:
        graph = isinstance(workload, TaskGraph)
        if graph and isinstance(placement, Mapping):
            aliases = workload.placement_for(placement)
        else:
            aliases = tuple(placement)
        kind = "graph" if graph else "chain"
        if len(aliases) != len(workload):
            order = f"topological order: {workload.task_names}; " if graph else ""
            raise ValueError(
                f"placement {aliases!r} has {len(aliases)} entries but {kind} "
                f"{workload.name!r} has {len(workload)} tasks "
                f"({order}available devices: {sorted(self.platform.devices)})"
            )
        try:
            self.platform.validate_aliases(aliases)
        except KeyError as exc:
            raise KeyError(
                f"placement {aliases!r} for {kind} {workload.name!r} uses "
                f"{exc.args[0] if exc.args else 'unknown aliases'}"
            ) from exc
        return aliases

    def execute(
        self, chain: TaskChain | TaskGraph, placement: Sequence[str] | str | Mapping[str, str]
    ) -> ExecutionRecord:
        """Noise-free execution record of the workload under the given placement.

        Records are served from the shared execution cache when enabled, so
        measuring and profiling the same placement executes the chain once.
        A :class:`TaskGraph` runs the DAG model (see :meth:`execute_graph`,
        including its task-name mapping form), so :meth:`measure` /
        :meth:`measure_all` / :meth:`energy_measure` are graph-aware.
        """
        aliases = self._normalise_placement(chain, placement)
        if not self.cache_executions:
            return self._execute_uncached(chain, aliases)
        kind = "graph" if isinstance(chain, TaskGraph) else "chain"
        key = (kind, cached_fingerprint(chain), aliases)
        return self._record_cache.get_or_build(
            key, lambda: self._execute_uncached(chain, aliases)
        )

    def clear_execution_cache(self) -> dict[str, int]:
        """Drop every cached execution record and cost table.

        Returns how many entries were dropped from each cache, e.g.
        ``{"records": 12, "tables": 3}``.
        """
        return {
            "records": self._record_cache.clear(),
            "tables": self.table_cache.clear(),
        }

    def cache_stats(self) -> dict[str, CacheStats]:
        """Hit/miss/eviction counters of the record and table caches."""
        return {
            "records": self._record_cache.stats(),
            "tables": self.table_cache.stats(),
        }

    # -- DAG workloads --------------------------------------------------
    def execute_graph(
        self, graph: TaskGraph, placement: Sequence[str] | str | Mapping[str, str]
    ) -> ExecutionRecord:
        """Noise-free execution record of a DAG workload: :meth:`execute` on a graph.

        ``placement`` aligns with the graph's topological order (an alias
        sequence or label string), or maps task names to aliases.  The
        scalar reference of the DAG model the vectorized engine is pinned
        against; bitwise identical to the chain record on linear graphs.
        """
        return self.execute(graph, placement)

    def _execute_uncached(self, workload: TaskChain | TaskGraph, aliases: tuple[str, ...]) -> ExecutionRecord:
        """The schedule fold of a chain or DAG over the scalar cost model."""
        platform = self.platform
        tasks = list(workload)

        def task_terms(pos: int, alias: str):
            cost = tasks[pos].cost()
            return (*task_device_cost(platform, cost, alias), cost.flops)

        def hop_terms(src: str | None, alias: str):
            return penalty_cost(platform, platform.host if src is None else src, alias)

        schedule = _schedule_fold(
            platform, workload.predecessor_positions, aliases, aliases, task_terms, hop_terms
        )
        return _execution_record(platform, [task.name for task in tasks], aliases, schedule)

    # ------------------------------------------------------------------
    def measure(
        self,
        chain: TaskChain | TaskGraph,
        placement: Sequence[str] | str,
        repetitions: int = 30,
    ) -> np.ndarray:
        """Vector of ``repetitions`` noisy execution-time measurements."""
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        record = self.execute(chain, placement)
        return self.noise(record.total_time_s, repetitions, self._rng)

    def measure_all(
        self,
        chain: TaskChain | TaskGraph,
        placements: Iterable[Sequence[str] | str],
        repetitions: int = 30,
    ) -> MeasurementSet:
        """Measure several placements and return a labelled measurement set."""
        measurements = MeasurementSet(metric="execution time", unit="s")
        for placement in placements:
            label = "".join(placement)
            measurements.add(label, self.measure(chain, placement, repetitions))
        return measurements

    def energy_measure(
        self,
        chain: TaskChain | TaskGraph,
        placement: Sequence[str] | str,
        repetitions: int = 30,
    ) -> np.ndarray:
        """Vector of noisy *energy* measurements (J) for the placed chain."""
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        record = self.execute(chain, placement)
        return self.noise(record.energy.total_j, repetitions, self._rng)

    # -- batch engine ---------------------------------------------------
    def cost_tables(
        self,
        chain: TaskChain | TaskGraph,
        devices: Sequence[str] | None = None,
        *,
        faults=None,
        retry=None,
        timeout=None,
    ) -> "GridCostTables":
        """Precomputed (cached) cost tables of a workload on this platform.

        Plain one-row :class:`~repro.devices.grid.GridCostTables`.  ``chain``
        may be a :class:`TaskChain` or a :class:`TaskGraph`; the tables'
        ``pred_positions`` carry the dependency structure, which every batch
        entry point below evaluates automatically.  With ``retry=`` given,
        returns one-row fault-augmented
        :class:`~repro.faults.tables.FaultGridCostTables` instead (``faults``
        defaulting to the platform's attached profile).

        Tables come from :func:`repro.devices.tables.build_tables` and are
        served from the executor's content-addressed :attr:`table_cache`, so
        a structurally equal configuration never rebuilds.
        """
        from .tables import build_tables

        check_fault_args(retry, faults, timeout)
        key = table_key(
            chain, self.platform, devices=devices, faults=faults, retry=retry, timeout=timeout
        )
        return self.table_cache.get_or_build(
            key,
            lambda: build_tables(
                chain, self.platform, devices=devices, faults=faults, retry=retry, timeout=timeout
            ),
        )

    def grid_cost_tables(
        self,
        chain: TaskChain | TaskGraph,
        scenarios,
        devices: Sequence[str] | None = None,
        *,
        faults=None,
        retry=None,
        timeout=None,
    ):
        """Cached condition-stacked tables of a workload over a scenario grid.

        ``scenarios`` is a :class:`~repro.scenarios.grid.ScenarioGrid`, a
        sequence of :class:`~repro.scenarios.conditions.Scenario` points, or a
        sequence of already-derived :class:`Platform` objects.  Returns
        :class:`~repro.devices.grid.GridCostTables`
        (:class:`~repro.faults.tables.FaultGridCostTables` with ``retry=``),
        served from the same content-addressed :attr:`table_cache` as
        :meth:`cost_tables`.  Scenario grid tables are cached only as the
        **row source** of their workload, platform and devices: handed back
        for an equal grid, else the rows the next build gathers, so a drifted
        fleet pays only for its changed users and holds one cache entry.
        Fault (``retry=``) and platform-sequence tables are cached by key.
        """
        from .grid import _row_source_key
        from .tables import build_tables

        check_fault_args(retry, faults, timeout)
        platform_arg, scenario_arg = self.platform, scenarios
        if not hasattr(scenarios, "platforms"):
            from ..scenarios.grid import ScenarioGrid

            seq = list(scenarios)
            if seq and isinstance(seq[0], Platform):
                platform_arg, scenario_arg = seq, None
            else:
                scenario_arg = ScenarioGrid(tuple(seq))
        key = table_key(
            chain,
            platform_arg,
            devices=devices,
            scenarios=scenario_arg,
            faults=faults,
            retry=retry,
            timeout=timeout,
        )

        def build():
            return build_tables(
                chain,
                platform_arg,
                devices=devices,
                scenarios=scenario_arg,
                faults=faults,
                retry=retry,
                timeout=timeout,
                slice_cache=self.table_cache,
            )

        if retry is not None or scenario_arg is None:
            return self.table_cache.get_or_build(key, build)
        # One counted lookup per request: the full-match check peeks, and
        # either the hit or the build's own row-source read counts.
        prefix = _row_source_key(cached_fingerprint(chain), self.platform, devices)
        source = self.table_cache.peek(prefix)
        if source is not None and source.tables.fingerprint == key:
            return self.table_cache.get(prefix).tables
        return build()

    def update_grid_tables(self, tables, replacements: Mapping[int, object]):
        """Delta-rebuild grid tables after swapping out some scenarios.

        ``replacements`` maps scenario indices (negative indices count from
        the end) to their new :class:`~repro.scenarios.conditions.Scenario`
        definitions.  Only the replaced rows are recomputed -- or gathered
        from the prefix's row source in :attr:`table_cache` when it holds
        those scenarios -- and every other row is copied from ``tables``.
        The rebuilt tables become the prefix's row source, so a later
        :meth:`grid_cost_tables` call with the updated grid returns them.
        """
        from .grid import _register_row_source

        updated = tables.updated_many(replacements, slice_cache=self.table_cache)
        if updated is not tables and updated.fingerprint:
            _register_row_source(self.table_cache, updated)
        return updated

    def plan(
        self,
        chain: TaskChain | TaskGraph,
        objective="time",
        devices: Sequence[str] | None = None,
        *,
        scenarios=None,
        method: str = "auto",
        **options,
    ):
        """Provably-optimal placement of a workload, without enumerating ``m**k``.

        Delegates to :func:`repro.search.planner.plan_workload` -- a Viterbi
        DP over the ``(task, device)`` lattice, ``O(k * m**2)`` for chains --
        or, when ``scenarios`` is given, to
        :func:`repro.search.planner.plan_grid`, the exact robust planner over
        a scenario grid.  ``objective`` is a metric name, a search
        :class:`~repro.search.objectives.Objective`, or (with scenarios) a
        :class:`~repro.search.robust.RobustObjective`.  Extra keyword options
        (``max_level_states``, ``fallback_limit``, ``max_labels``) pass
        through to the planner.
        """
        from ..search.planner import plan_grid, plan_workload

        if scenarios is not None:
            return plan_grid(self, chain, scenarios, objective, devices=devices, **options)
        return plan_workload(
            self, chain, objective, devices=devices, method=method, **options
        )

    def execute_batch(
        self,
        chain: TaskChain | TaskGraph,
        placements: np.ndarray | Iterable[Sequence[str] | str] | None = None,
        devices: Sequence[str] | None = None,
        *,
        faults=None,
        retry=None,
        timeout=None,
    ) -> "BatchExecutionResult":
        """Evaluate many placements of one workload in a single vectorized pass.

        ``placements`` is an ``(n_placements, n_tasks)`` device-index matrix
        (see :func:`repro.offload.space.placement_matrix`), any iterable of
        placements in the spellings :meth:`execute` accepts, or ``None`` for
        the full ``m**k`` space in lexicographic order.  Every array field of
        the result is bitwise identical to the sequential :meth:`execute`
        (:meth:`execute_graph` for :class:`TaskGraph` workloads).  With
        ``retry=`` given the pass evaluates *expected* costs under faults
        instead (see :func:`repro.faults.engine.execute_fault_placements`),
        pinned the same way to :func:`repro.faults.engine.expected_record`.
        """
        tables = self.cost_tables(chain, devices, faults=faults, retry=retry, timeout=timeout)
        if placements is None:
            from ..offload.space import placement_matrix

            placements = placement_matrix(tables.n_tasks, len(tables.aliases))
        return tables.execute(placements)

    def iter_execute_batches(
        self,
        chain: TaskChain | TaskGraph,
        devices: Sequence[str] | None = None,
        batch_size: int = 65536,
        start: int = 0,
        stop: int | None = None,
        *,
        faults=None,
        retry=None,
        timeout=None,
    ) -> Iterator["BatchExecutionResult"]:
        """Stream a placement-space range in lexicographic chunks.

        Bounds peak memory to ``O(batch_size * n_tasks)`` so spaces far beyond
        what fits in RAM (the paper's combinatorial-explosion regime) can be
        scanned incrementally.  ``start``/``stop`` (defaulting to the whole
        ``m**k`` space) select the half-open placement-index range to stream,
        so a sweep can be split into disjoint index ranges.  Works for chains
        and graphs alike, and with ``retry=`` given streams
        expected-cost-under-faults batches.  The chunks come from the search
        layer's sweep core (:func:`repro.search.sweep.iter_chunks`).
        """
        from ..search.sweep import iter_chunks

        tables = self.cost_tables(chain, devices, faults=faults, retry=retry, timeout=timeout)
        for _, batch in iter_chunks(tables, batch_size, start, stop):
            yield batch

    # -- fault-aware entry points ---------------------------------------
    def execute_with_faults(
        self,
        chain: TaskChain | TaskGraph,
        placement: Sequence[str] | str,
        *,
        retry,
        faults=None,
        timeout=None,
        devices: Sequence[str] | None = None,
    ):
        """Analytic expected-cost record of one placement under faults.

        The closed-form counterpart of :meth:`simulate_with_faults`: success
        probability, expected attempts and success-conditional expected
        time/energy/cost of the placed workload under the fault profile
        (``faults`` defaults to the platform's attached profile) with the
        given retry/timeout semantics.  Returns an
        :class:`~repro.faults.engine.ExpectedFaultRecord`.
        """
        from ..faults.engine import expected_record

        tables = self.cost_tables(chain, devices, faults=faults, retry=retry, timeout=timeout)
        return expected_record(tables, tuple(placement))

    def simulate_with_faults(
        self,
        chain: TaskChain,
        placement: Sequence[str] | str,
        *,
        retry,
        faults=None,
        timeout=None,
        rng: np.random.Generator | None = None,
    ):
        """Sample one fault-injected execution trace of a placed chain.

        Monte-Carlo counterpart of :meth:`execute_with_faults` (chain-only:
        the analytic DAG path is a deterministic-equivalent approximation
        with no per-trial trace to sample).  ``rng`` defaults to the
        executor's measurement-noise generator, so repeated calls draw fresh
        trials.  Returns a
        :class:`~repro.faults.simulate.FaultSimulationRecord`.
        """
        from ..faults.simulate import simulate_chain_with_faults

        if isinstance(chain, TaskGraph):
            raise ValueError(
                "simulate_with_faults is chain-only: the analytic DAG path is a "
                "deterministic-equivalent approximation with no per-trial trace "
                "to sample; use execute_with_faults for graphs"
            )
        return simulate_chain_with_faults(
            self.platform,
            chain,
            tuple(placement),
            retry=retry,
            faults=faults,
            timeout=timeout,
            rng=rng if rng is not None else self._rng,
        )

    def measure_batch(
        self,
        batch: "BatchExecutionResult",
        repetitions: int = 30,
        metric: str = "time",
        rng_mode: str = "sequential",
    ) -> MeasurementSet:
        """Noisy measurement set for every placement of a batch execution.

        ``rng_mode="sequential"`` (default) draws the noise per algorithm in
        the same order as the per-placement :meth:`measure` loop, making the
        resulting set **bit-for-bit identical** to it under the same seed.
        ``rng_mode="batched"`` draws each noise stage once over the whole
        ``(n_placements, repetitions)`` matrix -- same distribution, different
        random stream, and much faster for very large spaces.
        """
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        units = {"time": ("execution time", "s"), "energy": ("energy", "J")}
        if metric not in units:
            raise ValueError(f"unknown metric {metric!r}; choose 'time' or 'energy'")
        bases = batch.metric_values(metric)
        set_metric, unit = units[metric]
        if rng_mode == "sequential":
            noise, rng = self.noise, self._rng
            values = np.empty((len(batch), repetitions))
            for i, base in enumerate(bases.tolist()):
                values[i] = noise(base, repetitions, rng)
        elif rng_mode == "batched":
            values = self.noise.sample_many(bases, repetitions, self._rng)
        else:
            raise ValueError(f"unknown rng_mode {rng_mode!r}; choose 'sequential' or 'batched'")
        return MeasurementSet.from_matrix(batch.labels(), values, metric=set_metric, unit=unit)

    def measure_all_batch(
        self,
        chain: TaskChain | TaskGraph,
        placements: np.ndarray | Iterable[Sequence[str] | str] | None = None,
        repetitions: int = 30,
        metric: str = "time",
        devices: Sequence[str] | None = None,
        rng_mode: str = "sequential",
    ) -> MeasurementSet:
        """Batched equivalent of :meth:`measure_all` (see :meth:`measure_batch`).

        With the default ``rng_mode="sequential"`` the returned set is
        bit-for-bit identical to calling :meth:`measure_all` on the same
        placements with the same seed.
        """
        batch = self.execute_batch(chain, placements, devices=devices)
        return self.measure_batch(batch, repetitions=repetitions, metric=metric, rng_mode=rng_mode)
