"""The placement-query serving layer: one request in, one placement out.

A :class:`PlacementService` answers repeated placement queries over a pool of
platforms from one shared content-addressed :class:`~repro.cache.TableCache`:
the first query for a (workload, platform, scenario, fault) configuration
builds its cost tables through :func:`repro.devices.tables.build_tables`, and
every later query with the same *content* -- across object identities,
process restarts notwithstanding equal inputs -- is served from the cache.

Each :class:`PlacementRequest` fetches its tables once and asks the planning
layer's one dispatch rule, :func:`repro.search.planner.route`, for the
engine -- the exact DP of :func:`~repro.search.planner.plan_workload` /
:func:`~repro.search.planner.plan_grid` or the streaming enumerator of
:func:`~repro.search.search_space` / :func:`~repro.search.robust.search_grid`
-- which then runs on those tables.  ``method='planner'`` /
``method='stream'`` force an engine (raising with the violated requirement
when the planner cannot serve), ``'auto'`` dispatches and reports why in
``PlacementResponse.dispatch_reason``; a grid DP whose label frontier
outgrows its budget, known only once it runs, streams with that reason.

Responses carry the winning placement, its exact objective value (bitwise
the engine's value), the engine used, the dispatch reason, per-request cache
traffic (:class:`CacheInfo`) and wall-clock timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Mapping, Sequence

from ..cache import CacheStats, TableCache, cached_fingerprint, fingerprint
from ..devices.platform import Platform
from ..devices.simulator import SimulatedExecutor
from ..devices.tables import check_fault_args
from ..faults.models import FaultProfile
from ..faults.retry import RetryPolicy, TimeoutPolicy
from ..scenarios import ScenarioGrid
from ..tasks.chain import TaskChain
from ..tasks.graph import TaskGraph

if TYPE_CHECKING:  # pragma: no cover
    from ..search.objectives import Objective
    from ..search.robust import RobustObjective

__all__ = [
    "METHODS",
    "OBJECTIVE_METRICS",
    "CacheInfo",
    "PlacementRequest",
    "PlacementResponse",
    "PlacementService",
]

#: Engines a request may ask for: dispatch, force-DP, force-enumeration.
METHODS = ("auto", "planner", "stream")

#: Metric names a string objective may spell (same set as
#: ``BatchExecutionResult.metric_values``); richer criteria pass Objective /
#: RobustObjective instances.
OBJECTIVE_METRICS = ("cost", "energy", "time")


@dataclass(frozen=True)
class PlacementRequest:
    """One placement query: a workload on a platform under an objective.

    ``platform`` is a :class:`~repro.devices.platform.Platform` or a catalog
    name resolved by the service; ``objective`` a metric name (grid requests
    plan its worst case, matching ``search_grid``) or an Objective /
    RobustObjective instance.  ``scenario_grid`` switches the request to
    robust evaluation over the grid's conditions; a
    :class:`~repro.fleet.SampledFleet` is accepted there too and stands for
    its user grid -- pair it with a
    :class:`~repro.search.QuantileObjective` / :class:`~repro.search.SLOObjective`
    for fleet-tail serving (those objectives are outside the DP planner
    boundary, so such requests dispatch to the streaming enumerator).  Fault
    arguments follow the executor's contract: ``faults``/``timeout`` need
    ``retry``.
    """

    workload: "TaskChain | TaskGraph"
    platform: "Platform | str"
    scenario_grid: ScenarioGrid | None = None
    objective: "str | Objective | RobustObjective" = "time"
    constraints: tuple = ()
    devices: tuple[str, ...] | None = None
    faults: FaultProfile | None = None
    retry: RetryPolicy | None = None
    timeout: TimeoutPolicy | None = None
    method: str = "auto"

    def __post_init__(self) -> None:
        if not isinstance(self.workload, (TaskChain, TaskGraph)):
            raise TypeError(
                f"workload must be a TaskChain or TaskGraph, got {self.workload!r}"
            )
        if not isinstance(self.platform, (Platform, str)):
            raise TypeError(
                f"platform must be a Platform or a catalog name, got {self.platform!r}"
            )
        if self.scenario_grid is not None and not isinstance(self.scenario_grid, ScenarioGrid):
            from ..fleet.sample import SampledFleet

            if isinstance(self.scenario_grid, SampledFleet):
                object.__setattr__(self, "scenario_grid", self.scenario_grid.grid)
            else:
                raise TypeError(
                    f"scenario_grid must be a ScenarioGrid, a SampledFleet or None, "
                    f"got {self.scenario_grid!r}"
                )
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; available: {list(METHODS)}"
            )
        if isinstance(self.objective, str):
            if self.objective not in OBJECTIVE_METRICS:
                raise ValueError(
                    f"unknown objective {self.objective!r}; available: "
                    f"{list(OBJECTIVE_METRICS)} (or pass an Objective / "
                    "RobustObjective instance)"
                )
        elif not (callable(self.objective) and hasattr(self.objective, "name")):
            raise TypeError(
                f"cannot interpret {self.objective!r} as an objective; pass a "
                f"metric name {list(OBJECTIVE_METRICS)} or an object with a "
                ".name and a batch -> values __call__"
            )
        check_fault_args(self.retry, self.faults, self.timeout)
        # Normalise sequences so requests stay hashable-ish and re-submittable.
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.devices is not None:
            object.__setattr__(self, "devices", tuple(self.devices))

    @property
    def is_grid(self) -> bool:
        return self.scenario_grid is not None


@dataclass(frozen=True)
class CacheInfo:
    """Cache traffic of one request: response-level and table-level.

    ``response_hit`` means the whole answer was served from the response
    cache (no engine ran); ``hits``/``misses`` count this request's
    table-cache lookups, and ``entries``/``nbytes`` snapshot the shared
    table cache after the request.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    nbytes: int
    response_hit: bool = False

    @property
    def served_from_cache(self) -> bool:
        """The response, or every table it needed, was already cached."""
        return self.response_hit or (self.misses == 0 and self.hits > 0)


@dataclass(frozen=True)
class PlacementResponse:
    """The service's answer: a placement, its exact value, and provenance.

    ``value`` is bitwise the engine's objective value for ``placement`` --
    the planner re-scores through the batch engine and the enumerator ranks
    with it, so responses are comparable across engines.
    """

    request: PlacementRequest
    plan: str
    placement: tuple[str, ...]
    objective: str
    value: float
    engine: str
    dispatch_reason: str
    cache_info: CacheInfo
    timing_s: float

    def summary(self) -> str:
        cached = "cache hit" if self.cache_info.served_from_cache else "cache miss"
        return (
            f"{self.plan} ({self.objective}={self.value:.6g}) via {self.engine} "
            f"[{self.dispatch_reason}; {cached}; {self.timing_s * 1e3:.2f} ms]"
        )


class PlacementService:
    """Serve placement queries from a shared content-addressed table cache.

    Parameters
    ----------
    platforms:
        The platforms this service answers for: a ``name -> Platform``
        mapping, an iterable of platforms (keyed by ``platform.name``), or
        ``None`` to resolve names through the global catalog
        (:func:`~repro.devices.catalog.get_platform`).
    seed:
        Seed of each per-platform executor (placement queries are
        deterministic; the seed only matters if the executors are also used
        for noisy measurement).
    table_cache:
        The :class:`~repro.cache.TableCache` all executors share; defaults
        to a fresh cache.  Pass an instance to pool tables across services.

    Besides the table cache, the service keeps a **response cache**: a
    placement answer is a deterministic pure function of the request's
    content, so a structurally equal resubmission is served whole -- no
    engine runs -- keyed by the same content fingerprints that key tables.
    Requests whose objective or constraints cannot be content-fingerprinted
    (arbitrary callables) simply bypass it.
    """

    def __init__(
        self,
        platforms: "Mapping[str, Platform] | Sequence[Platform] | None" = None,
        *,
        seed: int = 0,
        table_cache: TableCache | None = None,
    ) -> None:
        self.table_cache = table_cache if table_cache is not None else TableCache()
        self.response_cache = TableCache(max_entries=1024, max_bytes=32 * 2**20)
        self.seed = seed
        self._catalog: dict[str, Platform] | None
        if platforms is None:
            self._catalog = None
        elif isinstance(platforms, Mapping):
            self._catalog = dict(platforms)
        else:
            self._catalog = {platform.name: platform for platform in platforms}
        if self._catalog is not None:
            for name, platform in self._catalog.items():
                if not isinstance(platform, Platform):
                    raise TypeError(
                        f"platform {name!r} must be a Platform, got {platform!r}"
                    )
        self._executors: dict[str, SimulatedExecutor] = {}
        self._resolved: dict[str, Platform] = {}
        self.n_requests = 0

    # -- platform / executor resolution ---------------------------------

    def resolve_platform(self, spec: "Platform | str") -> Platform:
        """The platform a request names (mirroring ``get_platform``'s errors).

        Catalog names resolve once and stick: ``get_platform`` builds a fresh
        object per call, which would defeat fingerprint memoization on the
        hot serving path.
        """
        if isinstance(spec, Platform):
            return spec
        if self._catalog is not None:
            try:
                return self._catalog[spec]
            except KeyError:
                raise KeyError(
                    f"unknown platform {spec!r}; available: {sorted(self._catalog)}"
                ) from None
        resolved = self._resolved.get(spec)
        if resolved is None:
            from ..devices.catalog import get_platform

            resolved = self._resolved[spec] = get_platform(spec)
        return resolved

    def executor_for(self, platform: "Platform | str") -> SimulatedExecutor:
        """The (cached) executor serving a platform, sharing the table cache.

        Executors are keyed by the platform's content fingerprint, so
        structurally equal platforms -- e.g. two ``get_platform`` calls --
        share one executor and its execution-record cache.
        """
        resolved = self.resolve_platform(platform)
        key = cached_fingerprint(resolved)
        executor = self._executors.get(key)
        if executor is None:
            executor = SimulatedExecutor(
                resolved, seed=self.seed, table_cache=self.table_cache
            )
            self._executors[key] = executor
        return executor

    # -- serving ---------------------------------------------------------

    def _request_key(self, request: PlacementRequest, platform: Platform) -> str | None:
        """Content fingerprint of a whole request (``None`` if unkeyable)."""
        try:
            return fingerprint(
                (
                    "placement-request",
                    cached_fingerprint(request.workload),
                    cached_fingerprint(platform),
                    cached_fingerprint(request.scenario_grid),
                    request.objective,
                    request.constraints,
                    request.devices,
                    cached_fingerprint(request.faults),
                    cached_fingerprint(request.retry),
                    cached_fingerprint(request.timeout),
                    request.method,
                )
            )
        except TypeError:
            return None  # e.g. a bare-callable objective: serve fresh each time

    def submit(self, request: PlacementRequest) -> PlacementResponse:
        """Answer one placement query (see the module docstring for routing)."""
        if not isinstance(request, PlacementRequest):
            raise TypeError(f"submit() takes a PlacementRequest, got {request!r}")
        start = perf_counter()
        executor = self.executor_for(request.platform)
        key = self._request_key(request, executor.platform)
        core = self.response_cache.get(key) if key is not None else None
        response_hit = core is not None
        before = self.table_cache.stats()
        if core is None:
            core = self._serve(executor, request)
            if key is not None:
                self.response_cache.put(key, core)
        engine, reason, label, placement, value, name = core
        after = self.table_cache.stats()
        self.n_requests += 1
        return PlacementResponse(
            request=request,
            plan=label,
            placement=placement,
            objective=name,
            value=value,
            engine=engine,
            dispatch_reason=reason,
            cache_info=CacheInfo(
                hits=after.hits - before.hits,
                misses=after.misses - before.misses,
                evictions=after.evictions - before.evictions,
                entries=after.entries,
                nbytes=after.nbytes,
                response_hit=response_hit,
            ),
            timing_s=perf_counter() - start,
        )

    def _serve(self, executor: SimulatedExecutor, request: PlacementRequest):
        """Fetch the request's tables once, ask :func:`~repro.search.planner.route`
        for the engine, and run it on those tables."""
        from ..offload.space import indices_to_matrix, space_size
        from ..search.driver import _BATCH_SIZE, SpaceSearch
        from ..search.objectives import as_objective
        from ..search.planner import _dp_plan, _plan_grid_tables, _refusal, route
        from ..search.robust import (
            _GRID_BATCH_SIZE,
            _regret_baselines,
            _scenario_entries,
            as_robust_objectives,
        )
        from ..search.sweep import sweep

        fault_aware = request.retry is not None
        fault_args = dict(faults=request.faults, retry=request.retry, timeout=request.timeout)
        if not request.is_grid:
            objective = as_objective(request.objective)
            tables = executor.cost_tables(request.workload, request.devices, **fault_args)
            batch_size = _BATCH_SIZE
        else:
            grid, names, weights = _scenario_entries(request.scenario_grid)
            objective = as_robust_objectives((request.objective,))[0].bind_weights(weights)
            tables = executor.grid_cost_tables(
                request.workload, grid, request.devices, **fault_args
            )
            batch_size = _GRID_BATCH_SIZE
        engine, reason = route(
            tables, (objective,), top_k=1, frontier=None, constraints=request.constraints,
            span=None, faults=fault_aware, method=request.method,
        )
        if engine == "planner" and not request.is_grid:
            plan = _dp_plan(tables, objective, isinstance(request.workload, TaskGraph))
            return engine, reason, plan.label, plan.placement, plan.value, plan.objective
        if engine == "planner":
            try:
                plan = _plan_grid_tables(tables, objective, names, weights)
            except ValueError as exc:  # the label budget shows only once the DP runs
                if request.method == "planner":
                    raise _refusal(str(exc)) from None
                engine, reason = "stream", str(exc)
            else:
                return engine, reason, plan.label, plan.placement, plan.value, plan.objective

        total = space_size(tables.n_tasks, tables.n_devices)
        run = partial(sweep, tables, batch_size=batch_size, start=0, stop=total)
        search = SpaceSearch((objective,), 1, frontier=None, constraints=request.constraints)
        search.baselines = _regret_baselines(run, tables, search, None, "auto", fault_aware)
        selection = run(search).result().top[objective.name]
        label = selection.best  # raises if nothing was feasible
        path = indices_to_matrix(selection.indices, tables.n_tasks, tables.n_devices)[0]
        placement = tuple(tables.aliases[d] for d in path)
        return engine, reason, label, placement, float(selection.values[0]), objective.name

    # -- introspection ---------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the shared table cache.

        The response cache keeps its own counters in
        ``service.response_cache.stats()``.
        """
        return self.table_cache.stats()

    def clear_cache(self) -> int:
        """Drop every cached table and response; returns how many were dropped."""
        return self.table_cache.clear() + self.response_cache.clear()
