"""Robust objectives and the streaming grid-search driver.

A placement that wins on today's platform may be the worst choice after the
Wi-Fi link falls back to LTE.  This module selects placements that stay good
across a whole :class:`~repro.scenarios.ScenarioGrid`:

* **robust objectives** collapse the ``(n_conditions, n_placements)`` metric
  grid to one (minimised) scalar per placement -- the worst case over
  scenarios (:class:`WorstCaseObjective`), the scenario-weighted expectation
  (:class:`ExpectedValueObjective`), the weighted tail quantile
  (:class:`QuantileObjective`, e.g. a fleet's p95 latency), the weighted
  fraction of scenarios missing a budget (:class:`SLOObjective`), or the
  maximum regret against each scenario's own best placement
  (:class:`RegretObjective`);
* :func:`search_grid` streams the placement space chunk by chunk through the
  sweep core (:mod:`repro.search.sweep`) into the search layer's one
  selection accumulator, :class:`~repro.search.driver.SpaceSearch` -- the
  same one :func:`~repro.search.driver.search_space` folds plain batches
  into, a plain batch being the one-row grid chunk.  It keeps the top-K per
  robust objective and each scenario's individual winner, so condition
  drift is visible in the result; the streamed regret-baseline pass is an
  accumulator of those winners alone.

Everything is free of lambdas and mutable shared state, like the rest of the
search layer: objective specs are value-type dataclasses that survive
pickling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from ..devices.tables import check_fault_args
from .constraints import Constraint
from .driver import (
    ScenarioBest,
    SpaceSearch,
    TopSelection,
    _base_name,
    _base_values,
    _placement_range,
    _RankedResult,
)
from .objectives import Objective, as_objective
from .sweep import ShardPool, check_n_workers, shard_ranges, sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..devices.grid import GridExecutionResult
    from ..devices.simulator import SimulatedExecutor
    from ..scenarios import Scenario, ScenarioGrid
    from ..tasks.chain import TaskChain
    from ..tasks.graph import TaskGraph

#: Placements per streamed chunk of a grid sweep (weighted expectations round
#: by chunk width, so sweeps that must agree bitwise share it).
_GRID_BATCH_SIZE = 16384

__all__ = [
    "RobustObjective",
    "WorstCaseObjective",
    "ExpectedValueObjective",
    "QuantileObjective",
    "SLOObjective",
    "RegretObjective",
    "ScenarioBest",
    "GridSearchResult",
    "as_robust_objectives",
    "search_grid",
]


def _store_weights(objective: "RobustObjective") -> None:
    """Coerce and validate an objective's explicit per-scenario weights once.

    The ``weights`` field keeps them as a tuple of floats; the reductions
    read the float array converted here.  NaN compares ``False`` against
    every bound, so a bare ``w < 0`` check would wave non-finite weights
    through into ``weights @ values`` and turn every robust value into NaN
    with no error -- hence the explicit finiteness guard.
    """
    if objective.weights is None:
        return
    weights = objective.weights
    array = np.array(weights if isinstance(weights, np.ndarray) else list(weights), dtype=float)
    if array.ndim != 1:
        raise ValueError(f"scenario weights must be one-dimensional, got shape {array.shape}")
    bad = ~(np.isfinite(array) & (array >= 0))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(
            "scenario weights must be finite and non-negative, "
            f"got weights[{i}]={float(array[i])!r}"
        )
    if not (array > 0).any():
        raise ValueError("at least one scenario weight must be positive")
    array.flags.writeable = False
    object.__setattr__(objective, "weights", tuple(array.tolist()))
    object.__setattr__(objective, "_weight_array", array)


def _scenario_weights(objective: "RobustObjective", n_scenarios: int) -> np.ndarray:
    """An objective's weight array, checked against the scenario count."""
    if len(objective.weights) != n_scenarios:
        raise ValueError(
            f"expected {n_scenarios} scenario weights, got {len(objective.weights)}"
        )
    return objective._weight_array


@dataclass(frozen=True)
class RobustObjective:
    """Base class: a per-scenario objective plus a reduction over scenarios.

    ``base`` is a metric name (``"time"``/``"energy"``/``"cost"``) or any
    search :class:`~repro.search.objectives.Objective`; subclasses implement
    :meth:`reduce`, mapping the ``(n_conditions, n_placements)`` base values
    to one scalar per placement (lower is better).
    """

    base: "str | Objective" = "time"
    label: str = ""

    #: Whether :meth:`reduce` needs the per-scenario minima of the base
    #: objective over the whole (feasible) space -- triggers the extra
    #: baseline pass in :func:`search_grid`.
    requires_baseline = False

    def __post_init__(self) -> None:
        if not isinstance(self.base, str):
            as_objective(self.base)  # validate early: needs .name and __call__

    @property
    def name(self) -> str:
        return self.label or f"{self._prefix}-{_base_name(self.base)}"

    _prefix = "robust"

    def values(self, grid: "GridExecutionResult") -> np.ndarray:
        """Per-scenario base values of one grid chunk, shape ``(s, n)``."""
        return _base_values(self.base, grid)

    def bind_weights(self, weights: Sequence[float]) -> "RobustObjective":
        """Bind the searched grid's scenario weights where the objective wants
        them and was constructed without explicit weights; the driver calls
        this once per sweep.  Unweighted objectives return themselves."""
        return self

    def reduce(
        self, values: np.ndarray, baselines: np.ndarray | None = None
    ) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, grid: "GridExecutionResult") -> np.ndarray:
        """Robust scalar per placement of a *complete* grid (no streaming).

        For :class:`RegretObjective` the per-scenario baselines are taken
        from the grid itself, i.e. the grid must hold the entire candidate
        space; :func:`search_grid` handles the streaming case.
        """
        values = self.values(grid)
        baselines = values.min(axis=1) if self.requires_baseline else None
        return self.reduce(values, baselines)


@dataclass(frozen=True)
class WorstCaseObjective(RobustObjective):
    """Minimise the worst value the placement attains over the scenarios."""

    _prefix = "worst"

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        return values.max(axis=0)


@dataclass(frozen=True)
class ExpectedValueObjective(RobustObjective):
    """Minimise the scenario-weighted expectation of the base objective.

    ``weights`` (one non-negative weight per scenario, not necessarily
    normalised) defaults to the scenario weights of the grid being searched,
    or uniform when constructed directly over a bare values matrix.
    """

    weights: tuple[float, ...] | None = None

    _prefix = "expected"

    def __post_init__(self) -> None:
        super().__post_init__()
        _store_weights(self)

    def with_weights(self, weights: Sequence[float]) -> "ExpectedValueObjective":
        """Copy with explicit weights (the driver binds grid weights here)."""
        return ExpectedValueObjective(base=self.base, label=self.label, weights=weights)

    def bind_weights(self, weights: Sequence[float]) -> "ExpectedValueObjective":
        return self if self.weights is not None else self.with_weights(weights)

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        if self.weights is None:
            return values.mean(axis=0)
        weights = _scenario_weights(self, values.shape[0])
        return weights @ values / weights.sum()


def _weighted_quantile_columns(
    values: np.ndarray, weights: np.ndarray, q: float
) -> np.ndarray:
    """Weighted ``q``-quantile of each column of a ``(s, n)`` value matrix.

    Per column: sort the scenario values (stable, so ties keep grid order),
    accumulate the correspondingly permuted weights, and return the first
    sorted value whose cumulative weight reaches ``q`` times the total.  This
    is the left-continuous inverse of the weighted empirical CDF: with equal
    weights and ``q = 1.0`` it is exactly the column maximum, and scenarios
    carrying zero weight can never be picked ahead of the quantile point.
    The reduction touches each column independently, so it is invariant to
    how the placement axis is chunked.

    When every weight equals the first (a sampled fleet's users), every
    permutation accumulates the same weight sequence, so the pick is one
    order statistic shared by all columns: an O(s) ``np.partition`` per
    column finds it instead of an O(s log s) sort.  Values that compare equal
    are bitwise equal except for signed zeros and NaN payloads, so columns
    whose pick is ``0.0`` or NaN take the stable sort, which chooses among
    equals by grid order.
    """
    if weights.size and (weights == weights[0]).all():
        cumulative = np.cumsum(weights)
        pick = int((cumulative >= q * cumulative[-1]).argmax())
        columns = values.T.copy()
        columns.partition(pick, axis=1)
        picked = columns[:, pick].copy()
        ambiguous = (picked == 0.0) | np.isnan(picked)
        if ambiguous.any():
            picked[ambiguous] = _stable_quantile_columns(values[:, ambiguous], weights, q)
        return picked
    return _stable_quantile_columns(values, weights, q)


def _stable_quantile_columns(values: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """:func:`_weighted_quantile_columns` through one stable sort per column."""
    order = np.argsort(values, axis=0, kind="stable")
    sorted_values = np.take_along_axis(values, order, axis=0)
    cumulative = np.cumsum(weights[order], axis=0)
    target = q * cumulative[-1]
    picks = (cumulative >= target).argmax(axis=0)
    return sorted_values[picks, np.arange(values.shape[1])]


@dataclass(frozen=True)
class QuantileObjective(RobustObjective):
    """Minimise a weighted tail quantile of the base objective over scenarios.

    The fleet-scale risk measure: with one scenario per sampled user,
    ``QuantileObjective(q=0.95)`` ranks placements by the latency the worst
    5% (by weight) of the fleet experiences.  ``weights`` defaults to the
    scenario weights of the grid being searched (uniform when the objective
    is applied directly to a bare grid).  The quantile is the left-continuous
    inverse of the weighted empirical CDF; with equal weights ``q=1.0``
    coincides with :class:`WorstCaseObjective` exactly.

    The reduction is a pure per-placement function of the complete
    ``(n_scenarios, n_placements)`` value matrix, and :func:`search_grid`
    reassembles scenario-sharded chunks along the scenario axis *before* any
    reduction runs -- sharded weighted quantiles are therefore bitwise
    identical to the serial sweep.
    """

    q: float = 0.95
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"quantile q must lie in (0, 1], got {self.q!r}")
        _store_weights(self)

    @property
    def name(self) -> str:
        return self.label or f"p{self.q * 100:g}-{_base_name(self.base)}"

    def with_weights(self, weights: Sequence[float]) -> "QuantileObjective":
        return QuantileObjective(base=self.base, label=self.label, q=self.q, weights=weights)

    def bind_weights(self, weights: Sequence[float]) -> "QuantileObjective":
        return self if self.weights is not None else self.with_weights(weights)

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        if self.weights is None:
            weights = np.ones(values.shape[0])
        else:
            weights = _scenario_weights(self, values.shape[0])
        return _weighted_quantile_columns(values, weights, self.q)


@dataclass(frozen=True)
class SLOObjective(RobustObjective):
    """Minimise the weighted fraction of scenarios that miss a budget.

    The service-level view of a fleet: with one scenario per sampled user and
    ``base="time"``, ``SLOObjective(budget=0.25)`` ranks placements by the
    weighted share of users whose end-to-end latency exceeds 250 ms (strictly
    ``value > budget`` counts as a miss, so meeting the budget exactly is a
    hit).  Values are miss fractions in ``[0, 1]``; minimising them maximises
    SLO attainment.  ``weights`` defaults to the searched grid's scenario
    weights, like :class:`ExpectedValueObjective`.

    Like the quantile, the reduction is per-placement over the full scenario
    axis, so scenario-sharded sweeps are bitwise identical to serial ones.
    """

    budget: float = 0.0
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.budget):
            raise ValueError(f"SLO budget must be finite, got {self.budget!r}")
        _store_weights(self)

    @property
    def name(self) -> str:
        return self.label or f"slo-{_base_name(self.base)}@{self.budget:g}"

    def with_weights(self, weights: Sequence[float]) -> "SLOObjective":
        return SLOObjective(base=self.base, label=self.label, budget=self.budget, weights=weights)

    def bind_weights(self, weights: Sequence[float]) -> "SLOObjective":
        return self if self.weights is not None else self.with_weights(weights)

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        misses = (values > self.budget).astype(float)
        if self.weights is None:
            return misses.mean(axis=0)
        weights = _scenario_weights(self, values.shape[0])
        return weights @ misses / weights.sum()


@dataclass(frozen=True)
class RegretObjective(RobustObjective):
    """Minimise the maximum regret against each scenario's own best placement.

    The regret of placement ``p`` in scenario ``s`` is ``value[s, p] -
    min_q value[s, q]`` (how much worse than the best the scenario admits);
    the objective is the maximum over scenarios.  The minima are taken over
    the feasible placements actually searched, so under :func:`search_grid`
    the space is streamed twice: one pass to find the per-scenario baselines,
    one to select.  A scenario whose best value is ``inf`` (every placement
    fails there) gives every placement an ``inf`` regret, as the worst case
    does, instead of the NaN of ``inf - inf``.
    """

    requires_baseline = True
    _prefix = "regret"

    def reduce(self, values: np.ndarray, baselines: np.ndarray | None = None) -> np.ndarray:
        if baselines is None:
            raise ValueError(
                f"{self.name} needs per-scenario baselines; search the grid via "
                "search_grid, or call the objective on a grid holding the full space"
            )
        baselines = np.asarray(baselines, dtype=float)
        if baselines.shape != (values.shape[0],):
            raise ValueError(
                f"expected {values.shape[0]} baselines, got shape {baselines.shape}"
            )
        regret = np.full(values.shape, np.inf)
        np.subtract(values, baselines[:, None], out=regret, where=np.isfinite(baselines)[:, None])
        return regret.max(axis=0)


def as_robust_objectives(
    specs: "Sequence[str | RobustObjective]",
) -> tuple[RobustObjective, ...]:
    """Coerce specs (metric names become worst-case) with unique names."""
    objectives = tuple(
        WorstCaseObjective(base=spec) if isinstance(spec, str) else spec for spec in specs
    )
    for objective in objectives:
        if not isinstance(objective, RobustObjective):
            raise TypeError(
                f"cannot interpret {objective!r} as a robust objective; pass a metric "
                "name (selected by worst case) or a RobustObjective instance"
            )
    names = [objective.name for objective in objectives]
    if len(set(names)) != len(names):
        raise ValueError(f"robust objective names must be unique, got {names}")
    return objectives


# ----------------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSearchResult(_RankedResult):
    """Outcome of one streaming robust sweep over (scenario, placement) pairs."""

    n_tasks: int
    aliases: tuple[str, ...]
    scenario_names: tuple[str, ...]
    n_evaluated: int
    n_feasible: int
    top: Mapping[str, TopSelection]
    scenario_best: Mapping[str, ScenarioBest]
    #: Per-scenario minima used as regret baselines, keyed by base-objective name.
    baselines: Mapping[str, np.ndarray]

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_names)

    def summary(self) -> str:
        lines = [
            f"searched {self.n_evaluated} of {self.space_size} placements under "
            f"{self.n_scenarios} scenarios ({self.n_feasible} robust-feasible) over "
            f"{len(self.aliases)} devices x {self.n_tasks} tasks",
            *self._top_lines(),
        ]
        for name, best in self.scenario_best.items():
            shifts = len(dict.fromkeys(best.labels))
            lines.append(
                f"  per-scenario winners by {name}: "
                f"{' -> '.join(dict.fromkeys(best.labels))} ({shifts} distinct)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------------
# Streaming driver
# ----------------------------------------------------------------------------

def _scenario_entries(scenarios) -> tuple["ScenarioGrid", tuple[str, ...], np.ndarray]:
    """Coerce a ScenarioGrid / scenario list to (grid, names, weights).

    No platform derivation happens here: grid tables are built in array
    space from the base platform plus the scenario definitions, and
    per-scenario platforms only materialize if something asks for them.
    """
    from ..scenarios import Scenario, ScenarioGrid

    if not isinstance(scenarios, ScenarioGrid):
        entries = tuple(scenarios)
        if not entries:
            raise ValueError("at least one scenario is required")
        for entry in entries:
            if not isinstance(entry, Scenario):
                raise TypeError(
                    f"expected Scenario instances or a ScenarioGrid, got {entry!r}"
                )
        scenarios = ScenarioGrid(entries)
    return scenarios, scenarios.names, scenarios.weights


def _scenario_sharded_chunks(
    pools: Sequence[ShardPool], evaluate, batch_size: int, start: int, stop: int
) -> Iterator[tuple[int, int, np.ndarray, dict[str, np.ndarray] | None]]:
    """Evaluate every chunk on each scenario shard and stitch the shards.

    Every shard evaluates the same placements against its own scenario block;
    the parent ANDs the feasibility masks and concatenates the raw value
    matrices along the scenario axis (in shard order), reconstructing exactly
    the serial sweep's ``(s, n)`` chunk -- every fold, reduction and tie rule
    then runs on bit-identical inputs.
    """
    for chunk_start in range(start, stop, batch_size):
        chunk_stop = min(chunk_start + batch_size, stop)
        futures = [pool.evaluate(evaluate, chunk_start, chunk_stop) for pool in pools]
        parts = [future.result() for future in futures]
        mask = parts[0][0].copy()
        for shard_mask, _ in parts[1:]:
            mask &= shard_mask
        values: dict[str, np.ndarray] | None = None
        if mask.any():
            # A surviving placement is feasible in every shard, so every shard
            # produced a value matrix.
            values = {
                name: np.concatenate([part_values[name] for _, part_values in parts], axis=0)
                for name in parts[0][1]
            }
        yield chunk_start, chunk_stop - chunk_start, mask, values


def search_grid(
    executor: "SimulatedExecutor",
    chain: "TaskChain | TaskGraph",
    scenarios: "ScenarioGrid | Sequence[Scenario]",
    *,
    objectives: "Sequence[str | RobustObjective]" = (WorstCaseObjective(),),
    top_k: int = 10,
    constraints: Sequence[Constraint] = (),
    devices: Sequence[str] | None = None,
    batch_size: int = _GRID_BATCH_SIZE,
    start: int = 0,
    stop: int | None = None,
    n_workers: int | None = None,
    scenario_shards: int | None = None,
    baseline_method: str = "auto",
    faults=None,
    retry=None,
    timeout=None,
) -> GridSearchResult:
    """Stream a placement range under every scenario and select robust winners.

    Chunks of the placement space are evaluated against the whole condition
    grid in one vectorized pass each (the sweep core of
    :mod:`repro.search.sweep` runs ``tables.execute``) and folded into a
    :class:`~repro.search.driver.SpaceSearch`: per robust objective it keeps
    the best ``top_k`` placements, and each scenario's individual winner is
    tracked per base objective so the drift between conditions is part of
    the result.  Peak memory is one
    ``(n_scenarios, batch_size)`` chunk plus the O(top_k) selection state.
    The serial sweep fetches the tables once and runs in-process.

    Two sharding axes run through the same worker-pool helper
    (:class:`~repro.search.sweep.ShardPool`, whose workers each build their
    tables once).  With ``n_workers > 1`` the placement-index range is split
    into contiguous shards exactly like :func:`~repro.search.search_space`;
    one pool serves both passes of a regret sweep, and shard results merge
    associatively, so the outcome is identical to the serial sweep.
    ``scenario_shards`` splits the *other* axis: each worker holds the grid
    tables of one contiguous scenario block and evaluates every placement
    chunk against its block; the parent stitches the per-shard value
    matrices back together along the scenario axis before any reduction
    runs, so the result is bitwise identical to the serial sweep.  Scenario
    sharding pays off when the scenario count dominates the chunk cost; it
    is mutually exclusive with ``n_workers > 1`` (shard one axis or the
    other, not both).  Counts below 1 are rejected on either axis.

    Constraints are enforced *robustly*: a placement is feasible only if it
    satisfies every constraint under every scenario.  Regret objectives need
    each scenario's best feasible value over the searched range --
    ``baseline_method`` picks how it is found (through
    :func:`repro.search.planner.route`): ``"stream"`` runs an extra
    streaming pass that tracks only the regret bases' per-scenario winners;
    ``"planner"`` computes each
    scenario's optimum with one exact chain DP
    (:func:`repro.search.planner.grid_baselines`, bitwise the streamed
    minimum, at ``O(s * k * m**2)`` instead of ``O(s * m**k)``), raising when
    the request is outside the planner boundary (constraints, index slices,
    non-linear graphs, non-plannable bases, faults); ``"auto"`` (default)
    plans when eligible and streams otherwise.

    With ``retry=`` given every (scenario, placement) pair is evaluated under
    faults: each scenario uses its own platform's attached profile (the shape
    the :class:`~repro.scenarios.DeviceFailureRate` /
    :class:`~repro.scenarios.LinkDropoutRate` axes produce) unless an
    explicit ``faults`` profile overrides them all.  Fault-aware bases are
    outside the planner boundary, so regret baselines stream
    (``baseline_method="planner"`` raises with that reason).
    """
    check_fault_args(retry, faults, timeout)
    check_n_workers(n_workers)
    grid, scenario_names, grid_weights = _scenario_entries(scenarios)
    # The driving process serves its tables from the executor's shared
    # content-addressed cache (shard workers, living in other processes,
    # rebuild locally via the same build_tables path).
    tables = executor.grid_cost_tables(
        chain,
        grid,
        devices,
        faults=faults,
        retry=retry,
        timeout=timeout,
    )
    stop = _placement_range(tables, start, stop)
    if baseline_method not in ("auto", "planner", "stream"):
        raise ValueError(
            f"unknown baseline_method {baseline_method!r}; choose 'auto', 'planner' or 'stream'"
        )

    coerced = as_robust_objectives(objectives)
    # Bind the grid's scenario weights to weighted objectives left unbound
    # (expectation, quantile, SLO -- each decides through bind_weights).
    coerced = tuple(objective.bind_weights(grid_weights) for objective in coerced)
    search = SpaceSearch(coerced, top_k, frontier=None, constraints=constraints)
    if not search.top_k:
        raise ValueError("top_k must be positive")

    ranges = shard_ranges(start, stop, n_workers) if n_workers else []
    sharded = len(ranges) > 1
    if scenario_shards is not None and scenario_shards < 1:
        raise ValueError("scenario_shards must be >= 1")
    n_shards = min(scenario_shards, tables.n_scenarios) if scenario_shards else 1
    if n_shards > 1 and sharded:
        raise ValueError(
            "scenario_shards and n_workers > 1 are mutually exclusive: "
            "shard across scenarios or across placements, not both"
        )

    spec = dict(
        workload=chain, platform=executor.platform, devices=devices,
        scenarios=grid, faults=faults, retry=retry, timeout=timeout,
    )
    pools: list[ShardPool] = []
    if sharded:
        pools.append(ShardPool(spec, len(ranges)))
    elif n_shards > 1:
        for lo, hi in shard_ranges(0, tables.n_scenarios, n_shards):
            block = grid._take(range(lo, hi))
            pools.append(ShardPool({**spec, "scenarios": block}, 1))

    def run(accumulator: SpaceSearch) -> SpaceSearch:
        """Fold the whole range into one accumulator: placement shards,
        scenario shards, or in-process."""
        if sharded:
            return pools[0].fold(accumulator, ranges, batch_size)
        if pools:
            accumulator._bind_space(tables.n_tasks, tables.aliases)
            chunks = _scenario_sharded_chunks(
                pools, accumulator.evaluate, batch_size, start, stop
            )
            for chunk in chunks:
                accumulator.fold(*chunk)
            return accumulator
        return sweep(tables, accumulator, batch_size, start, stop)

    try:
        search.baselines = _regret_baselines(
            run, tables, search, (start, stop), baseline_method, fault_aware=retry is not None
        )
        search = run(search)
    finally:
        for pool in pools:
            pool.shutdown()

    result = search.result()
    return GridSearchResult(
        n_tasks=result.n_tasks,
        aliases=result.aliases,
        scenario_names=scenario_names,
        n_evaluated=result.n_evaluated,
        n_feasible=result.n_feasible,
        top=result.top,
        scenario_best=search.scenario_best(scenario_names),
        baselines=search.baselines,
    )


def _regret_baselines(
    run,
    tables,
    search: SpaceSearch,
    span: tuple[int, int] | None,
    baseline_method: str,
    fault_aware: bool,
) -> dict[str, np.ndarray]:
    """Per-scenario minima of the regret bases of ``search``: exact DPs or a
    streamed pass of their per-scenario winners, as
    :func:`~repro.search.planner.route` decides.  Empty when no objective
    needs baselines, and when no placement of the range is feasible.
    """
    from .planner import grid_baselines, route

    regret = tuple(r for _, _, r in search._ranked if r is not None and r.requires_baseline)
    if not regret:
        return {}
    engine, _ = route(
        tables, regret, top_k=1, frontier=None, constraints=search._constraints,
        span=span, faults=fault_aware, method=baseline_method, option="baseline_method",
    )
    if engine == "planner":
        names = dict.fromkeys(_base_name(objective.base) for objective in regret)
        try:
            return {name: grid_baselines(tables, search.bases[name]) for name in names}
        except KeyError:
            # No feasible placement at all: same contract as the streaming
            # pass, which leaves the baselines empty.
            return {}
    winners = run(SpaceSearch(regret, 0, frontier=None, constraints=search._constraints))
    return dict(winners.winner_values) if winners.n_feasible else {}
