"""Exact polynomial-time placement planning: Viterbi DP over the (task, device) lattice.

Every enumeration engine in this repository pays ``m**k``: the batch executor
made *evaluating* a placement cheap, but the space itself still explodes
combinatorially (the regime the paper's conclusion worries about).  For a
*chain*, however, every shipped scalar objective is **additive along the
placement path**: the total is a left fold of per-task terms (depending only on
the task's device) and per-hop terms (depending only on consecutive device
pairs).  Minimising an additive path cost over the ``k x m`` lattice of
``(task, device)`` states is a shortest-path problem, solved exactly by a
Viterbi-style dynamic program in ``O(k * m**2)`` -- each of the ``k`` stages is
one ``m x m`` NumPy broadcast -- instead of ``m**k`` enumeration.

Additive decompositions (``T`` = total time, folded exactly like the engine):

* ``time``:    ``T = sum_t  busy(t, d_t) + (hostio(t, d_t) + pen(d_{t-1}, d_t))``
  -- the DP accumulates this *exact* IEEE-754 fold, so for the ``time``
  objective the optimal value is **bitwise** the enumerator's minimum.
* ``energy``:  ``active + idle + transfer``.  Since ``T >= busy_d`` for every
  device, ``idle = T * P_idle_total - sum_d busy_d * p_idle(d)`` where
  ``P_idle_total`` sums the idle power of *all* platform devices (non-candidate
  devices idle for the whole run).  Substituting the time fold makes energy
  node+edge additive: exact in real arithmetic (the float op *order* differs
  from the engine, so the winner is re-scored through the engine and the
  reported value is bitwise the enumerator's value for that placement).
* ``cost``:    ``sum_d cost_per_hour(d) * busy_d / 3600`` -- purely node
  additive (no edge term).
* weighted sums combine the three with non-negative weights.

**DAG boundary.**  A :class:`~repro.tasks.graph.TaskGraph`'s makespan is a
critical path with device serialization -- not path-additive in general.  The
planner is exact on *barrier-decomposable* graphs: every edge spans consecutive
topological levels, and each consecutive level pair is either fed by a
width-one level or fully bipartite (every task joins the whole previous
level).  There every task of level ``l`` becomes ready at the same barrier
``R_l`` (the max finish of level ``l-1``), so a level-DP over *joint level
assignments* (``m**w`` states for a width-``w`` level) is exact: for ``time``
the DP propagates absolute barriers through the engine's own max/plus fold
(transition monotone in the barrier, hence Bellman-exact *and* bitwise); for
the other objectives the level deltas are additive in real arithmetic.  Linear
graphs and the shipped :func:`~repro.tasks.workloads.fork_join_graph` satisfy
the condition.  Everything else -- non-decomposable graphs, level state counts
above ``max_level_states``, non-additive objectives, Pareto frontiers,
deadline/budget constraints, ``top_k > 1`` -- falls back to the streaming
enumerators (:func:`~repro.search.driver.search_space` /
:func:`~repro.search.robust.search_grid`), explicitly and with the reason
recorded.

**Scenario grids** (robust planning over chains): the expected value of
additive objectives is additive (scenario-weighted average of the per-scenario
lattices -> one scalar DP); worst-case and regret are min-max problems solved
exactly by a *Pareto-label* DP that keeps, per ``(stage, device)`` state, the
non-dominated per-scenario cost vectors of all prefixes (dominance pruning is
sound because ``max`` is monotone in every component).  Regret baselines --
each scenario's true optimum, replacing :func:`search_grid`'s first streaming
pass -- come from one Viterbi batched over every scenario row and one engine
run of the winners.

One compile, one solver: :func:`_lattice` compiles every scenario row at once
from the table arrays alone, and :func:`_viterbi` (batched over rows) solves
the chain, expected-value, regret-baseline and level DPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..devices.batch import (
    execute_placements,
    placement_labels,
)
from ..devices.grid import execute_placements_grid
from ..offload.space import indices_to_matrix, placement_matrix, space_size
from ..tasks.graph import TaskGraph
from .objectives import MetricObjective, Objective, WeightedSumObjective, as_objective
from .pareto import pareto_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..devices.grid import GridCostTables
    from ..devices.simulator import SimulatedExecutor
    from ..tasks.chain import TaskChain

__all__ = [
    "PlanResult",
    "GridPlanResult",
    "plan_workload",
    "plan_grid",
    "grid_baselines",
    "planner_objective_weights",
    "decomposable_levels",
    "dispatch_reason",
    "DEFAULT_MAX_LEVEL_STATES",
    "DEFAULT_MAX_LABELS",
    "DEFAULT_FALLBACK_LIMIT",
]

#: Cap on the ``m**w`` joint-assignment states of a single DAG level; wider
#: levels make the graph fall back to streaming enumeration.
DEFAULT_MAX_LEVEL_STATES = 1024

#: Cap on the Pareto-label frontier of the robust (min-max) chain DP.
DEFAULT_MAX_LABELS = 100_000

#: Largest space the planner will *enumerate* when it has to fall back.
DEFAULT_FALLBACK_LIMIT = 1 << 20


# ----------------------------------------------------------------------------
# Objective compilation
# ----------------------------------------------------------------------------

def planner_objective_weights(objective: "str | Objective") -> tuple[float, float, float] | None:
    """``(time, energy, cost)`` weights of a DP-plannable objective, else ``None``.

    The planner handles exactly the objectives that are additive over the
    lattice: the three metric columns and their non-negative weighted sums.
    Anything else (decision objectives, custom callables) returns ``None`` and
    is routed to the streaming fallback.
    """
    obj = as_objective(objective)
    if isinstance(obj, MetricObjective):
        weights = {"time": (1.0, 0.0, 0.0), "energy": (0.0, 1.0, 0.0), "cost": (0.0, 0.0, 1.0)}
        return weights.get(obj.metric)
    if isinstance(obj, WeightedSumObjective):
        return (obj.time_weight, obj.energy_weight, obj.cost_weight)
    return None


def _idle_power(tables: "GridCostTables") -> np.ndarray:
    """Idle power of **all** platform devices per row, ``(s,)``.

    Non-candidate devices never run a task, but they idle for the whole
    execution and their energy enters the engine's total.  Folded in
    ``device_order``, like the engine's energy fold.
    """
    candidate = dict(zip(tables.aliases, tables.power_idle.T))
    extra = iter(tables.extra_idle_power.T)
    total = np.zeros(tables.power_idle.shape[0])
    for alias in tables.device_order:
        total = total + (candidate[alias] if alias in candidate else next(extra))
    return total


def _lattice(
    tables: "GridCostTables", weights: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Compile one additive objective into every row's lattice ``(first, trans)``.

    ``first[r, d]`` is the cost of placing task 0 on device ``d`` in row
    (scenario) ``r``; ``trans[r, t-1, d, d']`` the cost of placing task ``t``
    on ``d'`` after task ``t-1`` ran on ``d``.  The path sum over a row equals
    the objective of the placement in that row -- for pure ``time`` with the
    *identical* float fold as the engine (``busy + (hostio + pen)`` per
    stage), for energy/cost in real arithmetic.  Transitions crossing a
    missing platform link are ``+inf``.
    """
    tw, ew, cw = weights
    busy, hostio_time = tables.busy, tables.hostio_time
    penalty_time, first_penalty_time = tables.penalty_time, tables.first_penalty_time
    # Time parts double as the missing-link carrier: hostio is NaN for a
    # missing host link, pen for a missing device pair.
    first_time = busy[:, 0] + (hostio_time[:, 0] + first_penalty_time)
    trans_time = busy[:, 1:, None, :] + (hostio_time[:, 1:, None, :] + penalty_time[:, None])

    first, trans = 0.0, 0.0
    if tw:
        first, trans = first + tw * first_time, trans + tw * trans_time
    if ew:
        p_all = _idle_power(tables)[:, None]
        node = (
            tables.energy_in
            + tables.energy_out
            + busy * (tables.power_active - tables.power_idle + p_all)[:, None, :]
            + hostio_time * p_all[:, None]
        )
        edge = tables.penalty_energy + penalty_time * p_all[:, None]
        first_edge = tables.first_penalty_energy + first_penalty_time * p_all
        first = first + ew * (node[:, 0] + first_edge)
        trans = trans + ew * (node[:, 1:, None, :] + edge[:, None])
    if cw:
        node = (tables.cost_per_hour[:, None, :] * busy) / 3600.0
        first, trans = first + cw * node[:, 0], trans + cw * node[:, 1:, None, :]
    # Infeasible transitions (missing links) become +inf so the DP routes
    # around them; a cost-only compile has no NaN of its own, hence the mask
    # from the time parts (which also shapes an all-zero-weight compile).
    first = np.where(np.isnan(first_time) | np.isnan(first), np.inf, first)
    trans = np.where(np.isnan(trans_time) | np.isnan(trans), np.inf, trans)
    return first, trans


def _viterbi(first: np.ndarray, steps) -> tuple[np.ndarray, np.ndarray]:
    """Minimise a stage-wise lattice cost per row; returns ``(values, paths)``.

    ``first`` holds each row's first-stage state costs, ``(r, a)``.  A stage
    of ``steps`` is an ``(r, a, b)`` transition added to the accumulated
    cost, or a callable mapping that cost to its ``(r, a, b)`` candidates
    (the level DP's max-plus barrier fold).  Each stage keeps the minimum
    over ``a`` with backpointers (ties: the lowest state); one backtrack
    recovers the ``(r, n_stages + 1)`` state paths.  Additions run in path
    order, so each value is bitwise the engine's fold of its best prefix.
    """
    rows, states = np.arange(first.shape[0]), np.arange(first.shape[1])
    row_of = rows[:, None]
    acc = first
    backs: list[list[list[int]]] = []
    for step in steps:
        cand = step(acc) if callable(step) else acc[:, :, None] + step
        arg = cand.argmin(axis=1)
        backs.append(arg.tolist())
        if states.size != cand.shape[2]:
            states = np.arange(cand.shape[2])
        acc = cand[row_of, arg, states]
    ends = acc.argmin(axis=1)
    # Backtracking on Python ints: per-element array indexing costs more.
    paths = []
    for row, cursor in enumerate(ends.tolist()):
        path = [cursor]
        for back in reversed(backs):
            cursor = back[row][cursor]
            path.append(cursor)
        paths.append(path[::-1])
    return acc[rows, ends], np.array(paths, dtype=np.intp)


# ----------------------------------------------------------------------------
# DAG decomposition: barrier-synchronized levels
# ----------------------------------------------------------------------------

def decomposable_levels(
    pred_positions: Sequence[Sequence[int]],
    n_devices: int,
    max_level_states: int = DEFAULT_MAX_LEVEL_STATES,
) -> tuple[list[list[int]] | None, str | None]:
    """Topological levels of a barrier-decomposable DAG, or ``(None, reason)``.

    The condition under which the level DP is exact: every task's predecessors
    all sit on the immediately previous level, and each level is either fed by
    a width-one level or joins it completely (full bipartite fan-in).  Then
    every task of a level becomes ready at the same scalar barrier, and the
    makespan decomposes over consecutive level assignments.
    """
    level_of: list[int] = []
    for preds in pred_positions:
        level_of.append(0 if not preds else 1 + max(level_of[p] for p in preds))
    levels: list[list[int]] = [[] for _ in range(max(level_of) + 1)]
    for position, level in enumerate(level_of):
        levels[level].append(position)
    for index in range(1, len(levels)):
        prev = levels[index - 1]
        for t in levels[index]:
            if any(level_of[p] != index - 1 for p in pred_positions[t]):
                return None, (
                    f"task at position {t} depends across non-consecutive levels; "
                    "the level barrier does not decompose"
                )
            if len(prev) > 1 and list(pred_positions[t]) != prev:
                return None, (
                    f"task at position {t} joins only part of level {index - 1}; "
                    "partial fan-in breaks the level barrier"
                )
    for level in levels:
        states = n_devices ** len(level)
        if states > max_level_states:
            return None, (
                f"a level of width {len(level)} needs {states} joint states "
                f"(> max_level_states={max_level_states})"
            )
    return levels, None


#: One level of the level DP: its tasks, its ``(B, w)`` joint device states,
#: per task the predecessors' ``(A,)`` devices under each previous state, and
#: ``A`` (1 for the first level).
_Stage = tuple[list[int], np.ndarray, list[list[np.ndarray]], int]


def _fan_in(
    penalty: np.ndarray, first_penalty: np.ndarray, feed: list[np.ndarray], dst: np.ndarray
) -> np.ndarray:
    """One task's fan-in penalty per (previous state, level state) pair: its
    in-edges' penalties summed in canonical edge order, or the host feed of a
    source task.  ``penalty``/``first_penalty`` are one row's time or energy
    arrays."""
    if not feed:
        return first_penalty[dst][None, :]
    pen = np.zeros((feed[0].shape[0], dst.shape[0]))
    for src in feed:
        pen += penalty[src[:, None], dst[None, :]]
    return pen


def _level_serialize(tables: "GridCostTables", stage: _Stage, base: np.ndarray) -> np.ndarray:
    """Barrier after one level, per (previous state, level state) pair.

    Replays the engine's schedule for the level's tasks in topological order
    starting from barrier ``base[a]``: same-device tasks serialize
    (``avail`` starts at the barrier -- cross-level availability never exceeds
    it), durations fold ``busy + (hostio + pen)`` with fan-in penalties summed
    in canonical edge order, and the returned ``(A, B)`` array is the max
    finish -- the next barrier, computed through the engine's exact float op
    sequence.  Infeasible (missing-link) combinations come out ``+inf``.
    ``tables`` are one-row (plain) tables, read at row 0.
    """
    level, states, feeds, _ = stage
    busy, hostio_time = tables.busy[0], tables.hostio_time[0]
    rows = np.arange(states.shape[0])
    avail = np.empty((base.shape[0], states.shape[0], tables.n_devices))
    avail[...] = base[:, None, None]
    barrier: np.ndarray | None = None
    for t, dst, feed in zip(level, states.T, feeds):
        pen = _fan_in(tables.penalty_time[0], tables.first_penalty_time[0], feed, dst)
        dur = busy[t, dst][None, :] + (hostio_time[t, dst][None, :] + pen)
        dur = np.where(np.isnan(dur), np.inf, dur)
        start = avail[:, rows, dst]
        finish = start + dur
        avail[:, rows, dst] = finish
        barrier = finish if barrier is None else np.maximum(barrier, finish)
    return barrier


def _level_transition(
    tables: "GridCostTables", stage: _Stage, weights: tuple[float, float, float], p_all: float
) -> np.ndarray:
    """Additive transition cost of one level, per (previous state, state) pair.

    ``node + edge + coeff * delta`` where ``delta`` is the level's barrier
    advance (the serialization with base 0) and ``coeff = tw + ew * p_all``
    folds the time-proportional part of time and idle energy (``p_all`` is
    the idle power of every platform device).  Exact in real arithmetic on
    barrier-decomposable graphs (winners are re-scored through the engine).
    ``tables`` are one-row (plain) tables, read at row 0.
    """
    tw, ew, cw = weights
    level, states, feeds, n_prev = stage
    busy = tables.busy[0]
    delta = _level_serialize(tables, stage, np.zeros(n_prev))
    total = np.zeros(delta.shape)
    for t, dst, feed in zip(level, states.T, feeds):
        if ew:
            node = (
                tables.energy_in[0, t, dst]
                + tables.energy_out[0, t, dst]
                + busy[t, dst] * (tables.power_active[0, dst] - tables.power_idle[0, dst])
            )
            edge = _fan_in(tables.penalty_energy[0], tables.first_penalty_energy[0], feed, dst)
            total = total + ew * (node[None, :] + edge)
        if cw:
            total = total + cw * ((tables.cost_per_hour[0, dst] * busy[t, dst]) / 3600.0)[None, :]
    coeff = tw + ew * p_all
    if coeff:
        total = total + coeff * delta
    # delta is +inf exactly where the combination crosses a missing link; use
    # it as the feasibility mask even when coeff == 0 (pure cost has no link
    # term of its own but the engine still rejects such placements).
    return np.where(np.isfinite(delta), np.where(np.isnan(total), np.inf, total), np.inf)


def _plan_levels(
    tables: "GridCostTables",
    levels: list[list[int]],
    weights: tuple[float, float, float],
) -> tuple[float, np.ndarray, int]:
    """Level DP over joint level assignments; returns ``(value, path, n_states)``.

    Only the stage costs are level-specific; :func:`_viterbi` solves them.
    Pure ``time`` propagates absolute barriers through the engine's max/plus
    fold (monotone in the barrier, so taking the per-state minimum barrier is
    Bellman-exact -- and the optimal value is bitwise the engine's makespan).
    Other objectives accumulate the additive level transitions.
    """
    stages: list[_Stage] = []
    prev_level, prev_states = [], np.zeros((1, 0), dtype=np.intp)
    for level in levels:
        column_of = {p: c for c, p in enumerate(prev_level)}
        feeds = [[prev_states[:, column_of[p]] for p in tables.pred_positions[t]] for t in level]
        states = placement_matrix(len(level), tables.n_devices).astype(np.intp)
        stages.append((level, states, feeds, prev_states.shape[0]))
        prev_level, prev_states = level, states
    if weights == (1.0, 0.0, 0.0):
        first = _level_serialize(tables, stages[0], np.zeros(1))
        steps = [
            lambda acc, stage=stage: _level_serialize(tables, stage, acc[0])[None]
            for stage in stages[1:]
        ]
    else:
        p_all = float(_idle_power(tables)[0])
        first, *rest = [_level_transition(tables, stage, weights, p_all) for stage in stages]
        steps = [trans[None] for trans in rest]
    values, state_paths = _viterbi(first, steps)
    path = np.empty(tables.n_tasks, dtype=np.intp)
    for (level, states, _, _), state in zip(stages, state_paths[0]):
        path[level] = states[state]
    return float(values[0]), path, sum(stage[1].shape[0] for stage in stages)


# ----------------------------------------------------------------------------
# Plan results
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanResult:
    """A provably-optimal placement for one scalar objective.

    ``value`` is the engine's exact (bitwise) objective value of the chosen
    placement -- the planner re-scores its winner through
    :func:`~repro.devices.batch.execute_placements`; ``dp_value`` is the DP
    accumulation (bitwise equal to ``value`` for pure ``time``, equal in real
    arithmetic otherwise).  ``method`` records how the optimum was obtained:
    ``"chain-dp"`` / ``"level-dp"`` (polynomial) or ``"enumeration"`` (the
    streaming fallback, with ``fallback_reason`` set).
    """

    objective: str
    placement: tuple[str, ...]
    label: str
    value: float
    dp_value: float
    method: str
    exact: bool
    fallback_reason: str | None
    n_tasks: int
    aliases: tuple[str, ...]
    #: Lattice states evaluated by the DP (or placements, for enumeration).
    n_states: int
    batch: "object"

    @property
    def space_size(self) -> int:
        """``m**k`` -- the space the DP did *not* have to enumerate."""
        return space_size(self.n_tasks, len(self.aliases))

    @property
    def placement_index(self) -> int:
        """Lexicographic index of the placement (a Python int; may exceed int64)."""
        index = 0
        alias_position = {alias: i for i, alias in enumerate(self.aliases)}
        for alias in self.placement:
            index = index * len(self.aliases) + alias_position[alias]
        return index

    def record(self):
        """The full sequential-equivalent execution record of the placement."""
        return self.batch.record(0)

    def summary(self) -> str:
        kind = "exact optimum" if self.exact else "selection"
        lines = [
            f"{kind} by {self.objective}: {self.label} ({self.value:.6g}) via "
            f"{self.method} over {self.n_states} states "
            f"(space: {len(self.aliases)}**{self.n_tasks})"
        ]
        if self.fallback_reason:
            lines.append(f"  fallback: {self.fallback_reason}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GridPlanResult:
    """A provably-optimal placement for one robust (scenario-grid) objective.

    ``value`` is the exact robust value of the placement (per-scenario engine
    values reduced by the robust objective); ``scenario_values`` the engine's
    per-scenario values; ``baselines`` the exact per-scenario optima (regret
    only).  ``n_labels`` counts the Pareto-label states the min-max DP kept
    (0 for the scalar expected-value DP).
    """

    objective: str
    base: str
    placement: tuple[str, ...]
    label: str
    value: float
    dp_value: float
    method: str
    exact: bool
    scenario_names: tuple[str, ...]
    scenario_values: np.ndarray
    baselines: np.ndarray | None
    n_tasks: int
    aliases: tuple[str, ...]
    n_labels: int

    @property
    def space_size(self) -> int:
        return space_size(self.n_tasks, len(self.aliases))

    def summary(self) -> str:
        per_scenario = ", ".join(
            f"{name}={value:.6g}" for name, value in zip(self.scenario_names, self.scenario_values)
        )
        return (
            f"exact robust optimum by {self.objective}: {self.label} "
            f"({self.value:.6g}) via {self.method}; per-scenario: {per_scenario}"
        )


# ----------------------------------------------------------------------------
# Chain / DAG planning
# ----------------------------------------------------------------------------

def _infeasible_error(tables: "GridCostTables", name: str) -> KeyError:
    return KeyError(
        f"no feasible placement under objective {name!r}: every assignment of "
        f"{tables.n_tasks} tasks over {list(tables.aliases)} crosses a missing "
        f"platform link (missing: {sorted(tables.missing_links)})"
    )


def _plannable_reason(
    tables: "GridCostTables", objective: Objective, max_level_states: int
) -> str | None:
    """Why the DP cannot plan ``objective`` over plain ``tables`` (``None`` if it can).

    Judged from the tables alone, so every caller applies one rule: linear
    tables (a chain, or a linear graph) plan like a chain, one task per level
    and no state cap; anything else needs barrier-decomposable levels within
    ``max_level_states``.
    """
    if planner_objective_weights(objective) is None:
        return (
            f"objective {objective.name!r} is not additive over the placement "
            "lattice (the planner handles 'time'/'energy'/'cost' and "
            "WeightedSumObjective)"
        )
    if tables.is_linear:
        return None
    _, why = decomposable_levels(tables.pred_positions, tables.n_devices, max_level_states)
    return None if why is None else f"graph workload is not barrier-decomposable: {why}"


def _grid_refusal(tables: "GridCostTables", robust) -> str | None:
    """Why the robust chain DP cannot plan ``robust`` over grid ``tables``."""
    from .robust import ExpectedValueObjective, RegretObjective, WorstCaseObjective

    base = as_objective(robust.base)
    if planner_objective_weights(base) is None:
        return (
            f"base objective {base.name!r} is not DP-plannable; fall back "
            "to search_grid's streaming enumeration"
        )
    if not tables.is_linear:
        return (
            "robust planning is exact for chain workloads only; fall back to "
            "search_grid for non-linear graphs"
        )
    if not isinstance(robust, (ExpectedValueObjective, RegretObjective, WorstCaseObjective)):
        return (
            f"robust objective {robust.name!r} is not DP-plannable; fall back "
            "to search_grid's streaming enumeration"
        )
    return None


def plan_workload(
    executor: "SimulatedExecutor",
    workload: "TaskChain | TaskGraph",
    objective: "str | Objective" = "time",
    *,
    devices: Sequence[str] | None = None,
    method: str = "auto",
    max_level_states: int = DEFAULT_MAX_LEVEL_STATES,
    fallback_limit: int = DEFAULT_FALLBACK_LIMIT,
) -> PlanResult:
    """Provably-optimal placement of a workload under one scalar objective.

    ``method="dp"`` demands the polynomial planner (raising with the reason
    when the workload/objective pair is outside its boundary), ``"enumerate"``
    forces the streaming sweep, and ``"auto"`` (default) plans where the DP is
    exact and falls back to enumeration otherwise -- but only up to
    ``fallback_limit`` placements; beyond that an explicit error names both
    the fallback reason and the space size, rather than silently burning
    ``m**k`` work.
    """
    if method not in ("auto", "dp", "enumerate"):
        raise ValueError(f"unknown method {method!r}; choose 'auto', 'dp' or 'enumerate'")
    tables = executor.cost_tables(workload, devices)
    obj = as_objective(objective)
    reason = _plannable_reason(tables, obj, max_level_states)
    if method == "dp" and reason is not None:
        raise ValueError(f"method='dp' cannot plan this workload: {reason}")
    if method == "enumerate":
        reason = reason or "enumeration requested"
    if reason is None:
        return _dp_plan(tables, obj, isinstance(workload, TaskGraph), max_level_states)
    # The documented fallback: a streaming top-1 sweep of the whole space.
    total = space_size(tables.n_tasks, tables.n_devices)
    if total > fallback_limit:
        raise ValueError(
            f"cannot plan this workload exactly ({reason}) and the fallback "
            f"would enumerate {total} placements (> fallback_limit="
            f"{fallback_limit}); use search_space/search_grid to stream the "
            "space explicitly, or raise fallback_limit"
        )
    from .driver import _BATCH_SIZE, SpaceSearch
    from .sweep import sweep

    # Swept on the tables fetched above: one table-cache lookup per plan.
    search = SpaceSearch((obj,), 1, frontier=None)
    selection = sweep(tables, search, _BATCH_SIZE, 0, total).result().top[obj.name]
    if not len(selection):
        raise _infeasible_error(tables, obj.name)
    path = indices_to_matrix(selection.indices, tables.n_tasks, tables.n_devices)[0]
    return _plan_result(tables, obj, path, "enumeration", float(selection.values[0]), total, reason)


def _dp_plan(
    tables: "GridCostTables", objective: Objective, graph: bool,
    max_level_states: int = DEFAULT_MAX_LEVEL_STATES,
) -> PlanResult:
    """The exact DP over plain tables the dispatch rule admitted.

    A graph workload runs the level DP (a linear one level per task), a
    chain the Viterbi lattice; the winner is re-scored through the engine.
    """
    weights = planner_objective_weights(objective)
    if graph:
        if tables.is_linear:
            levels = [[t] for t in range(tables.n_tasks)]
        else:
            levels, _ = decomposable_levels(
                tables.pred_positions, tables.n_devices, max_level_states
            )
        dp_value, path, n_states = _plan_levels(tables, levels, weights)
        method = "level-dp"
    else:
        first, trans = _lattice(tables, weights)
        values, paths = _viterbi(first, trans.swapaxes(0, 1))
        dp_value, path = float(values[0]), paths[0]
        n_states = tables.n_tasks * tables.n_devices
        method = "chain-dp"
    if not np.isfinite(dp_value):
        raise _infeasible_error(tables, objective.name)
    return _plan_result(tables, objective, path, method, dp_value, n_states)


def _plan_result(
    tables: "GridCostTables", objective: Objective, path: np.ndarray, method: str,
    dp_value: float, n_states: int, reason: str | None = None,
) -> PlanResult:
    """A plan of one device path, scored through the engine."""
    batch = execute_placements(tables, path[None, :])
    return PlanResult(
        objective=objective.name,
        placement=tuple(tables.aliases[d] for d in path),
        label=placement_labels(path[None, :], tables.aliases)[0],
        value=float(objective(batch)[0]),
        dp_value=dp_value,
        method=method,
        exact=True,
        fallback_reason=reason,
        n_tasks=tables.n_tasks,
        aliases=tables.aliases,
        n_states=n_states,
        batch=batch,
    )


#: Why a fault-aware request never reaches the planner.
_FAULT_REASON = (
    "fault-aware expected cost is outside the DP planner boundary: survival "
    "factors couple consecutive tasks outside the DP lattice"
)


def dispatch_reason(
    tables: "GridCostTables",
    objectives: Sequence[Objective],
    *,
    top_k: int,
    frontier: Sequence[Objective] | None,
    constraints: Sequence[object],
    start: int,
    stop: int,
    total: int,
    max_level_states: int = DEFAULT_MAX_LEVEL_STATES,
) -> str | None:
    """Why the exact planner cannot serve this request (``None`` if it can).

    The documented boundary: top-1 selection on the full space, no frontier,
    no constraints, and DP-plannable objectives -- additive ones over a
    decomposable workload on plain tables, and on scenario-grid tables the
    worst case, expectation or regret of an additive base over a chain.  The
    returned string names the first violated requirement.
    """
    if constraints:
        return "feasibility constraints require streaming enumeration"
    if frontier:
        return "a Pareto frontier requires streaming enumeration"
    if top_k != 1:
        return f"the planner proves only the optimum (top_k=1), not top_k={top_k}"
    if (start, stop) != (0, total):
        return "the planner optimises over the full space, not an index slice"
    for objective in objectives:
        if tables.plain:
            reason = _plannable_reason(tables, objective, max_level_states)
        else:
            reason = _grid_refusal(tables, objective)
        if reason is not None:
            return reason
    return None


def route(
    tables: "GridCostTables",
    objectives: Sequence[Objective],
    *,
    top_k: int,
    frontier: Sequence[Objective] | None,
    constraints: Sequence[object],
    span: tuple[int, int] | None,
    faults: bool,
    method: str,
    option: str = "method",
) -> tuple[str, str]:
    """The one dispatch rule of every planning entry point: ``(engine, reason)``.

    ``engine`` is ``"planner"`` (the exact DP) or ``"stream"`` (the streaming
    enumerator); ``reason`` records why.  ``span`` is the searched
    ``(start, stop)`` index range (``None`` for the full space) and
    ``faults`` whether the request ranks expected cost under faults, which
    only the enumerator evaluates.  ``method="stream"`` streams without
    consulting the rule, ``"auto"`` plans where :func:`dispatch_reason`
    admits the request and streams otherwise, and ``"planner"`` raises the
    violated requirement, naming the caller's ``option``.
    """
    if method == "stream":
        return "stream", "stream requested"
    if faults:
        reason = _FAULT_REASON
    else:
        total = space_size(tables.n_tasks, tables.n_devices)
        start, stop = span or (0, total)
        reason = dispatch_reason(
            tables, objectives, top_k=top_k, frontier=frontier,
            constraints=constraints, start=start, stop=stop, total=total,
        )
    if reason is None:
        if method == "planner":
            return "planner", "planner requested"
        return "planner", f"exact {'' if tables.plain else 'robust '}DP serves this top-1 request"
    if method == "planner":
        raise _refusal(reason, option)
    return "stream", reason


def _refusal(reason: str, option: str = "method") -> ValueError:
    """The error of a request forced onto the planner outside its boundary."""
    return ValueError(
        f"{option}='planner' cannot serve this request: {reason}; "
        f"use {option}='stream' (or 'auto') to enumerate"
    )


# ----------------------------------------------------------------------------
# Scenario-grid (robust) planning
# ----------------------------------------------------------------------------

def grid_baselines(tables: "GridCostTables", base: "str | Objective") -> np.ndarray:
    """Exact per-scenario optima of a plannable base objective over chain tables.

    Replaces :func:`~repro.search.robust.search_grid`'s first streaming pass
    for regret objectives: each scenario's minimum comes from the chain DP
    over that scenario's lattice, re-scored through the engine so the
    returned value is bitwise the minimum the streaming sweep would have
    found.  Non-plannable bases and non-linear graph tables raise
    :func:`plan_grid`'s refusal, which points to ``search_grid``.
    """
    from .robust import RegretObjective

    obj = as_objective(base)
    reason = _grid_refusal(tables, RegretObjective(base=obj))
    if reason is not None:
        raise ValueError(reason)
    return _scenario_optima(tables, obj, *_lattice(tables, planner_objective_weights(obj)))


def _scenario_optima(
    tables: "GridCostTables", objective: Objective, firsts: np.ndarray, transes: np.ndarray
) -> np.ndarray:
    """Every row's optimum: one Viterbi over all rows, then one engine run of
    the ``s`` winners, whose diagonal (winner ``i`` in scenario ``i``) holds
    the values."""
    values, paths = _viterbi(firsts, transes.swapaxes(0, 1))
    if not np.isfinite(values).all():
        raise _infeasible_error(tables, objective.name)
    return np.diagonal(objective(execute_placements_grid(tables, paths))).copy()


def _label_dp(
    firsts: np.ndarray,
    transes: np.ndarray,
    baselines: np.ndarray | None,
    max_labels: int,
) -> tuple[float, np.ndarray, int]:
    """Exact min-max DP: per (stage, device), the Pareto front of per-scenario
    prefix-cost vectors.

    The final score is the max over scenario components (worst case), less
    the per-scenario ``baselines`` first when given (regret).  Dominance
    pruning is sound because that score is monotone non-decreasing in
    every component: a dominated prefix can never finish strictly better.
    Returns ``(value, device path, peak label count)``; raises when the label
    frontier exceeds ``max_labels`` (the caller falls back to streaming).
    """
    m = firsts.shape[1]
    labels = firsts.T.copy()  # (N, s): one label per start device
    device_of = np.arange(m, dtype=np.intp)
    feasible = np.isfinite(labels).all(axis=1)
    labels, device_of = labels[feasible], device_of[feasible]
    parents: list[np.ndarray] = []
    devices_by_stage: list[np.ndarray] = [device_of]
    peak = labels.shape[0]
    n_stages = transes.shape[1]
    for t in range(n_stages):
        # Empty leaders keep the concatenations defined once no label
        # survives; the one infeasibility check follows the last stage.
        new_labels = [labels[:0]]
        new_parent = [device_of[:0]]
        new_device = [device_of[:0]]
        for d2 in range(m):
            step = transes[:, t, device_of, d2].T  # (N, s)
            cand = labels + step
            finite = np.isfinite(cand).all(axis=1)
            if not finite.any():
                continue
            candidates = np.flatnonzero(finite)
            keep = candidates[pareto_mask(cand[candidates])]
            new_labels.append(cand[keep])
            new_parent.append(keep)
            new_device.append(np.full(keep.size, d2, dtype=np.intp))
        labels = np.concatenate(new_labels)
        parent = np.concatenate(new_parent)
        device_of = np.concatenate(new_device)
        peak = max(peak, labels.shape[0])
        if labels.shape[0] > max_labels:
            raise ValueError(
                f"the Pareto-label frontier grew to {labels.shape[0]} states "
                f"(> max_labels={max_labels}); fall back to search_grid's "
                "streaming enumeration for this grid"
            )
        parents.append(parent)
        devices_by_stage.append(device_of)
    if not labels.size:
        raise KeyError(
            "no feasible placement: every path through the scenario lattice "
            "crosses a missing link"
        )
    scores = (labels if baselines is None else labels - baselines[None, :]).max(axis=1)
    best = int(scores.argmin())
    value = float(scores[best])
    path = np.empty(n_stages + 1, dtype=np.intp)
    cursor = best
    for t in range(n_stages, 0, -1):
        path[t] = devices_by_stage[t][cursor]
        cursor = int(parents[t - 1][cursor])
    path[0] = devices_by_stage[0][cursor]
    return value, path, peak


def plan_grid(
    executor: "SimulatedExecutor",
    workload: "TaskChain | TaskGraph",
    scenarios,
    objective="time",
    *,
    devices: Sequence[str] | None = None,
    max_labels: int = DEFAULT_MAX_LABELS,
) -> GridPlanResult:
    """Provably-optimal robust placement of a chain over a scenario grid.

    ``objective`` is a metric name (planned by worst case, matching
    :func:`~repro.search.robust.search_grid`) or a
    :class:`~repro.search.robust.RobustObjective` whose base is DP-plannable.
    Expected value reduces to one scalar DP over the weight-averaged lattice;
    worst case and regret run the exact Pareto-label DP (regret's baselines
    are each scenario's own DP optimum).  The winner is re-scored through
    :func:`~repro.devices.grid.execute_placements_grid`, so ``value`` and
    ``scenario_values`` are bitwise the enumerator's values for that
    placement.  Non-linear graphs and non-plannable bases raise with a
    pointer to ``search_grid``.
    """
    from .robust import _scenario_entries, as_robust_objectives

    (robust,) = as_robust_objectives((objective,))
    grid, scenario_names, grid_weights = _scenario_entries(scenarios)
    # Served from the executor's content-addressed table cache: keyed by the
    # (base platform, scenario grid) fingerprints, so a sweep re-planning the
    # same configuration skips the rebuild (grids build in array space).
    tables = executor.grid_cost_tables(workload, grid, devices)
    reason = _grid_refusal(tables, robust)
    if reason is not None:
        raise ValueError(reason)
    return _plan_grid_tables(tables, robust, scenario_names, grid_weights, max_labels)


def _plan_grid_tables(
    tables: "GridCostTables", robust, scenario_names: tuple[str, ...],
    grid_weights: np.ndarray, max_labels: int = DEFAULT_MAX_LABELS,
) -> GridPlanResult:
    """The robust chain DP over grid tables the dispatch rule admitted; raises
    ``ValueError`` for what shows only as it runs (the label budget, or
    expectation weights that miss the scenario count)."""
    from .robust import ExpectedValueObjective, RegretObjective

    base_obj = as_objective(robust.base)
    firsts, transes = _lattice(tables, planner_objective_weights(base_obj))
    baselines: np.ndarray | None = None
    n_labels = 0
    if isinstance(robust, ExpectedValueObjective):
        scenario_weights = (
            np.array(robust.weights, dtype=float) if robust.weights is not None else grid_weights
        )
        if scenario_weights.shape[0] != tables.n_scenarios:
            raise ValueError(
                f"expected {tables.n_scenarios} scenario weights, got {scenario_weights.shape[0]}"
            )
        share = scenario_weights / scenario_weights.sum()
        first = np.einsum("s,sm->m", share, firsts)
        trans = np.einsum("s,skab->kab", share, transes)
        # A zero-weight scenario times an infeasible (+inf) lattice entry is
        # NaN; the entry is infeasible for every scenario alike, so pin +inf.
        first = np.where(np.isnan(first), np.inf, first)
        trans = np.where(np.isnan(trans), np.inf, trans)
        values, paths = _viterbi(first[None], trans[:, None])
        dp_value, path = float(values[0]), paths[0]
        if not np.isfinite(dp_value):
            raise _infeasible_error(tables, robust.name)
        method = "chain-dp"
        robust = robust if robust.weights is not None else robust.with_weights(grid_weights)
    else:
        if isinstance(robust, RegretObjective):
            baselines = _scenario_optima(tables, base_obj, firsts, transes)
        dp_value, path, n_labels = _label_dp(firsts, transes, baselines, max_labels)
        method = "label-dp"

    grid = execute_placements_grid(tables, path[None, :])
    values = robust.values(grid)  # (s, 1)
    reduced = robust.reduce(values, baselines) if robust.requires_baseline else robust.reduce(values)
    return GridPlanResult(
        objective=robust.name,
        base=base_obj.name,
        placement=tuple(tables.aliases[d] for d in path),
        label=placement_labels(path[None, :].astype(np.intp), tables.aliases)[0],
        value=float(reduced[0]),
        dp_value=dp_value,
        method=method,
        exact=True,
        scenario_names=scenario_names,
        scenario_values=values[:, 0].copy(),
        baselines=None if baselines is None else baselines.copy(),
        n_tasks=tables.n_tasks,
        aliases=tables.aliases,
        n_labels=n_labels,
    )
