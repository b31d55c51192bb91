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
sound because ``max`` is monotone in every component).  Regret baselines are
one scalar DP per scenario -- each scenario's true optimum, replacing
:func:`search_grid`'s first streaming pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..devices.batch import (
    execute_placements,
    placement_labels,
)
from ..offload.space import indices_to_matrix, placement_matrix, space_size
from ..tasks.graph import TaskGraph
from .objectives import MetricObjective, Objective, WeightedSumObjective, as_objective
from .pareto import pareto_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..devices.grid import GridCostTables, GridExecutionResult
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


def _device_arrays(tables: "GridCostTables") -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """``(P_idle_total, power_active, power_idle, cost_per_hour)`` over the candidates.

    ``P_idle_total`` sums the idle power of **all** platform devices --
    non-candidate devices never run a task, but they idle for the whole
    execution and their energy enters the engine's total.  ``tables`` are
    one-row (plain) tables; the vectors are their row 0.
    """
    platform = tables.platform
    p_all = float(sum(platform.device(alias).power_idle_w for alias in platform.devices))
    return p_all, tables.power_active[0], tables.power_idle[0], tables.cost_per_hour[0]


def _chain_lattice(
    tables: "GridCostTables", weights: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Compile one additive objective into lattice costs ``(first, trans)``.

    ``first[d]`` is the cost of placing task 0 on device ``d``;
    ``trans[t-1, d, d']`` the cost of placing task ``t`` on ``d'`` after task
    ``t-1`` ran on ``d``.  The path sum over these arrays equals the objective
    of the placement -- for pure ``time`` with the *identical* float fold as
    the engine (``busy + (hostio + pen)`` per stage), for energy/cost in real
    arithmetic.  Transitions crossing a missing platform link are ``+inf``.
    ``tables`` are one-row (plain) tables, compiled from their row 0.
    """
    tw, ew, cw = weights
    busy, hostio_time = tables.busy[0], tables.hostio_time[0]
    penalty_time, first_penalty_time = tables.penalty_time[0], tables.first_penalty_time[0]
    # Time parts double as the missing-link carrier: hostio is NaN for a
    # missing host link, pen for a missing device pair.
    first_time = busy[0] + (hostio_time[0] + first_penalty_time)
    trans_time = busy[1:, None, :] + (hostio_time[1:, None, :] + penalty_time[None, :, :])

    first_parts: list[np.ndarray] = []
    trans_parts: list[np.ndarray] = []
    if tw:
        first_parts.append(first_time if tw == 1.0 else tw * first_time)
        trans_parts.append(trans_time if tw == 1.0 else tw * trans_time)
    if ew:
        p_all, power_active, power_idle, _ = _device_arrays(tables)
        node = (
            tables.energy_in[0]
            + tables.energy_out[0]
            + busy * (power_active - power_idle + p_all)
            + hostio_time * p_all
        )
        edge = tables.penalty_energy[0] + penalty_time * p_all
        first_parts.append(
            ew * (node[0] + (tables.first_penalty_energy[0] + first_penalty_time * p_all))
        )
        trans_parts.append(ew * (node[1:, None, :] + edge[None, :, :]))
    if cw:
        _, _, _, cost_per_hour = _device_arrays(tables)
        node = (cost_per_hour[None, :] * busy) / 3600.0
        first_parts.append(cw * node[0])
        trans_parts.append(cw * node[1:, None, :])

    first = sum(first_parts) if first_parts else np.zeros_like(first_time)
    trans = sum(trans_parts) if trans_parts else 0.0
    # Infeasible transitions (missing links) become +inf so the DP routes
    # around them; a cost-only compile has no NaN of its own, hence the mask
    # from the time parts.
    first = np.where(np.isnan(first_time), np.inf, first)
    first = np.where(np.isnan(first), np.inf, first)
    trans = np.where(np.isnan(trans_time), np.inf, trans)
    trans = np.where(np.isnan(trans), np.inf, trans)
    return first, trans


def _viterbi(first: np.ndarray, trans: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimise an additive lattice cost; returns ``(value, device path)``.

    One ``m x m`` broadcast per stage: ``cand[d, d'] = acc[d] + trans[t, d, d']``,
    minimised over ``d`` with backpointers.  Because float addition is
    performed in exactly the path order, each state's accumulated value is
    bitwise the fold the engine would compute for the best prefix reaching it.
    """
    m = first.shape[0]
    acc = first
    n_stages = trans.shape[0]
    backs = np.empty((n_stages, m), dtype=np.intp)
    cols = np.arange(m)
    for t in range(n_stages):
        cand = acc[:, None] + trans[t]
        arg = cand.argmin(axis=0)
        backs[t] = arg
        acc = cand[arg, cols]
    end = int(acc.argmin())
    value = float(acc[end])
    path = np.empty(n_stages + 1, dtype=np.intp)
    path[-1] = end
    for t in range(n_stages - 1, -1, -1):
        path[t] = backs[t, path[t + 1]]
    return value, path


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


def _level_serialize(
    tables: "GridCostTables",
    level: Sequence[int],
    prev_level: Sequence[int] | None,
    states_prev: np.ndarray | None,
    states: np.ndarray,
    base: np.ndarray,
) -> np.ndarray:
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
    busy, hostio_time = tables.busy[0], tables.hostio_time[0]
    penalty_time, first_penalty_time = tables.penalty_time[0], tables.first_penalty_time[0]
    A = 1 if states_prev is None else states_prev.shape[0]
    B = states.shape[0]
    m = tables.n_devices
    rows = np.arange(B)
    avail = np.empty((A, B, m))
    avail[...] = base[:, None, None]
    column_of = {p: c for c, p in enumerate(prev_level)} if prev_level else {}
    barrier: np.ndarray | None = None
    for j, t in enumerate(level):
        dst = states[:, j]
        preds = tables.pred_positions[t]
        if preds:
            pen = np.zeros((A, B))
            for p in preds:
                pen += penalty_time[states_prev[:, column_of[p]][:, None], dst[None, :]]
        else:
            pen = first_penalty_time[dst][None, :]
        dur = busy[t, dst][None, :] + (hostio_time[t, dst][None, :] + pen)
        dur = np.where(np.isnan(dur), np.inf, dur)
        start = avail[:, rows, dst]
        finish = start + dur
        avail[:, rows, dst] = finish
        barrier = finish if barrier is None else np.maximum(barrier, finish)
    return barrier


def _level_transition(
    tables: "GridCostTables",
    level: Sequence[int],
    prev_level: Sequence[int] | None,
    states_prev: np.ndarray | None,
    states: np.ndarray,
    weights: tuple[float, float, float],
    consts: tuple[float, np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Additive transition cost of one level, per (previous state, state) pair.

    ``node + edge + coeff * delta`` where ``delta`` is the level's barrier
    advance (the serialization with base 0) and ``coeff = tw + ew * P_idle_total``
    folds the time-proportional part of time and idle energy.  Exact in real
    arithmetic on barrier-decomposable graphs (winners are re-scored through
    the engine).  ``tables`` are one-row (plain) tables, read at row 0.
    """
    tw, ew, cw = weights
    p_all, power_active, power_idle, cost_per_hour = consts
    busy = tables.busy[0]
    A = 1 if states_prev is None else states_prev.shape[0]
    B = states.shape[0]
    column_of = {p: c for c, p in enumerate(prev_level)} if prev_level else {}
    delta = _level_serialize(tables, level, prev_level, states_prev, states, np.zeros(A))
    total = np.zeros((A, B))
    for j, t in enumerate(level):
        dst = states[:, j]
        if ew:
            node = (
                tables.energy_in[0, t, dst]
                + tables.energy_out[0, t, dst]
                + busy[t, dst] * (power_active[dst] - power_idle[dst])
            )
            preds = tables.pred_positions[t]
            if preds:
                edge = np.zeros((A, B))
                for p in preds:
                    edge += tables.penalty_energy[
                        0, states_prev[:, column_of[p]][:, None], dst[None, :]
                    ]
            else:
                edge = tables.first_penalty_energy[0, dst][None, :]
            total = total + ew * (node[None, :] + edge)
        if cw:
            total = total + cw * ((cost_per_hour[dst] * busy[t, dst]) / 3600.0)[None, :]
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

    Pure ``time`` propagates absolute barriers through the engine's max/plus
    fold (monotone in the barrier, so taking the per-state minimum barrier is
    Bellman-exact -- and the optimal value is bitwise the engine's makespan).
    Other objectives accumulate the additive level transitions.
    """
    m = tables.n_devices
    maxplus = weights == (1.0, 0.0, 0.0)
    consts = _device_arrays(tables)
    states = [placement_matrix(len(level), m).astype(np.intp) for level in levels]
    n_states = sum(s.shape[0] for s in states)

    if maxplus:
        acc = _level_serialize(tables, levels[0], None, None, states[0], np.zeros(1))[0]
    else:
        acc = _level_transition(tables, levels[0], None, None, states[0], weights, consts)[0]
    backs: list[np.ndarray] = []
    for index in range(1, len(levels)):
        prev_states, next_states = states[index - 1], states[index]
        if maxplus:
            cand = _level_serialize(
                tables, levels[index], levels[index - 1], prev_states, next_states, acc
            )
        else:
            trans = _level_transition(
                tables, levels[index], levels[index - 1], prev_states, next_states, weights, consts
            )
            cand = acc[:, None] + trans
        arg = cand.argmin(axis=0)
        backs.append(arg)
        acc = cand[arg, np.arange(next_states.shape[0])]
    end = int(acc.argmin())
    value = float(acc[end])

    state_path = [0] * len(levels)
    state_path[-1] = end
    for index in range(len(levels) - 2, -1, -1):
        state_path[index] = int(backs[index][state_path[index + 1]])
    path = np.empty(tables.n_tasks, dtype=np.intp)
    for index, level in enumerate(levels):
        assignment = states[index][state_path[index]]
        for j, t in enumerate(level):
            path[t] = assignment[j]
    return value, path, n_states


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
        first, trans = _chain_lattice(tables, weights)
        dp_value, path = _viterbi(first, trans)
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

def _grid_lattices(
    tables: "GridCostTables", weights: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario compiled lattices, stacked ``(s, m)`` / ``(s, k-1, m, m)``."""
    firsts = []
    transes = []
    for index in range(tables.n_scenarios):
        first, trans = _chain_lattice(tables.table(index), weights)
        firsts.append(first)
        transes.append(trans)
    return np.stack(firsts), np.stack(transes)


def grid_baselines(tables: "GridCostTables", base: "str | Objective") -> np.ndarray:
    """Exact per-scenario optima of a plannable base objective (one DP each).

    Replaces :func:`~repro.search.robust.search_grid`'s first streaming pass
    for regret objectives: each scenario's minimum comes from a chain DP over
    that scenario's lattice, re-scored through the engine so the returned
    value is bitwise the minimum the streaming sweep would have found.
    """
    obj = as_objective(base)
    weights = planner_objective_weights(obj)
    if weights is None:
        raise ValueError(
            f"base objective {obj.name!r} is not DP-plannable; stream the "
            "baseline pass instead"
        )
    out = np.empty(tables.n_scenarios)
    for index in range(tables.n_scenarios):
        scenario_tables = tables.table(index)
        first, trans = _chain_lattice(scenario_tables, weights)
        dp_value, path = _viterbi(first, trans)
        if not np.isfinite(dp_value):
            raise _infeasible_error(scenario_tables, obj.name)
        batch = execute_placements(scenario_tables, path[None, :])
        out[index] = float(obj(batch)[0])
    return out


def _label_dp(
    firsts: np.ndarray,
    transes: np.ndarray,
    score: Callable[[np.ndarray], np.ndarray],
    max_labels: int,
) -> tuple[float, np.ndarray, int]:
    """Exact min-max DP: per (stage, device), the Pareto front of per-scenario
    prefix-cost vectors.

    Dominance pruning is sound because the final score (a max over scenario
    components, possibly shifted by baselines) is monotone non-decreasing in
    every component: a dominated prefix can never finish strictly better.
    Returns ``(value, device path, peak label count)``; raises when the label
    frontier exceeds ``max_labels`` (the caller falls back to streaming).
    """
    s, m = firsts.shape[0], firsts.shape[1]
    labels = firsts.T.copy()  # (N, s): one label per start device
    device_of = np.arange(m, dtype=np.intp)
    feasible = np.isfinite(labels).all(axis=1)
    labels, device_of = labels[feasible], device_of[feasible]
    parents: list[np.ndarray] = []
    devices_by_stage: list[np.ndarray] = [device_of]
    peak = labels.shape[0]
    n_stages = transes.shape[1]
    for t in range(n_stages):
        new_labels: list[np.ndarray] = []
        new_parent: list[np.ndarray] = []
        new_device: list[np.ndarray] = []
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
        if not new_labels:
            raise KeyError(
                "no feasible placement: every path through the scenario lattice "
                "crosses a missing link"
            )
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
    scores = score(labels)
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
    from ..devices.grid import execute_placements_grid
    from .robust import ExpectedValueObjective, RegretObjective

    base_obj = as_objective(robust.base)
    weights = planner_objective_weights(base_obj)
    firsts, transes = _grid_lattices(tables, weights)
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
        dp_value, path = _viterbi(first, trans)
        if not np.isfinite(dp_value):
            raise _infeasible_error(tables.table(0), robust.name)
        method = "chain-dp"
        robust = robust if robust.weights is not None else robust.with_weights(grid_weights)
    elif isinstance(robust, RegretObjective):
        baselines = grid_baselines(tables, robust.base)
        fixed = baselines

        def regret_score(labels: np.ndarray) -> np.ndarray:
            return (labels - fixed[None, :]).max(axis=1)

        dp_value, path, n_labels = _label_dp(firsts, transes, regret_score, max_labels)
        method = "label-dp"
    else:

        def worst_score(labels: np.ndarray) -> np.ndarray:
            return labels.max(axis=1)

        dp_value, path, n_labels = _label_dp(firsts, transes, worst_score, max_labels)
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
