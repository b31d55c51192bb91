"""Streaming search-and-selection over arbitrarily large placement spaces.

:class:`SpaceSearch` is the one selection accumulator of the search layer.
It folds executed chunks as ``(chunk_start, n, feasible_mask, {base name:
(s, n) values})``, where a plain batch is the one-row (``s = 1``) case of a
scenario-grid chunk, and keeps, in memory bounded by ``O(top_k + frontier +
s)``:

* top-K selections per objective -- a plain objective ranks its one row, a
  robust objective (:mod:`repro.search.robust`) reduces the scenario axis;
* an optional incremental Pareto frontier over one-row criteria;
* the evaluated and feasible counters;
* for robust objectives, each scenario's winner per base objective (a
  strictly smaller value wins, an equal value keeps the smaller placement
  index),

without ever materialising per-placement profile objects.  Feasibility is
robust: a placement must satisfy every constraint in every scenario.
Accumulators merge associatively, so any chunking or shard-merge tree
yields the identical result.  :func:`search_space` drives it over the sweep
core (:mod:`repro.search.sweep`), optionally sharding the placement-index
range across worker processes; :func:`~repro.search.robust.search_grid`
drives the same accumulator over scenario grids, for its selection pass and
its streamed regret-baseline pass alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..offload.space import MAX_ENUMERABLE_INDEX, indices_to_matrix, space_size
from ..tasks.graph import TaskGraph
from .constraints import Constraint, feasible_mask
from .frontier import StreamingFrontier
from .objectives import Objective, as_objectives
from .sweep import ShardPool, check_n_workers, shard_ranges, sweep
from .topk import StreamingTopK, _read_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..devices.simulator import SimulatedExecutor
    from ..tasks.chain import TaskChain

__all__ = [
    "SpaceSearch",
    "SearchResult",
    "TopSelection",
    "FrontierSelection",
    "ScenarioBest",
    "search_space",
]

#: Default criteria of the streaming frontier -- the three axes of Section IV.
DEFAULT_FRONTIER = ("time", "energy", "cost")

#: Placements per streamed chunk of a plain sweep.
_BATCH_SIZE = 65536


@dataclass(frozen=True)
class TopSelection:
    """Top-K winners under one scalar objective, best first."""

    objective: str
    indices: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return self.indices.size

    @property
    def best(self) -> str:
        if not len(self):
            raise ValueError(f"no feasible placement under objective {self.objective!r}")
        return self.labels[0]


@dataclass(frozen=True)
class FrontierSelection:
    """The non-dominated placements over the frontier criteria, by index order."""

    criteria: tuple[str, ...]
    indices: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return self.indices.size

    def as_dict(self) -> dict[str, dict[str, float]]:
        """``label -> {criterion: value}``, the shape ``pareto_front`` returns."""
        return {
            label: {name: float(value) for name, value in zip(self.criteria, row)}
            for label, row in zip(self.labels, self.values)
        }


@dataclass(frozen=True)
class ScenarioBest:
    """Each scenario's individual best feasible placement under one base objective."""

    objective: str
    scenario_names: tuple[str, ...]
    indices: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.scenario_names)

    def drift(self) -> dict[str, str]:
        """``scenario -> winning label``, the condition-drift view."""
        return dict(zip(self.scenario_names, self.labels))


class _RankedResult:
    """What :class:`SearchResult` and
    :class:`~repro.search.robust.GridSearchResult` share: top-K selections
    over one placement space, frozen into read-only mappings."""

    def __post_init__(self) -> None:
        # Read-only snapshot: a frozen result must not be corruptible through
        # a mutable attribute (same contract as Decision.objectives).
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Mapping):
                object.__setattr__(self, field.name, MappingProxyType(dict(value)))

    def __reduce__(self):
        # MappingProxyType cannot be pickled; rebuild through __init__.
        values = (getattr(self, field.name) for field in fields(self))
        return (
            self.__class__,
            tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values),
        )

    @property
    def space_size(self) -> int:
        return space_size(self.n_tasks, len(self.aliases))

    def best(self, objective: str | None = None) -> str:
        """Label of the top-1 placement under one objective (the only one if unambiguous)."""
        if objective is None:
            if len(self.top) != 1:
                raise ValueError(
                    f"result ranks {sorted(self.top)} -- name the objective explicitly"
                )
            objective = next(iter(self.top))
        return self.top[objective].best

    def _top_lines(self) -> list[str]:
        lines = []
        for name, selection in self.top.items():
            if len(selection):
                lines.append(
                    f"  top-{len(selection)} by {name}: best {selection.labels[0]} "
                    f"({selection.values[0]:.6g})"
                )
            else:
                lines.append(f"  top-K by {name}: no feasible placement")
        return lines


@dataclass(frozen=True)
class SearchResult(_RankedResult):
    """Outcome of one (possibly sharded) streaming sweep."""

    n_tasks: int
    aliases: tuple[str, ...]
    n_evaluated: int
    n_feasible: int
    top: Mapping[str, TopSelection]
    frontier: FrontierSelection | None

    def summary(self) -> str:
        lines = [
            f"searched {self.n_evaluated} of {self.space_size} placements "
            f"({self.n_feasible} feasible) over {len(self.aliases)} devices x "
            f"{self.n_tasks} tasks",
            *self._top_lines(),
        ]
        if self.frontier is not None:
            lines.append(
                f"  Pareto frontier over {'/'.join(self.frontier.criteria)}: "
                f"{len(self.frontier)} placements"
            )
        return "\n".join(lines)


def _constraints_compatible(
    a: Sequence[Constraint], b: Sequence[Constraint]
) -> bool:
    """True when two constraint tuples describe the same filtering.

    Dataclass constraints compare by value (surviving the pickle round-trip
    shard accumulators go through); custom Constraint objects without value
    equality fall back to a type check, since ``!=`` would compare identities
    and spuriously reject every cross-process merge.
    """
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if type(x) is not type(y):
            return False
        if type(x).__eq__ is not object.__eq__ and x != y:
            return False
    return True


def _base_name(base: "str | Objective") -> str:
    return base if isinstance(base, str) else base.name


def _base_values(base: "str | Objective", result) -> np.ndarray:
    """``(s, n)`` values of one base objective on an executed chunk.

    Metric names read the result's columns directly; general objectives are
    evaluated on each scenario's batch view and stacked.  A plain batch (run
    on ``plain`` one-row tables) is the one-row case.
    """
    plain = result.tables.plain
    if isinstance(base, str):
        values = result.metric_values(base)
    elif plain:
        values = base(result)
    else:
        return np.stack([base(batch) for batch in result.batches()], axis=0)
    return values[None, :] if plain else values


def _evaluate_chunk(
    bases: Mapping[str, "str | Objective"], constraints: Sequence[Constraint], result
) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """``(feasible_mask, base_values)`` of one executed chunk.

    A placement is feasible only if it satisfies the constraints in every
    scenario.  ``base_values`` maps base names to their raw ``(s, n)`` value
    matrices -- **unmasked**, so the chunks of a scenario-sharded sweep can be
    concatenated along the scenario axis before the merged mask is applied
    (reductions like the weighted expectation are chunk-width dependent in
    floating point, so every path must reduce the exact same matrix).  It is
    ``None`` when no placement of the chunk is feasible.
    """
    mask = np.ones(len(result), dtype=bool)
    if constraints:
        for batch in (result,) if result.tables.plain else result.batches():
            mask &= feasible_mask(batch, constraints)
    if not mask.any():
        return mask, None
    return mask, {name: _base_values(base, result) for name, base in bases.items()}


def _placement_range(tables, start: int, stop: int | None) -> int:
    """The stop of a validated, non-empty placement-index range."""
    total = space_size(tables.n_tasks, tables.n_devices)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"invalid slice [{start}, {stop}) of a space of {total} placements")
    if start == stop:
        raise ValueError("cannot search an empty placement range")
    return stop


class SpaceSearch:
    """The mergeable selection accumulator over executed chunks.

    ``objectives`` mixes plain objectives (metric names or
    :class:`~repro.search.objectives.Objective` instances), which rank the
    one row of a plain chunk, and
    :class:`~repro.search.robust.RobustObjective` instances, which reduce a
    chunk's scenario axis (``requires_baseline`` ones read
    :attr:`baselines`) and have each scenario's winner tracked per base.

    Feed executed chunks with :meth:`update`, or evaluated ones with
    :meth:`fold`; combine independently filled accumulators (e.g. per-shard)
    with :meth:`merge`; extract the final selections with :meth:`result` and
    :meth:`scenario_best`.  The outcome is a pure function of the multiset of
    placements fed, so any chunking or shard-merge tree yields the identical
    result.
    """

    def __init__(
        self,
        objectives: Sequence[str | Objective] = ("time",),
        top_k: int = 10,
        frontier: Sequence[str | Objective] | None = DEFAULT_FRONTIER,
        constraints: Sequence[Constraint] = (),
    ):
        from .robust import RobustObjective

        self._objectives = as_objectives(objectives)
        self.top_k = _read_count(top_k, "top_k")
        self._criteria = as_objectives(frontier) if frontier is not None else ()
        self._constraints = tuple(constraints)
        #: The base objectives evaluated once per chunk, by name.
        self.bases: dict[str, "str | Objective"] = {}
        #: ``(name, base name, robust objective or None)`` per ranked objective.
        self._ranked = []
        for objective in self._objectives:
            robust = objective if isinstance(objective, RobustObjective) else None
            base = objective if robust is None else robust.base
            self._add_base(base)
            self._ranked.append((objective.name, _base_name(base), robust))
        for criterion in self._criteria:
            self._add_base(criterion)
        #: Robust objectives' bases, whose per-scenario winners are tracked.
        self._winner_names = tuple(
            dict.fromkeys(base for _, base, robust in self._ranked if robust is not None)
        )
        if not self.top_k and not self._criteria and not self._winner_names:
            raise ValueError("nothing to select: top_k is 0 and the frontier is disabled")
        #: Plain objectives and frontier criteria read one-row chunks only.
        self._one_row = bool(self._criteria) or any(r is None for _, _, r in self._ranked)
        #: Per-scenario minima of the base objectives, read by objectives
        #: that ``require_baseline`` (regret); set before the sweep.
        self.baselines: Mapping[str, np.ndarray] = {}
        self._top = (
            {objective.name: StreamingTopK(self.top_k) for objective in self._objectives}
            if self.top_k
            else {}
        )
        self._frontier = StreamingFrontier(len(self._criteria)) if self._criteria else None
        #: Per tracked base, each scenario's winning placement index and value
        #: (set by the first feasible chunk).
        self.winner_indices: dict[str, np.ndarray] = {}
        self.winner_values: dict[str, np.ndarray] = {}
        self.n_evaluated = 0
        self.n_feasible = 0
        self._cursor = 0
        self._n_tasks: int | None = None
        self._aliases: tuple[str, ...] | None = None

    def _add_base(self, base: "str | Objective") -> None:
        # Chunk values are computed once per base *name*, so two different
        # bases sharing a name would silently rank one by the other's values.
        name = _base_name(base)
        if name in self.bases and self.bases[name] != base:
            raise ValueError(
                f"objectives disagree on the base objective named {name!r}: "
                f"{self.bases[name]!r} vs {base!r}"
            )
        self.bases.setdefault(name, base)

    # ------------------------------------------------------------------
    def _bind_space(self, n_tasks: int, aliases: tuple[str, ...]) -> None:
        if self._n_tasks is None:
            self._n_tasks = n_tasks
            self._aliases = aliases
        elif (self._n_tasks, self._aliases) != (n_tasks, aliases):
            raise ValueError(
                f"chunk belongs to a {len(aliases)}-device x {n_tasks}-task space, "
                f"but this search accumulated a {len(self._aliases)}-device x "
                f"{self._n_tasks}-task one"
            )

    @property
    def evaluate(self):
        """Picklable ``result -> (feasible_mask, base_values)`` of this search."""
        return partial(_evaluate_chunk, self.bases, self._constraints)

    def update(self, result, start_index: int | None = None) -> None:
        """Evaluate one executed chunk (a plain batch or a grid result) and fold it.

        ``start_index`` is the global placement index of the chunk's first row
        (its offset in the lexicographic enumeration).  When omitted, chunks
        are assumed to arrive contiguously from index 0 -- the
        ``iter_execute_batches`` streaming pattern.
        """
        self._bind_space(result.tables.n_tasks, result.aliases)
        n = len(result)
        start = self._cursor if start_index is None else int(start_index)
        self._cursor = start + n
        self.fold(start, n, *_evaluate_chunk(self.bases, self._constraints, result))

    def fold(
        self,
        chunk_start: int,
        n: int,
        mask: np.ndarray,
        values: Mapping[str, np.ndarray] | None,
    ) -> None:
        """Fold one evaluated chunk: its feasibility mask and unmasked ``(s, n)``
        base values (``None`` when nothing is feasible)."""
        self.n_evaluated += n
        n_feasible = int(np.count_nonzero(mask))
        self.n_feasible += n_feasible
        if not n_feasible:
            return
        indices = np.arange(n, dtype=np.int64)[mask] + np.int64(chunk_start)
        # Always the masked copy: BLAS reductions (the weighted expectation)
        # round by memory layout, so every path reduces the same contiguous rows.
        values = {name: block[:, mask] for name, block in values.items()}
        if self._one_row and next(iter(values.values())).shape[0] != 1:
            raise ValueError(
                "plain objectives and frontier criteria rank one-row chunks; "
                "wrap them in a RobustObjective to search a scenario grid"
            )
        for name, base, robust in self._ranked if self._top else ():
            block = values[base]
            if robust is None:
                reduced = block[0]
            elif robust.requires_baseline:
                reduced = robust.reduce(block, self.baselines.get(base))
            else:
                reduced = robust.reduce(block)
            self._top[name].update(reduced, indices)
        if self._frontier is not None:
            columns = np.stack([values[c.name][0] for c in self._criteria], axis=1)
            self._frontier.update(columns, indices)
        for name in self._winner_names:
            block = values[name]
            arg = block.argmin(axis=1)
            self._merge_winners(name, indices[arg], block[np.arange(block.shape[0]), arg])

    def _merge_winners(self, name: str, indices: np.ndarray, values: np.ndarray) -> None:
        """Merge per-scenario candidates into the winners of base ``name``: a
        strictly smaller value wins, an equal value keeps the smaller index."""
        if name not in self.winner_values:
            self.winner_indices[name] = indices.copy()
            self.winner_values[name] = values.copy()
            return
        current_idx, current_val = self.winner_indices[name], self.winner_values[name]
        better = (values < current_val) | ((values == current_val) & (indices < current_idx))
        current_val[better] = values[better]
        current_idx[better] = indices[better]

    def merge(self, other: "SpaceSearch") -> None:
        """Fold another accumulator (e.g. a shard's) into this one.

        Top-K selections and frontiers merge through their own ``merge``,
        counters add, and each scenario's winner merges under the tie rule
        every chunk folds by (:meth:`_merge_winners`).
        """
        if [o.name for o in self._objectives] != [o.name for o in other._objectives]:
            raise ValueError("cannot merge searches over different objectives")
        if self.top_k != other.top_k:
            raise ValueError("cannot merge searches with different top_k")
        if [c.name for c in self._criteria] != [c.name for c in other._criteria]:
            raise ValueError("cannot merge searches over different frontier criteria")
        if not _constraints_compatible(self._constraints, other._constraints):
            raise ValueError("cannot merge searches under different constraints")
        if other._n_tasks is not None:
            self._bind_space(other._n_tasks, other._aliases)
        self.n_evaluated += other.n_evaluated
        self.n_feasible += other.n_feasible
        self._cursor = max(self._cursor, other._cursor)
        for name, accumulator in self._top.items():
            accumulator.merge(other._top[name])
        if self._frontier is not None:
            self._frontier.merge(other._frontier)
        for name, values in other.winner_values.items():
            self._merge_winners(name, other.winner_indices[name], values)

    # ------------------------------------------------------------------
    def _labels(self, indices: np.ndarray) -> tuple[str, ...]:
        from ..devices.batch import placement_labels

        matrix = indices_to_matrix(indices, self._n_tasks, len(self._aliases))
        return tuple(placement_labels(matrix, self._aliases))

    def result(self) -> SearchResult:
        """Materialise the final selections (labels decoded only for winners)."""
        if self._n_tasks is None:
            raise ValueError("no chunk has been fed to this search yet")
        top = {
            name: TopSelection(
                objective=name,
                indices=accumulator.indices.copy(),
                values=accumulator.values.copy(),
                labels=self._labels(accumulator.indices),
            )
            for name, accumulator in self._top.items()
        }
        frontier = None
        if self._frontier is not None:
            indices = self._frontier.indices
            frontier = FrontierSelection(
                criteria=tuple(criterion.name for criterion in self._criteria),
                indices=indices,
                values=self._frontier.values.copy(),
                labels=self._labels(indices),
            )
        return SearchResult(
            n_tasks=self._n_tasks,
            aliases=self._aliases,
            n_evaluated=self.n_evaluated,
            n_feasible=self.n_feasible,
            top=top,
            frontier=frontier,
        )

    def scenario_best(self, scenario_names: Sequence[str]) -> dict[str, ScenarioBest]:
        """Each scenario's winner per tracked base (empty when nothing was feasible)."""
        return {
            name: ScenarioBest(
                objective=name,
                scenario_names=tuple(scenario_names),
                indices=self.winner_indices[name].copy(),
                values=self.winner_values[name].copy(),
                labels=self._labels(self.winner_indices[name]),
            )
            for name in self._winner_names
            if name in self.winner_values
        }


# ----------------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------------

def _planner_search(tables, objectives: Sequence[Objective], graph: bool) -> SearchResult:
    """Serve a top-1 full-space request with one exact DP per objective.

    The :class:`SearchResult` shape is preserved with two documented semantic
    shifts: ``n_evaluated``/``n_feasible`` count the DP's *lattice states*
    (the whole point -- the ``m**k`` placements were never enumerated), and an
    index is ``-1`` when the space is too large for the lexicographic
    placement index to fit an int64 (the label and value are still exact).
    """
    from .planner import _dp_plan

    plans = {objective.name: _dp_plan(tables, objective, graph) for objective in objectives}
    n_states = sum(plan.n_states for plan in plans.values())
    top = {
        name: TopSelection(
            objective=name,
            indices=np.array(
                [plan.placement_index if plan.placement_index <= MAX_ENUMERABLE_INDEX else -1],
                dtype=np.int64,
            ),
            values=np.array([plan.value]),
            labels=(plan.label,),
        )
        for name, plan in plans.items()
    }
    return SearchResult(
        n_tasks=tables.n_tasks,
        aliases=tables.aliases,
        n_evaluated=n_states,
        n_feasible=n_states,
        top=top,
        frontier=None,
    )


def search_space(
    executor: "SimulatedExecutor",
    chain: "TaskChain | TaskGraph",
    *,
    objectives: Sequence[str | Objective] = ("time",),
    top_k: int = 10,
    frontier: Sequence[str | Objective] | None = DEFAULT_FRONTIER,
    constraints: Sequence[Constraint] = (),
    devices: Sequence[str] | None = None,
    batch_size: int = _BATCH_SIZE,
    start: int = 0,
    stop: int | None = None,
    n_workers: int | None = None,
    method: str = "stream",
    faults=None,
    retry=None,
    timeout=None,
) -> SearchResult:
    """Sweep a placement-space range and select winners in bounded memory.

    Streams the executor's cost tables chunk by chunk through the sweep core
    (:mod:`repro.search.sweep`) into a :class:`SpaceSearch`: per-placement
    memory never exceeds one ``batch_size`` chunk plus the O(top_k +
    frontier) selection state, so the full ``m**k`` space of the paper's
    combinatorial-explosion regime can be searched without materialising
    profiles.  ``chain`` may be a :class:`~repro.tasks.chain.TaskChain` or a
    :class:`~repro.tasks.graph.TaskGraph` -- graph workloads stream through
    the DAG engine with nothing else changing.  The serial sweep fetches the
    tables once and runs in-process.  With ``n_workers > 1`` the index range
    is split into contiguous sub-ranges folded by a
    :class:`~repro.search.sweep.ShardPool`, whose workers each build the
    tables once; their accumulators merge associatively in range order, so
    the result is identical to the serial sweep, independent of worker count
    and chunking.  ``n_workers`` below 1 is rejected.

    ``method`` picks the engine through :func:`repro.search.planner.route`:
    ``"stream"`` (default) enumerates; ``"planner"`` answers through the
    exact DP -- requiring a top-1, full-range, unconstrained, frontier-free
    request over DP-plannable objectives and workloads, and raising with the
    violated requirement otherwise; ``"auto"`` plans when those conditions
    hold and streams when they do not.

    With ``retry=`` given the sweep ranks placements by *expected* cost under
    the fault profile (``faults`` defaulting to the platform's attached one);
    fault-aware batches carry success probabilities, so
    :class:`~repro.search.constraints.SuccessProbabilityConstraint` filters
    work.  Expected-cost objectives are outside the planner boundary:
    ``method="planner"`` raises, ``"auto"`` streams.
    """
    from .planner import route

    if method not in ("stream", "planner", "auto"):
        raise ValueError(f"unknown method {method!r}; choose 'stream', 'planner' or 'auto'")
    check_n_workers(n_workers)
    tables = executor.cost_tables(chain, devices, faults=faults, retry=retry, timeout=timeout)
    stop = _placement_range(tables, start, stop)
    # The accumulator reads and validates the selection options once, before
    # the dispatch rule sees them.
    search = SpaceSearch(
        objectives=objectives,
        top_k=top_k,
        frontier=frontier,
        constraints=constraints,
    )
    engine, _ = route(
        tables, search._objectives, top_k=search.top_k, frontier=search._criteria,
        constraints=search._constraints, span=(start, stop), faults=retry is not None,
        method=method,
    )
    if engine == "planner":
        return _planner_search(tables, search._objectives, isinstance(chain, TaskGraph))

    ranges = shard_ranges(start, stop, n_workers) if n_workers else []
    if len(ranges) > 1:
        spec = dict(
            workload=chain, platform=executor.platform, devices=devices,
            faults=faults, retry=retry, timeout=timeout,
        )
        with ShardPool(spec, len(ranges)) as pool:
            return pool.fold(search, ranges, batch_size).result()
    return sweep(tables, search, batch_size, start, stop).result()
