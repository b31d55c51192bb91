"""Streaming search-and-selection over arbitrarily large placement spaces.

:class:`SpaceSearch` is a mergeable accumulator: feed it
:class:`~repro.devices.batch.BatchExecutionResult` chunks (in any order, under
any chunking) and it maintains, in memory bounded by ``O(top_k + frontier)``:

* top-K selections under any number of scalar objectives,
* an incremental Pareto frontier over configurable criteria,
* vectorized feasibility filtering (deadline / energy budget / offload bound),

without ever materialising per-placement profile objects.  :func:`search_space`
drives it over the sweep core (:mod:`repro.search.sweep`), optionally sharding
the placement-index range across worker processes; shard accumulators merge
associatively, so the parallel sweep returns the exact same
:class:`SearchResult` as the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..offload.space import MAX_ENUMERABLE_INDEX, indices_to_matrix, space_size
from .constraints import Constraint, feasible_mask
from .frontier import StreamingFrontier
from .objectives import Objective, as_objectives
from .sweep import ShardPool, check_n_workers, shard_ranges, sweep
from .topk import StreamingTopK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..devices.batch import BatchExecutionResult
    from ..devices.simulator import SimulatedExecutor
    from ..tasks.chain import TaskChain
    from ..tasks.graph import TaskGraph

__all__ = ["SpaceSearch", "SearchResult", "TopSelection", "FrontierSelection", "search_space"]

#: Default criteria of the streaming frontier -- the three axes of Section IV.
DEFAULT_FRONTIER = ("time", "energy", "cost")


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
class SearchResult:
    """Outcome of one (possibly sharded) streaming sweep."""

    n_tasks: int
    aliases: tuple[str, ...]
    n_evaluated: int
    n_feasible: int
    top: Mapping[str, TopSelection]
    frontier: FrontierSelection | None

    def __post_init__(self) -> None:
        # Read-only snapshot: a frozen result must not be corruptible through
        # a mutable attribute (same contract as Decision.objectives).
        object.__setattr__(self, "top", MappingProxyType(dict(self.top)))

    def __reduce__(self):
        # MappingProxyType cannot be pickled; rebuild through __init__.
        return (
            self.__class__,
            (
                self.n_tasks,
                self.aliases,
                self.n_evaluated,
                self.n_feasible,
                dict(self.top),
                self.frontier,
            ),
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

    def summary(self) -> str:
        lines = [
            f"searched {self.n_evaluated} of {self.space_size} placements "
            f"({self.n_feasible} feasible) over {len(self.aliases)} devices x "
            f"{self.n_tasks} tasks"
        ]
        for name, selection in self.top.items():
            if len(selection):
                lines.append(
                    f"  top-{len(selection)} by {name}: best {selection.labels[0]} "
                    f"({selection.values[0]:.6g})"
                )
            else:
                lines.append(f"  top-K by {name}: no feasible placement")
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


class SpaceSearch:
    """Mergeable streaming selector over batch-execution chunks.

    Feed chunks with :meth:`update`; combine independently filled accumulators
    (e.g. per-shard) with :meth:`merge`; extract the final selections with
    :meth:`result`.  The outcome is a pure function of the multiset of
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
        self._objectives = as_objectives(objectives)
        if top_k < 0:
            raise ValueError("top_k must be non-negative")
        self.top_k = int(top_k)
        self._criteria = as_objectives(frontier) if frontier is not None else ()
        if not self.top_k and not self._criteria:
            raise ValueError("nothing to select: top_k is 0 and the frontier is disabled")
        self._constraints = tuple(constraints)
        self._top = (
            {objective.name: StreamingTopK(self.top_k) for objective in self._objectives}
            if self.top_k
            else {}
        )
        self._frontier = StreamingFrontier(len(self._criteria)) if self._criteria else None
        self.n_evaluated = 0
        self.n_feasible = 0
        self._cursor = 0
        self._n_tasks: int | None = None
        self._aliases: tuple[str, ...] | None = None

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

    def update(self, batch: "BatchExecutionResult", start_index: int | None = None) -> None:
        """Fold one executed chunk into the running selections.

        ``start_index`` is the global placement index of the chunk's first row
        (its offset in the lexicographic enumeration).  When omitted, chunks
        are assumed to arrive contiguously from index 0 -- the
        ``iter_execute_batches`` streaming pattern.
        """
        self._bind_space(batch.tables.n_tasks, batch.aliases)
        n = len(batch)
        start = self._cursor if start_index is None else int(start_index)
        self._cursor = start + n
        indices = np.arange(n, dtype=np.int64) + np.int64(start)
        mask = feasible_mask(batch, self._constraints)
        self.n_evaluated += n
        feasible = indices[mask]
        self.n_feasible += int(feasible.size)
        if not feasible.size:
            return
        if self._top:
            for objective in self._objectives:
                self._top[objective.name].update(objective(batch)[mask], feasible)
        if self._frontier is not None:
            columns = np.stack([criterion(batch)[mask] for criterion in self._criteria], axis=1)
            self._frontier.update(columns, feasible)

    def merge(self, other: "SpaceSearch") -> None:
        """Fold another accumulator (e.g. a shard's) into this one."""
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

    # ------------------------------------------------------------------
    def _labels(self, indices: np.ndarray) -> tuple[str, ...]:
        from ..devices.batch import placement_labels

        matrix = indices_to_matrix(indices, self._n_tasks, len(self._aliases))
        return tuple(placement_labels(matrix, self._aliases))

    def result(self) -> SearchResult:
        """Materialise the final selections (labels decoded only for winners)."""
        if self._n_tasks is None:
            raise ValueError("no chunk has been fed to this search yet")
        top: dict[str, TopSelection] = {}
        if self._top:
            for objective in self._objectives:
                accumulator = self._top[objective.name]
                top[objective.name] = TopSelection(
                    objective=objective.name,
                    indices=accumulator.indices.copy(),
                    values=accumulator.values.copy(),
                    labels=self._labels(accumulator.indices),
                )
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


# ----------------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------------

def _planner_search(
    executor: "SimulatedExecutor",
    chain: "TaskChain | TaskGraph",
    objectives: Sequence[Objective],
    devices: Sequence[str] | None,
    tables,
) -> SearchResult:
    """Serve a top-1 full-space request with one exact DP per objective.

    The :class:`SearchResult` shape is preserved with two documented semantic
    shifts: ``n_evaluated``/``n_feasible`` count the DP's *lattice states*
    (the whole point -- the ``m**k`` placements were never enumerated), and an
    index is ``-1`` when the space is too large for the lexicographic
    placement index to fit an int64 (the label and value are still exact).
    """
    from .planner import plan_workload

    top: dict[str, TopSelection] = {}
    n_states = 0
    for objective in objectives:
        plan = plan_workload(executor, chain, objective, devices=devices, method="dp")
        n_states += plan.n_states
        index = plan.placement_index
        top[objective.name] = TopSelection(
            objective=objective.name,
            indices=np.array(
                [index if index <= MAX_ENUMERABLE_INDEX else -1], dtype=np.int64
            ),
            values=np.array([plan.value]),
            labels=(plan.label,),
        )
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
    batch_size: int = 65536,
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

    ``method`` selects the engine: ``"stream"`` (default) enumerates;
    ``"planner"`` answers through :mod:`repro.search.planner`'s exact DP --
    requiring a top-1, full-range, unconstrained, frontier-free request over
    DP-plannable objectives and workloads, and raising with the violated
    requirement otherwise; ``"auto"`` plans when those conditions hold and
    streams when they do not.

    With ``retry=`` given the sweep ranks placements by *expected* cost under
    the fault profile (``faults`` defaulting to the platform's attached one);
    fault-aware batches carry success probabilities, so
    :class:`~repro.search.constraints.SuccessProbabilityConstraint` filters
    work.  Expected-cost objectives are outside the DP planner boundary:
    ``method="planner"`` raises, ``"auto"`` streams.
    """
    if method not in ("stream", "planner", "auto"):
        raise ValueError(f"unknown method {method!r}; choose 'stream', 'planner' or 'auto'")
    check_n_workers(n_workers)
    if retry is not None and method == "planner":
        raise ValueError(
            "method='planner' cannot serve fault-aware search: expected cost "
            "under faults couples tasks through survival factors outside the "
            "DP planner boundary; use method='stream' (or 'auto') to enumerate"
        )
    tables = executor.cost_tables(chain, devices, faults=faults, retry=retry, timeout=timeout)
    total = space_size(tables.n_tasks, tables.n_devices)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"invalid slice [{start}, {stop}) of a space of {total} placements")
    if start == stop:
        raise ValueError("cannot search an empty placement range")

    coerced_objectives = as_objectives(objectives)
    coerced_frontier = as_objectives(frontier) if frontier is not None else None

    if method in ("planner", "auto") and retry is None:
        from .planner import dispatch_reason

        reason = dispatch_reason(
            tables,
            coerced_objectives,
            top_k=top_k,
            frontier=coerced_frontier,
            constraints=tuple(constraints),
            start=start,
            stop=stop,
            total=total,
        )
        if reason is None:
            return _planner_search(executor, chain, coerced_objectives, devices, tables)
        if method == "planner":
            raise ValueError(
                f"method='planner' cannot serve this request: {reason}; "
                "use method='stream' (or 'auto') to enumerate"
            )

    search = SpaceSearch(
        objectives=coerced_objectives,
        top_k=top_k,
        frontier=coerced_frontier,
        constraints=constraints,
    )
    ranges = shard_ranges(start, stop, n_workers) if n_workers else []
    if len(ranges) > 1:
        spec = dict(
            workload=chain, platform=executor.platform, devices=devices,
            faults=faults, retry=retry, timeout=timeout,
        )
        with ShardPool(spec, len(ranges)) as pool:
            return pool.fold(search, ranges, batch_size).result()
    return sweep(tables, search, batch_size, start, stop).result()
