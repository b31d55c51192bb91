"""Plain (single-platform) batch execution and its results.

The sequential :meth:`~repro.devices.simulator.SimulatedExecutor.execute` walks
a task chain in a Python loop, once per placement -- fine for the paper's
``2**3 = 8`` splits, hopeless for the ``m**k`` spaces its conclusion worries
about.  This module is the single-platform face of the vectorized engine:
:func:`execute_placements` takes an ``(n_placements, n_tasks)`` integer
device-index matrix and computes every scalar field of an
:class:`~repro.devices.simulator.ExecutionRecord` with array operations.

Plain tables are not a type of their own: they are a one-row
:class:`~repro.devices.grid.GridCostTables` marked ``plain``, built by
:func:`~repro.devices.tables.build_tables` on one platform, and
:func:`execute_placements` runs the grid kernels on them and hands back row 0
as a :class:`BatchExecutionResult`.  The results are **bitwise identical** to
the sequential loop: per-task quantities come from the same scalar formulas,
and all accumulations fold left in task order exactly like the sequential
accumulators (a plain ``np.sum`` would use pairwise summation and drift in
the last ulp for long chains).

DAG workloads follow the executor's schedule model (critical-path latency,
per-edge hops; see :mod:`repro.devices.simulator`), and on *linear*
predecessors it is the chain rule, so a chain and the same chain as a
:class:`~repro.tasks.graph.TaskGraph` build the same tables and run the
same kernel.  :meth:`BatchExecutionResult.record` runs the executor's own
scalar fold on the tables' row 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .costmodel import _schedule_fold
from .simulator import ExecutionRecord, _execution_record

if TYPE_CHECKING:  # pragma: no cover - typing only; grid imports this module
    from .grid import GridCostTables, GridExecutionResult

__all__ = [
    "BatchExecutionResult",
    "execute_placements",
    "as_placement_matrix",
    "placement_labels",
]


def as_placement_matrix(
    placements: np.ndarray | Iterable[Sequence[str] | str],
    aliases: Sequence[str],
    n_tasks: int,
    workload: str = "",
) -> np.ndarray:
    """Normalise placements to an ``(n_placements, n_tasks)`` device-index matrix.

    Accepts an integer matrix (validated and returned as-is up to dtype), or an
    iterable of placements in any of the sequential executor's spellings
    (strings like ``"DDA"``, alias tuples, :class:`~repro.offload.placement.Placement`).
    ``workload`` (a chain/graph name) is woven into shape errors so a failure
    inside a batch sweep names the workload it was evaluating.
    """
    what = f"workload {workload!r}" if workload else "the workload"
    if isinstance(placements, np.ndarray):
        if placements.dtype.kind not in "iu":
            raise TypeError("placement matrices must have an integer dtype")
        matrix = np.atleast_2d(placements)
        if matrix.ndim != 2 or matrix.shape[1] != n_tasks:
            raise ValueError(
                f"placement matrix has shape {placements.shape}, expected (*, {n_tasks}) "
                f"-- {what} has {n_tasks} tasks"
            )
        if matrix.shape[0] == 0:
            raise ValueError("at least one placement is required")
        if matrix.min() < 0 or matrix.max() >= len(aliases):
            raise ValueError(
                f"placement matrix entries must be device indices in [0, {len(aliases)}) "
                f"(candidate devices: {list(aliases)})"
            )
        return matrix
    index = {alias: i for i, alias in enumerate(aliases)}
    rows = []
    for placement in placements:
        entries = tuple(placement)
        if len(entries) != n_tasks:
            raise ValueError(
                f"placement {entries!r} has {len(entries)} entries but {what} has "
                f"{n_tasks} tasks (candidate devices: {list(aliases)})"
            )
        try:
            rows.append([index[alias] for alias in entries])
        except KeyError as exc:
            raise KeyError(
                f"placement {entries!r} for {what} uses device {exc.args[0]!r}, "
                f"not among the candidates {list(aliases)}"
            ) from exc
    if not rows:
        raise ValueError("at least one placement is required")
    return np.array(rows, dtype=np.intp)


def placement_labels(matrix: np.ndarray, aliases: Sequence[str]) -> list[str]:
    """Algorithm labels (``"DDA"``-style) for every row of a placement matrix."""
    if all(len(alias) == 1 for alias in aliases):
        # Vectorized join: view the (n, k) array of single characters as one
        # k-character string per row.
        lut = np.array(list(aliases), dtype="U1")
        grid = np.ascontiguousarray(lut[matrix])
        return grid.view(f"U{matrix.shape[1]}").ravel().tolist()
    return ["".join(aliases[d] for d in row) for row in matrix.tolist()]


def _row_terms(tables: "GridCostTables") -> tuple:
    """The schedule fold's ``(task_terms, hop_terms)`` read from row 0 of one-row tables."""
    busy, hostio_time = tables.busy[0].tolist(), tables.hostio_time[0].tolist()
    energy_in, energy_out = tables.energy_in[0].tolist(), tables.energy_out[0].tolist()
    hostio_bytes, flops = tables.hostio_bytes.tolist(), tables.task_flops.tolist()
    hop_time, hop_energy = tables.penalty_time[0].tolist(), tables.penalty_energy[0].tolist()
    hop_bytes = tables.penalty_bytes.tolist()
    feed_time, feed_energy = tables.first_penalty_time[0].tolist(), tables.first_penalty_energy[0].tolist()
    feed_bytes = tables.first_penalty_bytes.tolist()

    def task_terms(pos: int, d: int):
        return (
            busy[pos][d],
            hostio_time[pos][d],
            hostio_bytes[pos][d],
            energy_in[pos][d],
            energy_out[pos][d],
            flops[pos],
        )

    def hop_terms(src: int | None, d: int):
        if src is None:
            return feed_time[d], feed_energy[d], feed_bytes[d]
        return hop_time[src][d], hop_energy[src][d], hop_bytes[src][d]

    return task_terms, hop_terms


def _grid_row(name: str) -> property:
    """A batch field read from its grid's (deferred) value, at the batch's row."""
    return property(
        lambda batch: getattr(batch.grid, name)[batch.row], doc=f"Row of the grid's ``{name}``."
    )


def _grid_value(name: str) -> property:
    """A batch field read from its grid's (deferred) value, which has no scenario axis."""
    return property(lambda batch: getattr(batch.grid, name), doc=f"The grid's ``{name}``.")


@dataclass(frozen=True)
class BatchExecutionResult:
    """Array-form execution records of one batch: one row per placement.

    Every vector/column is bitwise identical to the corresponding scalar field
    of the sequential :class:`~repro.devices.simulator.ExecutionRecord`; use
    :meth:`record` to materialise the full object form of one row on demand
    (materialising millions of records would defeat the purpose of the batch).
    Device columns follow ``tables.aliases``; platform devices outside the
    candidate set have no column (they never run a task), but their idle
    energy is still folded into ``energy_total_j``, exactly like the
    sequential record.

    A batch is row ``row`` of a :class:`~repro.devices.grid.GridExecutionResult`
    and holds only that row's total time.  Every other field --
    :attr:`busy_by_device`, :attr:`flops_by_device`,
    :attr:`transferred_bytes`, :attr:`transfer_energy_j`,
    :attr:`energy_total_j`, :attr:`operating_cost`, :attr:`active_j` and
    :attr:`idle_j` -- is read from that grid's deferred values on access, so
    a sweep that ranks time alone never folds them.
    """

    #: The one-row tables the batch ran on.
    tables: "GridCostTables"
    placements: np.ndarray
    total_time_s: np.ndarray
    #: The grid result this batch is a row of, and the row's index.
    grid: "GridExecutionResult" = field(repr=False)
    row: int

    busy_by_device = _grid_row("busy_by_device")
    flops_by_device = _grid_value("flops_by_device")
    transferred_bytes = _grid_value("transferred_bytes")
    transfer_energy_j = _grid_row("transfer_energy_j")
    energy_total_j = _grid_row("energy_total_j")
    operating_cost = _grid_row("operating_cost")
    active_j = _grid_row("active_j")
    idle_j = _grid_row("idle_j")

    def __len__(self) -> int:
        return self.placements.shape[0]

    @property
    def aliases(self) -> tuple[str, ...]:
        return self.tables.aliases

    def placement(self, index: int) -> tuple[str, ...]:
        return tuple(self.aliases[d] for d in self.placements[index])

    def label(self, index: int) -> str:
        return "".join(self.placement(index))

    def labels(self) -> list[str]:
        """Algorithm labels of every placement, in batch order."""
        return placement_labels(self.placements, self.aliases)

    def n_offloaded(self, host: str | None = None) -> np.ndarray:
        """Per-placement count of tasks placed away from the host device.

        The array form of ``Placement.n_offloaded``: one integer per batch row,
        computed straight from the device-index matrix.  ``host`` defaults to
        the platform host; a host outside the candidate ``aliases`` never runs
        a task, so every task of every placement counts as offloaded.
        """
        alias = self.tables.platform.host if host is None else host
        if alias not in self.tables.platform.devices:
            raise KeyError(
                f"unknown device alias {alias!r}; available: "
                f"{sorted(self.tables.platform.devices)}"
            )
        if alias not in self.aliases:
            return np.full(len(self), self.placements.shape[1], dtype=np.intp)
        host_index = self.aliases.index(alias)
        return np.count_nonzero(self.placements != host_index, axis=1)

    def metric_values(self, metric: str = "time") -> np.ndarray:
        """One scalar per placement: ``"time"``, ``"energy"`` or ``"cost"``."""
        if metric == "time":
            return self.total_time_s
        if metric == "energy":
            return self.energy_total_j
        if metric == "cost":
            return self.operating_cost
        raise ValueError(f"unknown metric {metric!r}; choose 'time', 'energy' or 'cost'")

    def argbest(self, metric: str = "time") -> int:
        """Index of the best (minimal) placement under the given metric."""
        return int(np.argmin(self.metric_values(metric)))

    def top(self, k: int, metric: str = "time") -> np.ndarray:
        """Indices of the ``k`` best placements, best first."""
        values = self.metric_values(metric)
        if not 0 < k <= values.size:
            raise ValueError(f"k must be in [1, {values.size}]")
        order = np.argsort(values, kind="stable")
        return order[:k]

    # ------------------------------------------------------------------
    def record(self, index: int) -> ExecutionRecord:
        """Materialise the full :class:`ExecutionRecord` of one placement.

        Runs the executor's schedule fold with the per-task and per-hop terms
        read from row 0 of the tables (:func:`_row_terms`), so every field,
        including the per-task records, is bitwise identical to
        ``SimulatedExecutor.execute`` on the same placement, for chains and
        graphs alike.
        """
        t = self.tables
        row = self.placements[index].tolist()
        placement = tuple(t.aliases[d] for d in row)
        schedule = _schedule_fold(t.platform, t.pred_positions, placement, row, *_row_terms(t))
        return _execution_record(t.platform, t.task_names, placement, schedule)

    def records(self) -> Iterator[ExecutionRecord]:
        """Iterate the materialised records of every placement, in batch order."""
        for index in range(len(self)):
            yield self.record(index)


def execute_placements(tables: "GridCostTables", placements: np.ndarray) -> BatchExecutionResult:
    """Evaluate every placement row of the matrix against one-row cost tables.

    ``placements`` must be an ``(n_placements, n_tasks)`` integer matrix of
    positions into ``tables.aliases`` (see :func:`as_placement_matrix`).  The
    grid core evaluates the tables -- fully linked chains on its fast chain
    kernel, anything else on its checked kernel (missing-link attribution,
    critical-path latency) -- and hands back row 0 as a
    :class:`BatchExecutionResult`, so every downstream layer (search,
    selection, scenarios, measurements) consumes chain and graph batches
    alike.  Multi-row grid tables are rejected: evaluate them with
    :func:`~repro.devices.grid.execute_placements_grid`, or take one row with
    ``table(i)``.
    """
    from .grid import _run_kernel

    tables._require_one_row("execute_placements")
    P = as_placement_matrix(placements, tables.aliases, tables.n_tasks, workload=tables.workload)
    return _run_kernel(tables, P.astype(np.intp, copy=False))._row(0, tables)
