"""Expected-cost-under-faults engine: one vectorized kernel plus its scalar reference.

Per task and attempt, three things can go wrong: the device crashes or a
transfer drops (per-attempt survival ``surv`` from the fault tables), the
attempt straggles (probability ``q``, duration inflated by ``sigma``), or it
overruns the per-attempt timeout ``c`` and is killed after exactly ``c``
seconds.  With bounded retries the attempt count is truncated-geometric and
every expectation below is closed-form -- no sampling.  Three regimes per
``(placement, task)`` element, selected by nested ``np.where`` in the
vectorized kernel and by the *same* ``if/elif/else`` in the scalar reference:

1. ``dur > c``: even a nominal attempt overruns -- every attempt fails at
   ``c`` and the task can never succeed (success probability 0).
2. ``dur <= c < sigma * dur`` (and ``q > 0``): stragglers are killed at
   ``c``, non-stragglers fail only by fault; a success always takes ``dur``.
3. otherwise: stragglers finish within budget, so both failed and successful
   attempts last ``dur * (1 + q (sigma - 1))`` in expectation.

All reported costs are **conditional on success within the retry budget**:
the expected attempt count ``E[N | success]`` scales the re-paid busy time,
transfer energy and bytes; backoff delays add wall-clock (and hence idle
energy) only.  Straggler inflation is waiting, not computing: it stretches
wall-clock and idle energy but never the device's busy seconds or active
energy.  Where success is impossible the time/energy/cost metrics are
``inf`` and the success probability is exactly ``0.0``.

One kernel serves every shape.  It runs over
:class:`~repro.faults.tables.FaultGridCostTables` with a leading scenario
axis; plain fault tables are the one-row case, and
:func:`execute_fault_placements` hands back their row 0, just as the classic
:func:`~repro.devices.batch.execute_placements` runs on the grid kernels.  A
chain is the DAG whose task ``t`` has the single predecessor ``t - 1`` (the
tables' ``pred_positions`` say which), so hop penalties and survivals fold
over predecessors in edge order for both; only the time fold branches -- a
sum for linear tables, the critical path otherwise.  :func:`expected_record`
is the executor's scalar schedule fold with an attempts hook; with linear
predecessors its critical path is the running sum, bit for bit.

The scalar helpers below perform the identical IEEE-754 operation sequence
(powers by repeated multiplication, the same guarded divisions), so the
kernel is pinned bitwise by :func:`expected_record` -- and with an empty
profile, no timeout and any retry policy, both collapse to the classic
fault-free engine bit for bit.

For chains the expected total time is exact (expectation of a sum).  For
DAGs the kernel substitutes each task's *expected* duration into the
critical-path recurrence -- a deterministic-equivalent approximation, since
``E[max] >= max(E)``; the documented exactness boundary.  The Monte-Carlo
sampler (:mod:`repro.faults.simulate`) is the statistical cross-check on
chains.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..devices.batch import BatchExecutionResult, _grid_row, _row_terms, as_placement_matrix
from ..devices.costmodel import _schedule_fold, finalize_execution
from ..devices.energy import EnergyBreakdown
from ..devices.grid import (
    GridExecutionResult,
    _KernelOutputs,
    _hop_folder,
    _raise_missing_link,
)
from .retry import RetryPolicy, expected_attempts, expected_backoff
from .tables import FaultGridCostTables

__all__ = [
    "ExpectedTaskFaults",
    "ExpectedFaultRecord",
    "FaultBatchExecutionResult",
    "FaultGridExecutionResult",
    "execute_fault_placements",
    "execute_fault_placements_grid",
    "expected_record",
]


# ---------------------------------------------------------------------------
# Per-task attempt statistics (vectorized and scalar twins)
# ---------------------------------------------------------------------------

def _attempt_statistics(dur, surv, q, sigma, c, cfin, retry: RetryPolicy):
    """Vectorized per-task retry statistics.

    ``dur``/``surv`` are ``(s, n)`` arrays (scenario, placement);
    ``q``/``sigma`` are ``(s, 1)`` columns; ``c`` is the timeout (``cfin``
    its finite stand-in, used only in expressions whose lanes are never
    selected when ``c`` is infinite).  Returns
    ``(succ, n_succ, task_time)``: per-task success probability, guarded
    ``E[attempts | success]`` (exactly ``1.0`` where success is impossible,
    so energy scaling never manufactures ``0 * inf``), and the expected
    task time contribution (``inf`` where success is impossible).
    """
    strag = 1.0 + q * (sigma - 1.0)
    base_over = dur > c
    slow_over = (~base_over) & (q > 0.0) & (sigma * dur > c)
    p_plain = 1.0 - surv
    e_plain = dur * strag
    p_kill = 1.0 - (1.0 - q) * surv
    kill_pos = p_kill > 0.0
    e_fail_kill = (q * cfin + (1.0 - q) * (p_plain * dur)) / np.where(kill_pos, p_kill, 1.0)

    p = np.where(base_over, 1.0, np.where(slow_over, p_kill, p_plain))
    e_fail = np.where(base_over, cfin, np.where(slow_over, e_fail_kill, e_plain))
    e_succ = np.where(base_over, 0.0, np.where(slow_over, dur, e_plain))

    a = retry.max_attempts
    p_a = p
    for _ in range(a - 1):
        p_a = p_a * p
    succ = 1.0 - p_a
    ok = p < 1.0
    if a == 1:
        n_succ = np.ones_like(p)
        backoff = np.zeros_like(p)
    else:
        numerator = 1.0 - (a + 1.0) * p_a + a * p_a * p
        denominator = (1.0 - p) * succ
        n_succ = np.where(ok, numerator / np.where(ok, denominator, 1.0), 1.0)
        bk = np.zeros_like(p)
        p_j = p
        for delay in retry.delays():
            bk = bk + delay * (p_j - p_a)
            p_j = p_j * p
        backoff = np.where(ok, bk / np.where(ok, succ, 1.0), 0.0)
    nf = n_succ - 1.0
    task_time = np.where(ok, (nf * e_fail + e_succ) + backoff, np.inf)
    return succ, n_succ, task_time


def _scalar_attempt_statistics(
    dur: float, surv: float, q: float, sigma: float, c: float, cfin: float, retry: RetryPolicy
) -> tuple[float, float, float]:
    """Scalar twin of :func:`_attempt_statistics` (same operation sequence)."""
    strag = 1.0 + q * (sigma - 1.0)
    base_over = dur > c
    slow_over = (not base_over) and (q > 0.0) and (sigma * dur > c)
    p_plain = 1.0 - surv
    e_plain = dur * strag
    if base_over:
        p = 1.0
        e_fail = cfin
        e_succ = 0.0
    elif slow_over:
        p_kill = 1.0 - (1.0 - q) * surv
        p = p_kill
        e_fail = (q * cfin + (1.0 - q) * (p_plain * dur)) / p_kill
        e_succ = dur
    else:
        p = p_plain
        e_fail = e_plain
        e_succ = e_plain
    succ, n_succ = expected_attempts(p, retry.max_attempts)
    backoff = expected_backoff(p, retry)
    nf = n_succ - 1.0
    task_time = ((nf * e_fail + e_succ) + backoff) if p < 1.0 else math.inf
    return succ, n_succ, task_time


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectedTaskFaults:
    """Per-task slice of an expected-cost-under-faults evaluation."""

    task_name: str
    device: str
    #: Probability the task completes within its retry budget.
    success_probability: float
    #: ``E[attempts | success]`` (``1.0`` when success is impossible).
    expected_attempts: float
    #: Expected wall-clock contribution (``inf`` when success is impossible).
    expected_time_s: float


@dataclass(frozen=True)
class ExpectedFaultRecord:
    """Expected execution accounting of one placement under a fault profile.

    The fault-aware analogue of
    :class:`~repro.devices.simulator.ExecutionRecord`: all costs are
    conditional on every task succeeding within its retry budget;
    ``success_probability`` is the chance of that happening.  When some task
    cannot succeed at all, ``total_time_s``/``energy_total_j``/
    ``operating_cost`` are ``inf`` and ``success_probability`` is ``0.0``
    (the per-device and breakdown fields then hold the guarded finite
    accounting that fed the finalizer).
    """

    placement: tuple[str, ...]
    tasks: tuple[ExpectedTaskFaults, ...]
    success_probability: float
    expected_attempts: float
    total_time_s: float
    busy_time_by_device: Mapping[str, float]
    flops_by_device: Mapping[str, float]
    transferred_bytes: float
    energy: EnergyBreakdown
    energy_total_j: float
    operating_cost: float

    @property
    def label(self) -> str:
        return "".join(self.placement)

    def metric_value(self, metric: str = "time") -> float:
        if metric == "time":
            return self.total_time_s
        if metric == "energy":
            return self.energy_total_j
        if metric == "cost":
            return self.operating_cost
        raise ValueError(f"unknown metric {metric!r}; choose 'time', 'energy' or 'cost'")


@dataclass(frozen=True)
class FaultBatchExecutionResult(BatchExecutionResult):
    """A :class:`~repro.devices.batch.BatchExecutionResult` under faults.

    ``total_time_s``/``energy_total_j``/``operating_cost`` are expectations
    conditional on success (``inf`` where success is impossible), so every
    downstream consumer -- selectors, constraints, robust objectives --
    works unchanged while ``success_probability`` adds the resilience axis.
    """

    #: The one-row fault tables the batch ran on.
    fault_tables: FaultGridCostTables | None = None
    #: Per placement, probability that every task succeeds within its budget.
    success_probability: np.ndarray | None = None
    #: Per placement, sum over tasks of ``E[attempts | success]``.
    expected_attempts: np.ndarray | None = None

    # Expected attempts differ per fault regime, so these carry a scenario axis.
    flops_by_device = _grid_row("flops_by_device")
    transferred_bytes = _grid_row("transferred_bytes")

    def record(self, index: int) -> ExpectedFaultRecord:
        """Materialise the scalar expected record of one placement.

        :func:`expected_record` on this batch's row, bitwise identical to
        the vectorized arrays (the fault analogue of the classic ``record``
        contract).
        """
        return expected_record(self.fault_tables, self.placements[index])


@dataclass(frozen=True)
class FaultGridExecutionResult(GridExecutionResult):
    """A :class:`~repro.devices.grid.GridExecutionResult` under faults.

    Unlike the classic grid, ``transferred_bytes`` (``(s, n)``) and
    ``flops_by_device`` (``(s, n, m)``) carry a scenario axis: expected
    attempt counts -- and with them the re-paid bytes and FLOPs -- differ
    per fault regime.
    """

    fault_tables: FaultGridCostTables | None = None
    success_probability: np.ndarray | None = None  # (s, n)
    expected_attempts: np.ndarray | None = None  # (s, n)
    #: Eager (s, n, m) energy breakdowns: unlike the classic grid result
    #: (which derives them lazily from its stored totals), the fault engine's
    #: breakdowns come from the pre-masked expected times -- rows where
    #: success is impossible idle for 0.0 seconds, not for ``inf``.
    active_j: np.ndarray | None = None
    idle_j: np.ndarray | None = None
    #: Eager ``(energy_total_j, operating_cost)``, ``inf`` where success is
    #: impossible: overrides the classic grid's deferred fold.
    _energy_and_cost: tuple[np.ndarray, np.ndarray] | None = None

    def batch(self, index: int) -> FaultBatchExecutionResult:
        """One scenario's fault batch view (bitwise equal to a direct run);
        negative indices count from the end."""
        index = self.tables._scenario_index(index)
        return self._row(index, self.fault_tables.table(index))

    def _row(self, index: int, tables: FaultGridCostTables) -> FaultBatchExecutionResult:
        """Row ``index`` as a fault batch result over the given one-row fault tables."""
        return FaultBatchExecutionResult(
            tables=tables.base,
            placements=self.placements,
            total_time_s=self.total_time_s[index],
            grid=self,
            row=index,
            fault_tables=tables,
            success_probability=self.success_probability[index],
            expected_attempts=self.expected_attempts[index],
        )


# ---------------------------------------------------------------------------
# Vectorized engine
# ---------------------------------------------------------------------------

def execute_fault_placements(
    tables: FaultGridCostTables, placements: np.ndarray
) -> FaultBatchExecutionResult:
    """Expected cost of every placement under the fault profile, in one pass.

    The fault-aware analogue of
    :func:`~repro.devices.batch.execute_placements`, and built the same way:
    the one-row fault tables run on the grid kernel and row 0 is handed
    back.  Multi-row tables are rejected (see
    :func:`execute_fault_placements_grid`).
    """
    base = tables.base
    base._require_one_row("execute_fault_placements")
    P = as_placement_matrix(placements, base.aliases, base.n_tasks, workload=base.workload)
    return _execute_fault_grid(tables, P.astype(np.intp, copy=False))._row(0, tables)


def execute_fault_placements_grid(
    tables: FaultGridCostTables, placements: np.ndarray
) -> FaultGridExecutionResult:
    """Expected cost of every placement under every fault regime, in one pass.

    Per-scenario straggler parameters broadcast as columns over a leading
    scenario axis, so each scenario slice is bitwise identical to
    :func:`execute_fault_placements` on ``tables.table(i)``.
    """
    base = tables.base
    P = as_placement_matrix(placements, base.aliases, base.n_tasks, workload=base.workload)
    return _execute_fault_grid(tables, P.astype(np.intp, copy=False))


def _execute_fault_grid(tables: FaultGridCostTables, P: np.ndarray) -> FaultGridExecutionResult:
    """The one expected-cost kernel: chains and DAGs, every scenario at once.

    Hop penalties and survivals fold over ``base.pred_positions`` in edge
    order, and only the time fold differs -- a sum of expected task times
    for linear tables (``base.is_linear``), the critical-path recurrence
    over expected durations otherwise.
    """
    base = tables.base
    n, k = P.shape
    s, m = base.n_scenarios, base.n_devices
    preds = base.pred_positions
    linear = base.is_linear

    # Flat-index takes: one contiguous gather per (s, k, m) table.
    flat_cols = ((np.arange(k) * m)[None, :] + P).ravel()

    def per_task(table: np.ndarray) -> np.ndarray:
        return table.reshape(s, k * m).take(flat_cols, axis=1).reshape(s, n, k)

    busy_pt = per_task(base.busy)  # (s, n, k)
    hostio_time_pt = per_task(base.hostio_time)
    hostio_bytes_pt = base.hostio_bytes.ravel().take(flat_cols).reshape(n, k)  # (n, k)
    energy_in_pt = per_task(base.energy_in)
    energy_out_pt = per_task(base.energy_out)
    node_surv_pt = per_task(tables.node_survival)

    # Hop terms per task, in the scalar reference's edge order; survivals
    # multiply where penalties add.
    fold_hops = _hop_folder(P, preds, m)
    pen_time_pt = fold_hops(base.penalty_time, base.first_penalty_time)
    pen_energy_pt = fold_hops(base.penalty_energy, base.first_penalty_energy)
    pen_bytes_pt = fold_hops(base.penalty_bytes, base.first_penalty_bytes)
    edge_surv_pt = fold_hops(tables.edge_survival, tables.first_edge_survival, np.multiply)
    transfer_pt = hostio_time_pt + pen_time_pt

    if base.missing_links and np.isnan(transfer_pt).any():
        # Same rejection as the classic engine: a placement that traverses a
        # device pair without a link cannot run, faults or no faults.
        _, i, t = (int(v) for v in np.argwhere(np.isnan(transfer_pt))[0])
        _raise_missing_link(
            base.aliases,
            base.host,
            preds[t],
            P,
            i,
            t,
            bool(np.isnan(hostio_time_pt[:, i, t]).any()),
            lambda p: bool(np.isnan(base.penalty_time[:, P[i, p], P[i, t]]).any()),
        )

    q = np.array([profile.straggler_probability for profile in tables.profiles]).reshape(s, 1)
    sigma = np.array([profile.straggler_slowdown for profile in tables.profiles]).reshape(s, 1)
    c = tables.timeout.timeout_s
    cfin = c if math.isfinite(c) else 0.0
    retry = tables.retry

    success = np.ones((s, n))
    attempts_total = np.zeros((s, n))
    total_time = np.zeros((s, n))
    transferred = np.zeros((s, n))
    transfer_energy = np.zeros((s, n))
    busy_by_device = np.zeros((s, n, m))
    flops_by_device = np.zeros((s, n, m))
    rows = np.arange(n)
    if not linear:
        finish = np.zeros((s, n, k))
        available = np.zeros((s, n, m))
    for t in range(k):
        dur = busy_pt[:, :, t] + transfer_pt[:, :, t]
        surv = node_surv_pt[:, :, t] * edge_surv_pt[:, :, t]
        succ, n_succ, task_time = _attempt_statistics(dur, surv, q, sigma, c, cfin, retry)
        success = success * succ
        attempts_total += n_succ
        col = P[:, t]
        if linear:
            total_time += task_time
        else:
            ready = np.zeros((s, n))
            for p in preds[t]:
                ready = np.maximum(ready, finish[:, :, p])
            start = np.maximum(ready, available[:, rows, col])
            finish[:, :, t] = start + task_time
            available[:, rows, col] = finish[:, :, t]
            total_time = np.maximum(total_time, finish[:, :, t])
        transferred += (hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]) * n_succ
        transfer_energy += energy_in_pt[:, :, t] * n_succ
        transfer_energy += energy_out_pt[:, :, t] * n_succ
        transfer_energy += pen_energy_pt[:, :, t] * n_succ
        # Scatter-add: each placement row touches exactly one (row, device)
        # cell per task (unique index pairs, so the fancy ``+=`` is exact) --
        # the single per-device addition the scalar reference makes.
        busy_by_device[:, rows, col] += busy_pt[:, :, t] * n_succ
        flops_by_device[:, rows, col] += base.task_flops[t] * n_succ

    impossible = ~np.isfinite(total_time)
    safe_total = np.where(impossible, 0.0, total_time)
    outputs = _KernelOutputs(busy_by_device, flops_by_device, transferred, transfer_energy)
    finite = GridExecutionResult(base, P, safe_total, outputs)
    return FaultGridExecutionResult(
        tables=base,
        placements=P,
        total_time_s=np.where(impossible, np.inf, safe_total),
        _eager_outputs=outputs,
        active_j=finite.active_j,
        idle_j=finite.idle_j,
        _energy_and_cost=(
            np.where(impossible, np.inf, finite.energy_total_j),
            np.where(impossible, np.inf, finite.operating_cost),
        ),
        fault_tables=tables,
        success_probability=success,
        expected_attempts=attempts_total,
    )


# ---------------------------------------------------------------------------
# Sequential reference
# ---------------------------------------------------------------------------

def expected_record(
    tables: FaultGridCostTables, placement: Sequence[int] | np.ndarray
) -> ExpectedFaultRecord:
    """Sequential fault-aware reference: one placement, scalar arithmetic.

    The executor's schedule fold over row 0 of the tables, with the scalar
    attempt statistics as its attempts hook: python floats in the vectorized
    engine's operation order, so every field is bitwise identical to the
    corresponding :func:`execute_fault_placements` array element, and a
    placement crossing a missing link raises ``KeyError``.  ``tables`` must
    be one-row (plain) fault tables; ``placement`` is a row of device
    indices into ``tables.aliases`` or of the alias strings themselves.
    """
    base = tables.base
    base._require_one_row("expected_record")
    platform = base.platform
    alias_index = {alias: i for i, alias in enumerate(base.aliases)}
    row: list[int] = []
    for d in placement:
        if isinstance(d, str):
            if d not in alias_index:
                raise ValueError(
                    f"placement {tuple(placement)!r} for workload {base.workload!r} "
                    f"uses device {d!r}, not among the candidates {list(base.aliases)}"
                )
            row.append(alias_index[d])
        elif isinstance(d, (bool, np.bool_)) or not hasattr(d, "__index__"):
            # The batch engine's integer-dtype rule: floats are not truncated
            # and bools do not pose as device indices.
            raise TypeError(
                f"placement {tuple(placement)!r} entry {d!r} is not an integer device "
                "index or a device alias"
            )
        else:
            row.append(operator.index(d))
    if len(row) != base.n_tasks:
        raise ValueError(
            f"placement {row!r} has {len(row)} entries but workload "
            f"{base.workload!r} has {base.n_tasks} tasks"
        )
    # Index rows get the batch engine's range check: no negative wrap-around,
    # no bare IndexError.
    as_placement_matrix(np.array([row]), base.aliases, base.n_tasks, workload=base.workload)
    aliases_row = tuple(base.aliases[d] for d in row)
    node_survival = tables.node_survival[0].tolist()
    edge_survival = tables.edge_survival[0].tolist()
    first_edge_survival = tables.first_edge_survival[0].tolist()
    profile = tables.profiles[0]
    q = profile.straggler_probability
    sigma = profile.straggler_slowdown
    c = tables.timeout.timeout_s
    cfin = c if math.isfinite(c) else 0.0
    retry = tables.retry

    def attempts(pos: int, d: int, busy_time: float, transfer_time: float):
        if math.isnan(transfer_time):
            raise KeyError(
                f"no link defined along placement {''.join(aliases_row)!r} "
                f"(task {base.task_names[pos]!r} on {base.aliases[d]!r})"
            )
        preds = base.pred_positions[pos]
        if preds:
            edge_surv = 1.0
            for p in preds:
                edge_surv = edge_surv * edge_survival[row[p]][d]
        else:
            edge_surv = first_edge_survival[d]
        surv = node_survival[pos][d] * edge_surv
        return _scalar_attempt_statistics(busy_time + transfer_time, surv, q, sigma, c, cfin, retry)

    schedule = _schedule_fold(
        platform, base.pred_positions, aliases_row, row, *_row_terms(base), attempts
    )
    total_time = schedule.total_time_s
    impossible = not math.isfinite(total_time)
    safe_total = 0.0 if impossible else total_time
    energy, cost_total = finalize_execution(
        platform, schedule.busy_by_device, safe_total, schedule.transfer_energy_j
    )
    return ExpectedFaultRecord(
        placement=aliases_row,
        tasks=tuple(
            ExpectedTaskFaults(name, alias, *terms[4:])
            for name, alias, terms in zip(base.task_names, aliases_row, schedule.tasks)
        ),
        success_probability=schedule.success_probability,
        expected_attempts=schedule.expected_attempts,
        total_time_s=math.inf if impossible else safe_total,
        busy_time_by_device=schedule.busy_by_device,
        flops_by_device=schedule.flops_by_device,
        transferred_bytes=schedule.transferred_bytes,
        energy=energy,
        energy_total_j=math.inf if impossible else energy.total_j,
        operating_cost=math.inf if impossible else cost_total,
    )
