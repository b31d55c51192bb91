"""Vectorized expected-cost-under-faults engine plus its sequential reference.

Per task and attempt, three things can go wrong: the device crashes or a
transfer drops (per-attempt survival ``surv`` from the fault tables), the
attempt straggles (probability ``q``, duration inflated by ``sigma``), or it
overruns the per-attempt timeout ``c`` and is killed after exactly ``c``
seconds.  With bounded retries the attempt count is truncated-geometric and
every expectation below is closed-form -- no sampling.  Three regimes per
``(placement, task)`` element, selected by nested ``np.where`` in the
vectorized engine and by the *same* ``if/elif/else`` in the scalar reference:

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

The scalar helpers below perform the identical IEEE-754 operation sequence
(powers by repeated multiplication, the same guarded divisions), so
:func:`execute_fault_placements` is pinned bitwise by
:func:`expected_record` -- and with an empty profile, no timeout and any
retry policy, both collapse to the classic fault-free engine bit for bit.

For chains the expected total time is exact (expectation of a sum).  For
DAGs the engine substitutes each task's *expected* duration into the
critical-path recurrence -- a deterministic-equivalent approximation, since
``E[max] >= max(E)``; the documented exactness boundary.  The Monte-Carlo
sampler (:mod:`repro.faults.simulate`) is the statistical cross-check on
chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..devices.batch import (
    BatchExecutionResult,
    GraphCostTables,
    as_placement_matrix,
    placement_labels,
)
from ..devices.costmodel import finalize_execution
from ..devices.energy import EnergyBreakdown
from ..devices.grid import (
    GridExecutionResult,
    _finalize_grid,
    _finalize_row,
    _raise_graph_missing_link,
)
from .retry import RetryPolicy, expected_attempts, expected_backoff
from .tables import FaultChainCostTables, FaultGridCostTables

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

    ``dur``/``surv`` are arrays (placement axis, optionally with a leading
    scenario axis); ``q``/``sigma`` are floats or ``(s, 1)`` columns; ``c``
    is the timeout (``cfin`` its finite stand-in, used only in expressions
    whose lanes are never selected when ``c`` is infinite).  Returns
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

    fault_tables: FaultChainCostTables | None = None
    #: Per placement, probability that every task succeeds within its budget.
    success_probability: np.ndarray | None = None
    #: Per placement, sum over tasks of ``E[attempts | success]``.
    expected_attempts: np.ndarray | None = None

    def record(self, index: int) -> ExpectedFaultRecord:
        """Materialise the scalar expected record of one placement.

        Replays the sequential fault-aware accumulation, bitwise identical
        to the vectorized arrays (the fault analogue of the classic
        ``record`` contract).
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

    def batch(self, index: int) -> FaultBatchExecutionResult:
        """One scenario's fault batch view (bitwise equal to a direct run)."""
        return FaultBatchExecutionResult(
            tables=self.tables.table(index),
            placements=self.placements,
            total_time_s=self.total_time_s[index],
            busy_by_device=self.busy_by_device[index],
            flops_by_device=self.flops_by_device[index],
            transferred_bytes=self.transferred_bytes[index],
            transfer_energy_j=self.transfer_energy_j[index],
            active_j=self.active_j[index],
            idle_j=self.idle_j[index],
            energy_total_j=self.energy_total_j[index],
            operating_cost=self.operating_cost[index],
            fault_tables=self.fault_tables.table(index),
            success_probability=self.success_probability[index],
            expected_attempts=self.expected_attempts[index],
        )


# ---------------------------------------------------------------------------
# Vectorized engines
# ---------------------------------------------------------------------------

def execute_fault_placements(
    tables: FaultChainCostTables, placements: np.ndarray
) -> FaultBatchExecutionResult:
    """Expected cost of every placement under the fault profile, in one pass.

    The fault-aware analogue of
    :func:`~repro.devices.batch.execute_placements`: identical gathers and
    left folds, with each task's contribution replaced by its closed-form
    retry expectation.  Graph tables route through the deterministic-
    equivalent critical-path recurrence.
    """
    base = tables.base
    P = as_placement_matrix(placements, base.aliases, base.n_tasks, workload=base.workload)
    P = P.astype(np.intp, copy=False)
    if tables.is_graph:
        return _execute_graph_fault_placements(tables, P)
    n, k = P.shape
    m = base.n_devices
    task_idx = np.arange(k)

    busy_pt = base.busy[task_idx, P]
    hostio_time_pt = base.hostio_time[task_idx, P]
    hostio_bytes_pt = base.hostio_bytes[task_idx, P]
    energy_in_pt = base.energy_in[task_idx, P]
    energy_out_pt = base.energy_out[task_idx, P]
    node_surv_pt = tables.node_survival[task_idx, P]
    pen_time_pt = np.empty((n, k))
    pen_energy_pt = np.empty((n, k))
    pen_bytes_pt = np.empty((n, k))
    edge_surv_pt = np.empty((n, k))
    pen_time_pt[:, 0] = base.first_penalty_time[P[:, 0]]
    pen_energy_pt[:, 0] = base.first_penalty_energy[P[:, 0]]
    pen_bytes_pt[:, 0] = base.first_penalty_bytes[P[:, 0]]
    edge_surv_pt[:, 0] = tables.first_edge_survival[P[:, 0]]
    if k > 1:
        src, dst = P[:, :-1], P[:, 1:]
        pen_time_pt[:, 1:] = base.penalty_time[src, dst]
        pen_energy_pt[:, 1:] = base.penalty_energy[src, dst]
        pen_bytes_pt[:, 1:] = base.penalty_bytes[src, dst]
        edge_surv_pt[:, 1:] = tables.edge_survival[src, dst]
    transfer_pt = hostio_time_pt + pen_time_pt

    if base.missing_links and np.isnan(transfer_pt).any():
        # Same rejection as the classic engine: a placement that traverses a
        # device pair without a link cannot run, faults or no faults.
        i, t = (int(v) for v in np.argwhere(np.isnan(transfer_pt))[0])
        current = base.aliases[P[i, t]]
        if np.isnan(hostio_time_pt[i, t]):
            a, b = base.platform.host, current
        else:
            a = base.platform.host if t == 0 else base.aliases[P[i, t - 1]]
            b = current
        raise KeyError(
            f"no link defined between {a!r} and {b!r} "
            f"(required by placement {placement_labels(P[i : i + 1], base.aliases)[0]!r})"
        )

    q = tables.profile.straggler_probability
    sigma = tables.profile.straggler_slowdown
    c = tables.timeout.timeout_s
    cfin = c if math.isfinite(c) else 0.0
    retry = tables.retry

    success = np.ones(n)
    attempts_total = np.zeros(n)
    total_time = np.zeros(n)
    transferred = np.zeros(n)
    transfer_energy = np.zeros(n)
    busy_by_device = np.zeros((n, m))
    flops_by_device = np.zeros((n, m))
    for t in range(k):
        dur = busy_pt[:, t] + transfer_pt[:, t]
        surv = node_surv_pt[:, t] * edge_surv_pt[:, t]
        succ, n_succ, task_time = _attempt_statistics(dur, surv, q, sigma, c, cfin, retry)
        success = success * succ
        attempts_total += n_succ
        total_time += task_time
        transferred += (hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]) * n_succ
        transfer_energy += energy_in_pt[:, t] * n_succ
        transfer_energy += energy_out_pt[:, t] * n_succ
        transfer_energy += pen_energy_pt[:, t] * n_succ
        col = P[:, t]
        for d in range(m):
            mask = col == d
            busy_by_device[:, d] += (busy_pt[:, t] * n_succ) * mask
            flops_by_device[:, d] += (base.task_flops[t] * n_succ) * mask

    impossible = ~np.isfinite(total_time)
    safe_total = np.where(impossible, 0.0, total_time)
    result = _finalize_row(
        base, P, safe_total, transferred, transfer_energy, busy_by_device, flops_by_device
    )
    return FaultBatchExecutionResult(
        tables=base,
        placements=P,
        total_time_s=np.where(impossible, np.inf, safe_total),
        busy_by_device=busy_by_device,
        flops_by_device=flops_by_device,
        transferred_bytes=transferred,
        transfer_energy_j=transfer_energy,
        active_j=result.active_j,
        idle_j=result.idle_j,
        energy_total_j=np.where(impossible, np.inf, result.energy_total_j),
        operating_cost=np.where(impossible, np.inf, result.operating_cost),
        fault_tables=tables,
        success_probability=success,
        expected_attempts=attempts_total,
    )


def _execute_graph_fault_placements(
    tables: FaultChainCostTables, P: np.ndarray
) -> FaultBatchExecutionResult:
    """DAG expected-cost engine: expected durations in the critical-path fold."""
    base = tables.base
    n, k = P.shape
    m = base.n_devices
    task_idx = np.arange(k)
    preds = base.pred_positions

    busy_pt = base.busy[task_idx, P]
    hostio_time_pt = base.hostio_time[task_idx, P]
    hostio_bytes_pt = base.hostio_bytes[task_idx, P]
    energy_in_pt = base.energy_in[task_idx, P]
    energy_out_pt = base.energy_out[task_idx, P]
    node_surv_pt = tables.node_survival[task_idx, P]
    pen_time_pt = np.zeros((n, k))
    pen_energy_pt = np.zeros((n, k))
    pen_bytes_pt = np.zeros((n, k))
    edge_surv_pt = np.ones((n, k))
    for t in range(k):
        dst = P[:, t]
        if preds[t]:
            # Fan-in join: every incoming penalty hop must survive; the
            # survival factors fold left in the same canonical edge order as
            # the penalty costs.
            for p in preds[t]:
                pen_time_pt[:, t] += base.penalty_time[P[:, p], dst]
                pen_energy_pt[:, t] += base.penalty_energy[P[:, p], dst]
                pen_bytes_pt[:, t] += base.penalty_bytes[P[:, p], dst]
                edge_surv_pt[:, t] = edge_surv_pt[:, t] * tables.edge_survival[P[:, p], dst]
        else:
            pen_time_pt[:, t] = base.first_penalty_time[dst]
            pen_energy_pt[:, t] = base.first_penalty_energy[dst]
            pen_bytes_pt[:, t] = base.first_penalty_bytes[dst]
            edge_surv_pt[:, t] = tables.first_edge_survival[dst]
    transfer_pt = hostio_time_pt + pen_time_pt

    if base.missing_links and np.isnan(transfer_pt).any():
        i, t = (int(v) for v in np.argwhere(np.isnan(transfer_pt))[0])
        _raise_graph_missing_link(
            base.aliases,
            base.platform.host,
            preds[t],
            P,
            i,
            t,
            bool(np.isnan(hostio_time_pt[i, t])),
            lambda p: bool(np.isnan(base.penalty_time[P[i, p], P[i, t]])),
        )

    q = tables.profile.straggler_probability
    sigma = tables.profile.straggler_slowdown
    c = tables.timeout.timeout_s
    cfin = c if math.isfinite(c) else 0.0
    retry = tables.retry

    success = np.ones(n)
    attempts_total = np.zeros(n)
    total_time = np.zeros(n)
    finish = np.zeros((n, k))
    available = np.zeros((n, m))
    rows = np.arange(n)
    transferred = np.zeros(n)
    transfer_energy = np.zeros(n)
    busy_by_device = np.zeros((n, m))
    flops_by_device = np.zeros((n, m))
    for t in range(k):
        dur = busy_pt[:, t] + transfer_pt[:, t]
        surv = node_surv_pt[:, t] * edge_surv_pt[:, t]
        succ, n_succ, task_time = _attempt_statistics(dur, surv, q, sigma, c, cfin, retry)
        success = success * succ
        attempts_total += n_succ
        ready = np.zeros(n)
        for p in preds[t]:
            ready = np.maximum(ready, finish[:, p])
        start = np.maximum(ready, available[rows, P[:, t]])
        finish[:, t] = start + task_time
        available[rows, P[:, t]] = finish[:, t]
        total_time = np.maximum(total_time, finish[:, t])
        transferred += (hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]) * n_succ
        transfer_energy += energy_in_pt[:, t] * n_succ
        transfer_energy += energy_out_pt[:, t] * n_succ
        transfer_energy += pen_energy_pt[:, t] * n_succ
        col = P[:, t]
        for d in range(m):
            mask = col == d
            busy_by_device[:, d] += (busy_pt[:, t] * n_succ) * mask
            flops_by_device[:, d] += (base.task_flops[t] * n_succ) * mask

    impossible = ~np.isfinite(total_time)
    safe_total = np.where(impossible, 0.0, total_time)
    result = _finalize_row(
        base, P, safe_total, transferred, transfer_energy, busy_by_device, flops_by_device
    )
    return FaultBatchExecutionResult(
        tables=base,
        placements=P,
        total_time_s=np.where(impossible, np.inf, safe_total),
        busy_by_device=busy_by_device,
        flops_by_device=flops_by_device,
        transferred_bytes=transferred,
        transfer_energy_j=transfer_energy,
        active_j=result.active_j,
        idle_j=result.idle_j,
        energy_total_j=np.where(impossible, np.inf, result.energy_total_j),
        operating_cost=np.where(impossible, np.inf, result.operating_cost),
        fault_tables=tables,
        success_probability=success,
        expected_attempts=attempts_total,
    )


def execute_fault_placements_grid(
    tables: FaultGridCostTables, placements: np.ndarray
) -> FaultGridExecutionResult:
    """Expected cost of every placement under every fault regime, in one pass.

    The grid analogue of :func:`execute_fault_placements`: a leading scenario
    axis on every fold, per-scenario straggler parameters broadcast as
    columns, so each scenario slice is bitwise identical to the chain fault
    engine on ``tables.table(i)``.  Graph grids route through the
    deterministic-equivalent DAG recurrence.
    """
    base = tables.base
    P = as_placement_matrix(placements, base.aliases, base.n_tasks, workload=base.workload)
    P = P.astype(np.intp, copy=False)
    if tables.is_graph:
        return _execute_graph_fault_placements_grid(tables, P)
    n, k = P.shape
    s, m = base.n_scenarios, base.n_devices
    task_idx = np.arange(k)

    busy_pt = base.busy[:, task_idx, P]  # (s, n, k)
    hostio_time_pt = base.hostio_time[:, task_idx, P]
    hostio_bytes_pt = base.hostio_bytes[task_idx, P]  # (n, k)
    energy_in_pt = base.energy_in[:, task_idx, P]
    energy_out_pt = base.energy_out[:, task_idx, P]
    node_surv_pt = tables.node_survival[:, task_idx, P]  # (s, n, k)
    pen_time_pt = np.empty((s, n, k))
    pen_energy_pt = np.empty((s, n, k))
    pen_bytes_pt = np.empty((n, k))
    edge_surv_pt = np.empty((s, n, k))
    pen_time_pt[:, :, 0] = base.first_penalty_time[:, P[:, 0]]
    pen_energy_pt[:, :, 0] = base.first_penalty_energy[:, P[:, 0]]
    pen_bytes_pt[:, 0] = base.first_penalty_bytes[P[:, 0]]
    edge_surv_pt[:, :, 0] = tables.first_edge_survival[:, P[:, 0]]
    if k > 1:
        src, dst = P[:, :-1], P[:, 1:]
        pen_time_pt[:, :, 1:] = base.penalty_time[:, src, dst]
        pen_energy_pt[:, :, 1:] = base.penalty_energy[:, src, dst]
        pen_bytes_pt[:, 1:] = base.penalty_bytes[src, dst]
        edge_surv_pt[:, :, 1:] = tables.edge_survival[:, src, dst]
    transfer_pt = hostio_time_pt + pen_time_pt

    if base.missing_links and np.isnan(transfer_pt).any():
        _, i, t = (int(v) for v in np.argwhere(np.isnan(transfer_pt))[0])
        current = base.aliases[P[i, t]]
        if np.isnan(hostio_time_pt[:, i, t]).any():
            a, b = base.host, current
        else:
            a = base.host if t == 0 else base.aliases[P[i, t - 1]]
            b = current
        raise KeyError(
            f"no link defined between {a!r} and {b!r} "
            f"(required by placement {placement_labels(P[i : i + 1], base.aliases)[0]!r})"
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
    for t in range(k):
        dur = busy_pt[:, :, t] + transfer_pt[:, :, t]
        surv = node_surv_pt[:, :, t] * edge_surv_pt[:, :, t]
        succ, n_succ, task_time = _attempt_statistics(dur, surv, q, sigma, c, cfin, retry)
        success = success * succ
        attempts_total += n_succ
        total_time += task_time
        transferred += (hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]) * n_succ
        transfer_energy += energy_in_pt[:, :, t] * n_succ
        transfer_energy += energy_out_pt[:, :, t] * n_succ
        transfer_energy += pen_energy_pt[:, :, t] * n_succ
        col = P[:, t]
        for d in range(m):
            mask = col == d
            busy_by_device[:, :, d] += (busy_pt[:, :, t] * n_succ) * mask
            flops_by_device[:, :, d] += (base.task_flops[t] * n_succ) * mask

    impossible = ~np.isfinite(total_time)
    safe_total = np.where(impossible, 0.0, total_time)
    result = _finalize_grid(
        base, P, safe_total, transferred, transfer_energy, busy_by_device, flops_by_device
    )
    return FaultGridExecutionResult(
        tables=base,
        placements=P,
        total_time_s=np.where(impossible, np.inf, safe_total),
        busy_by_device=busy_by_device,
        flops_by_device=flops_by_device,
        transferred_bytes=transferred,
        transfer_energy_j=transfer_energy,
        active_j=result.active_j,
        idle_j=result.idle_j,
        energy_total_j=np.where(impossible, np.inf, result.energy_total_j),
        operating_cost=np.where(impossible, np.inf, result.operating_cost),
        fault_tables=tables,
        success_probability=success,
        expected_attempts=attempts_total,
    )


def _execute_graph_fault_placements_grid(
    tables: FaultGridCostTables, P: np.ndarray
) -> FaultGridExecutionResult:
    """Grid DAG expected-cost engine (scenario axis over the critical path)."""
    base = tables.base
    n, k = P.shape
    s, m = base.n_scenarios, base.n_devices
    task_idx = np.arange(k)
    preds = base.pred_positions

    busy_pt = base.busy[:, task_idx, P]
    hostio_time_pt = base.hostio_time[:, task_idx, P]
    hostio_bytes_pt = base.hostio_bytes[task_idx, P]
    energy_in_pt = base.energy_in[:, task_idx, P]
    energy_out_pt = base.energy_out[:, task_idx, P]
    node_surv_pt = tables.node_survival[:, task_idx, P]
    pen_time_pt = np.zeros((s, n, k))
    pen_energy_pt = np.zeros((s, n, k))
    pen_bytes_pt = np.zeros((n, k))
    edge_surv_pt = np.ones((s, n, k))
    for t in range(k):
        dst = P[:, t]
        if preds[t]:
            for p in preds[t]:
                pen_time_pt[:, :, t] += base.penalty_time[:, P[:, p], dst]
                pen_energy_pt[:, :, t] += base.penalty_energy[:, P[:, p], dst]
                pen_bytes_pt[:, t] += base.penalty_bytes[P[:, p], dst]
                edge_surv_pt[:, :, t] = (
                    edge_surv_pt[:, :, t] * tables.edge_survival[:, P[:, p], dst]
                )
        else:
            pen_time_pt[:, :, t] = base.first_penalty_time[:, dst]
            pen_energy_pt[:, :, t] = base.first_penalty_energy[:, dst]
            pen_bytes_pt[:, t] = base.first_penalty_bytes[dst]
            edge_surv_pt[:, :, t] = tables.first_edge_survival[:, dst]
    transfer_pt = hostio_time_pt + pen_time_pt

    if base.missing_links and np.isnan(transfer_pt).any():
        _, i, t = (int(v) for v in np.argwhere(np.isnan(transfer_pt))[0])
        _raise_graph_missing_link(
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
    finish = np.zeros((s, n, k))
    available = np.zeros((s, n, m))
    rows = np.arange(n)
    transferred = np.zeros((s, n))
    transfer_energy = np.zeros((s, n))
    busy_by_device = np.zeros((s, n, m))
    flops_by_device = np.zeros((s, n, m))
    for t in range(k):
        dur = busy_pt[:, :, t] + transfer_pt[:, :, t]
        surv = node_surv_pt[:, :, t] * edge_surv_pt[:, :, t]
        succ, n_succ, task_time = _attempt_statistics(dur, surv, q, sigma, c, cfin, retry)
        success = success * succ
        attempts_total += n_succ
        ready = np.zeros((s, n))
        for p in preds[t]:
            ready = np.maximum(ready, finish[:, :, p])
        start = np.maximum(ready, available[:, rows, P[:, t]])
        finish[:, :, t] = start + task_time
        available[:, rows, P[:, t]] = finish[:, :, t]
        total_time = np.maximum(total_time, finish[:, :, t])
        transferred += (hostio_bytes_pt[:, t] + pen_bytes_pt[:, t]) * n_succ
        transfer_energy += energy_in_pt[:, :, t] * n_succ
        transfer_energy += energy_out_pt[:, :, t] * n_succ
        transfer_energy += pen_energy_pt[:, :, t] * n_succ
        col = P[:, t]
        for d in range(m):
            mask = col == d
            busy_by_device[:, :, d] += (busy_pt[:, :, t] * n_succ) * mask
            flops_by_device[:, :, d] += (base.task_flops[t] * n_succ) * mask

    impossible = ~np.isfinite(total_time)
    safe_total = np.where(impossible, 0.0, total_time)
    result = _finalize_grid(
        base, P, safe_total, transferred, transfer_energy, busy_by_device, flops_by_device
    )
    return FaultGridExecutionResult(
        tables=base,
        placements=P,
        total_time_s=np.where(impossible, np.inf, safe_total),
        busy_by_device=busy_by_device,
        flops_by_device=flops_by_device,
        transferred_bytes=transferred,
        transfer_energy_j=transfer_energy,
        active_j=result.active_j,
        idle_j=result.idle_j,
        energy_total_j=np.where(impossible, np.inf, result.energy_total_j),
        operating_cost=np.where(impossible, np.inf, result.operating_cost),
        fault_tables=tables,
        success_probability=success,
        expected_attempts=attempts_total,
    )


# ---------------------------------------------------------------------------
# Sequential reference
# ---------------------------------------------------------------------------

def expected_record(
    tables: FaultChainCostTables, placement: Sequence[int] | np.ndarray
) -> ExpectedFaultRecord:
    """Sequential fault-aware reference: one placement, scalar arithmetic.

    Replays the expected-cost accumulation with python floats in the same
    operation order as the vectorized engine, so every field is bitwise
    identical to the corresponding :func:`execute_fault_placements` array
    element.  ``placement`` is a row of device indices into
    ``tables.aliases`` or of the alias strings themselves.
    """
    base = tables.base
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
        else:
            row.append(int(d))
    if len(row) != base.n_tasks:
        raise ValueError(
            f"placement {row!r} has {len(row)} entries but workload "
            f"{base.workload!r} has {base.n_tasks} tasks"
        )
    aliases_row = tuple(base.aliases[d] for d in row)
    is_graph = isinstance(base, GraphCostTables)

    q = tables.profile.straggler_probability
    sigma = tables.profile.straggler_slowdown
    c = tables.timeout.timeout_s
    cfin = c if math.isfinite(c) else 0.0
    retry = tables.retry

    task_records: list[ExpectedTaskFaults] = []
    busy: dict[str, float] = {alias: 0.0 for alias in platform.devices}
    flops: dict[str, float] = {alias: 0.0 for alias in platform.devices}
    success = 1.0
    attempts_total = 0.0
    transferred = 0.0
    transfer_energy = 0.0
    total_time = 0.0
    finish: list[float] = []
    available: dict[str, float] = {alias: 0.0 for alias in platform.devices}
    for pos, (task_name, d) in enumerate(zip(base.task_names, row)):
        alias = base.aliases[d]
        if is_graph:
            preds = base.pred_positions[pos]
            if preds:
                pen_time = 0.0
                pen_energy = 0.0
                pen_bytes = 0.0
                edge_surv = 1.0
                for p in preds:
                    pen_time += float(base.penalty_time[row[p], d])
                    pen_energy += float(base.penalty_energy[row[p], d])
                    pen_bytes += float(base.penalty_bytes[row[p], d])
                    edge_surv = edge_surv * float(tables.edge_survival[row[p], d])
            else:
                pen_time = float(base.first_penalty_time[d])
                pen_energy = float(base.first_penalty_energy[d])
                pen_bytes = float(base.first_penalty_bytes[d])
                edge_surv = float(tables.first_edge_survival[d])
        else:
            if pos == 0:
                pen_time = float(base.first_penalty_time[d])
                pen_energy = float(base.first_penalty_energy[d])
                pen_bytes = float(base.first_penalty_bytes[d])
                edge_surv = float(tables.first_edge_survival[d])
            else:
                pen_time = float(base.penalty_time[row[pos - 1], d])
                pen_energy = float(base.penalty_energy[row[pos - 1], d])
                pen_bytes = float(base.penalty_bytes[row[pos - 1], d])
                edge_surv = float(tables.edge_survival[row[pos - 1], d])
        busy_time = float(base.busy[pos, d])
        transfer_time = float(base.hostio_time[pos, d]) + pen_time
        if math.isnan(transfer_time):
            raise KeyError(
                f"no link defined along placement {''.join(aliases_row)!r} "
                f"(task {task_name!r} on {alias!r})"
            )
        dur = busy_time + transfer_time
        surv = float(tables.node_survival[pos, d]) * edge_surv
        succ, n_succ, task_time = _scalar_attempt_statistics(dur, surv, q, sigma, c, cfin, retry)
        success = success * succ
        attempts_total += n_succ
        if is_graph:
            ready = 0.0
            for p in preds:
                ready = max(ready, finish[p])
            start = max(ready, available[alias])
            end = start + task_time
            finish.append(end)
            available[alias] = end
            total_time = max(total_time, end)
        else:
            total_time += task_time
        transferred += (float(base.hostio_bytes[pos, d]) + pen_bytes) * n_succ
        transfer_energy += float(base.energy_in[pos, d]) * n_succ
        transfer_energy += float(base.energy_out[pos, d]) * n_succ
        transfer_energy += pen_energy * n_succ
        busy[alias] += busy_time * n_succ
        flops[alias] += float(base.task_flops[pos]) * n_succ
        task_records.append(
            ExpectedTaskFaults(
                task_name=task_name,
                device=alias,
                success_probability=succ,
                expected_attempts=n_succ,
                expected_time_s=task_time,
            )
        )

    impossible = not math.isfinite(total_time)
    safe_total = 0.0 if impossible else total_time
    energy, cost_total = finalize_execution(platform, busy, safe_total, transfer_energy)
    return ExpectedFaultRecord(
        placement=aliases_row,
        tasks=tuple(task_records),
        success_probability=success,
        expected_attempts=attempts_total,
        total_time_s=math.inf if impossible else safe_total,
        busy_time_by_device=busy,
        flops_by_device=flops,
        transferred_bytes=transferred,
        energy=energy,
        energy_total_j=math.inf if impossible else energy.total_j,
        operating_cost=math.inf if impossible else cost_total,
    )
