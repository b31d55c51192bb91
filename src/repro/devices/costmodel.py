"""Single source of truth for the per-(task, device) execution-cost math.

Three layers of the repo used to carry their own copy of the same arithmetic:
``DeviceSpec.compute_time`` / ``LinkSpec.transfer_time`` held the scalar
formulas, ``SimulatedExecutor.execute`` aggregated them per task, and the
batch engine's cost tables re-derived the identical per-(task, device)
values.  This module owns the math once, in four tiers:

* **formula functions** (:func:`busy_time`, :func:`transfer_time`,
  :func:`transfer_energy`) -- NumPy-broadcasting implementations of the device
  roofline and link models.  Scalars in, Python floats out; arrays in, arrays
  out, elementwise **bitwise identical** to the scalar evaluation (every
  operation is the same IEEE-754 expression, applied elementwise).  This is
  what lets the grid table build -- the only table build -- vectorize across
  condition points without drifting a single ulp from the scalar per-task
  helpers below.
* **per-task helpers** (:func:`task_device_cost`, :func:`penalty_cost`) --
  the scalar per-(task, device) terms (and the reference the table build is
  pinned against): busy time plus startup overhead, host<->device
  input/output shipping, and the scalar-penalty hop crossing a device
  boundary.
* **schedule fold** (:func:`_schedule_fold`) -- the one scalar
  list-scheduling fold of a placed chain or DAG, behind
  ``SimulatedExecutor.execute``, ``BatchExecutionResult.record`` and
  ``repro.faults.engine.expected_record``.  For DAG workloads the accounting
  is **per edge**: a fan-in join pays one penalty hop per incoming edge
  (summed left in edge order), while a fan-out producer ships its results
  back to the host once -- successors read the already-uploaded penalty,
  they do not repeat the upload.
* **finalization** (:func:`finalize_execution`) -- the per-device
  active/idle-energy and operating-cost accounting of one fold.

Accumulation order is part of the contract: the fold adds these values left
in task order, and the helpers perform exactly the additions the historical
inline code performed (e.g. host I/O time is one ``in + out`` addition) so
every downstream result stays bitwise unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..tasks.task import TaskCost
    from .energy import EnergyBreakdown
    from .platform import Platform

__all__ = [
    "PENALTY_MESSAGE_BYTES",
    "busy_time",
    "transfer_time",
    "transfer_energy",
    "TaskDeviceCost",
    "PenaltyCost",
    "task_device_cost",
    "penalty_cost",
    "finalize_execution",
]

#: Size of the scalar penalty message exchanged between consecutive tasks.
PENALTY_MESSAGE_BYTES = 8.0


# ----------------------------------------------------------------------------
# Formula tier: broadcasting device / link models
# ----------------------------------------------------------------------------

def busy_time(
    flops,
    kernel_calls,
    working_set_bytes,
    peak_gflops,
    half_saturation_flops,
    memory_bandwidth_gbs,
    kernel_launch_overhead_s,
):
    """Busy (compute) time of a task on a device, excluding transfers.

    The roofline-with-saturation model of ``DeviceSpec``::

        kernel_flops = flops / kernel_calls
        compute      = kernel_calls * (kernel_flops + half_saturation) / (peak * 1e9)
        memory       = kernel_calls * working_set / (bandwidth * 1e9)
        busy         = max(compute, memory) + kernel_calls * launch_overhead

    All parameters broadcast: scalar task costs against per-(scenario, device)
    parameter arrays evaluate the whole grid in one expression, elementwise
    bitwise identical to the scalar path.
    """
    kernel_flops = flops / kernel_calls
    per_kernel_compute = (kernel_flops + half_saturation_flops) / (peak_gflops * 1e9)
    compute = kernel_calls * per_kernel_compute
    memory = kernel_calls * working_set_bytes / (memory_bandwidth_gbs * 1e9)
    return np.maximum(compute, memory) + kernel_calls * kernel_launch_overhead_s


def transfer_time(n_bytes, bandwidth_gbs, latency_s):
    """Seconds to move ``n_bytes`` across a link (one message; 0 bytes is free).

    Scalars in, float out (the historical ``LinkSpec.transfer_time``
    behaviour, including the ``n_bytes == 0`` short-circuit and the rejection
    of negative byte counts); any array argument broadcasts to an array with
    the same elementwise semantics.
    """
    # Python floats skip np.ndim, which costs about a microsecond per call.
    if all(type(v) is float or np.ndim(v) == 0 for v in (n_bytes, bandwidth_gbs, latency_s)):
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        if n_bytes == 0:
            return 0.0
        return latency_s + n_bytes / (bandwidth_gbs * 1e9)
    counts = np.asarray(n_bytes, dtype=float)
    if np.any(counts < 0):
        raise ValueError("n_bytes must be non-negative")
    return np.where(counts == 0, 0.0, latency_s + counts / (np.asarray(bandwidth_gbs) * 1e9))


def transfer_energy(n_bytes, energy_per_byte_j):
    """Energy (J) consumed by moving ``n_bytes`` across a link (broadcasts)."""
    if all(type(v) is float or np.ndim(v) == 0 for v in (n_bytes, energy_per_byte_j)):
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        return energy_per_byte_j * n_bytes
    counts = np.asarray(n_bytes, dtype=float)
    if np.any(counts < 0):
        raise ValueError("n_bytes must be non-negative")
    return np.asarray(energy_per_byte_j) * counts


# ----------------------------------------------------------------------------
# Per-task tier: the aggregation shared by executor and cost tables
# ----------------------------------------------------------------------------

class TaskDeviceCost(NamedTuple):
    """Cost of running one task on one device, before the penalty hop.

    ``busy_s`` includes the task-startup overhead for non-host devices;
    the host I/O fields are zero when the task runs on the host (inputs are
    already there).  ``energy_in_j`` / ``energy_out_j`` stay separate because
    the fold adds them with two additions, and collapsing them into one
    would move the result by an ulp.  A tuple, so the fold unpacks it.
    """

    busy_s: float
    hostio_time_s: float
    hostio_bytes: float
    energy_in_j: float
    energy_out_j: float


class PenaltyCost(NamedTuple):
    """Cost of the scalar-penalty message crossing one device hop."""

    time_s: float
    energy_j: float
    n_bytes: float


_NO_HOP = PenaltyCost(time_s=0.0, energy_j=0.0, n_bytes=0.0)


def task_device_cost(
    platform: "Platform",
    cost: "TaskCost",
    alias: str,
    on_missing_link: str = "raise",
) -> TaskDeviceCost:
    """Busy time and host I/O cost of one task on one device of a platform.

    ``on_missing_link="raise"`` propagates the platform's ``KeyError`` when the
    host<->device link does not exist (the sequential executor's behaviour);
    ``"nan"`` fills the link-dependent time/energy fields with NaN instead,
    which is how the cost tables tolerate partially linked platforms.
    """
    device = platform.device(alias)
    busy = device.compute_time(cost)
    host = platform.host
    if alias == host:
        return TaskDeviceCost(
            busy_s=busy, hostio_time_s=0.0, hostio_bytes=0.0, energy_in_j=0.0, energy_out_j=0.0
        )
    try:
        # One addition for the in+out time, exactly like the historical
        # inline expressions, so the value is bitwise stable.
        hostio_time = platform.transfer_time(host, alias, cost.input_bytes) + platform.transfer_time(
            alias, host, cost.output_bytes
        )
        energy_in = platform.transfer_energy(host, alias, cost.input_bytes)
        energy_out = platform.transfer_energy(alias, host, cost.output_bytes)
    except KeyError:
        if on_missing_link != "nan":
            raise
        hostio_time = energy_in = energy_out = float("nan")
    return TaskDeviceCost(
        busy_s=busy + device.task_startup_overhead_s,
        hostio_time_s=hostio_time,
        hostio_bytes=cost.transferred_bytes,
        energy_in_j=energy_in,
        energy_out_j=energy_out,
    )


def penalty_cost(
    platform: "Platform",
    src: str,
    dst: str,
    on_missing_link: str = "raise",
) -> PenaltyCost:
    """Cost of the scalar penalty travelling the direct ``src -> dst`` link.

    Zero when both tasks run on the same device.  Missing links raise (or
    yield NaN times/energies under ``on_missing_link="nan"``) exactly like
    :func:`task_device_cost`.
    """
    if src == dst:
        return _NO_HOP
    try:
        time_s = platform.transfer_time(src, dst, PENALTY_MESSAGE_BYTES)
        energy_j = platform.transfer_energy(src, dst, PENALTY_MESSAGE_BYTES)
    except KeyError:
        if on_missing_link != "nan":
            raise
        time_s = energy_j = float("nan")
    return PenaltyCost(time_s=time_s, energy_j=energy_j, n_bytes=PENALTY_MESSAGE_BYTES)


# ----------------------------------------------------------------------------
# Schedule tier: the scalar list-scheduling fold of one placement
# ----------------------------------------------------------------------------

class _Schedule(NamedTuple):
    """Accumulators of one schedule fold; ``tasks`` holds one ``(busy_s,
    transfer_s, bytes, flops, success, attempts, time_s)`` tuple per task."""

    tasks: list
    busy_by_device: dict
    flops_by_device: dict
    transferred_bytes: float
    transfer_energy_j: float
    total_time_s: float
    success_probability: float
    expected_attempts: float


def _schedule_fold(
    platform: "Platform",
    pred_positions: Sequence[tuple[int, ...]],
    placement: Sequence[str],
    row: Sequence,
    task_terms: Callable,
    hop_terms: Callable,
    attempts: Callable | None = None,
) -> _Schedule:
    """The scalar list-scheduling fold of one placed chain or DAG.

    ``placement`` names each task's device; ``row`` holds the device keys the
    callbacks read (aliases for the cost model, indices for tables):

    * ``task_terms(pos, d)`` -> ``(busy, hostio_time, hostio_bytes,
      energy_in, energy_out, flops)``;
    * ``hop_terms(src, d)`` -> ``(time, energy, bytes)`` of one penalty hop;
      ``src`` is ``None`` for a source task, fed from the host;
    * ``attempts(pos, d, busy, transfer)`` -> ``(success, E[attempts],
      task_time)`` under faults; without it every scale factor is an exact
      ``1.0`` and a task takes its busy plus transfer time.

    A task starts once its slowest predecessor finished and its device is
    free, and the total is the latest finish; on linear predecessors that is
    the chain's running sum, bit for bit.  Hop terms sum left in edge order;
    busy time, bytes, FLOPs and transfer energy are re-paid per attempt.
    """
    busy = dict.fromkeys(platform.devices, 0.0)
    flops = dict.fromkeys(platform.devices, 0.0)
    available = dict.fromkeys(platform.devices, 0.0)
    finish: list[float] = []
    tasks = []
    success = 1.0
    attempts_total = 0.0
    transferred = 0.0
    transfer_energy = 0.0
    total_time = 0.0
    for pos, d in enumerate(row):
        alias = placement[pos]
        busy_time, hostio_time, hostio_bytes, energy_in, energy_out, task_flops = task_terms(pos, d)
        preds = pred_positions[pos]
        if preds:
            pen_time = pen_energy = pen_bytes = 0.0
            for p in preds:
                hop_time, hop_energy, hop_bytes = hop_terms(row[p], d)
                pen_time += hop_time
                pen_energy += hop_energy
                pen_bytes += hop_bytes
        else:
            pen_time, pen_energy, pen_bytes = hop_terms(None, d)
        transfer_time = hostio_time + pen_time
        if attempts is None:
            succ, n, task_time = 1.0, 1.0, busy_time + transfer_time
        else:
            succ, n, task_time = attempts(pos, d, busy_time, transfer_time)
        ready = 0.0
        for p in preds:
            ready = max(ready, finish[p])
        end = max(ready, available[alias]) + task_time
        finish.append(end)
        available[alias] = end
        total_time = max(total_time, end)
        task_bytes = hostio_bytes + pen_bytes
        success = success * succ
        attempts_total += n
        transferred += task_bytes * n
        transfer_energy += energy_in * n
        transfer_energy += energy_out * n
        transfer_energy += pen_energy * n
        busy[alias] += busy_time * n
        flops[alias] += task_flops * n
        tasks.append((busy_time, transfer_time, task_bytes, task_flops, succ, n, task_time))
    return _Schedule(
        tasks, busy, flops, transferred, transfer_energy, total_time, success, attempts_total
    )


# ----------------------------------------------------------------------------
# Finalization tier: per-device energy and operating cost of one execution
# ----------------------------------------------------------------------------

def finalize_execution(
    platform: "Platform",
    busy_by_device: Mapping[str, float],
    total_time_s: float,
    transfer_energy_j: float,
) -> "tuple[EnergyBreakdown, float]":
    """Energy breakdown and operating cost of one finished execution.

    ``busy_by_device`` must cover every device of the platform (devices that
    ran nothing idle for the whole execution).  Folds the per-device terms in
    platform order, exactly like the historical inline accounting.
    """
    from .energy import EnergyBreakdown

    active = {
        alias: platform.device(alias).active_energy(busy_by_device[alias])
        for alias in busy_by_device
    }
    idle = {
        alias: platform.device(alias).idle_energy(max(total_time_s - busy_by_device[alias], 0.0))
        for alias in busy_by_device
    }
    energy = EnergyBreakdown(active_j=active, idle_j=idle, transfer_j=transfer_energy_j)
    operating_cost = sum(
        platform.device(alias).operating_cost(busy_by_device[alias]) for alias in busy_by_device
    )
    return energy, operating_cost
