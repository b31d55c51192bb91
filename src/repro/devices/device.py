"""Analytic device model.

A :class:`DeviceSpec` captures the handful of parameters that determine how
long a dense-linear-algebra task takes on a device and how much energy it
draws while doing so:

* ``peak_gflops`` -- asymptotic double-precision throughput;
* ``half_saturation_flops`` -- kernel size (in FLOPs) at which the device
  reaches half of its peak.  Accelerators need large kernels to saturate
  (occupancy); a small solve on a GPU runs far below peak, which is exactly
  why offloading the small MathTasks of Table I does not pay off;
* ``kernel_launch_overhead_s`` -- fixed cost per kernel launch (dispatch,
  driver, framework overhead);
* ``task_startup_overhead_s`` -- one-time cost of steering a task to this
  device (context creation, allocator warm-up) paid once per task placed on a
  non-host device;
* ``memory_bandwidth_gbs`` -- device memory bandwidth, bounding memory-bound
  kernels through a simple roofline;
* ``power_active_w`` / ``power_idle_w`` -- power draw while busy / idle;
* ``cost_per_hour`` -- operating cost of the device (Section IV's
  "operating cost involved in executing the code on the accelerator").

The execution-time model for a task with cost profile ``c`` is::

    kernel_flops  = c.flops / c.kernel_calls
    compute_time  = c.kernel_calls * (kernel_flops + half_saturation) / peak
    memory_time   = c.kernel_calls * c.working_set_bytes / memory_bandwidth
    busy_time     = max(compute_time, memory_time) + c.kernel_calls * launch_overhead

which reduces to the familiar roofline for large kernels and to a
launch/occupancy-bound regime for small ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..tasks.task import TaskCost
from . import costmodel

__all__ = ["DeviceSpec"]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of one computing device."""

    name: str
    kind: str = "cpu"
    peak_gflops: float = 50.0
    half_saturation_flops: float = 1e6
    memory_bandwidth_gbs: float = 50.0
    kernel_launch_overhead_s: float = 2e-6
    task_startup_overhead_s: float = 0.0
    power_active_w: float = 50.0
    power_idle_w: float = 5.0
    cost_per_hour: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device name must be non-empty")
        positive = {
            "peak_gflops": self.peak_gflops,
            "memory_bandwidth_gbs": self.memory_bandwidth_gbs,
        }
        non_negative = {
            "half_saturation_flops": self.half_saturation_flops,
            "kernel_launch_overhead_s": self.kernel_launch_overhead_s,
            "task_startup_overhead_s": self.task_startup_overhead_s,
            "power_active_w": self.power_active_w,
            "power_idle_w": self.power_idle_w,
            "cost_per_hour": self.cost_per_hour,
        }
        # NaN compares False against every bound, so finiteness comes first.
        for field_name, value in {**positive, **non_negative}.items():
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value!r}")
        for field_name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{field_name} must be positive")
        for field_name, value in non_negative.items():
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative")

    # ------------------------------------------------------------------
    def effective_gflops(self, kernel_flops: float) -> float:
        """Throughput actually achieved on a kernel of the given size.

        Follows a Michaelis-Menten-style saturation curve: tiny kernels run at
        a small fraction of peak, kernels much larger than
        ``half_saturation_flops`` approach peak.
        """
        if kernel_flops <= 0:
            raise ValueError("kernel_flops must be positive")
        return self.peak_gflops * kernel_flops / (kernel_flops + self.half_saturation_flops)

    def compute_time(self, cost: TaskCost) -> float:
        """Pure execution (busy) time of a task on this device, excluding transfers.

        Thin facade over :func:`repro.devices.costmodel.busy_time`, the single
        source of the roofline-with-saturation formula (shared with the
        vectorized scenario-grid table build).
        """
        return float(
            costmodel.busy_time(
                cost.flops,
                cost.kernel_calls,
                cost.working_set_bytes,
                self.peak_gflops,
                self.half_saturation_flops,
                self.memory_bandwidth_gbs,
                self.kernel_launch_overhead_s,
            )
        )

    def active_energy(self, busy_seconds: float) -> float:
        """Energy (J) drawn while executing for ``busy_seconds``."""
        if busy_seconds < 0:
            raise ValueError("busy_seconds must be non-negative")
        return self.power_active_w * busy_seconds

    def idle_energy(self, idle_seconds: float) -> float:
        """Energy (J) drawn while idling for ``idle_seconds``."""
        if idle_seconds < 0:
            raise ValueError("idle_seconds must be non-negative")
        return self.power_idle_w * idle_seconds

    def operating_cost(self, busy_seconds: float) -> float:
        """Monetary operating cost of keeping the device busy for ``busy_seconds``."""
        if busy_seconds < 0:
            raise ValueError("busy_seconds must be non-negative")
        return self.cost_per_hour * busy_seconds / 3600.0
