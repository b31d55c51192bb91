"""Interconnect model between devices.

Offloading a task moves its inputs to the accelerator and its results back;
the :class:`LinkSpec` captures the bandwidth, latency and energy cost of that
movement.  Several canonical links (PCIe, USB, Wi-Fi, LTE, loopback) are
provided by :mod:`repro.devices.catalog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import costmodel

__all__ = ["LinkSpec"]


@dataclass(frozen=True)
class LinkSpec:
    """Point-to-point interconnect between two devices."""

    name: str
    bandwidth_gbs: float
    latency_s: float = 0.0
    energy_per_byte_j: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("link name must be non-empty")
        # NaN compares False against every bound, so finiteness comes first.
        for field_name in ("bandwidth_gbs", "latency_s", "energy_per_byte_j"):
            value = getattr(self, field_name)
            if not math.isfinite(value):
                raise ValueError(f"{field_name} must be finite, got {value!r}")
        if self.bandwidth_gbs <= 0:
            raise ValueError("bandwidth_gbs must be positive")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.energy_per_byte_j < 0:
            raise ValueError("energy_per_byte_j must be non-negative")

    def transfer_time(self, n_bytes: "float | np.ndarray") -> "float | np.ndarray":
        """Seconds needed to move ``n_bytes`` across the link (one message).

        Accepts a scalar (returning a float, exactly as before) or an ndarray
        of byte counts (returning the elementwise transfer times) -- the
        vectorized form the condition-stacked table build batches over.
        """
        return costmodel.transfer_time(n_bytes, self.bandwidth_gbs, self.latency_s)

    def transfer_energy(self, n_bytes: "float | np.ndarray") -> "float | np.ndarray":
        """Energy (J) consumed by moving ``n_bytes`` across the link (broadcasts)."""
        return costmodel.transfer_energy(n_bytes, self.energy_per_byte_j)
