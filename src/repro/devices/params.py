"""Array-space platform parameters: the one source the grid formula core reads.

Every grid build -- plain, platform sequence, scenario grid or delta rebuild
-- fills a :class:`PlatformParams` bundle and hands it to the same column
gather and formula core (:mod:`repro.devices.grid`); builds differ only in
how the arrays are filled:

* :meth:`PlatformParams.gather` broadcasts one base platform's floats over a
  scenario axis, and condition axes then transform the arrays in place
  through their vectorized ``scale_arrays`` hook (see
  :class:`~repro.scenarios.conditions.ConditionAxis`) -- no per-scenario
  ``Platform`` objects are derived;
* :meth:`PlatformParams.stack` reads pre-derived platforms row by row (plain
  builds, platform sequences, and scenarios pinning an axis without the
  hook, derived through ``apply_conditions``).

Elementwise NumPy float64 arithmetic rounds exactly like scalar Python float
arithmetic (both are IEEE-754 double operations), so a parameter array
transformed here is bitwise identical to stacking the same parameter from
the scalar-derived platforms -- the invariant the differential tests pin.
Both constructors store float64 arrays, so integer-valued specs such as
``peak_gflops=100`` scale like their float spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .platform import Platform

__all__ = ["PlatformParams"]

#: Every float field of a DeviceSpec, in declaration order.
DEVICE_FIELDS = (
    "peak_gflops",
    "half_saturation_flops",
    "memory_bandwidth_gbs",
    "kernel_launch_overhead_s",
    "task_startup_overhead_s",
    "power_active_w",
    "power_idle_w",
    "cost_per_hour",
)

#: Every float field of a LinkSpec.
LINK_FIELDS = ("bandwidth_gbs", "latency_s", "energy_per_byte_j")


@dataclass
class PlatformParams:
    """Platform float parameters over a scenario axis, one row per scenario.

    ``device[field]`` is a writable ``(n_scenarios, n_devices)`` array over
    the platform's device insertion order; ``link[field]`` a writable
    ``(n_scenarios, n_links)`` array over the sorted canonical link pairs.
    Condition axes mutate these arrays in place (row ``i`` belongs to
    scenario ``i`` of whatever subset is being built).
    """

    base: Platform
    n_scenarios: int
    device_order: tuple[str, ...]
    link_pairs: tuple[tuple[str, str], ...]
    device: dict[str, np.ndarray] = field(default_factory=dict)
    link: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def gather(cls, platform: Platform, n_scenarios: int) -> "PlatformParams":
        """Broadcast every float parameter of ``platform`` over ``n_scenarios`` rows."""
        row = cls.stack((platform,))

        def tile(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            return {name: np.tile(array, (n_scenarios, 1)) for name, array in arrays.items()}

        return replace(row, n_scenarios=n_scenarios, device=tile(row.device), link=tile(row.link))

    @classmethod
    def stack(cls, platforms: Sequence[Platform]) -> "PlatformParams":
        """Stack the float parameters of pre-derived platforms, one row each.

        Every platform must share the first one's *shape*: the same device
        aliases (in the same order), the same host and the same link topology
        -- conditions re-parameterize a platform, they do not rewire it.
        """
        platforms = tuple(platforms)
        if not platforms:
            raise ValueError("at least one platform is required")
        base = platforms[0]
        device_order = tuple(base.devices)
        link_pairs = tuple(sorted(base.links))
        for platform in platforms[1:]:
            if tuple(platform.devices) != device_order:
                raise ValueError(
                    f"platform {platform.name!r} has devices {list(platform.devices)}, "
                    f"expected {list(device_order)} -- scenario platforms must share "
                    f"the base platform's device set"
                )
            if platform.host != base.host:
                raise ValueError(
                    f"platform {platform.name!r} has host {platform.host!r}, expected {base.host!r}"
                )
            if tuple(sorted(platform.links)) != link_pairs:
                raise ValueError(
                    f"platform {platform.name!r} has links {sorted(platform.links)}, "
                    f"expected {list(link_pairs)} -- conditions must not rewire the topology"
                )
        s = len(platforms)
        device = {
            name: np.array(
                [[getattr(p.devices[alias], name) for alias in device_order] for p in platforms],
                dtype=float,
            ).reshape(s, len(device_order))
            for name in DEVICE_FIELDS
        }
        link = {
            name: np.array(
                [[getattr(p.links[pair], name) for pair in link_pairs] for p in platforms],
                dtype=float,
            ).reshape(s, len(link_pairs))
            for name in LINK_FIELDS
        }
        return cls(
            base=base,
            n_scenarios=s,
            device_order=device_order,
            link_pairs=link_pairs,
            device=device,
            link=link,
        )

    # -- column selection (same validation errors as the scalar axis path) --
    def device_columns(self, devices: "tuple[str, ...] | None") -> np.ndarray:
        """Array columns of some device aliases (``None`` = every device)."""
        if devices is None:
            return np.arange(len(self.device_order), dtype=np.intp)
        self.base.validate_aliases(devices)
        index = {alias: i for i, alias in enumerate(self.device_order)}
        return np.array([index[alias] for alias in devices], dtype=np.intp)

    def link_columns(self, links: "tuple[tuple[str, str], ...] | None") -> np.ndarray:
        """Array columns of some link pairs (``None`` = every link)."""
        if links is None:
            return np.arange(len(self.link_pairs), dtype=np.intp)
        for a, b in links:
            self.base.link(a, b)  # raises with the usual message when absent
        index = {pair: i for i, pair in enumerate(self.link_pairs)}
        return np.array(
            [index[(a, b) if a <= b else (b, a)] for a, b in links], dtype=np.intp
        )
