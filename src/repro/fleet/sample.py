"""Sampling a concrete fleet: spec -> weighted ``ScenarioGrid``.

:func:`sample_fleet` draws ``n_users`` users from a :class:`FleetSpec` with a
seeded generator and writes them as one weighted
:class:`~repro.scenarios.ScenarioGrid` -- one row per user, named
``"<segment>/u<index>"``, carrying the user's sampled axis values as ordinary
scenario settings.  The draws go straight into the grid's columns; a user's
``Scenario`` object exists only if something asks for it.  The grid flows
through the existing vectorized grid
engine *unchanged*: fused array-space builds, row reuse through the
``TableCache`` row source, scenario sharding, and robust objectives all
apply to fleets for free.

Scenario weights are ``segment.weight / n_segment_users``: each segment's
probability mass is split evenly over its sampled users, so the fleet's
weighted objectives estimate the population-level quantity regardless of how
the user count is apportioned (weights are finite and positive by
construction -- the guarantee the weight-validation sweep of this PR pins).

:meth:`SampledFleet.resample_users` redraws a subset of users in place and
returns the ``{index: Scenario}`` replacement map that
:meth:`~repro.devices.simulator.SimulatedExecutor.update_grid_tables` /
``GridCostTables.updated_many`` consume -- through them a drifted fleet is a
delta rebuild, not a full build.  Planning the drifted grid directly (for
example ``search_grid`` on ``drifted.grid``) costs about the same: the
executor's table cache holds the previous fleet's tables as the row source of
their workload and platform, so the build gathers every unchanged user's row
from them and computes only the redrawn users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..cache import seed_updated_grid_fingerprint
from ..scenarios.conditions import Scenario
from ..scenarios.grid import ScenarioGrid, _AxisTable
from ..search.topk import _read_int
from .segments import FleetSpec, UserSegment

__all__ = ["SampledFleet", "sample_fleet"]


def _as_rng(seed: "int | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _sample_segment_users(
    segment: UserSegment,
    indices: Sequence[int],
    weight: float,
    rng: np.random.Generator,
) -> list[Scenario]:
    """One scenario per user of one segment, axes drawn column-wise.

    Each axis sampler draws all of the segment's users in one vectorized call
    (column-major), as :func:`sample_fleet` does, so redrawing the same index
    set with the same generator state reproduces the draws bit-for-bit.
    """
    columns = [sampler.sample(rng, len(indices)) for sampler in segment.axes]
    scenarios = []
    for row, index in enumerate(indices):
        settings = tuple(
            (sampler.axis, float(column[row]))
            for sampler, column in zip(segment.axes, columns)
        )
        scenarios.append(
            Scenario(name=f"{segment.name}/u{index}", settings=settings, weight=weight)
        )
    return scenarios


@dataclass(frozen=True)
class SampledFleet:
    """A sampled user population: the spec, the grid, and the user->segment map.

    ``grid`` is a plain :class:`~repro.scenarios.ScenarioGrid` (one weighted
    scenario per user) -- anything that consumes a grid consumes a fleet.
    ``segment_of_user[i]`` is the index into ``spec.segments`` of user ``i``.
    """

    spec: FleetSpec
    grid: ScenarioGrid
    segment_of_user: tuple[int, ...]
    seed: "int | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "segment_of_user", tuple(self.segment_of_user))
        if len(self.segment_of_user) != len(self.grid):
            raise ValueError(
                f"segment_of_user has {len(self.segment_of_user)} entries for "
                f"{len(self.grid)} users"
            )

    @property
    def n_users(self) -> int:
        return len(self.grid)

    def __len__(self) -> int:
        return len(self.grid)

    def users_of_segment(self, name: str) -> tuple[int, ...]:
        """Indices of the users sampled from one segment."""
        target = self.spec.names.index(name) if name in self.spec.names else None
        if target is None:
            raise KeyError(f"unknown segment {name!r}; available: {list(self.spec.names)}")
        return tuple(i for i, s in enumerate(self.segment_of_user) if s == target)

    def segment_grid(self, name: str) -> ScenarioGrid:
        """The sub-grid of one segment's users (weights carried over)."""
        indices = self.users_of_segment(name)
        if not indices:
            raise ValueError(f"segment {name!r} received no users in this sample")
        return self.grid._take(indices)

    def resample_users(
        self,
        indices: Sequence[int],
        seed: "int | np.random.Generator",
    ) -> "tuple[SampledFleet, dict[int, Scenario]]":
        """Redraw some users from their segments' distributions.

        Returns the drifted fleet plus the ``{index: Scenario}`` replacement
        map for :meth:`GridCostTables.updated_many` /
        :meth:`SimulatedExecutor.update_grid_tables` -- the delta-rebuild
        path: untouched users' condition rows are reused, only the redrawn
        ones are recomputed.  Planning ``drifted.grid`` through an executor
        that built the previous fleet reuses the same rows from its row
        source, and keying it hashes only the redrawn users: the drifted
        grid's fingerprint is seeded from this fleet's per-user digests.
        Weights and segment membership are preserved (drift moves a user's
        conditions, not its probability mass), and so are the users' names:
        the drifted grid copies this grid's columns, rewrites only the
        redrawn rows and shares its names and their index.
        """
        rng = _as_rng(seed)
        indices = list(
            dict.fromkeys(_read_int(value, f"indices[{k}]") for k, value in enumerate(indices))
        )
        for i in indices:
            if not 0 <= i < self.n_users:
                raise IndexError(f"user index {i} out of range [0, {self.n_users})")
        replacements: dict[int, Scenario] = {}
        # Group by segment so each segment's axis draws stay vectorized.
        by_segment: dict[int, list[int]] = {}
        for i in indices:
            by_segment.setdefault(self.segment_of_user[i], []).append(i)
        weights = self.grid.weights
        for segment_index, users in by_segment.items():
            segment = self.spec.segments[segment_index]
            weight = float(weights[users[0]])
            for user, scenario in zip(
                users, _sample_segment_users(segment, users, weight, rng)
            ):
                replacements[user] = scenario
        grid = self.grid._replaced(replacements) if replacements else self.grid
        # Key the drifted grid from the parent's per-user digests: only the
        # redrawn users are hashed, not the whole fleet.
        seed_updated_grid_fingerprint(self.grid, grid, sorted(replacements))
        drifted = SampledFleet(
            spec=self.spec,
            grid=grid,
            segment_of_user=self.segment_of_user,
            seed=None,
        )
        return drifted, replacements


def sample_fleet(
    spec: FleetSpec,
    n_users: int,
    seed: "int | np.random.Generator" = 0,
) -> SampledFleet:
    """Draw a concrete fleet of ``n_users`` weighted user scenarios.

    Users are apportioned to segments by largest remainder on the segment
    weights (:meth:`FleetSpec.apportion`), laid out segment-block by
    segment-block in spec order, and each user's axis values are drawn from
    its segment's samplers with the seeded generator -- the same
    ``(spec, n_users, seed)`` triple always reproduces the same grid.

    Each scenario's weight is ``segment.weight / n_segment_users``, so
    segment masses survive sampling exactly and fleet-weighted objectives
    (:class:`~repro.search.ExpectedValueObjective`,
    :class:`~repro.search.QuantileObjective`,
    :class:`~repro.search.SLOObjective`) estimate population quantities.
    Segments whose largest-remainder share rounds to zero users contribute no
    scenarios (their mass is simply absent from this sample; raise
    ``n_users`` to resolve them).
    """
    rng = _as_rng(seed)
    counts = spec.apportion(n_users)
    segment_of_user = np.repeat(np.arange(len(counts)), counts)
    steps = max(len(segment.axes) for segment, count in zip(spec.segments, counts) if count)
    table = _AxisTable()
    codes = np.full((steps, len(segment_of_user)), -1, dtype=np.intp)
    values = np.zeros(codes.shape)
    weights = np.empty(len(segment_of_user))
    cursor = 0
    for segment, count in zip(spec.segments, counts):
        if count:
            block = slice(cursor, cursor + count)
            for step, sampler in enumerate(segment.axes):
                codes[step, block] = table.code(sampler.axis)
                values[step, block] = sampler.sample(rng, count)
            weights[block] = segment.weight / count
            cursor += count
    prefixes = tuple(f"{segment.name}/u" for segment in spec.segments)
    names = (prefixes, segment_of_user, np.arange(len(segment_of_user)))
    return SampledFleet(
        spec=spec,
        grid=ScenarioGrid._from_columns(tuple(table.axes), codes, values, weights, name_parts=names),
        segment_of_user=tuple(segment_of_user.tolist()),
        seed=seed if isinstance(seed, int) else None,
    )
