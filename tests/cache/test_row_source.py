"""Row reuse between scenario builds: one row source per build prefix.

With a :class:`~repro.cache.TableCache`, the latest scenario build of each
(workload, platform, devices) prefix is that prefix's row source.  The next
build with the same prefix gathers the rows of every scenario the source
holds and computes only the rest.  These tests pin that:

* every grid derived from the source -- drifted, permuted, shrunk, grown or
  renamed -- equals a cold build bitwise, and exactly the rows whose
  scenario digest the source holds are served;
* a stream of drifted fleets leaves one cache entry, not one per grid;
* rows are never shared across workloads, devices or platforms;
* a delta rebuild never writes into the source it reads from.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import random_chain, random_platform
from repro.cache import TableCache, cached_fingerprint, table_key
from repro.devices import SimulatedExecutor, edge_cluster_platform
from repro.devices.grid import GridCostTables, GridSliceStats, _RowSource
from repro.devices.tables import build_tables
from repro.faults.retry import RetryPolicy
from repro.fleet import FleetSpec, UniformAxis, UserSegment, sample_fleet
from repro.scenarios import (
    DeviceLoadFactor,
    DvfsFrequencyScale,
    EnergyPriceScale,
    LinkBandwidthScale,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
)
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

#: The per-scenario arrays of a grid table (bitwise-compared).
SLICE_FIELDS = (
    "busy", "hostio_time", "energy_in", "energy_out", "penalty_time",
    "penalty_energy", "first_penalty_time", "first_penalty_energy",
    "power_active", "power_idle", "cost_per_hour", "extra_idle_power",
)

VARIANTS = ("drift", "permute", "subset", "superset", "rename")


def assert_same_rows(tables, reference) -> None:
    for name in SLICE_FIELDS:
        assert getattr(tables, name).tobytes() == getattr(reference, name).tobytes(), name
    assert tables.fingerprint == reference.fingerprint


def random_settings(rng: np.random.Generator) -> tuple:
    pool = [
        (LinkBandwidthScale(), float(rng.uniform(0.1, 2.0))),
        (LinkLatencyScale(), float(rng.uniform(0.2, 10.0))),
        (DeviceLoadFactor(), float(rng.uniform(1.0, 3.0))),
        (DvfsFrequencyScale(), float(rng.uniform(0.3, 1.0))),
        (EnergyPriceScale(), float(rng.uniform(0.0, 4.0))),
    ]
    return tuple(pool[i] for i in rng.choice(len(pool), rng.integers(1, 4), replace=False))


def random_grid(rng: np.random.Generator, n: int) -> ScenarioGrid:
    return ScenarioGrid(tuple(Scenario(f"s{i}", settings=random_settings(rng)) for i in range(n)))


def variant(rng: np.random.Generator, scenarios: list, kind: str, serial: int) -> list:
    """A grid derived from ``scenarios`` the way callers derive them."""
    n = len(scenarios)
    if kind == "drift":
        out = list(scenarios)
        for i in rng.choice(n, rng.integers(1, n + 1), replace=False):
            out[i] = Scenario(out[i].name, settings=random_settings(rng), weight=out[i].weight)
        return out
    if kind == "permute":
        return [scenarios[i] for i in rng.permutation(n)]
    if kind == "subset":
        keep = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        return [scenarios[i] for i in keep]
    if kind == "superset":
        out = list(scenarios)
        for j in range(int(rng.integers(1, 4))):
            new = Scenario(f"new{serial}-{j}", settings=random_settings(rng))
            out.insert(int(rng.integers(0, len(out) + 1)), new)
        return out
    # Same settings under new names: a scenario's digest covers its name.
    out = list(scenarios)
    for i in rng.choice(n, rng.integers(1, n + 1), replace=False):
        out[i] = Scenario(f"renamed{serial}-{i}", settings=out[i].settings, weight=out[i].weight)
    return out


class TestRowReuse:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_devices=st.integers(2, 4),
        n_scenarios=st.integers(1, 8),
        kinds=st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_derived_grids_equal_cold_builds(self, seed, n_devices, n_scenarios, kinds):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices)
        chain = random_chain(rng, 3)
        cache = TableCache()
        scenarios = [Scenario(f"s{i}", settings=random_settings(rng)) for i in range(n_scenarios)]
        grid = ScenarioGrid(tuple(scenarios))
        tables = build_tables(chain, platform, scenarios=grid, slice_cache=cache)
        assert tables.cache_stats() == GridSliceStats(served=0, built=n_scenarios)
        for serial, kind in enumerate(kinds):
            held = {cached_fingerprint(s) for s in scenarios}
            scenarios = variant(rng, scenarios, kind, serial)
            grid = ScenarioGrid(tuple(scenarios))
            tables = build_tables(chain, platform, scenarios=grid, slice_cache=cache)
            assert_same_rows(tables, build_tables(chain, platform, scenarios=grid))
            served = sum(cached_fingerprint(s) in held for s in scenarios)
            assert tables.cache_stats() == GridSliceStats(
                served=served, built=len(scenarios) - served
            )
            assert len(cache) == 1

    def test_a_delta_rebuild_leaves_the_source_untouched(self):
        rng = np.random.default_rng(5)
        platform = random_platform(rng, 3)
        chain = random_chain(rng, 3)
        cache = TableCache()
        grid = random_grid(rng, 6)
        source = build_tables(chain, platform, scenarios=grid, slice_cache=cache)
        before = {name: getattr(source, name).tobytes() for name in SLICE_FIELDS}
        # Swap two held rows and draw one new one.
        replacements = {
            0: grid.scenarios[4],
            1: Scenario("x", settings=random_settings(rng)),
            4: grid.scenarios[0],
        }
        updated = source.updated_many(replacements, slice_cache=cache)
        assert updated.cache_stats() == GridSliceStats(served=2, built=1)
        SimulatedExecutor(platform, table_cache=cache).update_grid_tables(source, replacements)
        for name in SLICE_FIELDS:
            assert getattr(source, name).tobytes() == before[name], name
        entries = list(grid.scenarios)
        for i, scenario in replacements.items():
            entries[i] = scenario
        full = build_tables(chain, platform, scenarios=ScenarioGrid(tuple(entries)))
        assert_same_rows(updated, full)


class TestPrefixes:
    def test_different_workloads_devices_or_platforms_share_no_rows(self):
        platform = edge_cluster_platform()
        other_platform = random_platform(np.random.default_rng(2), 4)
        chain = random_chain(np.random.default_rng(0), 3)
        other_chain = random_chain(np.random.default_rng(1), 3)
        grid = random_grid(np.random.default_rng(11), 5)
        cache = TableCache()
        build_tables(chain, platform, scenarios=grid, slice_cache=cache)
        for workload, base, devices in (
            (other_chain, platform, None),
            (chain, platform, sorted(platform.devices)[:2]),
            (chain, other_platform, None),
        ):
            config = dict(devices=devices, scenarios=grid)
            tables = build_tables(workload, base, slice_cache=cache, **config)
            assert tables.cache_stats() == GridSliceStats(served=0, built=len(grid))
            assert_same_rows(tables, build_tables(workload, base, **config))
        # Each prefix holds its own source: the first one still serves all.
        assert len(cache) == 4
        again = build_tables(chain, platform, scenarios=grid, slice_cache=cache)
        assert again.cache_stats() == GridSliceStats(served=len(grid), built=0)

    def test_executor_hands_back_the_source_for_an_equal_grid(self):
        platform = edge_cluster_platform()
        chain = random_chain(np.random.default_rng(0), 3)
        grid = random_grid(np.random.default_rng(11), 5)
        executor = SimulatedExecutor(platform)
        tables = executor.grid_cost_tables(chain, grid)
        copy = ScenarioGrid(tuple(Scenario(s.name, settings=s.settings) for s in grid.scenarios))
        assert executor.grid_cost_tables(chain, copy) is tables

    def test_fault_tables_read_rows_from_the_source(self):
        platform = edge_cluster_platform()
        chain = random_chain(np.random.default_rng(0), 3)
        grid = random_grid(np.random.default_rng(11), 5)
        executor = SimulatedExecutor(platform)
        executor.grid_cost_tables(chain, grid)
        faulty = executor.grid_cost_tables(chain, grid, retry=RetryPolicy(max_attempts=2))
        assert faulty.cache_stats() == GridSliceStats(served=len(grid), built=0)
        assert executor.grid_cost_tables(chain, grid, retry=RetryPolicy(max_attempts=2)) is faulty


class TestBoundedness:
    def test_drifting_fleets_hold_one_source_and_no_grid_entries(self):
        """20 drifted fleets through the executor: the cache holds one row
        source for the prefix, never a fused table under a grid key."""
        platform = edge_cluster_platform()
        chain = TaskChain(
            [
                RegularizedLeastSquaresTask(size=60 * (i + 1), iterations=8, name=f"L{i}")
                for i in range(2)
            ],
            name="bounded",
        )
        spec = FleetSpec(
            segments=(
                UserSegment("wifi", 2.0, axes=(UniformAxis(LinkBandwidthScale(), 0.8, 1.3),)),
                UserSegment("cell", 1.0, axes=(UniformAxis(LinkLatencyScale(), 2.0, 6.0),)),
            )
        )
        cache = TableCache()
        executor = SimulatedExecutor(platform, table_cache=cache)
        fleet = sample_fleet(spec, 400, seed=1)
        tables = executor.grid_cost_tables(chain, fleet.grid)
        for step in range(20):
            fleet, replacements = fleet.resample_users(range(step, 400, 50), seed=step)
            tables = executor.grid_cost_tables(chain, fleet.grid)
            drifted = len(replacements)
            assert tables.cache_stats() == GridSliceStats(served=400 - drifted, built=drifted)
        assert len(cache) == 1
        (source,) = [value for value, _ in cache._entries.values()]
        assert isinstance(source, _RowSource)
        assert source.tables is tables
        assert source.tables.fingerprint == table_key(chain, platform, scenarios=fleet.grid)
        assert not any(isinstance(value, GridCostTables) for value, _ in cache._entries.values())
