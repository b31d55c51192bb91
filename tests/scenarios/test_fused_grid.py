"""Differential tests for the fused (array-space) grid build and delta rebuilds.

The central claims of the fused engine:

* ``build_tables(chain, platform, scenarios=grid)`` -- which composes each
  axis's vectorized ``scale_arrays`` onto the base platform's parameter
  arrays, never deriving per-scenario ``Platform`` objects -- is **bitwise**
  identical to the materializing path (derive every platform, stack scalar
  builds), for every shipped axis, on chains and graphs alike;
* ``updated(index, scenario)`` / ``updated_many`` recompute only the affected
  condition slices yet are **bitwise** identical to a full rebuild of the
  modified grid, fingerprint included;
* per-scenario condition slices are content-addressed: a shared
  :class:`~repro.cache.TableCache` turns repeated or overlapping builds into
  slice hits, observable through ``cache_stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import TableCache
from repro.devices import (
    ChainCostTables,
    Platform,
    SimulatedExecutor,
    edge_cluster_platform,
    execute_placements_grid,
    lte,
    wifi_ac,
)
from repro.devices.grid import GridCostTables, GridSliceStats
from repro.devices.tables import build_tables
from repro.faults.retry import RetryPolicy
from repro.offload import placement_matrix
from repro.scenarios import (
    ConditionAxis,
    DeviceFailureRate,
    DeviceLoadFactor,
    DvfsFrequencyScale,
    EnergyPriceScale,
    LinkBandwidthScale,
    LinkDropoutRate,
    LinkInterpolation,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
    apply_conditions,
)
from repro.scenarios.conditions import vectorized_axis
from repro.tasks import RegularizedLeastSquaresTask, TaskChain, TaskGraph

from factories import random_chain, random_graph, random_platform

#: Every stacked array the two build paths must agree on, bit for bit.
GRID_FIELDS = (
    "busy",
    "hostio_time",
    "hostio_bytes",
    "energy_in",
    "energy_out",
    "task_flops",
    "penalty_time",
    "penalty_energy",
    "penalty_bytes",
    "first_penalty_time",
    "first_penalty_energy",
    "first_penalty_bytes",
    "power_active",
    "power_idle",
    "cost_per_hour",
    "extra_idle_power",
)

EXEC_FIELDS = (
    "total_time_s",
    "busy_by_device",
    "flops_by_device",
    "transferred_bytes",
    "transfer_energy_j",
    "energy_total_j",
    "operating_cost",
)


def small_chain(n_tasks: int = 3) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(size=40 + 30 * i, iterations=3, name=f"L{i + 1}")
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name="fused-test")


def assert_bitwise_tables(fused, materialized) -> None:
    """Every stacked array and every piece of metadata agrees bit for bit."""
    for field in GRID_FIELDS:
        a, b = getattr(fused, field), getattr(materialized, field)
        assert a.tobytes() == b.tobytes(), f"grid field {field} differs"
    assert fused.missing_links == materialized.missing_links
    assert fused.aliases == materialized.aliases
    assert fused.device_order == materialized.device_order
    assert fused.task_names == materialized.task_names
    assert type(fused) is type(materialized)


def assert_bitwise_execution(fused, materialized, matrix) -> None:
    a = execute_placements_grid(fused, matrix)
    b = execute_placements_grid(materialized, matrix)
    for field in EXEC_FIELDS:
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def random_fused_scenarios(
    rng: np.random.Generator, platform: Platform, n: int
) -> ScenarioGrid:
    """Random scenarios drawing from *every* shipped (vectorized) axis."""
    pair = tuple(sorted(platform.links))[0]
    aliases = sorted(platform.devices)

    def draw_settings() -> tuple:
        pool = [
            (LinkBandwidthScale(), float(rng.uniform(0.1, 2.0))),
            (LinkLatencyScale(), float(rng.uniform(0.2, 10.0))),
            (DeviceLoadFactor(), float(rng.uniform(1.0, 3.0))),
            (
                DeviceLoadFactor(devices=(aliases[0],), name="host-load"),
                float(rng.uniform(1.0, 2.0)),
            ),
            (DvfsFrequencyScale(), float(rng.uniform(0.3, 1.0))),
            (EnergyPriceScale(), float(rng.uniform(0.0, 4.0))),
            (
                LinkInterpolation(links=(pair,), start=wifi_ac(), end=lte()),
                float(rng.uniform(0.0, 1.0)),
            ),
            (DeviceFailureRate(), float(rng.uniform(0.0, 0.2))),
            (LinkDropoutRate(), float(rng.uniform(0.0, 0.2))),
        ]
        chosen = [pool[i] for i in rng.choice(len(pool), rng.integers(0, 4), replace=False)]
        if rng.random() < 0.2:
            # Exercise the neutral-value short circuits inside mixed grids.
            chosen.append((LinkBandwidthScale(), 1.0))
        return tuple(chosen)

    return ScenarioGrid(
        tuple(
            Scenario(name=f"s{i}", settings=draw_settings(), weight=float(rng.uniform(0.5, 2.0)))
            for i in range(n)
        )
    )


class TestFusedEqualsMaterializing:
    def test_every_shipped_axis_individually(self):
        base = edge_cluster_platform()
        chain = small_chain()
        pair = tuple(sorted(base.links))[0]
        per_axis = [
            (LinkBandwidthScale(), (1.0, 0.5, 0.125)),
            (LinkLatencyScale(), (1.0, 3.0, 30.0)),
            (DeviceLoadFactor(), (1.0, 1.5, 2.5)),
            (DvfsFrequencyScale(), (1.0, 0.7, 0.4)),
            (EnergyPriceScale(), (1.0, 0.0, 3.5)),
            (LinkInterpolation(links=(pair,), start=wifi_ac(), end=lte()), (0.0, 0.35, 1.0)),
            (DeviceFailureRate(), (0.0, 0.05)),
            (LinkDropoutRate(), (0.0, 0.1)),
        ]
        matrix = placement_matrix(len(chain), len(base.aliases))
        for axis, values in per_axis:
            assert vectorized_axis(axis), axis
            grid = ScenarioGrid.cartesian([(axis, list(values))])
            fused = build_tables(chain, base, scenarios=grid)
            materialized = build_tables(chain, grid.platforms(base))
            assert fused.cache_stats() == GridSliceStats(served=0, built=len(grid))
            assert_bitwise_tables(fused, materialized)
            assert_bitwise_execution(fused, materialized, matrix)

    def test_mixed_axes_on_graph_workload(self, rng):
        base = edge_cluster_platform()
        graph = random_graph(rng, 4)
        grid = random_fused_scenarios(rng, base, 6)
        fused = build_tables(graph, base, scenarios=grid)
        materialized = build_tables(graph, grid.platforms(base))
        assert fused.pred_positions == materialized.pred_positions
        assert_bitwise_tables(fused, materialized)
        assert_bitwise_execution(
            fused, materialized, placement_matrix(len(graph), len(base.aliases))
        )

    def test_device_subset(self, rng):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = random_fused_scenarios(rng, base, 4)
        devices = tuple(base.aliases)[:2]
        fused = build_tables(chain, base, scenarios=grid, devices=devices)
        materialized = build_tables(chain, grid.platforms(base), devices=devices)
        assert_bitwise_tables(fused, materialized)
        assert_bitwise_execution(fused, materialized, placement_matrix(len(chain), 2))

    def test_fault_grid_scenarios_route_through_fused_base(self):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = ScenarioGrid.cartesian(
            [(DeviceFailureRate(), [0.0, 0.05]), (LinkBandwidthScale(), [1.0, 0.5])]
        )
        retry = RetryPolicy(max_attempts=3)
        fused = build_tables(chain, base, scenarios=grid, retry=retry)
        materialized = build_tables(chain, grid.platforms(base), retry=retry)
        assert fused.cache_stats().built == len(grid)
        assert_bitwise_tables(fused.base, materialized.base)
        for field in ("node_survival", "edge_survival", "first_edge_survival"):
            assert getattr(fused, field).tobytes() == getattr(materialized, field).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_devices=st.integers(2, 4),
        n_tasks=st.integers(1, 4),
        n_scenarios=st.integers(1, 6),
        as_graph=st.booleans(),
    )
    def test_hypothesis_fused_equals_materializing(
        self, seed, n_devices, n_tasks, n_scenarios, as_graph
    ):
        rng = np.random.default_rng(seed)
        base = random_platform(rng, n_devices)
        workload = random_graph(rng, n_tasks) if as_graph else random_chain(rng, n_tasks)
        grid = random_fused_scenarios(rng, base, n_scenarios)
        fused = build_tables(workload, base, scenarios=grid)
        materialized = build_tables(workload, grid.platforms(base))
        assert_bitwise_tables(fused, materialized)
        assert_bitwise_execution(
            fused, materialized, placement_matrix(n_tasks, n_devices)
        )

    def test_lazy_platforms_match_materialized_derivation(self, rng):
        base = edge_cluster_platform()
        grid = random_fused_scenarios(rng, base, 4)
        fused = build_tables(small_chain(), base, scenarios=grid)
        assert list(fused.platforms) == grid.platforms(base)
        assert fused.platforms[-1] == fused.platforms[len(grid) - 1]
        with pytest.raises(IndexError, match="out of range"):
            fused.platforms[len(grid)]


@dataclass(frozen=True)
class _UnvectorizedBoost(ConditionAxis):
    """A custom axis with only the scalar hook: forces the materializing path."""

    name: str = "boost"

    def apply(self, platform: Platform, value: float) -> Platform:
        updates = {
            alias: replace(spec, peak_gflops=spec.peak_gflops * value)
            for alias in platform.devices
            for spec in (platform.device(alias),)
        }
        return platform.with_devices(updates)


class TestMaterializingFallback:
    def test_custom_axis_without_scale_arrays_falls_back(self):
        axis = _UnvectorizedBoost()
        assert not vectorized_axis(axis)
        base = edge_cluster_platform()
        chain = small_chain()
        grid = ScenarioGrid.cartesian([(axis, [1.0, 2.0])])
        tables = build_tables(chain, base, scenarios=grid)
        materialized = build_tables(chain, grid.platforms(base))
        assert_bitwise_tables(tables, materialized)
        # The fallback still attaches a build context, so delta rebuilds work.
        new = Scenario(name="boosted", settings=((axis, 3.0),))
        updated = tables.updated(1, new)
        full = build_tables(
            chain, base, scenarios=ScenarioGrid((grid.scenarios[0], new))
        )
        assert_bitwise_tables(updated, full)
        assert updated.fingerprint == full.fingerprint

    def test_base_axis_scale_arrays_raises_not_implemented(self):
        from repro.devices.params import PlatformParams

        params = PlatformParams.gather(edge_cluster_platform(), 1)
        with pytest.raises(NotImplementedError, match="materializing path"):
            _UnvectorizedBoost().scale_arrays(params, np.array([0]), np.array([2.0]))


class TestDeltaRebuilds:
    def test_updated_is_bitwise_a_full_rebuild(self, rng):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = random_fused_scenarios(rng, base, 6)
        tables = build_tables(chain, base, scenarios=grid)
        new = Scenario(name="swap", settings=((LinkBandwidthScale(), 0.3),))
        for index in (2, -1):
            updated = tables.updated(index, new)
            entries = list(grid.scenarios)
            entries[index if index >= 0 else len(entries) + index] = new
            full = build_tables(chain, base, scenarios=ScenarioGrid(tuple(entries)))
            assert_bitwise_tables(updated, full)
            assert updated.fingerprint == full.fingerprint
            assert list(updated.platforms) == list(full.platforms)

    def test_updated_many_batches_replacements(self, rng):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = random_fused_scenarios(rng, base, 5)
        tables = build_tables(chain, base, scenarios=grid)
        replacements = {
            0: Scenario(name="a", settings=((LinkLatencyScale(), 4.0),)),
            -2: Scenario(name="b", settings=((DvfsFrequencyScale(), 0.6),)),
        }
        updated = tables.updated_many(replacements)
        entries = list(grid.scenarios)
        entries[0] = replacements[0]
        entries[-2] = replacements[-2]
        full = build_tables(chain, base, scenarios=ScenarioGrid(tuple(entries)))
        assert_bitwise_tables(updated, full)
        assert updated.fingerprint == full.fingerprint

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_devices=st.integers(2, 4),
        n_scenarios=st.integers(1, 6),
    )
    def test_hypothesis_delta_equals_full_rebuild(self, seed, n_devices, n_scenarios):
        rng = np.random.default_rng(seed)
        base = random_platform(rng, n_devices)
        chain = random_chain(rng, 3)
        grid = random_fused_scenarios(rng, base, n_scenarios)
        tables = build_tables(chain, base, scenarios=grid)
        index = int(rng.integers(0, n_scenarios))
        new = random_fused_scenarios(rng, base, 1).scenarios[0]
        new = Scenario(name="delta", settings=new.settings, weight=new.weight)
        updated = tables.updated(index, new)
        entries = list(grid.scenarios)
        entries[index] = new
        full = build_tables(chain, base, scenarios=ScenarioGrid(tuple(entries)))
        assert_bitwise_tables(updated, full)
        assert updated.fingerprint == full.fingerprint

    def test_empty_replacements_return_self(self, rng):
        base = edge_cluster_platform()
        tables = build_tables(
            small_chain(), base, scenarios=random_fused_scenarios(rng, base, 3)
        )
        assert tables.updated_many({}) is tables

    def test_duplicate_and_invalid_replacements_are_rejected(self, rng):
        base = edge_cluster_platform()
        grid = random_fused_scenarios(rng, base, 3)
        tables = build_tables(small_chain(), base, scenarios=grid)
        new = Scenario(name="x", settings=())
        with pytest.raises(ValueError, match="duplicate replacement"):
            tables.updated_many({0: new, -3: new})
        with pytest.raises(TypeError):
            tables.updated_many({0: "not a scenario"})
        with pytest.raises(IndexError, match=r"valid: -3\.\.2"):
            tables.updated(5, new)

    def test_tables_without_context_reject_delta_rebuilds(self, rng):
        base = edge_cluster_platform()
        grid = random_fused_scenarios(rng, base, 2)
        raw = build_tables(small_chain(), grid.platforms(base))
        with pytest.raises(ValueError, match="no build context"):
            raw.updated(0, Scenario(name="x", settings=()))


class TestSliceCache:
    def test_second_build_is_all_slice_hits(self, rng):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = random_fused_scenarios(rng, base, 5)
        cache = TableCache()
        first = build_tables(chain, base, scenarios=grid, slice_cache=cache)
        assert first.cache_stats() == GridSliceStats(served=0, built=5)
        second = build_tables(chain, base, scenarios=grid, slice_cache=cache)
        assert second.cache_stats() == GridSliceStats(served=5, built=0)
        assert_bitwise_tables(first, second)

    def test_overlapping_grid_shares_cached_slices(self, rng):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = random_fused_scenarios(rng, base, 4)
        cache = TableCache()
        build_tables(chain, base, scenarios=grid, slice_cache=cache)
        extra = Scenario(name="extra", settings=((LinkLatencyScale(), 7.0),))
        overlapping = ScenarioGrid(grid.scenarios[:3] + (extra,))
        tables = build_tables(chain, base, scenarios=overlapping, slice_cache=cache)
        assert tables.cache_stats() == GridSliceStats(served=3, built=1)
        full = build_tables(chain, base, scenarios=overlapping)
        assert_bitwise_tables(tables, full)

    def test_delta_revert_is_a_slice_hit(self, rng):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = random_fused_scenarios(rng, base, 4)
        cache = TableCache()
        tables = build_tables(chain, base, scenarios=grid, slice_cache=cache)
        new = Scenario(name="swap", settings=((LinkBandwidthScale(), 0.4),))
        updated = tables.updated(1, new, slice_cache=cache)
        assert updated.cache_stats() == GridSliceStats(served=0, built=1)
        reverted = updated.updated(1, grid.scenarios[1], slice_cache=cache)
        assert reverted.cache_stats() == GridSliceStats(served=1, built=0)
        assert_bitwise_tables(reverted, tables)
        assert reverted.fingerprint == tables.fingerprint

    def test_stats_without_context_default_to_all_built(self, rng):
        base = edge_cluster_platform()
        grid = random_fused_scenarios(rng, base, 3)
        raw = build_tables(small_chain(), grid.platforms(base))
        assert raw.cache_stats() == GridSliceStats(served=0, built=3)


class TestExecutorIntegration:
    def test_raw_scenario_sequences_share_the_grid_cache_entry(self, rng):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = random_fused_scenarios(rng, base, 4)
        executor = SimulatedExecutor(base)
        tables = executor.grid_cost_tables(chain, grid)
        assert executor.grid_cost_tables(chain, list(grid.scenarios)) is tables
        assert isinstance(tables, GridCostTables)

    def test_update_grid_tables_registers_the_new_fingerprint(self, rng):
        base = edge_cluster_platform()
        chain = small_chain()
        grid = random_fused_scenarios(rng, base, 4)
        executor = SimulatedExecutor(base)
        tables = executor.grid_cost_tables(chain, grid)
        new = Scenario(name="swap", settings=((DeviceLoadFactor(), 2.0),))
        updated = executor.update_grid_tables(tables, {2: new})
        entries = list(grid.scenarios)
        entries[2] = new
        assert executor.grid_cost_tables(chain, ScenarioGrid(tuple(entries))) is updated

    def test_update_with_empty_mapping_is_identity(self, rng):
        base = edge_cluster_platform()
        executor = SimulatedExecutor(base)
        tables = executor.grid_cost_tables(
            small_chain(), random_fused_scenarios(rng, base, 2)
        )
        assert executor.update_grid_tables(tables, {}) is tables


class TestIdentityShortCircuit:
    def test_all_neutral_settings_return_the_base_platform_object(self):
        base = edge_cluster_platform()
        pair = tuple(sorted(base.links))[0]
        neutral = Scenario(
            name="neutral",
            settings=(
                (LinkBandwidthScale(), 1.0),
                (LinkLatencyScale(), 1.0),
                (DeviceLoadFactor(), 1.0),
                (DvfsFrequencyScale(), 1.0),
                (EnergyPriceScale(), 1.0),
                (LinkInterpolation(links=(pair,), start=base.link(*pair), end=lte()), 0.0),
            ),
        )
        assert apply_conditions(base, neutral) is base

    def test_empty_settings_return_the_base_platform_object(self):
        base = edge_cluster_platform()
        assert apply_conditions(base, Scenario(name="empty", settings=())) is base

    def test_non_neutral_settings_still_derive_and_rename(self):
        base = edge_cluster_platform()
        derived = apply_conditions(
            base, Scenario(name="slow", settings=((LinkBandwidthScale(), 0.5),))
        )
        assert derived is not base
        assert derived.name == f"{base.name}@slow"


class TestScenarioGridEdges:
    def test_zero_scenarios_raise_an_actionable_error(self):
        with pytest.raises(ValueError, match="at least one scenario"):
            ScenarioGrid(())

    def test_negative_table_index_counts_from_the_end(self, rng):
        base = edge_cluster_platform()
        grid = random_fused_scenarios(rng, base, 4)
        tables = build_tables(small_chain(), base, scenarios=grid)
        last = tables.table(-1)
        assert last.busy.tobytes() == tables.table(3).busy.tobytes()
        assert last.fingerprint == tables.table(3).fingerprint
        batch = tables.execute(placement_matrix(3, 4))
        assert (
            batch.batch(-1).total_time_s.tobytes()
            == batch.batch(3).total_time_s.tobytes()
        )
        with pytest.raises(IndexError, match=r"valid: -4\.\.3"):
            tables.table(-5)
