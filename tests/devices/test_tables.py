"""The unified table backend: dispatch, protocol, and bitwise pinning.

``build_tables`` is the single construction path behind both table types
(chain vs DAG is the ``pred_positions`` field and plain vs grid the
``plain`` field, not types); these tests pin each dispatch branch bitwise
against its own builder,
check the :class:`~repro.devices.tables.CostTables` protocol surface, and
verify that cache-served tables are the same objects (and bitwise the same
results) as freshly built ones.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from factories import random_chain, random_graph, random_platform
from repro.cache import TableCache, table_key
from repro.devices import SimulatedExecutor, execute_placements
from repro.devices.grid import GridCostTables, _materialized_grid_tables
from repro.devices.tables import CostTables, build_tables, check_fault_args, resolve_aliases
from repro.faults import DeviceFailure, FaultProfile, RetryPolicy, TimeoutPolicy
from repro.faults.engine import execute_fault_placements, expected_record
from repro.faults.tables import FaultGridCostTables, _fault_grid_tables
from repro.offload import placement_matrix
from repro.scenarios import DeviceLoadFactor, Scenario, ScenarioGrid


def scenario_grid() -> ScenarioGrid:
    axis = DeviceLoadFactor()
    return ScenarioGrid(
        scenarios=(
            Scenario("calm", settings=((axis, 1.0),)),
            Scenario("loaded", settings=((axis, 2.0),)),
        )
    )


def assert_results_bitwise_equal(left, right):
    """Every array field of two execution results must match bitwise."""
    assert type(left) is type(right)
    deferred = ["active_j", "idle_j", "energy_total_j", "operating_cost"]
    for name in [field.name for field in dataclasses.fields(left)] + deferred:
        a, b = getattr(left, name), getattr(right, name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), name


def assert_tables_bitwise_equal(unified, direct):
    """A dispatched build must equal the direct family build, array by array."""
    assert type(unified) is type(direct)
    for field in dataclasses.fields(unified):
        if field.name == "fingerprint":
            continue  # direct builds carry no fingerprint by design
        a, b = getattr(unified, field.name), getattr(direct, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), field.name


@pytest.mark.parametrize("seed", [0, 7, 23])
class TestDispatchBitwise:
    """Each dispatch branch, chain and DAG, vs a direct build, bitwise."""

    def _fixtures(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices=3)
        chain = random_chain(rng, n_tasks=4)
        graph = random_graph(rng, n_tasks=4)
        placements = placement_matrix(4, 3)
        return platform, chain, graph, placements

    def test_chain_tables(self, seed):
        platform, chain, _, placements = self._fixtures(seed)
        unified = build_tables(chain, platform)
        direct = _materialized_grid_tables(chain, (platform,)).table(0)
        assert (type(unified), unified.plain) == (GridCostTables, True)
        assert unified.pred_positions == chain.predecessor_positions
        assert_tables_bitwise_equal(unified, direct)
        assert_results_bitwise_equal(unified.execute(placements), direct.execute(placements))

    def test_graph_tables(self, seed):
        platform, _, graph, placements = self._fixtures(seed)
        unified = build_tables(graph, platform)
        direct = _materialized_grid_tables(graph, (platform,)).table(0)
        assert (type(unified), unified.plain) == (GridCostTables, True)
        assert unified.pred_positions == graph.predecessor_positions
        assert_tables_bitwise_equal(unified, direct)
        assert_results_bitwise_equal(unified.execute(placements), direct.execute(placements))

    def test_grid_tables(self, seed):
        platform, chain, _, placements = self._fixtures(seed)
        platforms = scenario_grid().platforms(platform)
        unified = build_tables(chain, platform, scenarios=scenario_grid())
        direct = _materialized_grid_tables(chain, platforms)
        assert (type(unified), unified.plain) == (GridCostTables, False)
        assert_tables_bitwise_equal(unified, direct)
        assert_results_bitwise_equal(unified.execute(placements), direct.execute(placements))

    def test_graph_grid_tables(self, seed):
        platform, _, graph, placements = self._fixtures(seed)
        platforms = scenario_grid().platforms(platform)
        unified = build_tables(graph, platforms)
        direct = _materialized_grid_tables(graph, platforms)
        assert (type(unified), unified.plain) == (GridCostTables, False)
        assert unified.pred_positions == graph.predecessor_positions
        assert_tables_bitwise_equal(unified, direct)
        assert_results_bitwise_equal(unified.execute(placements), direct.execute(placements))

    def test_fault_tables(self, seed):
        platform, chain, _, placements = self._fixtures(seed)
        retry = RetryPolicy(max_attempts=2)
        faults = FaultProfile(device_failure=DeviceFailure(rate=0.05))
        unified = build_tables(chain, platform, faults=faults, retry=retry)
        direct = _fault_grid_tables(chain, platform, faults=faults, retry=retry)
        assert (type(unified), unified.base.plain) == (FaultGridCostTables, True)
        assert_results_bitwise_equal(unified.execute(placements), direct.execute(placements))
        assert np.array_equal(unified.node_survival, direct.node_survival)
        assert np.array_equal(unified.edge_survival, direct.edge_survival)

    def test_fault_grid_tables(self, seed):
        platform, chain, _, placements = self._fixtures(seed)
        platforms = scenario_grid().platforms(platform)
        retry = RetryPolicy(max_attempts=2)
        faults = FaultProfile(device_failure=DeviceFailure(rate=0.05))
        unified = build_tables(
            chain, platform, scenarios=scenario_grid(), faults=faults, retry=retry
        )
        direct = _fault_grid_tables(chain, platforms, faults=faults, retry=retry)
        assert (type(unified), unified.base.plain) == (FaultGridCostTables, False)
        assert_results_bitwise_equal(unified.execute(placements), direct.execute(placements))
        assert np.array_equal(unified.node_survival, direct.node_survival)


class TestProtocolSurface:
    def test_every_family_satisfies_the_protocol(self):
        rng = np.random.default_rng(3)
        platform = random_platform(rng, n_devices=2)
        chain = random_chain(rng, n_tasks=3)
        graph = random_graph(rng, n_tasks=3)
        retry = RetryPolicy(max_attempts=2)
        grid = scenario_grid()
        built = [
            build_tables(chain, platform),
            build_tables(graph, platform),
            build_tables(chain, platform, scenarios=grid),
            build_tables(graph, platform, scenarios=grid),
            build_tables(chain, platform, retry=retry),
            build_tables(chain, platform, scenarios=grid, retry=retry),
        ]
        kinds = {(type(t), getattr(t, "base", t).plain) for t in built}
        assert kinds == {
            (GridCostTables, True),
            (GridCostTables, False),
            (FaultGridCostTables, True),
            (FaultGridCostTables, False),
        }
        for tables, workload in zip(built[:4], (chain, graph, chain, graph)):
            assert tables.pred_positions == workload.predecessor_positions
        for tables in built:
            assert isinstance(tables, CostTables)
            assert tables.fingerprint  # non-empty content key
            assert tables.n_tasks == 3
            assert tables.aliases == ("D", "A")
            assert len(tables.execute(placement_matrix(3, 2))) == 8

    def test_fingerprints_are_content_addressed(self):
        rng = np.random.default_rng(9)
        platform = random_platform(rng, n_devices=2)
        chain = random_chain(rng, n_tasks=3)
        again_rng = np.random.default_rng(9)
        platform2 = random_platform(again_rng, n_devices=2)
        chain2 = random_chain(again_rng, n_tasks=3)
        assert build_tables(chain, platform).fingerprint == build_tables(
            chain2, platform2
        ).fingerprint
        assert build_tables(chain, platform).fingerprint != build_tables(
            chain, platform, retry=RetryPolicy(max_attempts=2)
        ).fingerprint

    def test_grid_slices_derive_their_fingerprint(self):
        rng = np.random.default_rng(4)
        platform = random_platform(rng, n_devices=2)
        chain = random_chain(rng, n_tasks=3)
        grid_tables = build_tables(chain, platform, scenarios=scenario_grid())
        assert grid_tables.table(1).fingerprint == f"{grid_tables.fingerprint}#scenario1"

    def test_fault_base_tables_carry_their_own_fingerprint(self):
        rng = np.random.default_rng(6)
        platform = random_platform(rng, n_devices=2)
        chain = random_chain(rng, n_tasks=3)
        fault = build_tables(chain, platform, retry=RetryPolicy(max_attempts=2))
        assert fault.base.fingerprint == build_tables(chain, platform).fingerprint


class TestExecutorCacheServing:
    """Cache-served tables: same objects when hot, bitwise equal when cold."""

    def test_all_six_families_served_bitwise_identical(self):
        rng = np.random.default_rng(13)
        platform = random_platform(rng, n_devices=2)
        chain = random_chain(rng, n_tasks=3)
        graph = random_graph(rng, n_tasks=3)
        grid = scenario_grid()
        retry = RetryPolicy(max_attempts=2)
        executor = SimulatedExecutor(platform)
        placements = placement_matrix(3, 2)
        requests = [
            (chain, lambda: executor.cost_tables(chain)),
            (graph, lambda: executor.cost_tables(graph)),
            (chain, lambda: executor.grid_cost_tables(chain, grid)),
            (graph, lambda: executor.grid_cost_tables(graph, grid)),
            (chain, lambda: executor.cost_tables(chain, retry=retry)),
            (chain, lambda: executor.grid_cost_tables(chain, grid, retry=retry)),
        ]
        for workload, request in requests:
            cold = request()
            hot = request()
            assert hot is cold  # served from the shared table cache
            base = getattr(cold, "base", cold)
            fresh_args = dict(scenarios=None if base.plain else grid)
            if base is not cold:
                fresh_args["retry"] = retry
            fresh = build_tables(workload, platform, **fresh_args)
            assert fresh.fingerprint == cold.fingerprint
            assert_results_bitwise_equal(cold.execute(placements), fresh.execute(placements))

    def test_executors_share_one_table_cache(self):
        rng = np.random.default_rng(14)
        platform = random_platform(rng, n_devices=2)
        chain = random_chain(rng, n_tasks=3)
        shared = TableCache()
        first = SimulatedExecutor(platform, table_cache=shared)
        second = SimulatedExecutor(platform, table_cache=shared)
        assert first.cost_tables(chain) is second.cost_tables(chain)
        assert shared.stats().hits == 1


class TestValidation:
    def test_resolve_aliases_rejects_unknown_devices(self):
        platform = random_platform(np.random.default_rng(0), n_devices=2)
        with pytest.raises(KeyError, match="unknown device aliases"):
            resolve_aliases(platform, ("D", "Z"))

    def test_resolve_aliases_rejects_duplicates_and_empty(self):
        platform = random_platform(np.random.default_rng(0), n_devices=2)
        with pytest.raises(ValueError, match="unique"):
            resolve_aliases(platform, ("D", "D"))
        with pytest.raises(ValueError, match="at least one"):
            resolve_aliases(platform, ())

    def test_fault_args_without_retry_raise(self):
        with pytest.raises(ValueError, match="retry=RetryPolicy"):
            check_fault_args(None, FaultProfile(), None)
        with pytest.raises(ValueError, match="retry=RetryPolicy"):
            check_fault_args(None, None, TimeoutPolicy(1.0))
        platform = random_platform(np.random.default_rng(0), n_devices=2)
        chain = random_chain(np.random.default_rng(0), n_tasks=3)
        with pytest.raises(ValueError, match="retry=RetryPolicy"):
            build_tables(chain, platform, faults=FaultProfile())

    def test_table_key_distinguishes_scenarios_from_plain(self):
        platform = random_platform(np.random.default_rng(1), n_devices=2)
        chain = random_chain(np.random.default_rng(1), n_tasks=3)
        assert table_key(chain, platform) != table_key(
            chain, platform, scenarios=scenario_grid()
        )


class TestPlainIsOneRow:
    """Plain tables are one-row grid tables: the contract of the ``plain`` field."""

    def _fixtures(self):
        rng = np.random.default_rng(21)
        return random_platform(rng, n_devices=3), random_chain(rng, n_tasks=3)

    @pytest.mark.parametrize("retry", [None, RetryPolicy(max_attempts=2)])
    def test_platform_iterators_build_like_sequences(self, retry):
        platform, chain = self._fixtures()
        platforms = scenario_grid().platforms(platform)
        from_list = build_tables(chain, platforms, retry=retry)
        from_iter = build_tables(chain, iter(platforms), retry=retry)
        assert from_iter.fingerprint == from_list.fingerprint
        assert from_iter.n_scenarios == len(platforms)
        placements = placement_matrix(3, 3)
        assert_results_bitwise_equal(from_iter.execute(placements), from_list.execute(placements))

    def test_table_rows_are_plain_and_carry_no_provenance(self):
        platform, chain = self._fixtures()
        grid_tables = build_tables(chain, platform, scenarios=scenario_grid())
        assert grid_tables.build_context is not None and not grid_tables.plain
        row = grid_tables.table(1)
        assert row.plain and row.n_scenarios == 1
        assert row.build_context is None and row.slice_stats is None
        assert row.platform is grid_tables.platforms[1]
        with pytest.raises(ValueError, match="no build context"):
            row.updated(0, scenario_grid().scenarios[0])

    def test_fault_table_rows_are_plain(self):
        platform, chain = self._fixtures()
        fault_grid = build_tables(
            chain, platform, scenarios=scenario_grid(), retry=RetryPolicy(max_attempts=2)
        )
        row = fault_grid.table(-1)
        assert row.base.plain and row.n_scenarios == 1
        assert row.profiles == fault_grid.profiles[-1:]
        placements = placement_matrix(3, 3)
        expected = fault_grid.execute(placements).batch(-1)
        assert_results_bitwise_equal(row.execute(placements), expected)

    def test_multi_row_tables_are_rejected_where_one_row_fits(self):
        platform, chain = self._fixtures()
        placements = placement_matrix(3, 3)
        grid_tables = build_tables(chain, platform, scenarios=scenario_grid())
        fault_grid = build_tables(
            chain, platform, scenarios=scenario_grid(), retry=RetryPolicy(max_attempts=2)
        )
        with pytest.raises(ValueError, match="execute_placements .* 2 scenarios"):
            execute_placements(grid_tables, placements)
        with pytest.raises(ValueError, match="execute_fault_placements .* 2 scenarios"):
            execute_fault_placements(fault_grid, placements)
        with pytest.raises(ValueError, match="expected_record .* 2 scenarios"):
            expected_record(fault_grid, [0, 1, 2])
