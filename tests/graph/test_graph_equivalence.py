"""Cross-layer differential harness pinning the DAG engine down.

Two claims, both **bitwise**:

(a) a *linear* ``TaskGraph`` is indistinguishable from the ``TaskChain`` it
    embeds, through every execution layer -- the sequential executor
    (``execute`` vs ``execute_graph``), the vectorized batch engine
    (``execute_placements``), the condition-stacked grid engine
    (``execute_placements_grid``) and the measurement path (same RNG stream);

(b) for *arbitrary* DAGs, the vectorized table engine is
    identical to the sequential ``execute_graph`` reference loop -- across
    random platforms, random graphs, random placements, device subsets and
    scenario grids.

Randomized sweeps + hypothesis drive the structures; every comparison is
``==`` / ``np.array_equal``, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    GridCostTables,
    Platform,
    SimulatedExecutor,
    build_tables,
    edge_cluster_platform,
    execute_placements,
    execute_placements_grid,
)
from repro.offload import placement_matrix, space_size
from repro.scenarios import (
    DeviceLoadFactor,
    LinkBandwidthScale,
    LinkLatencyScale,
    ScenarioGrid,
)
from repro.search import search_space
from repro.tasks import TaskChain, TaskGraph, fork_join_graph, table1_chain

from factories import random_chain, random_graph, random_platform

BATCH_FIELDS = (
    "total_time_s",
    "busy_by_device",
    "flops_by_device",
    "transferred_bytes",
    "transfer_energy_j",
    "active_j",
    "idle_j",
    "energy_total_j",
    "operating_cost",
)

GRID_STACKED_FIELDS = (
    "total_time_s",
    "busy_by_device",
    "transfer_energy_j",
    "active_j",
    "idle_j",
    "energy_total_j",
    "operating_cost",
)


def assert_records_identical(expected, actual) -> None:
    """Exact (bitwise) equality of every ExecutionRecord field."""
    assert actual.placement == expected.placement
    assert actual.total_time_s == expected.total_time_s
    assert actual.transferred_bytes == expected.transferred_bytes
    assert actual.operating_cost == expected.operating_cost
    assert actual.busy_time_by_device == expected.busy_time_by_device
    assert actual.flops_by_device == expected.flops_by_device
    assert actual.energy.active_j == expected.energy.active_j
    assert actual.energy.idle_j == expected.energy.idle_j
    assert actual.energy.transfer_j == expected.energy.transfer_j
    assert actual.energy.total_j == expected.energy.total_j
    assert actual.tasks == expected.tasks


def assert_batches_identical(expected, actual) -> None:
    for field in BATCH_FIELDS:
        assert np.array_equal(getattr(actual, field), getattr(expected, field)), field


def random_rows(rng: np.random.Generator, n_tasks: int, n_devices: int, k: int) -> np.ndarray:
    total = space_size(n_tasks, n_devices)
    picks = sorted(int(i) for i in rng.choice(total, size=min(k, total), replace=False))
    return placement_matrix(n_tasks, n_devices)[picks]


def scenario_platforms(base: Platform, n_points: int = 3) -> list[Platform]:
    grid = ScenarioGrid.cartesian(
        [
            (LinkBandwidthScale(), [1.0, 0.5, 0.25][:n_points]),
            (LinkLatencyScale(), [1.0, 4.0]),
            (DeviceLoadFactor(), [1.0, 1.5]),
        ]
    )
    return grid.platforms(base)


# ---------------------------------------------------------------------------
# (a) Linear graph == chain, through every layer
# ---------------------------------------------------------------------------


class TestLinearGraphEqualsChain:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_devices=st.integers(min_value=1, max_value=4),
        n_tasks=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_sequential_execute_bitwise(self, seed, n_devices, n_tasks):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices)
        chain = random_chain(rng, n_tasks)
        graph = TaskGraph.from_chain(chain)
        assert graph.is_linear
        executor = SimulatedExecutor(platform, seed=0, cache_executions=False)
        for row in random_rows(rng, n_tasks, n_devices, 8):
            placement = tuple(platform.aliases[d] for d in row)
            assert_records_identical(
                executor.execute(chain, placement), executor.execute_graph(graph, placement)
            )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_devices=st.integers(min_value=1, max_value=4),
        n_tasks=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=25, deadline=None)
    def test_execute_placements_bitwise(self, seed, n_devices, n_tasks):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices)
        chain = random_chain(rng, n_tasks)
        graph = TaskGraph.from_chain(chain)
        chain_batch = SimulatedExecutor(platform, seed=0).execute_batch(chain)
        graph_batch = SimulatedExecutor(platform, seed=0).execute_batch(graph)
        assert graph_batch.tables.pred_positions == graph.predecessor_positions
        assert graph_batch.labels() == chain_batch.labels()
        assert_batches_identical(chain_batch, graph_batch)

    def test_execute_placements_grid_bitwise(self):
        rng = np.random.default_rng(3)
        base = random_platform(rng, 3)
        platforms = scenario_platforms(base)
        chain = random_chain(rng, 4)
        graph = TaskGraph.from_chain(chain)
        matrix = placement_matrix(4, 3)
        chain_grid = execute_placements_grid(
            build_tables(chain, platforms), matrix
        )
        graph_grid = execute_placements_grid(
            build_tables(graph, platforms), matrix
        )
        for field in GRID_STACKED_FIELDS:
            assert np.array_equal(
                getattr(graph_grid, field), getattr(chain_grid, field)
            ), field
        assert np.array_equal(graph_grid.flops_by_device, chain_grid.flops_by_device)
        assert np.array_equal(graph_grid.transferred_bytes, chain_grid.transferred_bytes)
        # per-scenario batch views replay graph records identically too
        for index in range(len(platforms)):
            expected = chain_grid.batch(index).record(5)
            assert_records_identical(expected, graph_grid.batch(index).record(5))

    def test_measurements_share_the_rng_stream(self):
        platform = edge_cluster_platform()
        chain = table1_chain(loop_size=1)
        graph = TaskGraph.from_chain(chain)
        on_chain = SimulatedExecutor(platform, seed=11)
        on_graph = SimulatedExecutor(platform, seed=11)
        expected = on_chain.measure_all_batch(chain, None, repetitions=9)
        actual = on_graph.measure_all_batch(graph, None, repetitions=9)
        assert actual.labels == expected.labels
        for label in expected.labels:
            assert np.array_equal(actual[label], expected[label])

    def test_search_space_identical_on_linear_graphs(self):
        platform = edge_cluster_platform()
        chain = table1_chain(loop_size=1)
        graph = TaskGraph.from_chain(chain)
        from_chain = search_space(
            SimulatedExecutor(platform, seed=0), chain, objectives=("time", "energy"), top_k=5
        )
        from_graph = search_space(
            SimulatedExecutor(platform, seed=0), graph, objectives=("time", "energy"), top_k=5
        )
        for name in ("time", "energy"):
            assert from_graph.top[name].labels == from_chain.top[name].labels
            assert np.array_equal(from_graph.top[name].values, from_chain.top[name].values)
        assert from_graph.frontier.as_dict() == from_chain.frontier.as_dict()


# ---------------------------------------------------------------------------
# (b) Vectorized DAG engine == sequential execute_graph reference
# ---------------------------------------------------------------------------


class TestGraphBatchEqualsSequential:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_devices=st.integers(min_value=1, max_value=4),
        n_tasks=st.integers(min_value=1, max_value=7),
        density=st.sampled_from([0.2, 0.5, 0.8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_randomized_platforms_graphs_and_placements(self, seed, n_devices, n_tasks, density):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices)
        graph = random_graph(rng, n_tasks, edge_probability=density)
        matrix = random_rows(rng, n_tasks, n_devices, 10)
        sequential = SimulatedExecutor(platform, seed=1, cache_executions=False)
        batch = SimulatedExecutor(platform, seed=1).execute_batch(graph, matrix)
        for row in range(len(batch)):
            expected = sequential.execute_graph(graph, batch.placement(row))
            assert batch.total_time_s[row] == expected.total_time_s
            assert batch.energy_total_j[row] == expected.energy.total_j
            assert batch.operating_cost[row] == expected.operating_cost
            assert batch.transferred_bytes[row] == expected.transferred_bytes
            assert batch.transfer_energy_j[row] == expected.energy.transfer_j
            for j, alias in enumerate(batch.aliases):
                assert batch.busy_by_device[row, j] == expected.busy_time_by_device[alias]
                assert batch.flops_by_device[row, j] == expected.flops_by_device[alias]
                assert batch.active_j[row, j] == expected.energy.active_j[alias]
                assert batch.idle_j[row, j] == expected.energy.idle_j[alias]
            assert_records_identical(expected, batch.record(row))

    def test_fork_join_full_space(self):
        platform = edge_cluster_platform()
        graph = fork_join_graph(branches=2)
        sequential = SimulatedExecutor(platform, seed=0, cache_executions=False)
        batch = SimulatedExecutor(platform, seed=0).execute_batch(graph)
        assert len(batch) == 4 ** len(graph)
        rng = np.random.default_rng(0)
        for row in rng.integers(0, len(batch), size=40):
            expected = sequential.execute_graph(graph, batch.placement(int(row)))
            assert_records_identical(expected, batch.record(int(row)))
            assert batch.total_time_s[row] == expected.total_time_s

    def test_grid_engine_matches_per_scenario_loop(self):
        rng = np.random.default_rng(5)
        base = random_platform(rng, 3)
        platforms = scenario_platforms(base)
        graph = random_graph(rng, 4, edge_probability=0.6)
        matrix = placement_matrix(4, 3)
        tables = build_tables(graph, platforms)
        assert isinstance(tables, GridCostTables)
        assert tables.pred_positions == graph.predecessor_positions
        grid = execute_placements_grid(tables, matrix)
        for index, platform in enumerate(platforms):
            scalar_tables = build_tables(graph, platform)
            batch = execute_placements(scalar_tables, matrix)
            assert np.array_equal(grid.total_time_s[index], batch.total_time_s)
            assert np.array_equal(grid.energy_total_j[index], batch.energy_total_j)
            assert np.array_equal(grid.operating_cost[index], batch.operating_cost)
            assert np.array_equal(grid.busy_by_device[index], batch.busy_by_device)
            assert np.array_equal(grid.transfer_energy_j[index], batch.transfer_energy_j)
            # the sliced tables replay sequential graph records
            view = grid.batch(index)
            assert view.tables.pred_positions == graph.predecessor_positions
            assert_records_identical(batch.record(7), view.record(7))
        assert np.array_equal(grid.flops_by_device, batch.flops_by_device)
        assert np.array_equal(grid.transferred_bytes, batch.transferred_bytes)

    def test_grid_missing_link_rejected_with_pair_named(self):
        rng = np.random.default_rng(1)
        base = random_platform(rng, 3)
        links = {pair: link for pair, link in base.links.items() if pair != ("A", "B")}
        platform = Platform(devices=base.devices, links=links, host="D", name="partial")
        chain = random_chain(rng, 3)
        graph = TaskGraph(chain.tasks, edges=[("L1", "L2"), ("L2", "L3")])
        tables = build_tables(graph, [platform, platform])
        safe = execute_placements_grid(tables, np.array([[0, 1, 0], [2, 0, 1]]))
        assert safe.total_time_s.shape == (2, 2)
        with pytest.raises(KeyError, match="between 'A' and 'B'.*'DAB'"):
            execute_placements_grid(tables, np.array([[0, 1, 2]]))

    def test_device_subset(self):
        platform = edge_cluster_platform()
        graph = fork_join_graph(branches=2)
        sequential = SimulatedExecutor(platform, seed=0, cache_executions=False)
        batch = SimulatedExecutor(platform, seed=0).execute_batch(graph, devices=["D", "E"])
        assert batch.aliases == ("D", "E")
        assert len(batch) == 2 ** len(graph)
        for row in range(len(batch)):
            expected = sequential.execute_graph(graph, batch.placement(row))
            assert_records_identical(expected, batch.record(row))
            assert batch.total_time_s[row] == expected.total_time_s
            assert batch.energy_total_j[row] == expected.energy.total_j


# ---------------------------------------------------------------------------
# DAG semantics and validation edges
# ---------------------------------------------------------------------------


class TestGraphSemantics:
    def test_overlap_beats_serialization_on_parallel_branches(self):
        """Branches on different devices overlap; the linearized chain cannot."""
        platform = edge_cluster_platform()
        graph = fork_join_graph()
        executor = SimulatedExecutor(platform, seed=0)
        graph_batch = executor.execute_batch(graph)
        chain_batch = executor.execute_batch(graph.linearized_chain())
        best_graph = graph_batch.argbest("time")
        best_chain = chain_batch.argbest("time")
        # The DAG-aware winner strictly beats the chain-planned placement
        # evaluated under the same DAG model ...
        assert (
            graph_batch.total_time_s[best_graph] < graph_batch.total_time_s[best_chain]
        )
        # ... and the winners genuinely differ: chain planning picks the
        # wrong placement for a branchy workload.
        assert graph_batch.label(best_graph) != chain_batch.label(best_chain)

    def test_same_device_tasks_serialize(self):
        """Two independent tasks on one device cost their serial sum."""
        rng = np.random.default_rng(0)
        platform = random_platform(rng, 2)
        chain = random_chain(rng, 2)
        graph = TaskGraph(chain.tasks, edges=[], name="parallel-pair")
        executor = SimulatedExecutor(platform, seed=0, cache_executions=False)
        same = executor.execute_graph(graph, ("D", "D"))
        t1, t2 = (t.total_time_s for t in same.tasks)
        assert same.total_time_s == t1 + t2  # serialized on the shared device
        split = executor.execute_graph(graph, ("D", "A"))
        s1, s2 = (t.total_time_s for t in split.tasks)
        assert split.total_time_s == max(s1, s2)  # overlapped across devices

    def test_fan_in_pays_every_incoming_edge(self):
        platform = edge_cluster_platform()
        graph = fork_join_graph(branches=2)
        executor = SimulatedExecutor(platform, seed=0, cache_executions=False)
        record = executor.execute_graph(graph, "DAED")
        join = record.tasks[-1]
        assert join.task_name == "join"
        # Two incoming penalty hops (A->D and E->D) + zero host I/O time for
        # the host-resident join, so 16 penalty bytes crossed.
        hop_a = platform.transfer_time("A", "D", 8.0)
        hop_e = platform.transfer_time("E", "D", 8.0)
        assert join.transfer_time_s == 0.0 + (hop_a + hop_e)
        assert join.transferred_bytes == 16.0

    def test_missing_link_rejected_only_when_traversed(self):
        rng = np.random.default_rng(1)
        base = random_platform(rng, 3)  # D, A, B fully linked
        links = {pair: link for pair, link in base.links.items() if pair != ("A", "B")}
        platform = Platform(devices=base.devices, links=links, host="D", name="partial")
        chain = random_chain(rng, 3)
        graph = TaskGraph(
            chain.tasks, edges=[("L1", "L2"), ("L1", "L3")], name="fanout"
        )
        executor = SimulatedExecutor(platform, seed=0)
        sequential = SimulatedExecutor(platform, seed=0, cache_executions=False)
        # DAB is safe here: L2 on A and L3 on B share no edge (both fed by L1).
        safe = ["DDD", "DAB", "ADD", "BDD"]
        batch = executor.execute_batch(graph, safe)
        for i, label in enumerate(safe):
            assert_records_identical(
                sequential.execute_graph(graph, label), batch.record(i)
            )
        # On a chain-shaped graph the same placement crosses A <-> B and fails.
        bad_graph = TaskGraph(chain.tasks, edges=[("L1", "L2"), ("L2", "L3")])
        with pytest.raises(KeyError, match="no link defined"):
            executor.execute_batch(bad_graph, ["DAB"])
        with pytest.raises(KeyError):
            sequential.execute_graph(bad_graph, "DAB")

    def test_placement_validation(self):
        platform = edge_cluster_platform()
        graph = fork_join_graph(branches=2)
        executor = SimulatedExecutor(platform, seed=0)
        with pytest.raises(ValueError, match="entries"):
            executor.execute_graph(graph, "DD")
        with pytest.raises(KeyError):
            executor.execute_graph(graph, "DDZZ")
        mapped = executor.execute_graph(
            graph, {"prep": "D", "b1": "A", "b2": "E", "join": "D"}
        )
        positional = executor.execute_graph(graph, "DAED")
        assert_records_identical(positional, mapped)

    def test_build_tables_dispatch(self):
        platform = edge_cluster_platform()
        chain = table1_chain(loop_size=1)
        graph = TaskGraph.from_chain(chain)
        chain_tables = build_tables(chain, platform)
        assert type(chain_tables) is GridCostTables and chain_tables.plain
        tables = build_tables(graph, platform)
        assert type(tables) is GridCostTables and tables.plain
        assert tables.pred_positions == graph.predecessor_positions == ((), (0,), (1,))

    def test_execute_routes_graphs_to_graph_semantics(self):
        """Regression: ``execute`` used to accept a TaskGraph via duck-typing
        and evaluate it with chain semantics -- poisoning the shared record
        cache for ``execute_graph`` and breaking the measure paths."""
        platform = edge_cluster_platform()
        graph = fork_join_graph(branches=2)
        executor = SimulatedExecutor(platform, seed=0)
        placement = "DAED"
        routed = executor.execute(graph, placement)
        reference = SimulatedExecutor(platform, seed=0).execute_graph(graph, placement)
        assert_records_identical(reference, routed)
        # The cache holds the graph record, so execute_graph agrees after the fact.
        assert executor.execute_graph(graph, placement) is routed
        # measure/measure_all follow the graph path with the usual RNG stream.
        on_graph = SimulatedExecutor(platform, seed=4)
        batched = SimulatedExecutor(platform, seed=4)
        expected = batched.measure_all_batch(graph, [placement, "EEEE"], repetitions=7)
        actual = on_graph.measure_all(graph, [placement, "EEEE"], repetitions=7)
        assert actual.labels == expected.labels
        for label in expected.labels:
            assert np.array_equal(actual[label], expected[label])

    def test_executor_caches_graph_records_and_tables(self):
        platform = edge_cluster_platform()
        graph = fork_join_graph(branches=2)
        executor = SimulatedExecutor(platform, seed=0)
        first = executor.execute_graph(graph, "DDDD")
        assert executor.execute_graph(graph, "DDDD") is first
        assert executor.cost_tables(graph) is executor.cost_tables(graph)
        executor.clear_execution_cache()
        assert executor.execute_graph(graph, "DDDD") is not first
