"""Differential pins of the vectorized expected-cost-under-faults engine.

Three equivalences anchor the subsystem:

* vectorized :func:`execute_fault_placements` == scalar
  :func:`expected_record`, **bitwise**, on randomized platforms, chains and
  graphs under randomized fault profiles;
* the fault-free profile under a zero-retry policy == the classic engine,
  **bitwise** (the collapse that makes the fault path a strict superset);
* grid engine slices == per-scenario tables, **bitwise**.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from factories import random_chain, random_graph, random_platform

from repro.devices import Platform, build_tables, edge_cluster_platform, execute_placements
from repro.faults import (
    DeviceFailure,
    FaultProfile,
    LinkDropout,
    RetryPolicy,
    StragglerModel,
    TimeoutPolicy,
    execute_fault_placements,
    execute_fault_placements_grid,
    expected_record,
)
from repro.offload import placement_matrix
from repro.scenarios import DeviceFailureRate, ScenarioGrid
from repro.tasks import TaskGraph

SCALAR_FIELDS = (
    "total_time_s",
    "success_probability",
    "expected_attempts",
    "energy_total_j",
    "operating_cost",
    "transferred_bytes",
)


def random_profile(rng: np.random.Generator, aliases: tuple[str, ...]) -> FaultProfile:
    """A randomized profile exercising every model component."""
    overrides = {
        alias: float(rng.uniform(0.0, 0.4))
        for alias in rng.choice(aliases, size=min(2, len(aliases)), replace=False)
    }
    return FaultProfile(
        device_failure=DeviceFailure(
            rate=float(rng.uniform(0.0, 0.15)),
            rates=overrides,
            load_scaled=bool(rng.random() < 0.3),
        ),
        link_dropout=LinkDropout(rate=float(rng.uniform(0.0, 0.1))),
        straggler=StragglerModel(
            probability=float(rng.uniform(0.0, 0.3)),
            slowdown=float(rng.uniform(1.0, 4.0)),
        ),
    )


def assert_batch_matches_records(batch, tables, matrix, rows):
    for index in rows:
        record = expected_record(tables, matrix[index])
        for field in SCALAR_FIELDS:
            assert getattr(batch, field)[index] == getattr(record, field), (
                field,
                record.placement,
            )
        busy = [record.busy_time_by_device[alias] for alias in tables.aliases]
        assert list(batch.busy_by_device[index]) == busy
        flops = [record.flops_by_device[alias] for alias in tables.aliases]
        assert list(batch.flops_by_device[index]) == flops


class TestVectorizedMatchesScalarReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_chains_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices=int(rng.integers(2, 5)))
        chain = random_chain(rng, n_tasks=int(rng.integers(2, 5)))
        retry = RetryPolicy(
            max_attempts=int(rng.integers(1, 5)),
            backoff_base_s=float(rng.uniform(0.0, 0.01)),
        )
        timeout = TimeoutPolicy(timeout_s=float(rng.uniform(0.05, 5.0)))
        tables = build_tables(
            chain,
            platform,
            retry=retry,
            faults=random_profile(rng, tuple(platform.aliases)),
            timeout=timeout,
        )
        matrix = placement_matrix(len(chain), len(platform.aliases))
        batch = execute_fault_placements(tables, matrix)
        rows = rng.choice(matrix.shape[0], size=min(40, matrix.shape[0]), replace=False)
        assert_batch_matches_records(batch, tables, matrix, rows)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_graphs_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices=3)
        graph = random_graph(rng, n_tasks=4)
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.002)
        tables = build_tables(
            graph, platform, retry=retry, faults=random_profile(rng, tuple(platform.aliases))
        )
        matrix = placement_matrix(len(graph), len(platform.aliases))
        batch = execute_fault_placements(tables, matrix)
        rows = rng.choice(matrix.shape[0], size=30, replace=False)
        assert_batch_matches_records(batch, tables, matrix, rows)


class TestFaultFreeCollapse:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_classic_engine_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices=3)
        for workload in (random_chain(rng, 4), random_graph(rng, 4)):
            matrix = placement_matrix(len(workload), len(platform.aliases))
            classic = execute_placements(build_tables(workload, platform), matrix)
            fault = execute_fault_placements(
                build_tables(workload, platform, retry=RetryPolicy()), matrix
            )
            assert np.array_equal(fault.total_time_s, classic.total_time_s)
            assert np.array_equal(fault.energy_total_j, classic.energy_total_j)
            assert np.array_equal(fault.operating_cost, classic.operating_cost)
            assert np.array_equal(fault.busy_by_device, classic.busy_by_device)
            assert np.array_equal(fault.transferred_bytes, classic.transferred_bytes)
            assert np.all(fault.success_probability == 1.0)
            assert np.all(fault.expected_attempts == len(workload))

    def test_zero_failure_with_retry_budget_still_collapses(self):
        # p_fail=0: every attempt succeeds first try, so a generous retry
        # budget changes nothing -- bitwise.
        rng = np.random.default_rng(3)
        platform = random_platform(rng, n_devices=3)
        chain = random_chain(rng, 3)
        matrix = placement_matrix(len(chain), len(platform.aliases))
        classic = execute_placements(build_tables(chain, platform), matrix)
        fault = execute_fault_placements(
            build_tables(
                chain, platform, retry=RetryPolicy(max_attempts=4, backoff_base_s=0.5)
            ),
            matrix,
        )
        assert np.array_equal(fault.total_time_s, classic.total_time_s)
        assert np.array_equal(fault.energy_total_j, classic.energy_total_j)
        assert np.all(fault.success_probability == 1.0)


class TestImpossibleTasks:
    def test_certain_failure_yields_failed_records_not_loops(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(0)
        chain = random_chain(rng, 3)
        profile = FaultProfile(device_failure=DeviceFailure(rates={"A": 1.0}))
        tables = build_tables(
            chain, platform, retry=RetryPolicy(max_attempts=5), faults=profile
        )
        matrix = placement_matrix(len(chain), len(platform.aliases))
        batch = execute_fault_placements(tables, matrix)
        uses_a = (matrix == platform.aliases.index("A")).any(axis=1)
        assert np.all(batch.success_probability[uses_a] == 0.0)
        assert np.all(np.isinf(batch.total_time_s[uses_a]))
        assert np.all(np.isinf(batch.energy_total_j[uses_a]))
        assert np.all(batch.success_probability[~uses_a] > 0.0)
        assert np.all(np.isfinite(batch.total_time_s[~uses_a]))
        # The scalar reference agrees on an impossible placement.
        row = int(np.flatnonzero(uses_a)[0])
        record = expected_record(tables, matrix[row])
        assert record.success_probability == 0.0
        assert np.isinf(record.total_time_s)

    def test_unreachable_timeout_kills_every_attempt(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(1)
        chain = random_chain(rng, 2)
        tables = build_tables(
            chain,
            platform,
            retry=RetryPolicy(max_attempts=3),
            timeout=TimeoutPolicy(timeout_s=1e-12),
        )
        batch = execute_fault_placements(
            tables, placement_matrix(len(chain), len(platform.aliases))
        )
        assert np.all(batch.success_probability == 0.0)
        assert np.all(np.isinf(batch.total_time_s))

    @pytest.mark.parametrize("shape", ["chain", "graph"])
    def test_impossible_grid_rows_stay_inf_through_the_deferred_fields(self, shape):
        """The fault grid keeps its eager, inf-masked energy and cost: the
        classic grid's deferred fold must not recompute them from the guarded
        finite accounting, on the grid or on its batch views."""
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 3)
        workload = chain
        if shape == "graph":
            workload = TaskGraph(chain.tasks, edges=[("L1", "L2"), ("L1", "L3")], name="fork")
        scenarios = ScenarioGrid.cartesian([(DeviceFailureRate(devices=("A",)), [0.0, 1.0])])
        gt = build_tables(workload, platform, scenarios=scenarios, retry=RetryPolicy(max_attempts=3))
        matrix = placement_matrix(3, len(platform.aliases))
        grid = execute_fault_placements_grid(gt, matrix)
        uses_a = (matrix == platform.aliases.index("A")).any(axis=1)
        for name in ("total_time_s", "energy_total_j", "operating_cost"):
            values = getattr(grid, name)
            assert np.all(np.isinf(values[1, uses_a])), name
            assert np.all(np.isfinite(values[1, ~uses_a])), name
            assert np.all(np.isfinite(values[0])), name
        assert np.all(np.isfinite(grid.active_j)) and np.all(np.isfinite(grid.idle_j))
        for index in range(2):
            single = execute_fault_placements(gt.table(index), matrix)
            view = grid.batch(index)
            for name in ("energy_total_j", "operating_cost", "active_j", "idle_j"):
                expected = getattr(single, name)
                assert getattr(grid, name)[index].tobytes() == expected.tobytes(), name
                assert getattr(view, name).tobytes() == expected.tobytes(), name
            for i in (0, int(np.flatnonzero(uses_a)[0]), len(matrix) - 1):
                record = expected_record(gt.table(index), matrix[i])
                assert record.energy_total_j == grid.energy_total_j[index, i]
                assert record.operating_cost == grid.operating_cost[index, i]
                for j, alias in enumerate(platform.aliases):
                    assert record.energy.active_j[alias] == grid.active_j[index, i, j]
                    assert record.energy.idle_j[alias] == grid.idle_j[index, i, j]


class TestGridSlicing:
    @pytest.mark.parametrize("build", ["platforms", "fused"])
    @pytest.mark.parametrize("shape", ["chain", "graph"])
    def test_grid_equals_per_scenario_tables_bitwise(self, shape, build):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 3)
        workload = chain
        if shape == "graph":
            workload = TaskGraph(chain.tasks, edges=[("L1", "L2"), ("L1", "L3")], name="fork")
        axis = DeviceFailureRate(devices=("E", "A"))
        scenarios = ScenarioGrid.cartesian([(axis, [0.0, 0.1, 0.3])])
        platforms = scenarios.platforms(platform)
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.001)
        if build == "fused":
            gt = build_tables(workload, platform, scenarios=scenarios, retry=retry)
        else:
            gt = build_tables(workload, platforms, retry=retry)
        assert gt.base.pred_positions == workload.predecessor_positions
        matrix = placement_matrix(len(workload), len(platform.aliases))
        grid = execute_fault_placements_grid(gt, matrix)
        for index in range(len(platforms)):
            single = execute_fault_placements(gt.table(index), matrix)
            view = grid.batch(index)
            for field in SCALAR_FIELDS + ("busy_by_device", "flops_by_device", "idle_j"):
                expected = getattr(single, field)
                assert np.array_equal(getattr(grid, field)[index], expected), field
                assert np.array_equal(getattr(view, field), expected), field
            # A direct build on the scenario platform matches the slice too.
            direct = build_tables(workload, platforms[index], retry=retry)
            assert np.array_equal(gt.node_survival[index], direct.node_survival[0])


class TestMissingLinksUnderFaults:
    """Faults never rescue a placement that crosses a missing link: the fault
    engine, row and grid, fails exactly where and how the classic engine does."""

    @pytest.mark.parametrize("missing", [("A", "B"), ("B", "D")])
    @pytest.mark.parametrize("seed", range(2))
    def test_every_placement_matches_the_classic_engine(self, seed, missing):
        rng = np.random.default_rng(300 + seed)
        base = random_platform(rng, 3)  # devices D (host), A, B
        links = {pair: link for pair, link in base.links.items() if set(pair) != set(missing)}
        platform = Platform(devices=base.devices, links=links, host="D", name="partial")
        chain = random_chain(rng, 3)
        join = TaskGraph(chain.tasks, edges=[("L1", "L3"), ("L2", "L3")], name="join")
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.001)
        faults = random_profile(rng, tuple(platform.aliases))
        matrix = placement_matrix(3, 3)
        for workload in (chain, join):
            classic = build_tables(workload, platform)
            fault_tables = (
                build_tables(workload, platform, retry=retry, faults=faults),
                build_tables(workload, [platform, platform], retry=retry, faults=faults),
            )
            outcomes = []
            for rows in [matrix[i : i + 1] for i in range(len(matrix))] + [matrix]:
                try:
                    execute_placements(classic, rows)
                    expected = None
                except KeyError as exc:
                    expected = str(exc)
                outcomes.append(expected)
                for tables in fault_tables:
                    if expected is None:
                        tables.execute(rows)
                        continue
                    with pytest.raises(KeyError) as error:
                        tables.execute(rows)
                    assert str(error.value) == expected
            assert None in outcomes and any(outcomes)


class TestExpectedRecordNormalisation:
    def test_accepts_alias_rows(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 3)
        tables = build_tables(chain, platform, retry=RetryPolicy(max_attempts=2))
        by_alias = expected_record(tables, ("D", "E", "A"))
        by_index = expected_record(
            tables, [platform.aliases.index(a) for a in ("D", "E", "A")]
        )
        assert by_alias == by_index

    def test_unknown_alias_names_candidates(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 2)
        tables = build_tables(chain, platform, retry=RetryPolicy())
        with pytest.raises(ValueError, match=r"uses device 'Z'.*candidates"):
            expected_record(tables, ("D", "Z"))

    def test_wrong_length_names_workload(self):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 3)
        tables = build_tables(chain, platform, retry=RetryPolicy())
        with pytest.raises(ValueError, match="has 2 entries but workload"):
            expected_record(tables, ("D", "E"))

    @pytest.mark.parametrize("bad", [[-1, 0, 0], [7, 0, 0]])
    def test_out_of_range_index_raises_the_batch_error(self, bad):
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 3)
        tables = build_tables(chain, platform, retry=RetryPolicy())
        with pytest.raises(ValueError) as batch:
            execute_fault_placements(tables, np.array([bad]))
        with pytest.raises(ValueError) as record:
            expected_record(tables, bad)
        assert str(record.value) == str(batch.value)
        assert "device indices in [0, 4)" in str(record.value)

    @pytest.mark.parametrize("bad", [1.7, 1.0, np.float64(1.0), True, np.True_])
    def test_non_integer_entries_raise_instead_of_truncating(self, bad):
        # The batch engine rejects float matrices; the scalar reference must
        # not silently evaluate int(1.7) == 1 in their place.
        platform = edge_cluster_platform()
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 3)
        tables = build_tables(chain, platform, retry=RetryPolicy())
        with pytest.raises(TypeError, match="integer dtype"):
            execute_fault_placements(tables, np.array([[0, 1, 1.7]]))
        with pytest.raises(TypeError, match=re.escape(f"entry {bad!r}")):
            expected_record(tables, [0, 1, bad])
        assert expected_record(tables, [0, 1, np.int64(1)]) == expected_record(tables, [0, 1, 1])
