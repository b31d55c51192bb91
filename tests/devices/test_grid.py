"""Equivalence tests for the condition-stacked grid execution engine.

The central claim: ``build_tables`` over scenario platforms + ``execute_placements_grid``
are **bitwise identical** to deriving each scenario's platform, building its
plain tables and looping ``execute_placements`` -- for every table entry and
every metric, on calibrated and randomized platforms alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    build_tables,
    DeviceSpec,
    LinkSpec,
    Platform,
    execute_placements,
    execute_placements_grid,
    edge_cluster_platform,
    lte,
    smartphone_cloud_platform,
    wifi_ac,
)
from repro.offload import placement_matrix
from repro.scenarios import (
    DeviceLoadFactor,
    DvfsFrequencyScale,
    EnergyPriceScale,
    LinkBandwidthScale,
    LinkLatencyScale,
    ScenarioGrid,
    link_degradation_grid,
)
from repro.tasks import GemmLoopTask, RegularizedLeastSquaresTask, TaskChain

from factories import random_chain, random_platform

SCENARIO_AXES = [
    (LinkBandwidthScale(), [1.0, 0.5, 0.2]),
    (LinkLatencyScale(), [1.0, 5.0]),
    (DeviceLoadFactor(), [1.0, 2.0]),
]

TABLE_FIELDS = (
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
)

SHARED_FIELDS = ("flops_by_device", "transferred_bytes")
STACKED_FIELDS = (
    "total_time_s",
    "busy_by_device",
    "transfer_energy_j",
    "active_j",
    "idle_j",
    "energy_total_j",
    "operating_cost",
)


def chain_of(n_tasks: int) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(size=40 + 40 * i, iterations=4, name=f"L{i + 1}")
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"grid-test-{n_tasks}")


def assert_grid_matches_loop(grid_tables, grid, chain, platforms, matrix):
    for index, platform in enumerate(platforms):
        tables = build_tables(chain, platform)
        for field in TABLE_FIELDS:
            assert np.array_equal(
                getattr(grid_tables.table(index), field), getattr(tables, field), equal_nan=True
            ), f"table field {field} differs for scenario {index}"
        batch = execute_placements(tables, matrix)
        for field in STACKED_FIELDS:
            assert np.array_equal(getattr(grid, field)[index], getattr(batch, field)), (
                f"{field} differs for scenario {index}"
            )
        for field in SHARED_FIELDS:
            assert np.array_equal(getattr(grid, field), getattr(batch, field)), (
                f"{field} differs for scenario {index}"
            )


class TestBuildGrid:
    def test_bitwise_identical_to_scalar_builds_on_calibrated_platform(self):
        base = edge_cluster_platform()
        scenarios = ScenarioGrid.cartesian(SCENARIO_AXES)
        platforms = scenarios.platforms(base)
        chain = chain_of(4)
        grid_tables = build_tables(chain, platforms)
        matrix = placement_matrix(len(chain), len(base.aliases))
        grid = execute_placements_grid(grid_tables, matrix)
        assert grid.total_time_s.shape == (len(platforms), matrix.shape[0])
        assert_grid_matches_loop(grid_tables, grid, chain, platforms, matrix)

    def test_bitwise_identical_on_randomized_platforms(self, rng):
        for n_devices in (2, 3, 4):
            base = random_platform(rng, n_devices)
            scenarios = ScenarioGrid.cartesian(
                [
                    (LinkBandwidthScale(), [1.0, float(rng.uniform(0.1, 0.9))]),
                    (DvfsFrequencyScale(), [1.0, float(rng.uniform(0.3, 0.9))]),
                    (EnergyPriceScale(), [1.0, float(rng.uniform(1.5, 5.0))]),
                ]
            )
            platforms = scenarios.platforms(base)
            chain = random_chain(rng, 3)
            grid_tables = build_tables(chain, platforms)
            matrix = placement_matrix(3, n_devices)
            grid = execute_placements_grid(grid_tables, matrix)
            assert_grid_matches_loop(grid_tables, grid, chain, platforms, matrix)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_devices=st.integers(2, 4),
        n_tasks=st.integers(1, 4),
        n_scenarios=st.integers(1, 5),
    )
    def test_hypothesis_randomized_grid_equivalence(self, seed, n_devices, n_tasks, n_scenarios):
        rng = np.random.default_rng(seed)
        base = random_platform(rng, n_devices)
        axis_values = [float(rng.uniform(0.1, 3.0)) for _ in range(n_scenarios)]
        scenarios = ScenarioGrid.cartesian([(LinkLatencyScale(), axis_values)])
        platforms = scenarios.platforms(base)
        chain = random_chain(rng, n_tasks)
        grid_tables = build_tables(chain, platforms)
        matrix = placement_matrix(n_tasks, n_devices)
        grid = execute_placements_grid(grid_tables, matrix)
        assert_grid_matches_loop(grid_tables, grid, chain, platforms, matrix)

    def test_device_subset(self):
        base = smartphone_cloud_platform()
        scenarios = link_degradation_grid([("D", "A")], start=wifi_ac(), end=lte(), n_points=3)
        platforms = scenarios.platforms(base)
        chain = chain_of(3)
        grid_tables = build_tables(chain, platforms, devices=("D", "A"))
        matrix = placement_matrix(3, 2)
        grid = execute_placements_grid(grid_tables, matrix)
        for index, platform in enumerate(platforms):
            batch = execute_placements(
                build_tables(chain, platform, devices=("D", "A")), matrix
            )
            assert np.array_equal(grid.total_time_s[index], batch.total_time_s)
            assert np.array_equal(grid.energy_total_j[index], batch.energy_total_j)

    def test_rejects_mismatched_platforms(self):
        base = edge_cluster_platform()
        other = smartphone_cloud_platform()
        chain = chain_of(2)
        with pytest.raises(ValueError, match="device set"):
            build_tables(chain, [base, other])
        rehosted = Platform(devices=base.devices, links=base.links, host="E", name="rehosted")
        with pytest.raises(ValueError, match="host"):
            build_tables(chain, [base, rehosted])
        with pytest.raises(ValueError, match="at least one platform"):
            build_tables(chain, [])

    def test_missing_links_reject_only_traversing_placements(self):
        """Partially linked platforms behave exactly like the scalar engine."""
        devices = {
            "D": DeviceSpec(name="d"),
            "A": DeviceSpec(name="a"),
            "B": DeviceSpec(name="b"),
        }
        links = {
            ("D", "A"): LinkSpec(name="da", bandwidth_gbs=1.0),
            ("D", "B"): LinkSpec(name="db", bandwidth_gbs=1.0),
        }
        base = Platform(devices=devices, links=links, host="D", name="partial")
        scenarios = ScenarioGrid.cartesian([(LinkBandwidthScale(), [1.0, 0.5])])
        platforms = scenarios.platforms(base)
        chain = TaskChain(
            [GemmLoopTask(16, name="L1"), GemmLoopTask(16, name="L2")], name="partial"
        )
        grid_tables = build_tables(chain, platforms)
        assert grid_tables.missing_links
        # Placements avoiding the missing A<->B hop evaluate fine...
        safe = np.array([[0, 0], [0, 1], [1, 0], [2, 0]])
        grid = execute_placements_grid(grid_tables, safe)
        for index, platform in enumerate(platforms):
            batch = execute_placements(build_tables(chain, platform), safe)
            assert np.array_equal(grid.total_time_s[index], batch.total_time_s)
        # ... while an A -> B traversal raises the scalar engine's error.
        with pytest.raises(KeyError, match="no link defined"):
            execute_placements_grid(grid_tables, np.array([[1, 2]]))


class TestGridResult:
    def test_batch_views_and_labels(self):
        base = edge_cluster_platform()
        scenarios = link_degradation_grid(
            [("D", "A"), ("N", "A")], start=wifi_ac(), end=lte(), n_points=3
        )
        platforms = scenarios.platforms(base)
        chain = chain_of(3)
        grid_tables = build_tables(chain, platforms)
        matrix = placement_matrix(3, 4)
        grid = execute_placements_grid(grid_tables, matrix)
        assert len(grid) == matrix.shape[0]
        assert grid.n_scenarios == 3
        assert grid.labels()[0] == "DDD"
        assert grid.label(1) == "DDN"
        assert grid.placement(2) == ("D", "D", "E")
        for index in range(3):
            view = grid.batch(index)
            reference = execute_placements(build_tables(chain, platforms[index]), matrix)
            assert np.array_equal(view.total_time_s, reference.total_time_s)
            assert np.array_equal(view.energy_total_j, reference.energy_total_j)
            assert view.labels() == reference.labels()
            # Materialised records replay bitwise through the batch view too.
            record = view.record(5)
            expected = reference.record(5)
            assert record.total_time_s == expected.total_time_s
            assert record.energy.total_j == expected.energy.total_j
        assert [b.tables.platform.name for b in grid.batches()] == [p.name for p in platforms]

    def test_metric_values_shapes_and_validation(self):
        base = edge_cluster_platform()
        scenarios = link_degradation_grid([("D", "A")], start=wifi_ac(), end=lte(), n_points=4)
        chain = chain_of(2)
        grid_tables = build_tables(chain, scenarios.platforms(base))
        grid = execute_placements_grid(grid_tables, placement_matrix(2, 4))
        for metric in ("time", "energy", "cost"):
            assert grid.metric_values(metric).shape == (4, 16)
        with pytest.raises(ValueError, match="unknown metric"):
            grid.metric_values("latency")
