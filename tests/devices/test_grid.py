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
    SimulatedExecutor,
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

from factories import random_chain, random_graph, random_platform

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
        dropped = dict(base.links)
        dropped.pop(next(iter(dropped)))
        relinked = Platform(devices=base.devices, links=dropped, host=base.host, name="relinked")
        with pytest.raises(ValueError, match="must not rewire the topology"):
            build_tables(chain, [base, relinked])
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


DEFERRED_FIELDS = ("energy_total_j", "operating_cost", "active_j", "idle_j")


class TestDeferredEnergyFold:
    """``energy_total_j``/``operating_cost`` come from one per-device fold run
    on first access, and the active/idle cubes are computed on demand; their
    values stay exactly the eager ones, on the grid, on its batch views and on
    plain batches alike."""

    @pytest.mark.parametrize("shape", ["chain", "graph"])
    @pytest.mark.parametrize("seed", range(3))
    def test_deferred_fields_equal_plain_runs_and_the_scalar_oracle(self, seed, shape):
        rng = np.random.default_rng(900 + seed)
        base = random_platform(rng, 4)
        n_tasks = 3
        workload = random_chain(rng, n_tasks) if shape == "chain" else random_graph(rng, n_tasks)
        # Device "C" is not a candidate: it only idles, through extra_idle_power.
        devices = ("D", "A", "B")
        scenarios = ScenarioGrid.cartesian(
            [(LinkBandwidthScale(), [1.0, 0.4]), (EnergyPriceScale(), [1.0, 3.0])]
        )
        grid_tables = build_tables(workload, base, scenarios=scenarios, devices=devices)
        matrix = placement_matrix(n_tasks, len(devices))
        grid = execute_placements_grid(grid_tables, matrix)
        rows = rng.choice(len(matrix), size=4, replace=False)
        for index, platform in enumerate(scenarios.platforms(base)):
            plain = execute_placements(grid_tables.table(index), matrix)
            view = grid.batch(index)
            # Reading cost before energy must not change either value.
            for name in reversed(DEFERRED_FIELDS):
                expected = getattr(plain, name)
                assert getattr(grid, name)[index].tobytes() == expected.tobytes(), name
                assert getattr(view, name).tobytes() == expected.tobytes(), name
            executor = SimulatedExecutor(platform)
            for i in rows:
                # One-row batches skip the chain kernel's device-major busy
                # planes; the fold over strided columns must agree.
                single = execute_placements_grid(grid_tables, matrix[i : i + 1])
                record = executor.execute(workload, grid.placement(i))
                assert single.energy_total_j[index, 0] == grid.energy_total_j[index, i]
                assert single.operating_cost[index, 0] == grid.operating_cost[index, i]
                assert record.energy.total_j == grid.energy_total_j[index, i]
                assert record.operating_cost == grid.operating_cost[index, i]
                for j, alias in enumerate(devices):
                    assert record.energy.active_j[alias] == grid.active_j[index, i, j]
                    assert record.energy.idle_j[alias] == grid.idle_j[index, i, j]
                assert record.energy.idle_j["C"] > 0.0

    def test_the_fold_runs_once_and_only_on_demand(self, monkeypatch):
        import repro.devices.grid as grid_module

        calls = []
        fold = grid_module._finalize_grid

        def counting_fold(*args, **kwargs):
            calls.append(1)
            return fold(*args, **kwargs)

        monkeypatch.setattr(grid_module, "_finalize_grid", counting_fold)
        scenarios = link_degradation_grid([("D", "A")], start=wifi_ac(), end=lte(), n_points=3)
        grid_tables = build_tables(chain_of(3), edge_cluster_platform(), scenarios=scenarios)
        grid = execute_placements_grid(grid_tables, placement_matrix(3, 4))
        assert grid.batch(1).total_time_s.tobytes() == grid.total_time_s[1].tobytes()
        plain = execute_placements(grid_tables.table(0), placement_matrix(3, 4))
        assert plain.total_time_s.tobytes() == grid.total_time_s[0].tobytes()
        assert calls == []
        plain_cost = plain.operating_cost  # folds the plain batch's one-row grid
        assert calls == [1]
        energy, cost = grid.energy_total_j, grid.operating_cost
        assert calls == [1, 1]
        assert plain_cost.tobytes() == cost[0].tobytes()
        assert grid.batch(2).energy_total_j.tobytes() == energy[2].tobytes()
        assert grid.batch(0).operating_cost.tobytes() == cost[0].tobytes()
        assert calls == [1, 1]


class TestDeferredOutputFold:
    """The chain kernel folds busy seconds, FLOPs, bytes and transfer energy
    only when one of them is read: a search ranking time alone never runs
    that fold, an energy-ranked one runs it once per chunk."""

    def test_time_only_searches_never_run_the_output_fold(self, monkeypatch):
        import repro.devices.grid as grid_module
        from repro.search import WorstCaseObjective, search_grid, search_space

        calls = []
        fold = grid_module._chain_outputs

        def counting_fold(*args, **kwargs):
            calls.append(1)
            return fold(*args, **kwargs)

        monkeypatch.setattr(grid_module, "_chain_outputs", counting_fold)
        executor = SimulatedExecutor(edge_cluster_platform())
        chain = chain_of(3)  # 4**3 = 64 placements: four chunks of 16
        scenarios = link_degradation_grid([("D", "A")], start=wifi_ac(), end=lte(), n_points=3)
        timed = search_grid(
            executor, chain, scenarios, objectives=(WorstCaseObjective(),), top_k=2, batch_size=16
        )
        search_space(executor, chain, objectives=("time",), top_k=3, frontier=None, batch_size=16)
        assert calls == []
        energy = search_grid(
            executor, chain, scenarios, objectives=(WorstCaseObjective(base="energy"),),
            top_k=1, batch_size=16,
        )
        assert calls == [1] * 4
        search_space(executor, chain, objectives=("energy",), top_k=1, frontier=None, batch_size=16)
        assert calls == [1] * 8
        assert timed.n_evaluated == energy.n_evaluated == 64
