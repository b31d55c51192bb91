"""Pinning tests for the extracted cost model (``repro.devices.costmodel``).

The refactor moved the per-(task, device) compute/transfer/energy math out of
``SimulatedExecutor.execute`` and the cost-table build into one shared
module.  These tests pin the extraction down on randomized platforms: the
formula tier agrees bitwise with the spec methods it backs, the per-task
helpers reproduce the executor's aggregation, and executor + tables remain
mutually bitwise consistent (the refactor's no-drift guarantee).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import (
    build_tables,
    DeviceSpec,
    LinkSpec,
    Platform,
    SimulatedExecutor,
)
from repro.devices import costmodel
from repro.devices.costmodel import (
    PENALTY_MESSAGE_BYTES,
    penalty_cost,
    task_device_cost,
)
from repro.offload import enumerate_placements, placement_matrix

from factories import random_chain, random_link, random_platform


class TestFormulaTier:
    def test_busy_time_matches_device_compute_time(self, rng):
        """Scalar formula == DeviceSpec.compute_time, bitwise, random params."""
        for _ in range(50):
            device = DeviceSpec(
                name="d",
                peak_gflops=float(rng.uniform(1.0, 500.0)),
                half_saturation_flops=float(rng.uniform(0.0, 1e8)),
                memory_bandwidth_gbs=float(rng.uniform(0.5, 500.0)),
                kernel_launch_overhead_s=float(rng.uniform(0.0, 1e-3)),
            )
            chain = random_chain(rng, 1)
            cost = chain.costs()[0]
            expected = device.compute_time(cost)
            actual = costmodel.busy_time(
                cost.flops,
                cost.kernel_calls,
                cost.working_set_bytes,
                device.peak_gflops,
                device.half_saturation_flops,
                device.memory_bandwidth_gbs,
                device.kernel_launch_overhead_s,
            )
            assert float(actual) == expected

    def test_busy_time_broadcasts_bitwise(self, rng):
        """Array evaluation over parameter grids == elementwise scalar calls."""
        chain = random_chain(rng, 1)
        cost = chain.costs()[0]
        peaks = rng.uniform(1.0, 500.0, size=(4, 3))
        halves = rng.uniform(0.0, 1e8, size=(4, 3))
        bws = rng.uniform(0.5, 500.0, size=(4, 3))
        launches = rng.uniform(0.0, 1e-3, size=(4, 3))
        grid = costmodel.busy_time(
            cost.flops, cost.kernel_calls, cost.working_set_bytes, peaks, halves, bws, launches
        )
        for i in range(4):
            for j in range(3):
                scalar = costmodel.busy_time(
                    cost.flops,
                    cost.kernel_calls,
                    cost.working_set_bytes,
                    peaks[i, j],
                    halves[i, j],
                    bws[i, j],
                    launches[i, j],
                )
                assert grid[i, j] == scalar

    def test_transfer_time_scalar_behaviour_is_unchanged(self, rng):
        link = random_link(rng)
        assert link.transfer_time(0) == 0.0
        assert isinstance(link.transfer_time(0), float)
        n_bytes = float(rng.uniform(1.0, 1e7))
        assert link.transfer_time(n_bytes) == link.latency_s + n_bytes / (
            link.bandwidth_gbs * 1e9
        )
        with pytest.raises(ValueError):
            link.transfer_time(-1.0)
        with pytest.raises(ValueError):
            link.transfer_energy(-1.0)

    def test_transfer_time_vectorizes_over_byte_arrays(self, rng):
        """Satellite: LinkSpec methods accept ndarrays, elementwise == scalar."""
        link = random_link(rng)
        counts = np.concatenate([[0.0], rng.uniform(1.0, 1e7, size=10)])
        times = link.transfer_time(counts)
        energies = link.transfer_energy(counts)
        assert isinstance(times, np.ndarray) and times.shape == counts.shape
        for count, time_v, energy_v in zip(counts, times, energies):
            assert time_v == link.transfer_time(float(count))
            assert energy_v == link.transfer_energy(float(count))
        with pytest.raises(ValueError):
            link.transfer_time(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            link.transfer_energy(np.array([1.0, -2.0]))

    def test_transfer_time_vectorizes_over_link_parameters(self, rng):
        """Scalar bytes against parameter arrays: the grid-build pattern."""
        bws = rng.uniform(0.01, 10.0, size=5)
        lats = rng.uniform(0.0, 1e-2, size=5)
        grid = costmodel.transfer_time(1234.0, bws, lats)
        for i in range(5):
            assert grid[i] == costmodel.transfer_time(1234.0, bws[i], lats[i])
        # Zero bytes short-circuit to exactly 0.0 for every parameter combo.
        assert np.array_equal(costmodel.transfer_time(0.0, bws, lats), np.zeros(5))


class TestTaskHelpers:
    def test_task_device_cost_matches_inline_aggregation(self, rng):
        """The helper reproduces the executor's historical inline expressions."""
        for _ in range(20):
            platform = random_platform(rng, 3)
            chain = random_chain(rng, 1)
            cost = chain.costs()[0]
            host = platform.host
            for alias in platform.aliases:
                entry = task_device_cost(platform, cost, alias)
                device = platform.device(alias)
                if alias == host:
                    assert entry.busy_s == device.compute_time(cost)
                    assert entry.hostio_time_s == 0.0
                    assert entry.hostio_bytes == 0.0
                    assert entry.energy_in_j == 0.0 and entry.energy_out_j == 0.0
                else:
                    assert entry.busy_s == device.compute_time(cost) + device.task_startup_overhead_s
                    assert entry.hostio_time_s == platform.transfer_time(
                        host, alias, cost.input_bytes
                    ) + platform.transfer_time(alias, host, cost.output_bytes)
                    assert entry.hostio_bytes == cost.transferred_bytes
                    assert entry.energy_in_j == platform.transfer_energy(
                        host, alias, cost.input_bytes
                    )
                    assert entry.energy_out_j == platform.transfer_energy(
                        alias, host, cost.output_bytes
                    )

    def test_penalty_cost_matches_platform_links(self, rng):
        platform = random_platform(rng, 3)
        for a in platform.aliases:
            for b in platform.aliases:
                hop = penalty_cost(platform, a, b)
                if a == b:
                    assert (hop.time_s, hop.energy_j, hop.n_bytes) == (0.0, 0.0, 0.0)
                else:
                    assert hop.time_s == platform.transfer_time(a, b, PENALTY_MESSAGE_BYTES)
                    assert hop.energy_j == platform.transfer_energy(a, b, PENALTY_MESSAGE_BYTES)
                    assert hop.n_bytes == PENALTY_MESSAGE_BYTES

    def test_missing_link_raise_and_nan_modes(self):
        """"raise" propagates the platform KeyError, "nan" poisons the fields."""
        devices = {"D": DeviceSpec(name="d"), "A": DeviceSpec(name="a"), "B": DeviceSpec(name="b")}
        platform_missing = Platform(
            devices=devices, links={("D", "A"): LinkSpec(name="l", bandwidth_gbs=1.0)}, host="D"
        )
        chain = random_chain(np.random.default_rng(0), 1)
        cost = chain.costs()[0]
        with pytest.raises(KeyError):
            task_device_cost(platform_missing, cost, "B")
        entry = task_device_cost(platform_missing, cost, "B", on_missing_link="nan")
        assert np.isnan(entry.hostio_time_s)
        assert np.isnan(entry.energy_in_j) and np.isnan(entry.energy_out_j)
        # The link-independent fields survive, exactly like the tables need.
        assert entry.busy_s == devices["B"].compute_time(cost)
        assert entry.hostio_bytes == cost.transferred_bytes
        with pytest.raises(KeyError):
            penalty_cost(platform_missing, "A", "B")
        hop = penalty_cost(platform_missing, "A", "B", on_missing_link="nan")
        assert np.isnan(hop.time_s) and np.isnan(hop.energy_j)
        assert hop.n_bytes == PENALTY_MESSAGE_BYTES


class TestRefactorConsistency:
    """Executor, cost tables and the shared model agree on random platforms."""

    @pytest.mark.parametrize("n_devices,n_tasks", [(2, 3), (3, 3), (4, 2)])
    def test_tables_and_executor_agree_with_costmodel(self, rng, n_devices, n_tasks):
        for _ in range(5):
            platform = random_platform(rng, n_devices)
            chain = random_chain(rng, n_tasks)
            tables = build_tables(chain, platform)
            costs = chain.costs()
            # Tables hold exactly the shared helpers' values...
            for t, cost in enumerate(costs):
                for d, alias in enumerate(tables.aliases):
                    entry = task_device_cost(platform, cost, alias)
                    assert tables.busy[t, d] == entry.busy_s
                    assert tables.hostio_time[t, d] == entry.hostio_time_s
                    assert tables.hostio_bytes[t, d] == entry.hostio_bytes
                    assert tables.energy_in[t, d] == entry.energy_in_j
                    assert tables.energy_out[t, d] == entry.energy_out_j
            # ... and the executor's records decompose into the same values.
            executor = SimulatedExecutor(platform, seed=0)
            for placement in enumerate_placements(n_tasks, platform.aliases)[:16]:
                record = executor.execute(chain, placement.devices)
                previous = platform.host
                for pos, (task_record, alias) in enumerate(zip(record.tasks, placement.devices)):
                    entry = task_device_cost(platform, costs[pos], alias)
                    hop = penalty_cost(platform, previous, alias)
                    assert task_record.busy_time_s == entry.busy_s
                    assert task_record.transfer_time_s == entry.hostio_time_s + hop.time_s
                    assert task_record.transferred_bytes == entry.hostio_bytes + hop.n_bytes
                    previous = alias

    def test_batch_and_sequential_stay_bitwise_identical(self, rng):
        """End-to-end: the refactored build/execute pair never drifts."""
        for n_devices in (2, 3):
            platform = random_platform(rng, n_devices)
            chain = random_chain(rng, 3)
            executor = SimulatedExecutor(platform, seed=0)
            tables = build_tables(chain, platform)
            from repro.devices import execute_placements

            matrix = placement_matrix(3, n_devices)
            batch = execute_placements(tables, matrix)
            for index, placement in enumerate(enumerate_placements(3, platform.aliases)):
                record = executor.execute(chain, placement.devices)
                assert batch.total_time_s[index] == record.total_time_s
                assert batch.energy_total_j[index] == record.energy.total_j
                assert batch.operating_cost[index] == record.operating_cost
