"""Tests for MathTask implementations, TaskCost and task chains."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tasks import (
    FLOAT64_BYTES,
    GemmLoopTask,
    RegularizedLeastSquaresTask,
    TaskChain,
    TaskCost,
    gemm_flops,
    regularized_least_squares_flops,
)


class TestTaskCost:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskCost(flops=-1, input_bytes=0, output_bytes=0, working_set_bytes=0, kernel_calls=1)
        with pytest.raises(ValueError):
            TaskCost(flops=1, input_bytes=0, output_bytes=0, working_set_bytes=0, kernel_calls=0)

    def test_transferred_bytes(self):
        cost = TaskCost(flops=1, input_bytes=10, output_bytes=5, working_set_bytes=3, kernel_calls=2)
        assert cost.transferred_bytes == 15

    def test_scaled(self):
        cost = TaskCost(flops=10, input_bytes=4, output_bytes=2, working_set_bytes=8, kernel_calls=3)
        doubled = cost.scaled(2)
        assert doubled.flops == 20
        assert doubled.kernel_calls == 6
        assert doubled.working_set_bytes == 8
        with pytest.raises(ValueError):
            cost.scaled(0)


class TestGemmLoopTask:
    def test_square_cost(self):
        task = GemmLoopTask(size=100, iterations=3, name="L1")
        cost = task.cost()
        assert cost.flops == pytest.approx(3 * (gemm_flops(100, 100, 100) + 2 * 100 * 100))
        assert cost.input_bytes == pytest.approx(3 * 2 * 100 * 100 * FLOAT64_BYTES)
        assert cost.output_bytes == FLOAT64_BYTES
        assert cost.kernel_calls == 6

    def test_rectangular_shape_and_return_product(self):
        task = GemmLoopTask(size=(64, 8, 32), iterations=2, name="L2", return_product=True)
        assert task.shape == (64, 8, 32)
        cost = task.cost()
        assert cost.flops == pytest.approx(2 * (gemm_flops(64, 32, 8) + 2 * 64 * 32))
        assert cost.output_bytes == pytest.approx(2 * 64 * 32 * FLOAT64_BYTES)

    def test_generate_on_device_reduces_input_bytes(self):
        local = GemmLoopTask(size=50, generate_on_host=False)
        assert local.cost().input_bytes == FLOAT64_BYTES

    def test_run_returns_positive_penalty(self, rng):
        task = GemmLoopTask(size=16, iterations=2)
        penalty = task.run(0.0, rng=rng)
        assert penalty > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GemmLoopTask(size=0)
        with pytest.raises(ValueError):
            GemmLoopTask(size=(2, 2))
        with pytest.raises(ValueError):
            GemmLoopTask(size=4, iterations=0)
        with pytest.raises(ValueError):
            GemmLoopTask(size=4, name="")


class TestRegularizedLeastSquaresTask:
    def test_cost_matches_flop_formula(self):
        task = RegularizedLeastSquaresTask(size=30, iterations=4, name="L1")
        assert task.cost().flops == pytest.approx(4 * regularized_least_squares_flops(30))
        assert task.flops == task.cost().flops

    def test_run_reduces_residual_sensibly(self, rng):
        task = RegularizedLeastSquaresTask(size=12, iterations=3)
        penalty = task.run(0.0, rng=rng)
        assert np.isfinite(penalty)
        assert penalty >= 0

    def test_run_with_large_incoming_penalty_is_stable(self, rng):
        task = RegularizedLeastSquaresTask(size=8, iterations=1)
        penalty = task.run(1e6, rng=rng)
        assert np.isfinite(penalty)

    def test_solution_matches_direct_inverse(self, rng):
        """One iteration of the kernel equals the textbook formula (Procedure 6, line 4)."""
        n = 10
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        lam = 0.7
        expected = np.linalg.solve(a.T @ a + lam * np.eye(n), a.T @ b)
        from scipy import linalg

        gram = a.T @ a
        gram.flat[:: n + 1] += lam
        z = linalg.cho_solve(linalg.cho_factor(gram, lower=True), a.T @ b)
        np.testing.assert_allclose(z, expected, rtol=1e-8)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RegularizedLeastSquaresTask(size=0)
        with pytest.raises(ValueError):
            RegularizedLeastSquaresTask(size=5, iterations=-1)

    @given(
        size=st.integers(1, 5000),
        iterations=st.integers(1, 50),
        generate_on_host=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_memoized_cost_is_bitwise_the_formula(self, size, iterations, generate_on_host):
        task = RegularizedLeastSquaresTask(
            size=size, iterations=iterations, generate_on_host=generate_on_host
        )
        matrix_bytes = size * size * FLOAT64_BYTES
        expected = TaskCost(
            flops=regularized_least_squares_flops(size) * iterations,
            input_bytes=(
                2.0 * matrix_bytes * iterations if generate_on_host else FLOAT64_BYTES
            ),
            output_bytes=float(FLOAT64_BYTES),
            working_set_bytes=5.0 * matrix_bytes,
            kernel_calls=6 * iterations,
        )
        for _ in range(2):  # computed, then memoized
            cost = task.cost()
            for field in ("flops", "input_bytes", "output_bytes", "working_set_bytes"):
                assert float(getattr(cost, field)).hex() == float(getattr(expected, field)).hex()
            assert cost == expected

    def test_memoized_cost_still_rejects_an_invalid_size(self):
        task = RegularizedLeastSquaresTask(size=4)
        task.size = 0
        for _ in range(2):  # a raise is never memoized
            with pytest.raises(ValueError, match=r"^size must be positive, got 0$"):
                task.cost()


class TestTaskChain:
    def _chain(self) -> TaskChain:
        return TaskChain(
            [GemmLoopTask(8, name="L1"), GemmLoopTask(16, name="L2"), GemmLoopTask(4, name="L3")],
            name="demo",
        )

    def test_sequence_protocol(self):
        chain = self._chain()
        assert len(chain) == 3
        assert chain.task_names == ["L1", "L2", "L3"]
        assert chain[1].name == "L2"
        assert [t.name for t in chain] == ["L1", "L2", "L3"]

    def test_total_flops_is_sum(self):
        chain = self._chain()
        assert chain.total_flops == pytest.approx(sum(t.flops for t in chain))
        assert chain.flops_by_task()["L2"] == chain[1].flops
        assert len(chain.costs()) == 3

    def test_run_propagates_penalty(self, rng):
        assert self._chain().run(rng=rng) > 0

    def test_subchain(self):
        sub = self._chain().subchain(["L1", "L3"])
        assert sub.task_names == ["L1", "L3"]
        with pytest.raises(KeyError):
            self._chain().subchain(["L9"])

    def test_subchain_unknown_name_lists_available_tasks(self):
        """Regression: the KeyError must name the unknown AND available tasks
        (mirroring the get_platform error style)."""
        with pytest.raises(KeyError, match=r"unknown tasks \['L9'\].*available.*'L1', 'L2', 'L3'"):
            self._chain().subchain(["L1", "L9"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            TaskChain([GemmLoopTask(4, name="L1"), GemmLoopTask(4, name="L1")])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            TaskChain([])


class TestWorkloads:
    def test_registry_contains_paper_workloads(self):
        from repro.tasks import WORKLOADS, get_workload

        assert {"figure1", "table1"} <= set(WORKLOADS)
        assert len(get_workload("figure1")) == 2
        assert len(get_workload("table1")) == 3
        with pytest.raises(KeyError):
            get_workload("does-not-exist")

    def test_fork_join_graph_shape(self):
        from repro.tasks import fork_join_graph

        graph = fork_join_graph(branches=4)
        assert graph.task_names == ["prep", "b1", "b2", "b3", "b4", "join"]
        assert graph.sources == ("prep",) and graph.sinks == ("join",)
        assert graph.levels == (("prep",), ("b1", "b2", "b3", "b4"), ("join",))
        with pytest.raises(ValueError):
            fork_join_graph(branches=1)

    def test_table1_sizes_match_procedure5(self):
        from repro.tasks import table1_chain

        chain = table1_chain(loop_size=10)
        assert [t.size for t in chain] == [50, 75, 300]
        assert all(t.iterations == 10 for t in chain)
        assert chain.task_names == ["L1", "L2", "L3"]

    def test_multiscale_and_object_detection_workloads(self):
        from repro.tasks import multiscale_chain, object_detection_chain

        assert len(multiscale_chain(scales=(10, 20, 30))) == 3
        with pytest.raises(ValueError):
            multiscale_chain(scales=(10,))
        detection = object_detection_chain(low_fidelity=16, high_fidelity=32, frames=2)
        assert detection.task_names == ["detect", "refine"]

    @given(loop_size=st.integers(min_value=1, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_table1_flops_scale_linearly_with_loop_size(self, loop_size):
        from repro.tasks import table1_chain

        base = table1_chain(loop_size=1).total_flops
        assert table1_chain(loop_size=loop_size).total_flops == pytest.approx(base * loop_size)
