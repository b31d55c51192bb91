"""Plain tables are the one-row grid tables of the grid core.

A plain build is a one-row ``GridCostTables`` (``plain=True``), and
``execute_placements`` runs the grid's chain and checked kernels on it and
hands back row 0.  These pins compare it with the public grid engine on an
identity scenario grid (one scenario pinning no condition), every result
field bitwise, at the shapes where one row changes behaviour:
one task, one placement, both sides of the chain kernel's subset-sum fold
threshold ``(1 << k) <= m * n`` at one scenario, and a partially linked
platform.  There every route of the checked kernel -- chain, linear graph,
fork-join and a two-source join; plain, grid and fault tables -- must raise the sequential
executor's missing-link error for crossing placements and equal the scalar
oracle bitwise for all others.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from factories import random_chain, random_graph, random_platform
from repro.devices import (
    BatchExecutionResult,
    Platform,
    SimulatedExecutor,
    build_tables,
    execute_placements,
)
from repro.devices.batch import placement_labels
from repro.faults import DeviceFailure, FaultProfile, RetryPolicy
from repro.faults.engine import expected_record
from repro.offload import placement_matrix
from repro.scenarios import DeviceLoadFactor, Scenario, ScenarioGrid
from repro.tasks import TaskGraph

IDENTITY = ScenarioGrid((Scenario("identity"),))
THREE_SCENARIOS = ScenarioGrid.cartesian([(DeviceLoadFactor(), [1.0, 1.5, 3.0])])
SHAPES = ["chain", "linear", "fork-join", "join"]
FAULTS = dict(
    retry=RetryPolicy(max_attempts=3, backoff_base_s=0.001),
    faults=FaultProfile(device_failure=DeviceFailure(rate=0.05)),
)


def random_rows(rng: np.random.Generator, n_tasks: int, n_devices: int, n_rows: int) -> np.ndarray:
    return rng.integers(0, n_devices, size=(n_rows, n_tasks))


#: Every array a batch exposes: its array fields plus the energy/cost values
#: it reads from its grid row on first access.
BATCH_ARRAYS = [
    field.name
    for field in dataclasses.fields(BatchExecutionResult)
    if field.name not in ("tables", "grid", "row")
] + ["active_j", "idle_j", "energy_total_j", "operating_cost"]


def assert_row_view_matches_grid(workload, platform, matrix) -> None:
    plain = execute_placements(build_tables(workload, platform), matrix)
    row = build_tables(workload, platform, scenarios=IDENTITY).execute(matrix).batch(0)
    assert type(plain.tables) is type(row.tables)
    assert (plain.row, row.row) == (0, 0)
    for name in BATCH_ARRAYS:
        a, b = getattr(plain, name), getattr(row, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", range(4))
class TestRowViewEqualsIdentityGrid:
    def test_single_task(self, seed):
        rng = np.random.default_rng(seed)
        n_devices = int(rng.integers(2, 5))
        platform = random_platform(rng, n_devices)
        matrix = np.arange(n_devices).reshape(-1, 1)
        for workload in (random_chain(rng, 1), random_graph(rng, 1)):
            assert_row_view_matches_grid(workload, platform, matrix)

    def test_single_placement(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_devices, n_tasks = int(rng.integers(2, 5)), int(rng.integers(3, 9))
        platform = random_platform(rng, n_devices)
        matrix = random_rows(rng, n_tasks, n_devices, 1)
        for workload in (random_chain(rng, n_tasks), random_graph(rng, n_tasks)):
            assert_row_view_matches_grid(workload, platform, matrix)

    @pytest.mark.parametrize("n_devices,n_tasks", [(2, 3), (3, 5), (4, 6)])
    def test_both_sides_of_the_subset_fold_threshold(self, seed, n_devices, n_tasks):
        rng = np.random.default_rng(200 + seed)
        platform = random_platform(rng, n_devices)
        chain = random_chain(rng, n_tasks)
        # The smallest batch that takes the subset-sum fold, and one row fewer.
        n_fold = -(-(1 << n_tasks) // n_devices)
        for n_rows, folds in ((n_fold, True), (n_fold - 1, False)):
            assert ((1 << n_tasks) <= n_devices * n_rows) is folds
            matrix = random_rows(rng, n_tasks, n_devices, n_rows)
            assert_row_view_matches_grid(chain, platform, matrix)


def assert_equals_oracle(batch, records) -> None:
    """Every row of ``batch`` is bitwise its scalar oracle record, and
    ``record(i)`` replays it exactly (``repr`` round-trips every float)."""
    aliases = batch.aliases
    fault = hasattr(records[0], "success_probability")
    columns = {
        "total_time_s": [r.total_time_s for r in records],
        "operating_cost": [r.operating_cost for r in records],
        "transferred_bytes": [r.transferred_bytes for r in records],
        "energy_total_j": [r.energy_total_j if fault else r.energy.total_j for r in records],
        "busy_by_device": [[r.busy_time_by_device[a] for a in aliases] for r in records],
        "flops_by_device": [[r.flops_by_device[a] for a in aliases] for r in records],
    }
    if fault:
        columns["success_probability"] = [r.success_probability for r in records]
        columns["expected_attempts"] = [r.expected_attempts for r in records]
    for name, expected in columns.items():
        assert getattr(batch, name).tobytes() == np.array(expected).tobytes(), name
    for i, expected in enumerate(records):
        assert repr(batch.record(i)) == repr(expected)


class TestPartiallyLinkedPlatform:
    """Only placements crossing the missing link fail, naming pair and placement.

    Covers every route of the checked kernel: a chain, the same chain as a
    linear ``TaskGraph``, a fork-join and a join of two sources (the second
    source, at position 1, reads its input from the host), each as plain
    tables, a 3-scenario grid and ``retry=`` fault tables.
    """

    @staticmethod
    def partial_platform(rng: np.random.Generator, missing: tuple[str, str]) -> Platform:
        base = random_platform(rng, 3)  # devices D (host), A, B
        links = {pair: link for pair, link in base.links.items() if set(pair) != set(missing)}
        return Platform(devices=base.devices, links=links, host="D", name="partial")

    @staticmethod
    def two_gaps_platform(rng: np.random.Generator) -> Platform:
        """D, A, B, C without the A-B and C-B links: a join on B can cross
        both gaps, and the error must name its first predecessor's device."""
        base = random_platform(rng, 4)
        gone = ({"A", "B"}, {"B", "C"})
        links = {pair: link for pair, link in base.links.items() if set(pair) not in gone}
        return Platform(devices=base.devices, links=links, host="D", name="two-gaps")

    @staticmethod
    def workload(rng: np.random.Generator, shape: str):
        chain = random_chain(rng, 4)
        if shape == "chain":
            return chain
        if shape == "linear":
            return TaskGraph.from_chain(chain)
        if shape == "join":
            edges = [("L1", "L3"), ("L2", "L3"), ("L3", "L4")]
            return TaskGraph(chain.tasks, edges=edges, name="join")
        edges = [("L1", "L2"), ("L1", "L3"), ("L2", "L4"), ("L3", "L4")]
        return TaskGraph(chain.tasks, edges=edges, name="fork-join")

    @staticmethod
    def build(workload, platform: Platform, kind: str):
        if kind == "grid":
            return build_tables(workload, platform, scenarios=THREE_SCENARIOS)
        if kind == "fault":
            return build_tables(workload, platform, **FAULTS)
        return build_tables(workload, platform)

    @staticmethod
    def split(workload, platform: Platform, matrix: np.ndarray):
        """The expected error of every crossing row (the executor's message
        plus the placement), and the matrix of the safe rows."""
        executor = SimulatedExecutor(platform)
        crossing: dict[int, str] = {}
        for i, label in enumerate(placement_labels(matrix, platform.aliases)):
            try:
                executor.execute(workload, label)
            except KeyError as exc:
                crossing[i] = f"{exc.args[0]} (required by placement {label!r})"
        safe = [i for i in range(matrix.shape[0]) if i not in crossing]
        return crossing, matrix[safe]

    @pytest.mark.parametrize("kind", ["plain", "grid", "fault"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("missing", [("A", "B"), ("B", "D"), "two-gaps"])
    def test_crossing_placements_raise_the_executor_error(self, missing, shape, kind):
        rng = np.random.default_rng(7)
        if missing == "two-gaps":
            platform = self.two_gaps_platform(rng)
        else:
            platform = self.partial_platform(rng, missing)
        workload = self.workload(rng, shape)
        tables = self.build(workload, platform, kind)
        matrix = placement_matrix(4, len(platform.aliases))
        crossing, _ = self.split(workload, platform, matrix)
        assert crossing
        for i, message in crossing.items():
            with pytest.raises(KeyError) as exc:
                tables.execute(matrix[i : i + 1])
            assert exc.value.args[0] == message
        # A whole batch is rejected on its first crossing row.
        with pytest.raises(KeyError) as exc:
            tables.execute(matrix)
        assert exc.value.args[0] == crossing[min(crossing)]

    @pytest.mark.parametrize("kind", ["plain", "grid", "fault"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("missing", [("A", "B"), ("B", "D")])
    @pytest.mark.parametrize("seed", range(3))
    def test_safe_placements_match_the_scalar_oracle(self, seed, missing, shape, kind):
        rng = np.random.default_rng(300 + seed)
        platform = self.partial_platform(rng, missing)
        workload = self.workload(rng, shape)
        tables = self.build(workload, platform, kind)
        _, safe = self.split(workload, platform, placement_matrix(4, 3))
        labels = placement_labels(safe, platform.aliases)
        result = tables.execute(safe)
        if kind == "plain":
            executor = SimulatedExecutor(platform)
            assert_equals_oracle(result, [executor.execute(workload, label) for label in labels])
            assert_row_view_matches_grid(workload, platform, safe)
        elif kind == "grid":
            for index, scenario_platform in enumerate(THREE_SCENARIOS.platforms(platform)):
                executor = SimulatedExecutor(scenario_platform)
                records = [executor.execute(workload, label) for label in labels]
                assert_equals_oracle(result.batch(index), records)
        else:
            assert_equals_oracle(result, [expected_record(tables, row) for row in safe])


class TestKernelRouting:
    """Chain vs DAG is the ``pred_positions`` field: fully linked linear
    tables -- a chain or the same chain as a ``TaskGraph`` -- run the fast
    chain kernel, everything else the checked kernel."""

    @staticmethod
    def record_kernels(monkeypatch) -> list[str]:
        from repro.devices import grid

        calls: list[str] = []
        for name in ("_execute_chain_grid", "_execute_checked_grid"):
            kernel = getattr(grid, name)

            def recorded(*args, _kernel=kernel, _name=name):
                calls.append(_name)
                return _kernel(*args)

            monkeypatch.setattr(grid, name, recorded)
        return calls

    @pytest.mark.parametrize("scenarios", [None, THREE_SCENARIOS])
    @pytest.mark.parametrize(
        "shape,linked,kernel",
        [
            ("chain", True, "_execute_chain_grid"),
            ("linear", True, "_execute_chain_grid"),
            ("fork-join", True, "_execute_checked_grid"),
            ("chain", False, "_execute_checked_grid"),
            ("linear", False, "_execute_checked_grid"),
            ("fork-join", False, "_execute_checked_grid"),
            ("join", True, "_execute_checked_grid"),
            ("join", False, "_execute_checked_grid"),
        ],
    )
    def test_route_and_oracle(self, monkeypatch, shape, linked, kernel, scenarios):
        rng = np.random.default_rng(11)
        if linked:
            platform = random_platform(rng, 3)
        else:
            platform = TestPartiallyLinkedPlatform.partial_platform(rng, ("A", "B"))
        workload = TestPartiallyLinkedPlatform.workload(rng, shape)
        tables = build_tables(workload, platform, scenarios=scenarios)
        assert tables.pred_positions == workload.predecessor_positions
        assert tables.is_linear is (shape in ("chain", "linear"))
        _, safe = TestPartiallyLinkedPlatform.split(workload, platform, placement_matrix(4, 3))
        calls = self.record_kernels(monkeypatch)
        result = tables.execute(safe)
        assert calls == [kernel]
        batch = result if scenarios is None else result.batch(0)
        executor = SimulatedExecutor(platform)
        labels = placement_labels(safe, platform.aliases)
        assert_equals_oracle(batch, [executor.execute(workload, label) for label in labels])
