"""Plain tables are the one-row view of the grid core.

``execute_placements`` runs the grid's chain and DAG kernels on a
one-scenario view of plain tables.  These pins compare it with the public
grid engine on an identity scenario grid (one scenario pinning no condition),
every result field bitwise, at the shapes where the view changes behaviour:
one task, one placement, both sides of the chain kernel's subset-sum fold
threshold ``(1 << k) <= m * n`` at one scenario, and a partially linked
platform, where the missing-link error must name the same device pair and
placement.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from factories import random_chain, random_graph, random_platform
from repro.devices import BatchExecutionResult, Platform, build_tables, execute_placements
from repro.scenarios import Scenario, ScenarioGrid
from repro.tasks import TaskGraph

IDENTITY = ScenarioGrid((Scenario("identity"),))


def random_rows(rng: np.random.Generator, n_tasks: int, n_devices: int, n_rows: int) -> np.ndarray:
    return rng.integers(0, n_devices, size=(n_rows, n_tasks))


def assert_row_view_matches_grid(workload, platform, matrix) -> None:
    plain = execute_placements(build_tables(workload, platform), matrix)
    row = build_tables(workload, platform, scenarios=IDENTITY).execute(matrix).batch(0)
    assert type(plain.tables) is type(row.tables)
    for field in dataclasses.fields(BatchExecutionResult):
        if field.name == "tables":
            continue
        a, b = getattr(plain, field.name), getattr(row, field.name)
        assert a.shape == b.shape and a.dtype == b.dtype, field.name
        assert a.tobytes() == b.tobytes(), field.name


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


class TestPartiallyLinkedPlatform:
    """Only placements crossing the missing link fail, naming pair and placement."""

    @staticmethod
    def partial_platform(rng: np.random.Generator, missing: tuple[str, str]) -> Platform:
        base = random_platform(rng, 3)  # devices D (host), A, B
        links = {pair: link for pair, link in base.links.items() if set(pair) != set(missing)}
        return Platform(devices=base.devices, links=links, host="D", name="partial")

    @staticmethod
    def workloads(rng: np.random.Generator):
        chain = random_chain(rng, 3)
        join = TaskGraph(chain.tasks, edges=[("L1", "L3"), ("L2", "L3")], name="join")
        return chain, join

    @pytest.mark.parametrize("seed", range(3))
    def test_safe_placements_match(self, seed):
        rng = np.random.default_rng(300 + seed)
        platform = self.partial_platform(rng, ("A", "B"))
        safe = np.array([[0, 0, 0], [0, 1, 0], [2, 0, 0], [1, 1, 1], [0, 2, 2]])
        for workload in self.workloads(rng):
            assert_row_view_matches_grid(workload, platform, safe)

    @pytest.mark.parametrize(
        "missing,bad,pair",
        [(("A", "B"), [0, 1, 2], "'A' and 'B'"), (("B", "D"), [0, 0, 2], "'D' and 'B'")],
    )
    def test_traversal_names_the_same_pair_and_placement(self, missing, bad, pair):
        rng = np.random.default_rng(7)
        platform = self.partial_platform(rng, missing)
        label = "".join("DAB"[d] for d in bad)
        matrix = np.array([[0, 0, 0], bad])
        for workload in self.workloads(rng):
            with pytest.raises(KeyError) as plain:
                execute_placements(build_tables(workload, platform), matrix)
            with pytest.raises(KeyError) as grid:
                build_tables(workload, platform, scenarios=IDENTITY).execute(matrix)
            assert str(plain.value) == str(grid.value)
            assert f"between {pair}" in str(plain.value)
            assert f"placement {label!r}" in str(plain.value)
