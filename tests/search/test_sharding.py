"""Sharded sweeps must be bitwise the serial sweep on every workload shape.

Both search drivers shard through one worker-pool helper
(:class:`repro.search.sweep.ShardPool`): each worker builds its tables once
from a ``build_tables`` spec, then folds placement ranges into empty
accumulators or evaluates chunks against its scenario block.  The existing
sharding pins use chains over every platform device; these cases add a
fork-join ``TaskGraph`` and a ``devices=`` subset, through
``search_space(n_workers=2)``, both passes of a regret ``search_grid``
(``n_workers=2``) and ``search_grid(scenario_shards=2)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import SimulatedExecutor, edge_cluster_platform
from repro.scenarios import DeviceLoadFactor, LinkBandwidthScale, ScenarioGrid
from repro.search import (
    ExpectedValueObjective,
    RegretObjective,
    WorstCaseObjective,
    search_grid,
    search_space,
)
from repro.search.constraints import EnergyBudgetConstraint
from repro.tasks import RegularizedLeastSquaresTask, TaskChain
from repro.tasks.workloads import fork_join_graph


def _chain() -> TaskChain:
    return TaskChain(
        [
            RegularizedLeastSquaresTask(size=40 + 30 * i, iterations=3, name=f"L{i + 1}")
            for i in range(4)
        ],
        name="subset-chain",
    )


WORKLOADS = {
    "fork-join-graph": (lambda: fork_join_graph(branches=2, iterations=3), None),
    "device-subset": (_chain, ("D", "E", "A")),
}


@pytest.fixture(params=sorted(WORKLOADS), scope="module")
def case(request):
    build, devices = WORKLOADS[request.param]
    return SimulatedExecutor(edge_cluster_platform()), build(), devices


def _grid() -> ScenarioGrid:
    return ScenarioGrid.cartesian(
        [
            (LinkBandwidthScale(), [1.0, 0.5]),
            (DeviceLoadFactor(devices=("D",)), [1.0, 1.5]),
        ]
    )


def _same_selection(a, b) -> None:
    assert np.array_equal(a.indices, b.indices)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.labels == b.labels


def test_search_space_workers_match_serial(case):
    executor, workload, devices = case
    kwargs = dict(objectives=("time", "energy"), top_k=5, devices=devices, batch_size=19)
    serial = search_space(executor, workload, **kwargs)
    sharded = search_space(executor, workload, n_workers=2, **kwargs)
    assert (sharded.n_evaluated, sharded.n_feasible) == (serial.n_evaluated, serial.n_feasible)
    assert sharded.aliases == serial.aliases
    for name in serial.top:
        _same_selection(sharded.top[name], serial.top[name])
    _same_selection(sharded.frontier, serial.frontier)


def _assert_same_grid_result(sharded, serial) -> None:
    assert (sharded.n_evaluated, sharded.n_feasible) == (serial.n_evaluated, serial.n_feasible)
    assert sharded.aliases == serial.aliases
    assert set(sharded.top) == set(serial.top)
    for name in serial.top:
        _same_selection(sharded.top[name], serial.top[name])
    assert set(sharded.scenario_best) == set(serial.scenario_best)
    for name in serial.scenario_best:
        _same_selection(sharded.scenario_best[name], serial.scenario_best[name])
    assert set(sharded.baselines) == set(serial.baselines)
    for name in serial.baselines:
        assert sharded.baselines[name].tobytes() == serial.baselines[name].tobytes()


GRID_KWARGS = dict(
    objectives=[WorstCaseObjective(), RegretObjective(), ExpectedValueObjective()],
    top_k=4,
    constraints=[EnergyBudgetConstraint(1e9)],
    batch_size=19,
    baseline_method="stream",
)


def test_search_grid_workers_match_serial_with_regret(case):
    executor, workload, devices = case
    serial = search_grid(executor, workload, _grid(), devices=devices, **GRID_KWARGS)
    assert serial.baselines  # the streamed baseline pass ran
    sharded = search_grid(
        executor, workload, _grid(), devices=devices, n_workers=2, **GRID_KWARGS
    )
    _assert_same_grid_result(sharded, serial)


def test_search_grid_scenario_shards_match_serial(case):
    executor, workload, devices = case
    serial = search_grid(executor, workload, _grid(), devices=devices, **GRID_KWARGS)
    sharded = search_grid(
        executor, workload, _grid(), devices=devices, scenario_shards=2, **GRID_KWARGS
    )
    _assert_same_grid_result(sharded, serial)


@pytest.mark.parametrize("n_workers", [0, -3])
def test_search_space_rejects_worker_counts_below_one(n_workers):
    executor = SimulatedExecutor(edge_cluster_platform())
    with pytest.raises(ValueError, match="n_workers must be >= 1"):
        search_space(executor, _chain(), n_workers=n_workers)


@pytest.mark.parametrize("n_workers", [0, -1])
def test_search_grid_rejects_worker_counts_below_one(n_workers):
    executor = SimulatedExecutor(edge_cluster_platform())
    with pytest.raises(ValueError, match="n_workers must be >= 1"):
        search_grid(executor, _chain(), _grid(), n_workers=n_workers)
