"""Benchmark the vectorized expected-cost-under-faults engine vs. a scalar loop.

The fault-tolerance workload evaluates every placement of a chain -- and of
a fork-join DAG with as many tasks -- under a fault profile with retries:
per task, the truncated-geometric expected attempt count scales
compute/transfer time and energy, plus expected backoff and a survival
product for the placement's success probability.  The baseline
is the obvious implementation: call :func:`repro.faults.expected_record` (the
sequential python-float reference the engine is differential-pinned against)
once per placement.  The vectorized path (:func:`execute_fault_placements`)
evaluates the whole placement matrix in one NumPy pass over the fault tables.

The two paths must agree **bitwise** on every metric (asserted untimed), and
the vectorized path must beat the loop by the speedup floor.

Set ``BENCH_FAULTS_SMALL=1`` (the CI smoke job does) for a reduced workload
with a relaxed floor.  Results land in ``BENCH_faults.json`` /
``BENCH_faults_small.json``.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from repro.devices import build_tables, edge_cluster_platform
from repro.faults import (
    DeviceFailure,
    FaultProfile,
    LinkDropout,
    RetryPolicy,
    StragglerModel,
    TimeoutPolicy,
    execute_fault_placements,
    expected_record,
)
from repro.offload import placement_matrix
from repro.tasks import RegularizedLeastSquaresTask, TaskChain, fork_join_graph

SMALL = os.environ.get("BENCH_FAULTS_SMALL", "") not in ("", "0")

# The fork-join DAG has N_TASKS - 2 branches between its prep and join tasks.
if SMALL:
    N_TASKS = 4  # 4**4 = 256 placements
    SPEEDUP_FLOOR = 2.0
else:
    N_TASKS = 6  # 4**6 = 4096 placements
    SPEEDUP_FLOOR = 10.0

SEED = 0


def build_chain(n_tasks: int) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(
            size=60 + 40 * i, iterations=8, name=f"L{i + 1}", generate_on_host=False
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"bench-faults-{n_tasks}")


def build_profile() -> FaultProfile:
    """All three fault models active so every engine term is exercised."""
    return FaultProfile(
        device_failure=DeviceFailure(rate=0.02, rates={"E": 0.08, "A": 0.12}),
        link_dropout=LinkDropout(rate=0.01),
        straggler=StragglerModel(probability=0.05, slowdown=3.0),
    )


RETRY = RetryPolicy(max_attempts=4, backoff_base_s=0.002)
TIMEOUT = TimeoutPolicy(timeout_s=30.0, fallback="host")


def _loop_path(tables, matrix):
    """The scalar reference, once per placement: the pre-engine implementation."""
    return [expected_record(tables, row) for row in matrix]


def _vector_path(tables, matrix):
    return execute_fault_placements(tables, matrix)


def _timed_paths(tables, matrix):
    """Time the vectorized engine and the scalar loop on one workload, then
    assert (untimed) that they agree bitwise on every placement and metric."""
    gc.collect()
    start = time.perf_counter()
    batch = _vector_path(tables, matrix)
    vector_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    records = _loop_path(tables, matrix)
    loop_s = time.perf_counter() - start

    for index, record in enumerate(records):
        assert batch.total_time_s[index] == record.total_time_s
        assert batch.success_probability[index] == record.success_probability
        assert batch.expected_attempts[index] == record.expected_attempts
        assert batch.energy_total_j[index] == record.energy_total_j
        assert batch.operating_cost[index] == record.operating_cost
        assert batch.transferred_bytes[index] == record.transferred_bytes
    assert np.all(batch.success_probability > 0.0)
    return loop_s, vector_s


def test_fault_engine_matches_and_beats_scalar_loop(benchmark, bench_once, bench_json):
    """Bitwise identical expected records, at a fraction of the loop's cost,
    for a chain and for a fork-join DAG of the same size."""
    platform = edge_cluster_platform()
    n_devices = len(platform.aliases)
    # (speedup key, loop-seconds key, workload)
    cases = (
        ("fault_engine", "record_loop", build_chain(N_TASKS)),
        ("fault_engine_dag", "dag_record_loop", fork_join_graph(branches=N_TASKS - 2)),
    )
    tables = {
        name: build_tables(workload, platform, retry=RETRY, faults=build_profile(), timeout=TIMEOUT)
        for name, _, workload in cases
    }
    matrix = placement_matrix(N_TASKS, n_devices)
    n_placements = matrix.shape[0]

    # Warm both paths on tiny workloads (lazy imports, allocator warm-up).
    for tiny in (build_chain(2), fork_join_graph(branches=2)):
        tiny_tables = build_tables(
            tiny, platform, retry=RETRY, faults=build_profile(), timeout=TIMEOUT
        )
        tiny_matrix = placement_matrix(len(tiny), n_devices)
        _loop_path(tiny_tables, tiny_matrix)
        _vector_path(tiny_tables, tiny_matrix)

    seconds, speedups = {}, {}
    print(
        f"\n{platform.name}: {n_placements} placements x {N_TASKS} tasks under faults "
        f"(retries={RETRY.max_attempts}, timeout={TIMEOUT.timeout_s:g}s)"
    )
    for name, loop_key, workload in cases:
        loop_s, vector_s = _timed_paths(tables[name], matrix)
        speedups[name] = loop_s / vector_s
        seconds[loop_key] = loop_s
        seconds[name] = vector_s
        print(
            f"  {workload.name}:"
            f"\n    scalar record loop:  {loop_s * 1e3:8.1f} ms"
            f"\n    vectorized engine:   {vector_s * 1e3:8.1f} ms  "
            f"({speedups[name]:5.1f}x, floor {SPEEDUP_FLOOR}x)"
        )

    bench_json(
        "faults_small" if SMALL else "faults",
        {
            "workload": {
                "platform": platform.name,
                "n_devices": n_devices,
                "n_tasks": N_TASKS,
                "n_placements": n_placements,
                "dag": cases[1][2].name,
                "max_attempts": RETRY.max_attempts,
                "small": SMALL,
            },
            "seconds": seconds,
            "speedups": speedups,
            "floors": {name: SPEEDUP_FLOOR for name in speedups},
        },
    )
    for name, speedup in speedups.items():
        assert speedup >= SPEEDUP_FLOOR, (
            f"{name} regressed: {speedup:.1f}x < {SPEEDUP_FLOOR}x vs the scalar loop"
        )

    bench_once(benchmark, _vector_path, tables["fault_engine"], matrix)
