"""Benchmark the vectorized DAG engine vs. the sequential graph executor.

The sequential reference (``SimulatedExecutor.execute_graph``) walks a
:class:`~repro.tasks.TaskGraph` in a Python loop, once per placement -- the
only way to evaluate DAG workloads before ``GraphCostTables``.  The vectorized
path builds the tables once and evaluates the whole ``m**k`` space in a single
NumPy pass with critical-path latency and per-edge joins.

The two paths must agree **bitwise** on every placement (asserted untimed),
and the vectorized engine must beat the loop by the speedup floor (10x for
the acceptance workload).

Set ``BENCH_GRAPH_SMALL=1`` (the CI smoke job does) for a reduced workload
with a relaxed floor.  Results land in ``BENCH_graph.json`` /
``BENCH_graph_small.json``.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from repro.devices import SimulatedExecutor, build_tables, edge_cluster_platform, execute_placements
from repro.offload import placement_matrix
from repro.tasks import fork_join_graph

SMALL = os.environ.get("BENCH_GRAPH_SMALL", "") not in ("", "0")

if SMALL:
    BRANCHES = 3  # 5 tasks -> 4**5 = 1024 placements
    SPEEDUP_FLOOR = 5.0
else:
    BRANCHES = 5  # 7 tasks -> 4**7 = 16384 placements
    SPEEDUP_FLOOR = 10.0

SEED = 0


def _sequential_path(executor, graph, matrix, aliases):
    """The pre-DAG-engine implementation: one Python graph walk per placement."""
    times = np.empty(matrix.shape[0])
    energies = np.empty(matrix.shape[0])
    costs = np.empty(matrix.shape[0])
    for i, row in enumerate(matrix):
        record = executor.execute_graph(graph, tuple(aliases[d] for d in row))
        times[i] = record.total_time_s
        energies[i] = record.energy.total_j
        costs[i] = record.operating_cost
    return times, energies, costs


def _vectorized_path(graph, platform, matrix):
    return execute_placements(build_tables(graph, platform), matrix)


def test_graph_engine_matches_and_beats_sequential_loop(benchmark, bench_once, bench_json):
    """Bitwise identical per-placement metrics, at a fraction of the loop's cost."""
    platform = edge_cluster_platform()
    graph = fork_join_graph(branches=BRANCHES)
    aliases = tuple(platform.aliases)
    matrix = placement_matrix(len(graph), len(aliases))
    n_placements = matrix.shape[0]
    executor = SimulatedExecutor(platform, seed=SEED, cache_executions=False)

    # Warm both paths on a tiny workload (lazy imports, allocator warm-up).
    tiny = fork_join_graph(branches=2)
    tiny_matrix = placement_matrix(len(tiny), len(aliases))[:16]
    _sequential_path(executor, tiny, tiny_matrix, aliases)
    _vectorized_path(tiny, platform, tiny_matrix)

    gc.collect()
    start = time.perf_counter()
    batch = _vectorized_path(graph, platform, matrix)
    vectorized_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    seq_times, seq_energies, seq_costs = _sequential_path(executor, graph, matrix, aliases)
    sequential_s = time.perf_counter() - start

    # -- equivalence (untimed): bitwise, every placement, every metric -------
    assert np.array_equal(batch.total_time_s, seq_times)
    assert np.array_equal(batch.energy_total_j, seq_energies)
    assert np.array_equal(batch.operating_cost, seq_costs)
    assert int(np.argmin(seq_times)) == batch.argbest("time")

    speedup = sequential_s / vectorized_s
    print(
        f"\n{platform.name}: {BRANCHES}-branch fork-join, {len(graph)} tasks x "
        f"{len(aliases)} devices = {n_placements} placements"
        f"\n  sequential execute_graph loop: {sequential_s * 1e3:8.1f} ms"
        f"\n  vectorized DAG engine:         {vectorized_s * 1e3:8.1f} ms  "
        f"({speedup:5.1f}x, floor {SPEEDUP_FLOOR}x)"
        f"\n  best placement: {batch.label(batch.argbest('time'))} "
        f"({batch.total_time_s.min() * 1e3:.1f} ms)"
    )

    bench_json(
        "graph_small" if SMALL else "graph",
        {
            "workload": {
                "platform": platform.name,
                "n_devices": len(aliases),
                "n_tasks": len(graph),
                "n_edges": graph.n_edges,
                "branches": BRANCHES,
                "n_placements": n_placements,
                "small": SMALL,
            },
            "seconds": {"sequential_loop": sequential_s, "graph_engine": vectorized_s},
            "speedups": {"graph_engine": speedup},
            "floors": {"graph_engine": SPEEDUP_FLOOR},
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"graph engine regressed: {speedup:.1f}x < {SPEEDUP_FLOOR}x vs the sequential loop"
    )

    bench_once(benchmark, _vectorized_path, graph, platform, matrix)
