"""Benchmark the vectorized DAG engine vs. the sequential graph executor.

The sequential reference (``SimulatedExecutor.execute_graph``) walks a
:class:`~repro.tasks.TaskGraph` in a Python loop, once per placement -- the
only way to evaluate DAG workloads before vectorized cost tables carried a
graph's ``pred_positions``.  The vectorized path builds the tables once and
evaluates the whole ``m**k`` space in a single NumPy pass with critical-path
latency and per-edge joins.

The two paths must agree **bitwise** on every placement (asserted untimed),
and the vectorized engine must beat the loop by the speedup floor (10x for
the acceptance workload).

A chain and the same chain as a linear ``TaskGraph`` build identical tables
and run the same fast chain kernel: their ``execute`` times are recorded side
by side (best of a few alternating runs, results asserted bitwise untimed),
and the linear graph may take at most ``LINEAR_GRAPH_CEILING`` times the
chain's time.

Set ``BENCH_GRAPH_SMALL=1`` (the CI smoke job does) for a reduced workload
with a relaxed floor.  Results land in ``BENCH_graph.json`` /
``BENCH_graph_small.json``.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import time

import numpy as np

from repro.devices import SimulatedExecutor, build_tables, edge_cluster_platform, execute_placements
from repro.offload import placement_matrix
from repro.tasks import TaskGraph, fork_join_graph, multiscale_chain

SMALL = os.environ.get("BENCH_GRAPH_SMALL", "") not in ("", "0")

if SMALL:
    BRANCHES = 3  # 5 tasks -> 4**5 = 1024 placements
    SPEEDUP_FLOOR = 5.0
    LINEAR_TASKS = 6  # 4**6 = 4096 placements
else:
    BRANCHES = 5  # 7 tasks -> 4**7 = 16384 placements
    SPEEDUP_FLOOR = 10.0
    LINEAR_TASKS = 8  # 4**8 = 65536 placements

#: Linear graph vs chain ``execute`` time: both run the chain kernel.
LINEAR_GRAPH_CEILING = 1.5
LINEAR_REPEATS = 5

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


def _linear_graph_vs_chain(platform):
    """Best-of ``execute`` seconds of a chain and of the same chain as a
    linear graph (alternating runs), after asserting every field bitwise."""
    chain = multiscale_chain(scales=(40,) * LINEAR_TASKS, iterations=2)
    tables = {
        "chain": build_tables(chain, platform),
        "linear_graph": build_tables(TaskGraph.from_chain(chain), platform),
    }
    matrix = placement_matrix(LINEAR_TASKS, len(platform.aliases))
    chain_batch = tables["chain"].execute(matrix)
    graph_batch = tables["linear_graph"].execute(matrix)
    deferred = ["active_j", "idle_j", "energy_total_j", "operating_cost"]
    for name in [field.name for field in dataclasses.fields(chain_batch)] + deferred:
        a, b = getattr(chain_batch, name), getattr(graph_batch, name)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), name
    best = {name: float("inf") for name in tables}
    for _ in range(LINEAR_REPEATS):
        for name, built in tables.items():
            gc.collect()
            start = time.perf_counter()
            built.execute(matrix)
            best[name] = min(best[name], time.perf_counter() - start)
    return best, matrix.shape[0]


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

    linear_s, linear_placements = _linear_graph_vs_chain(platform)
    linear_overhead = linear_s["linear_graph"] / linear_s["chain"]

    speedup = sequential_s / vectorized_s
    print(
        f"\n{platform.name}: {BRANCHES}-branch fork-join, {len(graph)} tasks x "
        f"{len(aliases)} devices = {n_placements} placements"
        f"\n  sequential execute_graph loop: {sequential_s * 1e3:8.1f} ms"
        f"\n  vectorized DAG engine:         {vectorized_s * 1e3:8.1f} ms  "
        f"({speedup:5.1f}x, floor {SPEEDUP_FLOOR}x)"
        f"\n  best placement: {batch.label(batch.argbest('time'))} "
        f"({batch.total_time_s.min() * 1e3:.1f} ms)"
        f"\n{LINEAR_TASKS}-task chain, {linear_placements} placements, best of {LINEAR_REPEATS}:"
        f"\n  chain tables:        {linear_s['chain'] * 1e3:8.1f} ms"
        f"\n  linear graph tables: {linear_s['linear_graph'] * 1e3:8.1f} ms  "
        f"({linear_overhead:.2f}x, ceiling {LINEAR_GRAPH_CEILING}x)"
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
                "linear_tasks": LINEAR_TASKS,
                "linear_placements": linear_placements,
                "small": SMALL,
            },
            "seconds": {
                "sequential_loop": sequential_s,
                "graph_engine": vectorized_s,
                "chain_execute": linear_s["chain"],
                "linear_graph_execute": linear_s["linear_graph"],
            },
            "speedups": {"graph_engine": speedup},
            "floors": {"graph_engine": SPEEDUP_FLOOR},
            "overheads": {"linear_graph_vs_chain": linear_overhead},
            "ceilings": {"linear_graph_vs_chain": LINEAR_GRAPH_CEILING},
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"graph engine regressed: {speedup:.1f}x < {SPEEDUP_FLOOR}x vs the sequential loop"
    )
    assert linear_overhead <= LINEAR_GRAPH_CEILING, (
        f"a linear graph takes {linear_overhead:.2f}x its chain's execute time "
        f"(ceiling {LINEAR_GRAPH_CEILING}x): it no longer runs the chain kernel"
    )

    bench_once(benchmark, _vectorized_path, graph, platform, matrix)
