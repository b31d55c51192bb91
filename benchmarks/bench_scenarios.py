"""Benchmark the fused grid engine vs. a per-scenario Python loop.

The robustness workload evaluates one placement set under a dense grid of
environment conditions (the cartesian product of link congestion, latency
inflation, host load and accelerator DVFS easily reaches hundreds of
scenarios).  The baseline is the obvious implementation this repo supported
before the scenario subsystem: derive each scenario's platform
(``apply_conditions``), rebuild its plain tables (``build_tables``) and call
``execute_placements`` per scenario.  The fused grid path
(``build_tables(chain, platform, scenarios=grid)`` +
``execute_placements_grid``) composes each axis's vectorized ``scale_arrays``
onto the base platform's parameter arrays -- no per-scenario ``Platform``
objects at all -- and evaluates all (scenario, placement) pairs in one
vectorized pass.

Three speedups are pinned (all timings are best-of-``repeats`` on warm
paths, the steady state of a robustness sweep):

* ``grid_engine`` -- the whole pipeline (build + execute) vs. the loop;
* ``fused_build`` -- the array-space table build vs. the materializing build
  (derive every platform, gather parameters from each);
* ``delta_rebuild`` -- ``tables.updated(i, scenario, slice_cache=...)``
  swapping one scenario of the grid vs. a full fused rebuild of the modified
  grid.  The pinned path is cache-served (the replacement's condition slice
  is a content-fingerprint hit in the ``TableCache``), which is how the
  executor serves A/B toggles and sweep revisits; the cold swap (slice
  computed fresh) is reported as ``delta_rebuild_cold`` seconds for context
  -- its cost is dominated by the fixed per-build overhead, not the grid
  size, so it carries no floor.

Every compared path must agree **bitwise** (asserted untimed) before any
timing counts.

Set ``BENCH_SCENARIOS_SMALL=1`` (the CI smoke job does) for a reduced
workload with relaxed floors.  Results land in ``BENCH_scenarios.json`` /
``BENCH_scenarios_small.json``.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from repro.cache import TableCache
from repro.devices import edge_cluster_platform, execute_placements
from repro.devices.grid import execute_placements_grid
from repro.devices.tables import build_tables
from repro.offload import placement_matrix
from repro.scenarios import (
    DeviceLoadFactor,
    DvfsFrequencyScale,
    LinkBandwidthScale,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
    apply_conditions,
)
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

SMALL = os.environ.get("BENCH_SCENARIOS_SMALL", "") not in ("", "0")

if SMALL:
    N_TASKS = 4  # 4**4 = 256 placements
    DVFS_VALUES = [1.0]  # 4 x 4 x 3 = 48 scenarios
    SPEEDUP_FLOOR = 10.0
    BUILD_FLOOR = 2.0
    DELTA_FLOOR = 4.0
else:
    N_TASKS = 4  # 4**4 = 256 placements
    DVFS_VALUES = [1.0, 0.7, 0.5]  # 4 x 4 x 3 x 3 = 144 scenarios
    SPEEDUP_FLOOR = 20.0
    BUILD_FLOOR = 3.0
    DELTA_FLOOR = 10.0

SEED = 0
#: How many scenarios the delta rebuild swaps out of the grid.
DELTA_SCENARIOS = 1


def build_chain(n_tasks: int) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(
            size=60 + 40 * i, iterations=8, name=f"L{i + 1}", generate_on_host=False
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"bench-scenarios-{n_tasks}")


def build_scenarios() -> ScenarioGrid:
    """Congestion x latency x host load (x DVFS): a dense condition grid."""
    axes = [
        (LinkBandwidthScale(), [1.0, 0.5, 0.25, 0.125]),
        (LinkLatencyScale(), [1.0, 3.0, 10.0, 30.0]),
        (DeviceLoadFactor(devices=("D",)), [1.0, 1.5, 2.0]),
    ]
    if len(DVFS_VALUES) > 1:
        axes.append((DvfsFrequencyScale(devices=("E", "A")), DVFS_VALUES))
    return ScenarioGrid.cartesian(axes)


def _loop_path(chain, platform, scenarios, matrix):
    """The pre-scenario-subsystem pipeline: derive + build + execute per scenario."""
    return [
        execute_placements(
            build_tables(chain, apply_conditions(platform, scenario)), matrix
        )
        for scenario in scenarios
    ]


def _grid_path(chain, platform, scenarios, matrix):
    """The fused pipeline: one array-space build, one vectorized execute."""
    return execute_placements_grid(
        build_tables(chain, platform, scenarios=scenarios), matrix
    )


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` runs (robust for sub-millisecond ops).

    GC runs once up front and stays disabled while timing: a full collect
    between repeats costs more *inside* the timed region (cold caches,
    drained allocator arenas) than the garbage it clears.
    """
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


#: The per-scenario arrays a condition slice carries (bitwise-compared).
SLICE_FIELDS = (
    "busy", "hostio_time", "energy_in", "energy_out", "penalty_time",
    "penalty_energy", "first_penalty_time", "first_penalty_energy",
    "power_active", "power_idle", "cost_per_hour", "extra_idle_power",
)


def test_fused_grid_matches_and_beats_scenario_loop(benchmark, bench_once, bench_json):
    """Bitwise identical (scenario, placement) metrics, at a fraction of the loop's cost."""
    platform = edge_cluster_platform()
    chain = build_chain(N_TASKS)
    scenarios = build_scenarios()
    matrix = placement_matrix(len(chain), len(platform.aliases))
    n_scenarios, n_placements = len(scenarios), matrix.shape[0]
    repeats = 3 if SMALL else 5

    # -- equivalence (untimed): bitwise, every scenario, every metric --------
    grid = _grid_path(chain, platform, scenarios, matrix)
    loop = _loop_path(chain, platform, scenarios, matrix)
    for index, batch in enumerate(loop):
        assert np.array_equal(grid.total_time_s[index], batch.total_time_s)
        assert np.array_equal(grid.energy_total_j[index], batch.energy_total_j)
        assert np.array_equal(grid.operating_cost[index], batch.operating_cost)
        assert np.array_equal(grid.transfer_energy_j[index], batch.transfer_energy_j)
        assert np.array_equal(grid.busy_by_device[index], batch.busy_by_device)
    assert np.array_equal(grid.flops_by_device, loop[0].flops_by_device)
    assert np.array_equal(grid.transferred_bytes, loop[0].transferred_bytes)
    # Release the equivalence fixtures before timing: hundreds of live result
    # arrays block allocator reuse and would tax the timed region with page
    # faults that steady-state use never pays.
    del grid, loop

    # -- whole-pipeline comparison (both warm, best-of) ----------------------
    grid_s = _best_of(lambda: _grid_path(chain, platform, scenarios, matrix), repeats)
    loop_s = _best_of(lambda: _loop_path(chain, platform, scenarios, matrix), repeats)

    # -- build-only comparison: fused vs materializing ------------------------
    fused_tables = build_tables(chain, platform, scenarios=scenarios)
    materialized = build_tables(chain, scenarios.platforms(platform))
    for field in SLICE_FIELDS:
        assert getattr(fused_tables, field).tobytes() == getattr(materialized, field).tobytes()

    fused_build_s = _best_of(
        lambda: build_tables(chain, platform, scenarios=scenarios), repeats
    )
    materializing_build_s = _best_of(
        lambda: build_tables(chain, scenarios.platforms(platform)), repeats
    )

    # -- delta rebuild: swap one scenario vs. rebuild the whole grid ----------
    delta_index = n_scenarios // 2
    replacement = Scenario(
        name="bench-delta",
        settings=((LinkBandwidthScale(), 0.3), (LinkLatencyScale(), 7.0)),
    )
    modified_entries = list(scenarios.scenarios)
    modified_entries[delta_index] = replacement
    modified = ScenarioGrid(tuple(modified_entries))

    slice_cache = TableCache()
    first = fused_tables.updated(delta_index, replacement, slice_cache=slice_cache)
    served = fused_tables.updated(delta_index, replacement, slice_cache=slice_cache)
    assert (first.cache_stats().served, first.cache_stats().built) == (0, 1)
    assert (served.cache_stats().served, served.cache_stats().built) == (1, 0)
    full = build_tables(chain, platform, scenarios=modified)
    for updated in (first, served):
        for field in SLICE_FIELDS:
            assert getattr(updated, field).tobytes() == getattr(full, field).tobytes()
        assert updated.fingerprint == full.fingerprint

    delta_s = _best_of(
        lambda: fused_tables.updated(delta_index, replacement, slice_cache=slice_cache),
        4 * repeats,
    )
    delta_cold_s = _best_of(
        lambda: fused_tables.updated(delta_index, replacement), 2 * repeats
    )
    full_rebuild_s = _best_of(
        lambda: build_tables(chain, platform, scenarios=modified), repeats
    )

    speedup = loop_s / grid_s
    build_speedup = materializing_build_s / fused_build_s
    delta_speedup = full_rebuild_s / delta_s
    print(
        f"\n{platform.name}: {n_scenarios} scenarios x {n_placements} placements "
        f"({n_scenarios * n_placements} pairs)"
        f"\n  per-scenario loop:   {loop_s * 1e3:8.1f} ms"
        f"\n  fused grid engine:   {grid_s * 1e3:8.1f} ms  "
        f"({speedup:5.1f}x, floor {SPEEDUP_FLOOR}x)"
        f"\n  materializing build: {materializing_build_s * 1e3:8.1f} ms"
        f"\n  fused build:         {fused_build_s * 1e3:8.1f} ms  "
        f"({build_speedup:5.1f}x, floor {BUILD_FLOOR}x)"
        f"\n  full fused rebuild:  {full_rebuild_s * 1e3:8.1f} ms"
        f"\n  delta swap, cold (1/{n_scenarios}): {delta_cold_s * 1e3:6.2f} ms"
        f"\n  delta swap, cache-served:  {delta_s * 1e3:6.2f} ms  "
        f"({delta_speedup:5.1f}x, floor {DELTA_FLOOR}x)"
    )

    bench_json(
        "scenarios_small" if SMALL else "scenarios",
        {
            "workload": {
                "platform": platform.name,
                "n_devices": len(platform.aliases),
                "n_tasks": N_TASKS,
                "n_placements": n_placements,
                "n_scenarios": n_scenarios,
                "pairs": n_scenarios * n_placements,
                "delta_scenarios": DELTA_SCENARIOS,
                "small": SMALL,
            },
            "seconds": {
                "scenario_loop": loop_s,
                "grid_engine": grid_s,
                "fused_build": fused_build_s,
                "materializing_build": materializing_build_s,
                "delta_rebuild": delta_s,
                "delta_rebuild_cold": delta_cold_s,
                "full_rebuild": full_rebuild_s,
            },
            "speedups": {
                "grid_engine": speedup,
                "fused_build": build_speedup,
                "delta_rebuild": delta_speedup,
            },
            "floors": {
                "grid_engine": SPEEDUP_FLOOR,
                "fused_build": BUILD_FLOOR,
                "delta_rebuild": DELTA_FLOOR,
            },
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"grid engine regressed: {speedup:.1f}x < {SPEEDUP_FLOOR}x vs the per-scenario loop"
    )
    assert build_speedup >= BUILD_FLOOR, (
        f"fused build regressed: {build_speedup:.1f}x < {BUILD_FLOOR}x vs the materializing build"
    )
    assert delta_speedup >= DELTA_FLOOR, (
        f"delta rebuild regressed: {delta_speedup:.1f}x < {DELTA_FLOOR}x vs a full fused rebuild"
    )

    bench_once(benchmark, _grid_path, chain, platform, scenarios, matrix)
