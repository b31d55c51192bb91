"""Deferred kernel outputs: the order a caller reads them in changes nothing.

The chain kernel computes only the total time eagerly.  Per-device busy
seconds, FLOPs, bytes and transfer energy come from one output fold run on
first read of any of them, and energy, cost and the active/idle breakdowns
from folds over those.  Whatever order the fields are read in -- on the grid,
through ``batch(i)`` or on a plain batch -- every value is bitwise equal to
the scalar ``record(i)`` replay, on chain (deferred) and DAG (eager) tables
alike.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import build_tables, execute_placements, execute_placements_grid
from repro.offload import placement_matrix
from repro.scenarios import DeviceLoadFactor, LinkBandwidthScale, ScenarioGrid

from factories import random_chain, random_graph, random_platform

DEFERRED_FIELDS = (
    "busy_by_device",
    "flops_by_device",
    "transferred_bytes",
    "transfer_energy_j",
    "energy_total_j",
    "operating_cost",
    "active_j",
    "idle_j",
)
#: Grid fields without a scenario axis: conditions cannot change them.
SHARED_FIELDS = ("flops_by_device", "transferred_bytes")


def record_row(record, aliases) -> dict:
    """A scalar record's values laid out like one batch row."""
    return {
        "total_time_s": record.total_time_s,
        "busy_by_device": [record.busy_time_by_device[a] for a in aliases],
        "flops_by_device": [record.flops_by_device[a] for a in aliases],
        "transferred_bytes": record.transferred_bytes,
        "transfer_energy_j": record.energy.transfer_j,
        "energy_total_j": record.energy.total_j,
        "operating_cost": record.operating_cost,
        "active_j": [record.energy.active_j[a] for a in aliases],
        "idle_j": [record.energy.idle_j[a] for a in aliases],
    }


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def read_batch(batch, order) -> dict:
    """Every field of a batch, ``total_time_s`` first, the rest in ``order``."""
    values = {"total_time_s": batch.total_time_s}
    for name in order:
        values[name] = getattr(batch, name)
    return values


def read_grid(grid, order, scenario) -> dict:
    """One scenario's fields of a grid, read from the grid in ``order``."""
    values = {"total_time_s": grid.total_time_s[scenario]}
    for name in order:
        value = getattr(grid, name)
        values[name] = value if name in SHARED_FIELDS else value[scenario]
    return values


def assert_rows_match_records(values, batch, aliases):
    for i in range(len(batch)):
        expected = record_row(batch.record(i), aliases)
        for name, value in values.items():
            assert bits(value[i]) == bits(expected[name]), (name, i)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_devices=st.integers(2, 4),
    n_tasks=st.integers(1, 4),
    graph=st.booleans(),
    n_scenarios=st.integers(0, 3),
    order=st.permutations(DEFERRED_FIELDS),
    data=st.data(),
)
def test_deferred_fields_in_any_read_order_equal_the_record(
    seed, n_devices, n_tasks, graph, n_scenarios, order, data
):
    rng = np.random.default_rng(seed)
    platform = random_platform(rng, n_devices)
    workload = random_graph(rng, n_tasks) if graph else random_chain(rng, n_tasks)
    space = placement_matrix(n_tasks, n_devices)
    # A few rows run the chain kernel's per-task scatter, the whole space its
    # subset fold.
    n_rows = data.draw(st.sampled_from(sorted({1, min(3, len(space)), len(space)})))
    matrix = space[np.sort(rng.choice(len(space), n_rows, replace=False))]

    if n_scenarios == 0:
        tables = build_tables(workload, platform)
        batch = execute_placements(tables, matrix)
        assert_rows_match_records(read_batch(batch, order), batch, tables.aliases)
        return

    scenarios = ScenarioGrid.cartesian(
        [
            (LinkBandwidthScale(), [float(v) for v in np.unique(rng.uniform(0.2, 1.5, n_scenarios))]),
            (DeviceLoadFactor(), [1.0, 1.8]),
        ]
    )
    tables = build_tables(workload, platform, scenarios=scenarios)
    aliases = tables.aliases
    # Read on the grid itself: the first deferred read runs the folds.
    grid = execute_placements_grid(tables, matrix)
    for scenario in range(tables.n_scenarios):
        view = grid.batch(scenario)
        assert_rows_match_records(read_grid(grid, order, scenario), view, aliases)
    # Read through fresh batch views: the first read reaches the grid's folds
    # through ``batch(i)``, and through ``_row`` over the one-row tables.
    for scenario in range(tables.n_scenarios):
        fresh = execute_placements_grid(tables, matrix)
        view = fresh.batch(scenario)
        assert_rows_match_records(read_batch(view, order), view, aliases)
        row = execute_placements_grid(tables, matrix)._row(scenario, tables.table(scenario))
        assert_rows_match_records(read_batch(row, order), row, aliases)
