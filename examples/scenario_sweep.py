"""Searching for placements that survive environment drift.

A placement tuned for today's platform can be the wrong choice after the
Wi-Fi link falls back to LTE or a co-located job loads the host.  This example
sweeps the full placement space of a 6-task loop chain on the 4-device edge
cluster across a wifi -> lte degradation grid (`repro.scenarios`), using the
condition-stacked batch engine and the robust search driver (`repro.search`):

* every (scenario, placement) pair is evaluated in one vectorized pass per
  chunk (`execute_placements_grid`);
* per-scenario winners expose the drift (the best placement changes as the
  radio degrades);
* robust objectives pick the placements that stay good across the whole
  sweep: worst case, expectation, and minimax regret;
* `RobustDecisionModel` composes the Section IV decision model (time +
  cost-weighted accelerator rent) with the same robustness criteria.

Run with::

    python examples/scenario_sweep.py
"""

from __future__ import annotations

import time

from repro.devices import SimulatedExecutor, build_tables, edge_cluster_platform, lte, wifi_ac
from repro.devices.grid import execute_placements_grid
from repro.measurement.noise import NoNoise
from repro.offload import placement_matrix
from repro.scenarios import link_degradation_grid
from repro.search import (
    ExpectedValueObjective,
    RegretObjective,
    WorstCaseObjective,
    search_grid,
)
from repro.selection import DecisionModel, RobustDecisionModel
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

#: Every remote hop of the edge cluster rides the degrading radio.
RADIO_LINKS = (("D", "E"), ("D", "A"), ("N", "E"), ("N", "A"), ("E", "A"))


def build_chain(n_tasks: int = 6) -> TaskChain:
    """Loop tasks that generate data on the executing device: offloading is
    latency-bound, so the profitable boundary moves with link quality."""
    tasks = [
        RegularizedLeastSquaresTask(
            size=60 + 70 * i, iterations=20, name=f"L{i + 1}", generate_on_host=False
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"drift-{n_tasks}")


def main() -> None:
    platform = edge_cluster_platform()
    chain = build_chain()
    scenarios = link_degradation_grid(RADIO_LINKS, start=wifi_ac(), end=lte(), n_points=8)
    m, k, s = len(platform.aliases), len(chain), len(scenarios)
    print(
        f"platform {platform.name!r}, {k}-task chain -> {m}**{k} = {m**k:,} placements "
        f"x {s} scenarios = {m**k * s:,} (scenario, placement) pairs"
    )

    executor = SimulatedExecutor(platform, noise=NoNoise(), seed=0)
    start = time.perf_counter()
    result = search_grid(
        executor,
        chain,
        scenarios,
        objectives=(WorstCaseObjective(), ExpectedValueObjective(), RegretObjective()),
        top_k=5,
    )
    elapsed = time.perf_counter() - start
    print(f"swept {result.n_evaluated * s:,} pairs in {elapsed:.2f} s\n")

    drift = result.scenario_best["time"]
    print("per-scenario winner (the drift a frozen-platform tuner never sees):")
    for name, label, value in zip(drift.scenario_names, drift.labels, drift.values):
        print(f"  {name:<22} {label}  {value * 1e3:8.1f} ms")
    print()

    for name, selection in result.top.items():
        print(f"top {len(selection)} by {name}:")
        for label, value in zip(selection.labels, selection.values):
            print(f"  {label}  {value:.6g}")
        print()

    # Compose the Section IV decision model with robustness criteria on the
    # materialised grid (small enough here: top candidates only in RAM).
    tables = build_tables(chain, platform, scenarios=scenarios)
    grid = execute_placements_grid(tables, placement_matrix(k, m))
    for criterion in ("worst_case", "expected", "regret"):
        model = RobustDecisionModel(DecisionModel(cost_weight=1000.0), criterion=criterion)
        print(model.decide_grid(grid).summary())


if __name__ == "__main__":
    main()
