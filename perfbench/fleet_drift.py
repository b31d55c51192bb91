"""``fleet``: plan a sampled user fleet, then re-plan it as it drifts.

A cycle is one fresh step followed by three drift steps.  The fresh step draws
a new fleet of ``n_users`` users from a three-segment spec with a new seed
(``sample_fleet``) and plans it with one ``search_grid`` over the weighted
p95 latency, an SLO miss fraction and the expected latency on a 3-task chain
(64 placements).  A drift step redraws ``drift_share`` of the current fleet's
users (``SampledFleet.resample_users``) and re-plans the drifted grid with
the same ``search_grid`` call.  One executor, and so one table cache, serves
the whole pass.  Three drift steps per fresh step put the median operation
well inside one step kind rather than between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices import edge_cluster_platform
from repro.devices.grid import execute_placements_grid
from repro.devices.simulator import SimulatedExecutor
from repro.devices.tables import build_tables
from repro.fleet import FleetSpec, NormalAxis, UniformAxis, UserSegment, sample_fleet
from repro.offload import placement_matrix
from repro.scenarios import DeviceLoadFactor, LinkBandwidthScale, LinkLatencyScale, Scenario, ScenarioGrid
from repro.search import ExpectedValueObjective, QuantileObjective, SLOObjective, search_grid
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

from .harness import Op, Workload, digest

#: Cycles whose seeds and drift sets enter the input digest.
DIGEST_CYCLES = 64
#: The p95 reduction is checked on every ``P95_CHECK_EVERY``-th fresh step and
#: the drift plan against a fresh build on every ``DRIFT_CHECK_EVERY``-th cycle.
P95_CHECK_EVERY = 4
DRIFT_CHECK_EVERY = 4
QUANTILE = 0.95
#: Latency budget of the SLO objective, seconds.
SLO_BUDGET_S = 0.05


@dataclass(frozen=True)
class FleetSizes:
    n_users: int = 6000
    drift_share: float = 0.005
    n_tasks: int = 3


TINY = FleetSizes(n_users=300, drift_share=0.02, n_tasks=2)


def fleet_spec() -> FleetSpec:
    """Three user segments: good wifi, congested cellular, loaded hosts."""
    return FleetSpec(
        segments=(
            UserSegment(
                "office-wifi",
                weight=6.0,
                axes=(
                    UniformAxis(LinkBandwidthScale(), 0.8, 1.3),
                    UniformAxis(LinkLatencyScale(), 0.8, 1.5),
                ),
            ),
            UserSegment(
                "congested-cell",
                weight=3.0,
                axes=(
                    UniformAxis(LinkBandwidthScale(), 0.1, 0.45),
                    UniformAxis(LinkLatencyScale(), 2.0, 6.0),
                ),
            ),
            UserSegment(
                "loaded-host",
                weight=1.0,
                axes=(
                    NormalAxis(
                        DeviceLoadFactor(devices=("D",)), mean=1.6, std=0.3, low=1.0, high=2.5
                    ),
                ),
            ),
        )
    )


OBJECTIVES = (
    QuantileObjective(q=QUANTILE),
    SLOObjective(budget=SLO_BUDGET_S),
    ExpectedValueObjective(),
)


def _chain(n_tasks: int) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(size=60 + 60 * i, iterations=8, name=f"L{i + 1}", generate_on_host=False)
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"fleet-{n_tasks}")


def _cycle_inputs(seed: int, cycle: int, sizes: FleetSizes) -> tuple[int, list[np.ndarray], list[int]]:
    """Fleet seed, drift user sets and drift seeds of one cycle."""
    rng = np.random.default_rng([seed, 5, cycle])
    n_drift = max(1, round(sizes.n_users * sizes.drift_share))
    fleet_seed = int(rng.integers(2**31))
    drifts = [np.sort(rng.choice(sizes.n_users, n_drift, replace=False)) for _ in range(3)]
    drift_seeds = [int(s) for s in rng.integers(2**31, size=3)]
    return fleet_seed, drifts, drift_seeds


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """Left-continuous weighted inverse CDF per placement column, straight numpy."""
    out = np.empty(values.shape[1])
    for column in range(values.shape[1]):
        order = np.argsort(values[:, column], kind="stable")
        cumulative = np.cumsum(weights[order])
        index = int(np.searchsorted(cumulative, q * cumulative[-1], side="left"))
        out[column] = values[order[min(index, len(order) - 1)], column]
    return out


class FleetWorkload(Workload):
    name = "fleet"
    Sizes = FleetSizes
    cycle = 4
    repeat_label = "drift"

    def setup(self) -> None:
        self.platform = edge_cluster_platform()
        self.spec = fleet_spec()
        self.chain = _chain(self.sizes.n_tasks)
        self._cycles: dict[int, tuple] = {}
        self.input_digest = digest(
            self.sizes,
            repr(self.spec),
            [_cycle_inputs(self.seed, c, self.sizes) for c in range(DIGEST_CYCLES)],
        )
        warm = SimulatedExecutor(self.platform)
        fleet = sample_fleet(self.spec, 64, seed=self.seed)
        search_grid(warm, self.chain, fleet.grid, objectives=OBJECTIVES, top_k=1)
        drifted, _ = fleet.resample_users(range(8), seed=self.seed)
        search_grid(warm, self.chain, drifted.grid, objectives=OBJECTIVES, top_k=1)

    def reset(self, tracer) -> None:
        self.tracer = tracer
        self.executor = SimulatedExecutor(self.platform)
        self.fleet = None
        self._fresh_steps = 0

    def table_caches(self) -> list:
        return [self.executor.table_cache]

    def _inputs(self, cycle: int) -> tuple:
        inputs = self._cycles.get(cycle)
        if inputs is None:
            inputs = self._cycles[cycle] = _cycle_inputs(self.seed, cycle, self.sizes)
        return inputs

    def _fresh(self, fleet_seed: int):
        fleet = sample_fleet(self.spec, self.sizes.n_users, seed=fleet_seed)
        return fleet, search_grid(self.executor, self.chain, fleet.grid, objectives=OBJECTIVES, top_k=1)

    def _drift(self, users: np.ndarray, drift_seed: int):
        drifted, _ = self.fleet.resample_users(users, seed=drift_seed)
        return drifted, search_grid(
            self.executor, self.chain, drifted.grid, objectives=OBJECTIVES, top_k=1
        )

    def op(self, index: int) -> Op:
        cycle, step = divmod(index, self.cycle)
        fleet_seed, drifts, drift_seeds = self._inputs(cycle)
        if step == 0:
            (self.fleet, result), seconds = self.timed(self._fresh, fleet_seed)
            self._fresh_steps += 1
            ok = self._fresh_steps % P95_CHECK_EVERY != 1 or self._check_p95(result)
            pairs = result.n_evaluated * len(result.scenario_names)
            return Op("fresh", seconds, pairs=pairs, ok=ok)
        (self.fleet, result), seconds = self.timed(self._drift, drifts[step - 1], drift_seeds[step - 1])
        ok = step != 1 or cycle % DRIFT_CHECK_EVERY or self._check_drift(result)
        return Op("repeat", seconds, ok=bool(ok))

    def _check_p95(self, result) -> bool:
        """The search's p95 optimum equals a direct weighted inverse CDF."""
        tables = build_tables(self.chain, self.platform, scenarios=self.fleet.grid)
        matrix = placement_matrix(len(self.chain), len(self.platform.aliases))
        values = execute_placements_grid(tables, matrix).total_time_s
        manual = weighted_quantile(values, self.fleet.grid.weights, QUANTILE)
        top = result.top[OBJECTIVES[0].name]
        return (
            np.float64(top.values[0]).tobytes() == np.float64(manual.min()).tobytes()
            and manual[int(top.indices[0])] == top.values[0]
        )

    def _check_drift(self, result) -> bool:
        """The drift plan equals the plan of a freshly built grid of the drifted fleet."""
        rebuilt = ScenarioGrid(
            tuple(
                Scenario(name=s.name, settings=s.settings, weight=s.weight)
                for s in self.fleet.grid.scenarios
            )
        )
        direct = search_grid(
            SimulatedExecutor(self.platform), self.chain, rebuilt, objectives=OBJECTIVES, top_k=1
        )
        return all(
            direct.top[name].labels == result.top[name].labels
            and direct.top[name].values.tobytes() == result.top[name].values.tobytes()
            for name in result.top
        )
