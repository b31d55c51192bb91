"""Fault-aware search: expected-cost objectives through the streaming drivers."""

from __future__ import annotations

import numpy as np
import pytest

from factories import random_chain

from repro.devices import SimulatedExecutor, build_tables, edge_cluster_platform
from repro.faults import (
    DeviceFailure,
    FaultProfile,
    RetryPolicy,
    execute_fault_placements,
)
from repro.offload import placement_matrix
from repro.scenarios import DeviceFailureRate, ScenarioGrid
from repro.search import (
    RegretObjective,
    SuccessProbabilityConstraint,
    WorstCaseObjective,
    search_grid,
    search_space,
)


@pytest.fixture(scope="module")
def platform():
    return edge_cluster_platform()


@pytest.fixture(scope="module")
def chain():
    return random_chain(np.random.default_rng(8), 4)


@pytest.fixture(scope="module")
def profile():
    return FaultProfile(device_failure=DeviceFailure(rate=0.02, rates={"E": 0.2, "A": 0.3}))


RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001)


class TestFaultAwareSearchSpace:
    def test_winner_matches_direct_engine_argmin(self, platform, chain, profile):
        executor = SimulatedExecutor(platform)
        result = search_space(
            executor, chain, objectives=("time",), faults=profile, retry=RETRY
        )
        tables = build_tables(chain, platform, retry=RETRY, faults=profile)
        batch = execute_fault_placements(
            tables, placement_matrix(len(chain), len(platform.aliases))
        )
        assert result.best("time") == batch.label(int(np.argmin(batch.total_time_s)))
        assert result.top["time"].values[0] == float(np.min(batch.total_time_s))

    def test_fault_aware_differs_from_fault_blind_here(self, platform):
        # An offload-worthy chain: the fault-blind optimum leans on the edge
        # server/GPU, which a high failure rate makes a bad bet.
        from repro.experiments.faulttolerance import fault_chain

        executor = SimulatedExecutor(platform)
        chain = fault_chain()
        profile = FaultProfile(
            device_failure=DeviceFailure(rates={"E": 0.45, "A": 0.45})
        )
        blind = search_space(executor, chain, objectives=("time",))
        aware = search_space(
            executor, chain, objectives=("time",), faults=profile, retry=RETRY
        )
        assert aware.best("time") != blind.best("time")

    def test_sharded_equals_serial(self, platform, chain, profile):
        executor = SimulatedExecutor(platform)
        serial = search_space(
            executor, chain, objectives=("time",), faults=profile, retry=RETRY
        )
        sharded = search_space(
            executor,
            chain,
            objectives=("time",),
            faults=profile,
            retry=RETRY,
            n_workers=3,
            batch_size=37,
        )
        assert sharded.top["time"].labels == serial.top["time"].labels
        assert np.array_equal(sharded.top["time"].values, serial.top["time"].values)

    def test_success_probability_constraint_filters(self, platform, chain, profile):
        executor = SimulatedExecutor(platform)
        constraint = SuccessProbabilityConstraint(min_success=0.999)
        result = search_space(
            executor,
            chain,
            objectives=("time",),
            constraints=(constraint,),
            faults=profile,
            retry=RETRY,
        )
        tables = build_tables(chain, platform, retry=RETRY, faults=profile)
        batch = execute_fault_placements(
            tables, placement_matrix(len(chain), len(platform.aliases))
        )
        feasible = batch.success_probability >= 0.999
        assert result.n_feasible == int(feasible.sum())
        times = np.where(feasible, batch.total_time_s, np.inf)
        assert result.best("time") == batch.label(int(np.argmin(times)))

    def test_constraint_needs_a_fault_aware_batch(self, platform, chain):
        executor = SimulatedExecutor(platform)
        with pytest.raises(ValueError, match="fault-aware batch"):
            search_space(
                executor,
                chain,
                objectives=("time",),
                constraints=(SuccessProbabilityConstraint(0.9),),
            )

    def test_constraint_validates_bounds(self):
        with pytest.raises(ValueError, match="min_success"):
            SuccessProbabilityConstraint(min_success=1.5)

    def test_planner_method_refused(self, platform, chain, profile):
        executor = SimulatedExecutor(platform)
        with pytest.raises(ValueError, match="DP planner boundary"):
            search_space(
                executor,
                chain,
                objectives=("time",),
                method="planner",
                faults=profile,
                retry=RETRY,
            )

    def test_faults_without_retry_rejected(self, platform, chain, profile):
        executor = SimulatedExecutor(platform)
        with pytest.raises(ValueError, match="retry=RetryPolicy"):
            search_space(executor, chain, objectives=("time",), faults=profile)


class TestFaultAwareSearchGrid:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return ScenarioGrid.cartesian(
            [(DeviceFailureRate(devices=("E", "A")), [0.0, 0.1, 0.3])]
        )

    def test_scenario_platform_profiles_drive_the_grid(
        self, platform, chain, scenarios
    ):
        executor = SimulatedExecutor(platform)
        result = search_grid(
            executor,
            chain,
            scenarios,
            objectives=(WorstCaseObjective(),),
            retry=RETRY,
        )
        # Per scenario, the tracked best must match a direct fault evaluation
        # under that scenario's attached profile.
        matrix = placement_matrix(len(chain), len(platform.aliases))
        for index, scenario_platform in enumerate(scenarios.platforms(platform)):
            tables = build_tables(chain, scenario_platform, retry=RETRY)
            batch = execute_fault_placements(tables, matrix)
            expected = batch.label(int(np.argmin(batch.total_time_s)))
            assert result.scenario_best["time"].labels[index] == expected

    def test_sharded_equals_serial_with_regret(self, platform, chain, scenarios):
        executor = SimulatedExecutor(platform)
        kwargs = dict(
            objectives=(WorstCaseObjective(), RegretObjective()),
            constraints=(SuccessProbabilityConstraint(0.5),),
            retry=RETRY,
        )
        serial = search_grid(executor, chain, scenarios, **kwargs)
        sharded = search_grid(
            executor, chain, scenarios, n_workers=3, batch_size=41, **kwargs
        )
        for name in serial.top:
            assert sharded.top[name].labels == serial.top[name].labels
            assert np.array_equal(sharded.top[name].values, serial.top[name].values)

    def test_planner_baselines_refused_for_fault_aware_regret(
        self, platform, chain, scenarios
    ):
        executor = SimulatedExecutor(platform)
        # "auto" streams the baselines: they must equal the per-scenario
        # fault-aware minima.
        result = search_grid(
            executor,
            chain,
            scenarios,
            objectives=(RegretObjective(),),
            retry=RETRY,
            baseline_method="auto",
        )
        matrix = placement_matrix(len(chain), len(platform.aliases))
        for index, scenario_platform in enumerate(scenarios.platforms(platform)):
            tables = build_tables(chain, scenario_platform, retry=RETRY)
            batch = execute_fault_placements(tables, matrix)
            assert result.baselines["time"][index] == float(np.min(batch.total_time_s))
        # An explicit "planner" request must refuse with the boundary reason.
        with pytest.raises(ValueError, match="outside the DP planner boundary"):
            search_grid(
                executor,
                chain,
                scenarios,
                objectives=(RegretObjective(),),
                retry=RETRY,
                baseline_method="planner",
            )

    def test_faults_without_retry_rejected(self, platform, chain, scenarios, profile):
        executor = SimulatedExecutor(platform)
        with pytest.raises(ValueError, match="retry=RetryPolicy"):
            search_grid(executor, chain, scenarios, faults=profile)
