"""Monte-Carlo fault injection: statistical cross-check of the analytic engine."""

from __future__ import annotations

import numpy as np
import pytest

from factories import random_chain, random_graph

from repro.devices import SimulatedExecutor, build_tables, edge_cluster_platform
from repro.faults import (
    DeviceFailure,
    FaultProfile,
    LinkDropout,
    RetryPolicy,
    StragglerModel,
    TimeoutPolicy,
    expected_record,
    simulate_chain_with_faults,
    summarize_fault_trials,
)


@pytest.fixture(scope="module")
def platform():
    return edge_cluster_platform()


@pytest.fixture(scope="module")
def chain():
    return random_chain(np.random.default_rng(0), 3)


class TestStatisticalConvergence:
    def test_trial_means_converge_to_analytic_expectations(self, platform, chain):
        profile = FaultProfile(
            device_failure=DeviceFailure(rate=0.02, rates={"E": 0.1, "A": 0.15}),
            link_dropout=LinkDropout(rate=0.02),
            straggler=StragglerModel(probability=0.1, slowdown=2.0),
        )
        retry = RetryPolicy(max_attempts=3, backoff_base_s=0.001)
        placement = ("D", "E", "A")
        analytic = expected_record(
            build_tables(chain, platform, retry=retry, faults=profile), placement
        )
        rng = np.random.default_rng(42)
        records = [
            simulate_chain_with_faults(
                platform, chain, placement, retry=retry, faults=profile, rng=rng
            )
            for _ in range(6000)
        ]
        summary = summarize_fault_trials(records)
        assert summary["n_trials"] == 6000
        assert summary["success_rate"] == pytest.approx(
            analytic.success_probability, abs=0.02
        )
        assert summary["mean_time_ok_s"] == pytest.approx(
            analytic.total_time_s, rel=0.05
        )
        assert summary["mean_attempts_ok"] == pytest.approx(
            analytic.expected_attempts, rel=0.05
        )
        assert summary["mean_energy_ok_j"] == pytest.approx(
            analytic.energy_total_j, rel=0.05
        )

    def test_fault_free_trials_are_deterministic(self, platform, chain):
        rng = np.random.default_rng(0)
        record = simulate_chain_with_faults(
            platform, chain, ("D", "E", "A"), retry=RetryPolicy(), rng=rng
        )
        assert record.status == "ok"
        assert record.attempts == (1, 1, 1)
        classic = SimulatedExecutor(platform).execute(chain, ("D", "E", "A"))
        assert record.total_time_s == classic.total_time_s
        assert record.energy_total_j == classic.energy.total_j


class TestDegradationModes:
    def test_host_fallback_degrades_instead_of_failing(self, platform, chain):
        profile = FaultProfile(device_failure=DeviceFailure(rates={"E": 1.0}))
        record = simulate_chain_with_faults(
            platform,
            chain,
            ("D", "E", "A"),
            retry=RetryPolicy(max_attempts=2),
            faults=profile,
            timeout=TimeoutPolicy(fallback="host"),
            rng=np.random.default_rng(1),
        )
        assert record.status == "degraded"
        assert record.effective_placement == ("D", "D", "A")
        assert record.degraded_tasks == (chain.tasks[1].name,)
        assert record.attempts[1] == 2  # budget exhausted before the fallback
        assert record.failed_task is None

    def test_fail_fallback_names_task_and_device(self, platform, chain):
        profile = FaultProfile(device_failure=DeviceFailure(rates={"E": 1.0}))
        record = simulate_chain_with_faults(
            platform,
            chain,
            ("D", "E", "A"),
            retry=RetryPolicy(max_attempts=3),
            faults=profile,
            rng=np.random.default_rng(1),
        )
        assert record.status == "failed"
        assert record.failed_task == chain.tasks[1].name
        assert record.failed_device == "E"
        assert record.attempts == (1, 3)  # downstream tasks never ran
        # Accounting covers the partial run, not the unreached tail.
        assert record.total_time_s > 0.0
        assert np.isfinite(record.total_time_s)


class TestExecutorEntryPoints:
    def test_simulate_with_faults_is_seeded_and_chain_only(self, platform, chain):
        executor = SimulatedExecutor(platform, seed=9)
        profile = FaultProfile(device_failure=DeviceFailure(rate=0.2))
        retry = RetryPolicy(max_attempts=3)
        first = SimulatedExecutor(platform, seed=9).simulate_with_faults(
            chain, ("D", "E", "A"), retry=retry, faults=profile
        )
        second = SimulatedExecutor(platform, seed=9).simulate_with_faults(
            chain, ("D", "E", "A"), retry=retry, faults=profile
        )
        assert first == second
        graph = random_graph(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="chain-only"):
            executor.simulate_with_faults(graph, ("D", "E", "A"), retry=retry)

    def test_execute_with_faults_matches_expected_record(self, platform, chain):
        executor = SimulatedExecutor(platform)
        profile = FaultProfile(device_failure=DeviceFailure(rate=0.1))
        retry = RetryPolicy(max_attempts=2)
        record = executor.execute_with_faults(
            chain, ("D", "E", "A"), retry=retry, faults=profile
        )
        direct = expected_record(
            build_tables(chain, platform, retry=retry, faults=profile),
            ("D", "E", "A"),
        )
        assert record == direct


class TestSummaries:
    def test_empty_trials_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            summarize_fault_trials([])
