"""Resilient planning: ``plan_with_fallback`` vs brute-force enumeration.

The acceptance pin: on small spaces, the primary and every per-device backup
must equal the brute-force optimum over the corresponding device subset, and
every backup must stay feasible under the single-device-failure scenario it
covers (it never schedules the failed device).
"""

from __future__ import annotations

import numpy as np
import pytest

from factories import random_chain, random_graph

from repro.devices import SimulatedExecutor, build_tables, edge_cluster_platform
from repro.faults import (
    DeviceFailure,
    FaultProfile,
    RetryPolicy,
    execute_fault_placements,
    plan_with_fallback,
)
from repro.offload import placement_matrix
from repro.search import plan_workload

PROFILE = FaultProfile(device_failure=DeviceFailure(rate=0.02, rates={"E": 0.25, "A": 0.3}))
RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001)


@pytest.fixture(scope="module")
def platform():
    return edge_cluster_platform()


def brute_force_best(platform, workload, subset, *, min_success=0.0):
    """Expected-time optimum over ``subset`` by full enumeration."""
    tables = build_tables(
        workload, platform, devices=subset, retry=RETRY, faults=PROFILE
    )
    batch = execute_fault_placements(
        tables, placement_matrix(len(workload), len(subset))
    )
    values = np.where(
        batch.success_probability >= min_success, batch.total_time_s, np.inf
    )
    index = int(np.argmin(values))
    return batch.label(index), float(batch.total_time_s[index])


class TestFaultAwareDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_primary_and_every_backup_match_brute_force(self, platform, seed):
        rng = np.random.default_rng(seed)
        workload = random_chain(rng, 3) if seed % 2 == 0 else random_graph(rng, 3)
        executor = SimulatedExecutor(platform)
        plan = plan_with_fallback(
            executor, workload, "time", retry=RETRY, faults=PROFILE
        )
        aliases = tuple(platform.aliases)
        label, value = brute_force_best(platform, workload, aliases)
        assert plan.primary.label == label
        assert plan.primary.value == value
        assert plan.primary.method == "fault-stream"
        assert plan.covered_devices() == tuple(a for a in aliases if a != platform.host)
        for failed in plan.covered_devices():
            subset = tuple(a for a in aliases if a != failed)
            label, value = brute_force_best(platform, workload, subset)
            backup = plan.backup_for(failed)
            assert backup.label == label
            assert backup.value == value
            # Feasible under the single-device-failure scenario: the failed
            # device never appears in the backup placement.
            assert failed not in backup.placement
            assert backup.aliases == subset
        assert plan.dispatch_reason is not None

    def test_repeated_plans_read_their_tables_from_the_cache(self, platform):
        # Each component plan streams through search_space on the executor's
        # table cache, so an identical second call builds no table.
        chain = random_chain(np.random.default_rng(6), 3)
        executor = SimulatedExecutor(platform)
        kwargs = dict(retry=RETRY, faults=PROFILE, min_success=0.5)
        first = plan_with_fallback(executor, chain, "time", **kwargs)
        before = executor.table_cache.stats()
        second = plan_with_fallback(executor, chain, "time", **kwargs)
        after = executor.table_cache.stats()
        assert after.misses == before.misses
        assert after.hits > before.hits
        assert second == first

    def test_min_success_filters_the_subspace(self, platform):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 3)
        executor = SimulatedExecutor(platform)
        plan = plan_with_fallback(
            executor, chain, "time", retry=RETRY, faults=PROFILE, min_success=0.95
        )
        label, _ = brute_force_best(
            platform, chain, tuple(platform.aliases), min_success=0.95
        )
        assert plan.primary.label == label
        assert plan.primary.success_probability >= 0.95

    def test_unreachable_min_success_is_an_error(self, platform):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 3)
        impossible = FaultProfile(device_failure=DeviceFailure(rate=1.0))
        with pytest.raises(ValueError, match="success probability"):
            plan_with_fallback(
                SimulatedExecutor(platform),
                chain,
                "time",
                retry=RETRY,
                faults=impossible,
                min_success=0.5,
            )


class TestFaultFreePath:
    def test_components_come_from_the_exact_planner(self, platform):
        rng = np.random.default_rng(4)
        chain = random_chain(rng, 3)
        executor = SimulatedExecutor(platform)
        plan = plan_with_fallback(executor, chain, "time")
        assert plan.dispatch_reason is None
        direct = plan_workload(executor, chain, "time")
        assert plan.primary.label == direct.label
        assert plan.primary.value == direct.value
        assert plan.primary.method == direct.method == "chain-dp"
        for failed in plan.covered_devices():
            subset = tuple(a for a in platform.aliases if a != failed)
            reduced = plan_workload(executor, chain, "time", devices=subset)
            backup = plan.backup_for(failed)
            assert backup.label == reduced.label
            assert backup.value == reduced.value
            assert failed not in backup.placement


class TestGuards:
    def test_dp_method_refused_for_fault_aware_plans(self, platform):
        chain = random_chain(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="outside\\s+the DP lattice"):
            plan_with_fallback(
                SimulatedExecutor(platform), chain, "time", retry=RETRY, method="dp"
            )

    def test_faults_without_retry_rejected(self, platform):
        chain = random_chain(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="retry=RetryPolicy"):
            plan_with_fallback(SimulatedExecutor(platform), chain, "time", faults=PROFILE)

    def test_min_success_bounds(self, platform):
        chain = random_chain(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="min_success"):
            plan_with_fallback(
                SimulatedExecutor(platform), chain, "time", retry=RETRY, min_success=1.1
            )

    def test_needs_two_candidates(self, platform):
        chain = random_chain(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="at least two"):
            plan_with_fallback(
                SimulatedExecutor(platform), chain, "time", devices=("D",)
            )

    def test_unknown_method(self, platform):
        chain = random_chain(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="unknown method"):
            plan_with_fallback(
                SimulatedExecutor(platform), chain, "time", method="brute"
            )

    def test_fallback_limit_bounds_the_enumeration(self, platform):
        chain = random_chain(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="shrink the device set"):
            plan_with_fallback(
                SimulatedExecutor(platform),
                chain,
                "time",
                retry=RETRY,
                fallback_limit=10,
            )

    def test_backup_for_unknown_device(self, platform):
        chain = random_chain(np.random.default_rng(0), 3)
        plan = plan_with_fallback(SimulatedExecutor(platform), chain, "time")
        with pytest.raises(KeyError, match="no backup plan for device 'Z'"):
            plan.backup_for("Z")
        with pytest.raises(KeyError, match="covered devices"):
            plan.backup_for(platform.host)

    def test_summary_names_every_component(self, platform):
        chain = random_chain(np.random.default_rng(0), 3)
        plan = plan_with_fallback(
            SimulatedExecutor(platform), chain, "time", retry=RETRY, faults=PROFILE
        )
        text = plan.summary()
        assert "primary" in text
        for alias in plan.covered_devices():
            assert f"-{alias}" in text
