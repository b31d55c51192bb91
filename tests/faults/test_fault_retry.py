"""Retry/timeout policy validation and the truncated-geometric attempt algebra.

The hypothesis test at the bottom is the statistical pin of the closed forms:
simulated truncated-geometric retries must converge to the analytic
``expected_attempts`` values for any drawn failure probability and budget.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import random_chain
from repro.devices import build_tables, edge_cluster_platform
from repro.faults import (
    DeviceFailure,
    FaultProfile,
    RetryPolicy,
    TimeoutPolicy,
    expected_attempts,
    expected_backoff,
    expected_record,
)
from repro.offload import placement_matrix


class TestRetryPolicyValidation:
    def test_default_is_zero_retry(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.delays() == ()

    @pytest.mark.parametrize("bad", [0, -1, 5000])
    def test_attempt_bounds(self, bad):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=bad)

    @pytest.mark.parametrize("bad", [1.5, True, "3"])
    def test_attempts_must_be_int(self, bad):
        with pytest.raises(TypeError, match="max_attempts"):
            RetryPolicy(max_attempts=bad)  # type: ignore[arg-type]

    @pytest.mark.parametrize("bad", [-0.001, float("nan"), float("inf")])
    def test_rejects_invalid_backoff_base(self, bad):
        with pytest.raises(ValueError, match="backoff_base_s"):
            RetryPolicy(max_attempts=3, backoff_base_s=bad)

    @pytest.mark.parametrize("bad", [0.5, float("nan"), float("inf")])
    def test_rejects_invalid_backoff_factor(self, bad):
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(max_attempts=3, backoff_factor=bad)

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_rejects_invalid_backoff_cap(self, bad):
        with pytest.raises(ValueError, match="backoff_cap_s"):
            RetryPolicy(max_attempts=3, backoff_cap_s=bad)

    def test_exponential_schedule_with_cap(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base_s=1.0, backoff_factor=2.0, backoff_cap_s=3.0
        )
        assert policy.delays() == (1.0, 2.0, 3.0, 3.0)
        with pytest.raises(ValueError, match="failures >= 1"):
            policy.delay(0)


class TestLongRetryBudgets:
    """Budgets long enough for ``backoff_factor**j`` to overflow a float."""

    def test_zero_base_delays_stay_zero_past_overflow(self):
        # 2.0**1024 is inf; without backoff the delay must still be 0.0, not
        # 0.0 * inf = nan.
        policy = RetryPolicy(max_attempts=1026)
        assert policy.delay(1025) == 0.0
        assert set(policy.delays()) == {0.0}
        assert expected_backoff(0.1, policy) == 0.0

    def test_uncapped_overflowing_schedule_is_rejected(self):
        with pytest.raises(ValueError, match="backoff_cap_s"):
            RetryPolicy(max_attempts=1100, backoff_base_s=0.001)

    def test_cap_bounds_a_long_schedule(self):
        policy = RetryPolicy(max_attempts=1100, backoff_base_s=0.001, backoff_cap_s=5.0)
        assert policy.delays()[-1] == 5.0
        assert math.isfinite(expected_backoff(0.5, policy))

    def test_longest_finite_uncapped_schedule_is_accepted(self):
        # The factor power 2.0**1023 is the last finite one; the delay after
        # failure 1025 would need 2.0**1024.
        assert math.isfinite(RetryPolicy(max_attempts=1025, backoff_base_s=0.001).delay(1024))
        with pytest.raises(ValueError, match="backoff_cap_s"):
            RetryPolicy(max_attempts=1026, backoff_base_s=0.001)

    def test_long_budget_without_backoff_scores_finite(self, rng):
        chain = random_chain(rng, 2)
        platform = edge_cluster_platform()
        tables = build_tables(
            chain,
            platform,
            retry=RetryPolicy(max_attempts=1026),
            faults=FaultProfile(device_failure=DeviceFailure(rate=0.1)),
        )
        batch = tables.execute(placement_matrix(len(chain), len(platform.aliases)))
        assert np.all(np.isfinite(batch.total_time_s))
        assert np.all(batch.success_probability == 1.0)
        record = expected_record(tables, batch.placements[-1])
        assert record.total_time_s == batch.total_time_s[-1]


class TestTimeoutPolicy:
    def test_default_is_unbounded_fail(self):
        policy = TimeoutPolicy()
        assert math.isinf(policy.timeout_s)
        assert policy.fallback == "fail"

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_timeout(self, bad):
        with pytest.raises(ValueError, match="timeout_s"):
            TimeoutPolicy(timeout_s=bad)

    def test_rejects_unknown_fallback(self):
        with pytest.raises(ValueError, match="fallback"):
            TimeoutPolicy(fallback="retry-forever")


class TestExpectedAttempts:
    def test_fault_free_single_attempt(self):
        assert expected_attempts(0.0, 1) == (1.0, 1.0)
        assert expected_attempts(0.0, 7) == (1.0, 1.0)

    def test_half_failure_three_attempts(self):
        success, attempts = expected_attempts(0.5, 3)
        assert success == pytest.approx(0.875)
        assert attempts == pytest.approx(11.0 / 7.0)

    def test_certain_failure_reports_zero_success_unit_attempts(self):
        # attempts is defined as 1.0 so callers can scale per-attempt costs
        # without manufacturing 0 * inf; success probability 0 is the signal.
        assert expected_attempts(1.0, 5) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="p_fail"):
            expected_attempts(1.5, 3)
        with pytest.raises(ValueError, match="p_fail"):
            expected_attempts(float("nan"), 3)
        with pytest.raises(ValueError, match="max_attempts"):
            expected_attempts(0.5, 0)


class TestExpectedBackoff:
    def test_zero_without_failures_or_budget(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=1.0)
        assert expected_backoff(0.0, policy) == 0.0
        assert expected_backoff(1.0, policy) == 0.0  # success impossible
        assert expected_backoff(0.5, RetryPolicy(max_attempts=1)) == 0.0

    def test_hand_computed_value(self):
        policy = RetryPolicy(max_attempts=3, backoff_base_s=1.0, backoff_factor=2.0)
        # delays (1, 2); p=0.5, p^3=0.125:
        # (1*(0.5-0.125) + 2*(0.25-0.125)) / 0.875 = 0.625 / 0.875
        assert expected_backoff(0.5, policy) == pytest.approx(0.625 / 0.875)


@given(
    p_fail=st.floats(min_value=0.0, max_value=0.9),
    max_attempts=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_analytic_attempts_match_simulated_retries(p_fail, max_attempts, seed):
    """The closed forms ARE the mean of sampled truncated-geometric retries."""
    rng = np.random.default_rng(seed)
    n_trials = 20_000
    uniforms = rng.random((n_trials, max_attempts))
    fails = uniforms < p_fail
    succeeded = ~fails.all(axis=1)
    first_success = np.argmax(~fails, axis=1) + 1  # 1-based attempt index

    success, attempts = expected_attempts(p_fail, max_attempts)
    assert np.mean(succeeded) == pytest.approx(success, abs=0.02)
    if succeeded.any():
        simulated = float(np.mean(first_success[succeeded]))
        assert simulated == pytest.approx(attempts, rel=0.05, abs=0.05)

    # The backoff expectation is the matching delay-weighted sum.
    policy = RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.5, backoff_factor=2.0)
    if succeeded.any():
        delays = np.array((0.0,) + policy.delays())
        paid = np.cumsum(delays)[first_success - 1]
        assert float(np.mean(paid[succeeded])) == pytest.approx(
            expected_backoff(p_fail, policy), rel=0.05, abs=0.05
        )
