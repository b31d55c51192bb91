"""Retry and timeout policies plus the truncated-geometric attempt algebra.

A :class:`RetryPolicy` grants each task up to ``max_attempts`` executions
with exponential backoff between them; every attempt re-pays the task's
compute and transfer time and energy.  With per-attempt failure probability
``p`` the attempt count of a task is truncated-geometric, and all expected
values have closed forms:

* ``P(success within A attempts) = 1 - p**A``
* ``E[attempts | success] = (1 - (A+1) p**A + A p**(A+1)) / ((1-p)(1-p**A))``
* ``E[backoff | success] = sum_j d_j (p**j - p**A) / (1 - p**A)`` where
  ``d_j`` is the delay after the ``j``-th failed attempt.

These are exactly the quantities the vectorized engine folds per task, and
the scalar functions below are written with the *same* elementary operation
sequence (powers by repeated multiplication, guarded divisions) so the two
agree bit for bit -- the property the differential tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Upper bound on ``max_attempts`` -- the closed forms loop A-1 times to
#: build ``p**A`` by repeated multiplication, so keep A civilised.
MAX_ATTEMPTS_LIMIT = 4096


def _require_finite_nonnegative(value: float, label: str) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value) or value < 0.0:
        raise ValueError(f"{label} must be finite and >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with validated exponential backoff.

    ``max_attempts`` counts total executions, so ``max_attempts=1`` is the
    zero-retry policy.  The delay before attempt ``j+1`` (``j >= 1`` failures
    so far) is ``min(backoff_base_s * backoff_factor**(j-1), backoff_cap_s)``.
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = math.inf

    def __post_init__(self) -> None:
        attempts = self.max_attempts
        if not isinstance(attempts, int) or isinstance(attempts, bool):
            raise TypeError(f"max_attempts must be an int, got {attempts!r}")
        if not 1 <= attempts <= MAX_ATTEMPTS_LIMIT:
            raise ValueError(
                f"max_attempts must be in [1, {MAX_ATTEMPTS_LIMIT}], got {attempts}"
            )
        _require_finite_nonnegative(self.backoff_base_s, "backoff_base_s")
        factor = float(self.backoff_factor)
        if math.isnan(factor) or math.isinf(factor) or factor < 1.0:
            raise ValueError(f"backoff_factor must be finite and >= 1, got {factor!r}")
        cap = float(self.backoff_cap_s)
        if math.isnan(cap) or cap < 0.0:
            raise ValueError(f"backoff_cap_s must be >= 0 (inf allowed), got {cap!r}")
        # Delays never shrink, so the last one bounds the schedule; an
        # uncapped exponential overflows to inf on long budgets.
        if attempts > 1 and not math.isfinite(self.delay(attempts - 1)):
            raise ValueError(
                f"backoff_cap_s={cap!r} lets the delay after failure {attempts - 1} "
                f"overflow to inf; set a finite backoff_cap_s or fewer max_attempts"
            )

    def delay(self, failures: int) -> float:
        """Backoff delay inserted after the ``failures``-th failed attempt."""
        if failures < 1:
            raise ValueError(f"delay() is defined for failures >= 1, got {failures}")
        if self.backoff_base_s == 0.0:
            # No backoff at all; the factor power alone may overflow, and
            # 0.0 * inf is nan.
            return 0.0
        scale = 1.0
        for _ in range(failures - 1):
            scale = scale * self.backoff_factor
        return min(self.backoff_base_s * scale, self.backoff_cap_s)

    def delays(self) -> tuple[float, ...]:
        """The ``max_attempts - 1`` inter-attempt delays."""
        return tuple(self.delay(j) for j in range(1, self.max_attempts))


@dataclass(frozen=True)
class TimeoutPolicy:
    """Per-attempt wall-clock budget plus the degradation mode on exhaustion.

    An attempt whose (possibly straggler-inflated) duration exceeds
    ``timeout_s`` is killed after exactly ``timeout_s`` seconds and counts as
    a failure.  When every attempt of a task fails, ``fallback`` decides the
    Monte-Carlo outcome: ``"host"`` re-runs the task on the host device
    (degraded but feasible), ``"fail"`` marks the record failed, naming the
    faulting task and device.  The analytic engine always reports the
    conditional-on-success expectation together with the success probability.
    """

    timeout_s: float = math.inf
    fallback: str = "fail"

    def __post_init__(self) -> None:
        timeout = float(self.timeout_s)
        if math.isnan(timeout) or timeout <= 0.0:
            raise ValueError(f"timeout_s must be > 0 (inf allowed), got {timeout!r}")
        if self.fallback not in ("fail", "host"):
            raise ValueError(
                f"fallback must be 'fail' or 'host', got {self.fallback!r}"
            )


def expected_attempts(p_fail: float, max_attempts: int) -> tuple[float, float]:
    """``(P(success), E[attempts | success])`` for ``max_attempts`` tries.

    ``E[attempts | success]`` is reported as ``1.0`` when success is
    impossible (``p_fail == 1``) so callers can scale per-attempt costs
    without manufacturing ``0 * inf``; the success probability of ``0.0``
    is the signal that the task cannot complete.
    """
    p = float(p_fail)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p_fail must be a probability in [0, 1], got {p!r}")
    a = int(max_attempts)
    if a < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    p_a = p
    for _ in range(a - 1):
        p_a = p_a * p
    success = 1.0 - p_a
    if a == 1 or p >= 1.0:
        # A successful single-attempt task always took exactly one attempt;
        # the general formula only reaches 1.0 up to rounding.
        attempts = 1.0
    else:
        numerator = 1.0 - (a + 1.0) * p_a + a * p_a * p
        denominator = (1.0 - p) * success
        attempts = numerator / denominator
    return success, attempts


def expected_backoff(p_fail: float, policy: RetryPolicy) -> float:
    """``E[total backoff delay | success]`` under ``policy``.

    Zero when success is impossible (the guarded branch the vectorized
    engine takes as well).
    """
    p = float(p_fail)
    if math.isnan(p) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p_fail must be a probability in [0, 1], got {p!r}")
    a = policy.max_attempts
    p_a = p
    for _ in range(a - 1):
        p_a = p_a * p
    success = 1.0 - p_a
    if success <= 0.0:
        return 0.0
    total = 0.0
    p_j = p
    for j in range(1, a):
        total = total + policy.delay(j) * (p_j - p_a)
        p_j = p_j * p
    return total / success
