"""Fault-tolerant execution: failure models, retry semantics, resilient plans.

The subsystem threads device crashes, link dropouts and stragglers through
the whole evaluation stack:

* :mod:`repro.faults.models` -- composable failure models
  (:class:`DeviceFailure`, :class:`LinkDropout`, :class:`StragglerModel`)
  bundled into a :class:`FaultProfile` attachable to a
  :class:`~repro.devices.platform.Platform`.
* :mod:`repro.faults.retry` -- :class:`RetryPolicy` (bounded attempts,
  validated exponential backoff) and :class:`TimeoutPolicy` (per-attempt
  budget, host fallback), plus the truncated-geometric closed forms.
* :mod:`repro.faults.tables` / :mod:`repro.faults.engine` -- fault-augmented
  cost tables and the vectorized expected-cost-under-faults engines for
  placement batches and scenario grids, pinned bitwise against the
  sequential :func:`expected_record` reference.
* :mod:`repro.faults.simulate` -- Monte-Carlo fault injection, the
  statistical cross-check on the closed forms.
* :mod:`repro.faults.planning` -- :func:`plan_with_fallback`: a primary
  placement plus a verified backup per non-host device.
"""

from .engine import (
    ExpectedFaultRecord,
    ExpectedTaskFaults,
    FaultBatchExecutionResult,
    FaultGridExecutionResult,
    execute_fault_placements,
    execute_fault_placements_grid,
    expected_record,
)
from .models import DeviceFailure, FaultProfile, LinkDropout, StragglerModel
from .planning import DevicePlan, FallbackPlan, plan_with_fallback
from .retry import (
    RetryPolicy,
    TimeoutPolicy,
    expected_attempts,
    expected_backoff,
)
from .simulate import (
    FaultSimulationRecord,
    simulate_chain_with_faults,
    summarize_fault_trials,
)
from .tables import (
    FaultChainCostTables,
    FaultGridCostTables,
    resolve_fault_profile,
)

__all__ = [
    "DeviceFailure",
    "LinkDropout",
    "StragglerModel",
    "FaultProfile",
    "RetryPolicy",
    "TimeoutPolicy",
    "expected_attempts",
    "expected_backoff",
    "FaultChainCostTables",
    "FaultGridCostTables",
    "resolve_fault_profile",
    "ExpectedTaskFaults",
    "ExpectedFaultRecord",
    "FaultBatchExecutionResult",
    "FaultGridExecutionResult",
    "execute_fault_placements",
    "execute_fault_placements_grid",
    "expected_record",
    "FaultSimulationRecord",
    "simulate_chain_with_faults",
    "summarize_fault_trials",
    "DevicePlan",
    "FallbackPlan",
    "plan_with_fallback",
]
