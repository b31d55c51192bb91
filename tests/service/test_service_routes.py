"""The service is the entry points: one dispatch route, one answer.

For any request -- plain or grid, objective, constraints, ``retry=`` and
``method`` -- :meth:`PlacementService.submit` reports the ``(engine,
dispatch_reason)`` that :func:`repro.search.planner.route` gives the same
request (or raises the same refusal), and its ``(plan, value)`` is bitwise
the answer of the direct entry point for that engine: ``search_space`` with
the request's ``method`` for plain requests, ``plan_grid`` or ``search_grid``
for grid ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import random_chain, random_graph, random_platform
from repro.devices import SimulatedExecutor
from repro.faults import DeviceFailure, FaultProfile, RetryPolicy
from repro.scenarios import DvfsFrequencyScale, LinkBandwidthScale, Scenario, ScenarioGrid
from repro.search import (
    DeadlineConstraint,
    DecisionObjective,
    ExpectedValueObjective,
    QuantileObjective,
    RegretObjective,
    WeightedSumObjective,
    WorstCaseObjective,
    as_objective,
    plan_grid,
    search_grid,
    search_space,
)
from repro.search.planner import route
from repro.selection import DecisionModel
from repro.service import METHODS, PlacementRequest, PlacementService

PLAIN_OBJECTIVES = (
    "time",
    "energy",
    "cost",
    WeightedSumObjective(1.0, 0.5, 2.0),
    DecisionObjective(DecisionModel(cost_weight=0.5)),
)
GRID_OBJECTIVES = (
    "time",
    WorstCaseObjective(base="energy"),
    ExpectedValueObjective(),
    RegretObjective(),
    QuantileObjective(q=0.5),
)
PROFILE = FaultProfile(device_failure=DeviceFailure(rate=0.05, rates={"A": 0.2}))


def scenario_grid(rng: np.random.Generator, n: int) -> ScenarioGrid:
    return ScenarioGrid(
        tuple(
            Scenario(
                name=f"s{i}",
                settings=(
                    (LinkBandwidthScale(), float(rng.uniform(0.3, 1.5))),
                    (DvfsFrequencyScale(), float(rng.uniform(0.5, 1.0))),
                ),
                weight=float(rng.uniform(0.5, 2.0)),
            )
            for i in range(n)
        )
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    n_devices=st.integers(2, 3),
    n_tasks=st.integers(1, 4),
    graph=st.sampled_from((False, False, False, True)),
    gridded=st.booleans(),
    objective_index=st.integers(0, 4),
    extra=st.sampled_from(("", "", "constraints", "retry")),
    method=st.sampled_from(METHODS),
)
@settings(max_examples=150, deadline=None)
def test_submit_answers_as_the_routed_entry_point(
    seed, n_devices, n_tasks, graph, gridded, objective_index, extra, method
):
    constrained, faulty = extra == "constraints", extra == "retry"
    rng = np.random.default_rng(seed)
    executor = SimulatedExecutor(random_platform(rng, n_devices))
    workload = random_graph(rng, n_tasks) if graph else random_chain(rng, n_tasks)
    constraints = (DeadlineConstraint(1e3),) if constrained else ()
    fault_args = dict(faults=PROFILE, retry=RetryPolicy(max_attempts=2)) if faulty else {}
    if gridded:
        grid = scenario_grid(rng, int(rng.integers(1, 4)))
        objective = GRID_OBJECTIVES[objective_index]
        robust = WorstCaseObjective(base=objective) if isinstance(objective, str) else objective
        tables = executor.grid_cost_tables(workload, grid, **fault_args)
    else:
        grid = None
        objective = PLAIN_OBJECTIVES[objective_index]
        robust = as_objective(objective)
        tables = executor.cost_tables(workload, **fault_args)
    request = PlacementRequest(
        workload=workload,
        platform=executor.platform,
        scenario_grid=grid,
        objective=objective,
        constraints=constraints,
        method=method,
        **fault_args,
    )
    service = PlacementService()
    try:
        expected = route(
            tables, (robust,), top_k=1, frontier=None, constraints=constraints,
            span=None, faults=faulty, method=method,
        )
    except ValueError as refusal:
        with pytest.raises(ValueError) as raised:
            service.submit(request)
        assert str(raised.value) == str(refusal)
        return
    response = service.submit(request)
    assert (response.engine, response.dispatch_reason) == expected

    if grid is None:
        result = search_space(
            executor, workload, objectives=(robust,), top_k=1, frontier=None,
            constraints=constraints, method=method, **fault_args,
        )
        top = result.top[robust.name]
        direct = (top.labels[0], float(top.values[0]))
    elif response.engine == "planner":
        plan = plan_grid(executor, workload, grid, objective)
        direct = (plan.label, plan.value)
    else:
        result = search_grid(
            executor, workload, grid, objectives=(robust,), top_k=1,
            constraints=constraints, **fault_args,
        )
        top = result.top[robust.name]
        direct = (top.labels[0], float(top.values[0]))
    assert response.plan == direct[0]
    assert response.value.hex() == direct[1].hex()
