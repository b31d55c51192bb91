"""Differential tests pinning the exact planner to the brute-force enumerators.

The planner's claim is strong -- a provably-*optimal* placement without
enumerating ``m**k`` -- so every guarantee is pinned against exhaustive
enumeration on randomized spaces small enough to enumerate:

* chain DP optimum == brute-force minimum, **bitwise**, across random
  platforms, chains, objectives and device subsets (hypothesis-driven),
  including the degenerate corners: 1 task, 1 device, missing links and fully
  infeasible spaces;
* placement equivalence is *tie-aware*: the DP may pick any cost-minimal
  placement, so the pinned property is that re-scoring the DP's winner
  through the engine reproduces the enumerated minimum exactly;
* the DAG level-DP matches enumeration on barrier-decomposable graphs and
  falls back (with the reason recorded) on graphs it cannot decompose;
* the robust grid planner matches ``search_grid``'s streamed top-1 for
  worst-case and regret bitwise, and the per-scenario DP baselines are
  bitwise the streamed baseline pass;
* the ``search_space(..., method=...)`` dispatch and ``search_grid``'s
  ``n_workers`` sharding / ``baseline_method`` switch change nothing about
  the selected values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import Platform, SimulatedExecutor, edge_cluster_platform, lte, wifi_ac
from repro.scenarios import (
    DvfsFrequencyScale,
    LinkBandwidthScale,
    Scenario,
    link_degradation_grid,
)
from repro.search import (
    DeadlineConstraint,
    DecisionObjective,
    ExpectedValueObjective,
    GridPlanResult,
    MetricObjective,
    PlanResult,
    RegretObjective,
    WeightedSumObjective,
    WorstCaseObjective,
    as_objective,
    grid_baselines,
    plan_grid,
    plan_workload,
    planner_objective_weights,
    search_grid,
    search_space,
)
from repro.search.planner import decomposable_levels, dispatch_reason
from repro.tasks import TaskGraph
from repro.tasks.workloads import fork_join_graph

from factories import random_chain, random_graph, random_platform
from repro.selection import DecisionModel

OBJECTIVES = (
    "time",
    "energy",
    "cost",
    WeightedSumObjective(1.0, 0.25, 3.0),
)


def gapped_platform(rng: np.random.Generator, n_devices: int) -> Platform:
    """A random platform with the A-B link removed (missing-link infeasibility)."""
    base = random_platform(rng, n_devices)
    links = {pair: link for pair, link in base.links.items() if set(pair) != {"A", "B"}}
    return Platform(devices=base.devices, links=links, host=base.host, name="gapped")


def sequential_minimum(executor, workload, objective):
    """Brute-force minimum via per-placement sequential execution.

    Tolerates missing links (the batch engine raises on them), so it is the
    reference for infeasible-placement spaces; returns ``None`` when no
    placement is feasible.
    """
    from repro.offload import placement_matrix

    tables = executor.cost_tables(workload)
    objective = as_objective(objective)
    best = None
    for row in placement_matrix(tables.n_tasks, tables.n_devices):
        try:
            batch = executor.execute_batch(workload, row[None, :].astype(np.intp))
        except KeyError:
            continue
        value = float(objective(batch)[0])
        if best is None or value < best:
            best = value
    return best


def random_scenarios(rng: np.random.Generator, n: int) -> list[Scenario]:
    out = []
    for i in range(n):
        settings_ = []
        if rng.random() < 0.8:
            settings_.append((LinkBandwidthScale(), float(rng.uniform(0.3, 1.5))))
        if rng.random() < 0.5:
            settings_.append((DvfsFrequencyScale(), float(rng.uniform(0.5, 1.0))))
        out.append(
            Scenario(name=f"s{i}", settings=tuple(settings_), weight=float(rng.uniform(0.5, 2.0)))
        )
    return out


class TestChainPlanner:
    @given(
        n_devices=st.integers(1, 4),
        n_tasks=st.integers(1, 6),
        objective_index=st.integers(0, len(OBJECTIVES) - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_dp_optimum_is_bitwise_the_brute_force_minimum(
        self, n_devices, n_tasks, objective_index, seed
    ):
        rng = np.random.default_rng(seed)
        executor = SimulatedExecutor(random_platform(rng, n_devices))
        chain = random_chain(rng, n_tasks)
        objective = as_objective(OBJECTIVES[objective_index])
        brute = float(objective(executor.execute_batch(chain)).min())
        plan = plan_workload(executor, chain, objective, method="dp")
        assert plan.method == "chain-dp"
        assert plan.exact
        # Tie-aware equivalence: the engine value of the DP's placement IS the
        # enumerated minimum (any cost-minimal placement is acceptable).
        assert plan.value == brute

    @given(
        n_devices=st.integers(2, 4),
        subset_size=st.integers(1, 3),
        n_tasks=st.integers(1, 5),
        objective_index=st.integers(0, len(OBJECTIVES) - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_device_subsets_restrict_the_planned_space(
        self, n_devices, subset_size, n_tasks, objective_index, seed
    ):
        # Devices outside the subset idle for the whole run, so energy and
        # weighted objectives reach their idle power.
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices)
        executor = SimulatedExecutor(platform)
        chain = random_chain(rng, n_tasks)
        objective = as_objective(OBJECTIVES[objective_index])
        subset = list(platform.aliases)[: min(subset_size, n_devices)]
        brute = float(objective(executor.execute_batch(chain, devices=subset)).min())
        plan = plan_workload(executor, chain, objective, devices=subset)
        assert plan.aliases == tuple(subset)
        assert plan.value == brute
        assert plan.dp_value == pytest.approx(plan.value, rel=1e-9)
        assert set(plan.placement) <= set(subset)

    @given(seed=st.integers(0, 2**32 - 1), n_tasks=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_missing_links_route_around_or_raise(self, seed, n_tasks):
        rng = np.random.default_rng(seed)
        executor = SimulatedExecutor(gapped_platform(rng, 3))
        chain = random_chain(rng, n_tasks)
        brute = sequential_minimum(executor, chain, "time")
        if brute is None:
            with pytest.raises(KeyError, match="no feasible placement"):
                plan_workload(executor, chain, "time")
        else:
            plan = plan_workload(executor, chain, "time")
            assert plan.value == brute

    def test_single_task_single_device(self):
        rng = np.random.default_rng(3)
        executor = SimulatedExecutor(random_platform(rng, 1))
        chain = random_chain(rng, 1)
        plan = plan_workload(executor, chain, "time")
        assert plan.placement == ("D",)
        assert plan.space_size == 1
        assert plan.value == executor.execute(chain, "D").total_time_s

    def test_plan_result_metadata_round_trips(self):
        rng = np.random.default_rng(4)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 4)
        plan = plan_workload(executor, chain, "energy")
        assert isinstance(plan, PlanResult)
        assert plan.objective == "energy"
        assert plan.space_size == 3**4
        # placement_index encodes the placement lexicographically
        # (most-significant digit = task 0), matching placement_matrix.
        from repro.offload import indices_to_matrix

        row = indices_to_matrix(
            np.array([plan.placement_index], dtype=np.int64), 4, 3
        )[0]
        assert tuple(plan.aliases[d] for d in row) == plan.placement
        record = plan.record()
        assert record.total_time_s == plan.batch.total_time_s[0]
        assert "exact optimum" in plan.summary()

    def test_dp_value_is_bitwise_for_time(self):
        rng = np.random.default_rng(5)
        executor = SimulatedExecutor(random_platform(rng, 4))
        chain = random_chain(rng, 6)
        plan = plan_workload(executor, chain, "time")
        assert plan.dp_value == plan.value

    def test_non_additive_objective_falls_back_to_enumeration(self):
        rng = np.random.default_rng(6)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 3)
        objective = DecisionObjective(DecisionModel(cost_weight=0.5))
        assert planner_objective_weights(objective) is None
        plan = plan_workload(executor, chain, objective)
        assert plan.method == "enumeration"
        assert plan.fallback_reason is not None
        brute = float(objective(executor.execute_batch(chain)).min())
        assert plan.value == brute
        with pytest.raises(ValueError, match="method='dp' cannot plan"):
            plan_workload(executor, chain, objective, method="dp")

    def test_fallback_limit_bounds_the_enumeration_escape(self):
        rng = np.random.default_rng(7)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 4)
        objective = DecisionObjective(DecisionModel(cost_weight=0.5))
        with pytest.raises(ValueError, match="fallback_limit"):
            plan_workload(executor, chain, objective, fallback_limit=10)

    def test_unknown_device_alias_raises_actionable_error(self):
        rng = np.random.default_rng(8)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 2)
        with pytest.raises(KeyError, match=r"unknown device aliases \['X'\]"):
            plan_workload(executor, chain, "time", devices=["D", "X"])


class TestGraphPlanner:
    @given(n_devices=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fork_join_is_level_planned_exactly(self, n_devices, seed):
        rng = np.random.default_rng(seed)
        executor = SimulatedExecutor(random_platform(rng, n_devices))
        graph = fork_join_graph()
        for objective in ("time", "energy", "cost"):
            brute = float(
                as_objective(objective)(executor.execute_batch(graph)).min()
            )
            plan = plan_workload(executor, graph, objective, method="dp")
            assert plan.method == "level-dp"
            assert plan.value == brute

    @given(
        n_devices=st.integers(2, 3),
        n_tasks=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_graphs_plan_or_fall_back_to_the_same_minimum(
        self, n_devices, n_tasks, seed
    ):
        rng = np.random.default_rng(seed)
        executor = SimulatedExecutor(random_platform(rng, n_devices))
        graph = random_graph(rng, n_tasks)
        for objective in ("time", "energy"):
            brute = float(
                as_objective(objective)(executor.execute_batch(graph)).min()
            )
            plan = plan_workload(executor, graph, objective)
            assert plan.value == brute
            if plan.method == "enumeration":
                assert plan.fallback_reason is not None

    def test_linear_graph_matches_its_chain(self):
        rng = np.random.default_rng(9)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 4)
        graph = TaskGraph.from_chain(chain)
        chain_plan = plan_workload(executor, chain, "time")
        graph_plan = plan_workload(executor, graph, "time", method="dp")
        assert graph_plan.method == "level-dp"
        assert graph_plan.value == chain_plan.value

    def test_linear_tables_are_judged_as_a_chain_everywhere(self):
        # A linear graph is plannable whatever ``max_level_states`` is, as its
        # chain is: ``dispatch_reason`` (which only sees the tables) and
        # ``plan_workload(method="dp")`` apply the same rule.
        rng = np.random.default_rng(9)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 4)
        graph = TaskGraph.from_chain(chain)
        tables = executor.cost_tables(graph)
        total = 3**4
        why = dispatch_reason(
            tables,
            [as_objective("time")],
            top_k=1,
            frontier=None,
            constraints=(),
            start=0,
            stop=total,
            total=total,
            max_level_states=2,
        )
        assert why is None
        plan = plan_workload(executor, graph, "time", method="dp", max_level_states=2)
        assert plan.method == "level-dp"
        assert plan.value == plan_workload(executor, chain, "time").value

    def test_non_decomposable_graph_refuses_dp(self):
        # L1 -> L2 -> L4 and L1 -> L3 -> L4, plus the skip edge L1 -> L4:
        # L4 depends across non-consecutive levels.
        chain = random_chain(np.random.default_rng(10), 4)
        names = chain.task_names
        graph = TaskGraph(
            chain.tasks,
            edges=[
                (names[0], names[1]),
                (names[0], names[2]),
                (names[1], names[3]),
                (names[2], names[3]),
                (names[0], names[3]),
            ],
        )
        levels, reason = decomposable_levels(graph.predecessor_positions, 2)
        assert levels is None and "non-consecutive" in reason
        executor = SimulatedExecutor(random_platform(np.random.default_rng(10), 2))
        with pytest.raises(ValueError, match="barrier-decomposable"):
            plan_workload(executor, graph, "time", method="dp")
        plan = plan_workload(executor, graph, "time")
        assert plan.method == "enumeration"
        brute = float(executor.execute_batch(graph).total_time_s.min())
        assert plan.value == brute

    def test_partial_fan_in_refuses_dp(self):
        # Two sources, two joiners, but one joiner reads only one source.
        chain = random_chain(np.random.default_rng(11), 4)
        names = chain.task_names
        graph = TaskGraph(
            chain.tasks,
            edges=[(names[0], names[2]), (names[1], names[2]), (names[0], names[3])],
        )
        levels, reason = decomposable_levels(graph.predecessor_positions, 2)
        assert levels is None and "partial fan-in" in reason

    def test_max_level_states_caps_the_level_dp(self):
        graph = fork_join_graph()
        executor = SimulatedExecutor(
            random_platform(np.random.default_rng(12), 3)
        )
        with pytest.raises(ValueError, match="max_level_states"):
            plan_workload(executor, graph, "time", method="dp", max_level_states=2)
        plan = plan_workload(executor, graph, "time", max_level_states=2)
        assert plan.method == "enumeration"


class TestSearchSpaceDispatch:
    def test_planner_method_matches_stream_bitwise(self):
        rng = np.random.default_rng(13)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 5)
        stream = search_space(
            executor, chain, objectives=("time", "energy", "cost"), top_k=1, frontier=None
        )
        planned = search_space(
            executor,
            chain,
            objectives=("time", "energy", "cost"),
            top_k=1,
            frontier=None,
            method="planner",
        )
        for name in ("time", "energy", "cost"):
            assert planned.top[name].values[0] == stream.top[name].values[0]
            assert planned.top[name].indices[0] == stream.top[name].indices[0]
            assert planned.top[name].labels == stream.top[name].labels
        # The planner evaluated lattice states, not placements.
        assert planned.n_evaluated < stream.n_evaluated

    def test_planner_method_rejects_out_of_boundary_requests(self):
        rng = np.random.default_rng(14)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 3)
        cases = [
            dict(top_k=2, frontier=None),
            dict(top_k=1),  # default frontier
            dict(top_k=1, frontier=None, stop=4),
            dict(top_k=1, frontier=None, constraints=(DeadlineConstraint(1.0),)),
            dict(
                top_k=1,
                frontier=None,
                objectives=(DecisionObjective(DecisionModel(cost_weight=0.5)),),
            ),
        ]
        for kwargs in cases:
            with pytest.raises(ValueError, match="method='planner'"):
                search_space(executor, chain, method="planner", **kwargs)

    def test_auto_plans_when_possible_and_streams_otherwise(self):
        rng = np.random.default_rng(15)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 4)
        planned = search_space(executor, chain, top_k=1, frontier=None, method="auto")
        assert planned.n_evaluated == 4 * 2  # k x m lattice states, one objective
        streamed = search_space(executor, chain, top_k=2, frontier=None, method="auto")
        assert streamed.n_evaluated == 2**4
        assert planned.top["time"].values[0] == streamed.top["time"].values[0]

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(16)
        executor = SimulatedExecutor(random_platform(rng, 2))
        with pytest.raises(ValueError, match="unknown method"):
            search_space(executor, random_chain(rng, 2), method="dp")

    def test_unknown_device_alias_raises_actionable_error(self):
        rng = np.random.default_rng(17)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 2)
        with pytest.raises(KeyError, match=r"unknown device aliases \['Z'\]"):
            search_space(executor, chain, devices=["D", "Z"])


class TestGridPlanner:
    @given(
        n_devices=st.integers(2, 3),
        n_tasks=st.integers(1, 4),
        n_scenarios=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_worst_and_regret_match_streamed_top1_bitwise(
        self, n_devices, n_tasks, n_scenarios, seed
    ):
        rng = np.random.default_rng(seed)
        executor = SimulatedExecutor(random_platform(rng, n_devices))
        chain = random_chain(rng, n_tasks)
        scenarios = random_scenarios(rng, n_scenarios)
        objectives = [
            WorstCaseObjective(),
            RegretObjective(),
            WorstCaseObjective(base="energy"),
            RegretObjective(base="cost"),
        ]
        streamed = search_grid(
            executor, chain, scenarios, objectives=objectives, top_k=1,
            baseline_method="stream",
        )
        for objective in objectives:
            plan = plan_grid(executor, chain, scenarios, objective)
            assert isinstance(plan, GridPlanResult)
            assert plan.value == streamed.top[objective.name].values[0]
        # A device subset leaves the host idle for the whole run, which only
        # an energy base prices.
        subset = list(executor.platform.aliases)[1:]
        energy = [WorstCaseObjective(base="energy"), RegretObjective(base="energy")]
        streamed = search_grid(
            executor, chain, scenarios, objectives=energy, top_k=1,
            baseline_method="stream", devices=subset,
        )
        for objective in energy:
            plan = plan_grid(executor, chain, scenarios, objective, devices=subset)
            assert plan.aliases == tuple(subset)
            assert plan.value == streamed.top[objective.name].values[0]
            assert plan.dp_value == pytest.approx(plan.value, rel=1e-9)

    @given(
        n_devices=st.integers(2, 3),
        n_tasks=st.integers(1, 4),
        n_scenarios=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_expected_value_matches_streamed_top1_to_dot_product_rounding(
        self, n_devices, n_tasks, n_scenarios, seed
    ):
        # The expected-value reduce is a BLAS dot product whose summation
        # order varies with the chunk width (search_grid itself differs at
        # batch_size=1 vs 2), so bitwise equality is ill-defined; the pinned
        # property is agreement within a few ulp plus bitwise per-scenario
        # engine values for the selected placement.
        rng = np.random.default_rng(seed)
        executor = SimulatedExecutor(random_platform(rng, n_devices))
        chain = random_chain(rng, n_tasks)
        scenarios = random_scenarios(rng, n_scenarios)
        objective = ExpectedValueObjective()
        streamed = search_grid(executor, chain, scenarios, objectives=[objective], top_k=1)
        plan = plan_grid(executor, chain, scenarios, objective)
        best = streamed.top[objective.name].values[0]
        assert abs(plan.value - best) <= 4 * math.ulp(max(abs(best), 1e-300))

    @given(
        n_devices=st.integers(2, 3),
        n_tasks=st.integers(1, 4),
        n_scenarios=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_dp_baselines_are_bitwise_the_streamed_baseline_pass(
        self, n_devices, n_tasks, n_scenarios, seed
    ):
        rng = np.random.default_rng(seed)
        executor = SimulatedExecutor(random_platform(rng, n_devices))
        chain = random_chain(rng, n_tasks)
        scenarios = random_scenarios(rng, n_scenarios)
        streamed = search_grid(
            executor,
            chain,
            scenarios,
            objectives=[RegretObjective(), RegretObjective(base="energy")],
            top_k=1,
            baseline_method="stream",
        )
        from repro.devices.tables import build_tables
        from repro.search.robust import _scenario_entries

        grid, _, _ = _scenario_entries(scenarios)
        tables = build_tables(chain, executor.platform, scenarios=grid)
        for base in ("time", "energy"):
            assert np.array_equal(grid_baselines(tables, base), streamed.baselines[base])

    def test_regret_plan_reports_baselines_and_scenario_values(self):
        rng = np.random.default_rng(18)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 3)
        scenarios = random_scenarios(rng, 2)
        plan = plan_grid(executor, chain, scenarios, RegretObjective())
        assert plan.baselines is not None and plan.baselines.shape == (2,)
        assert plan.scenario_values.shape == (2,)
        regret = float((plan.scenario_values - plan.baselines).max())
        assert plan.value == regret
        assert "exact robust optimum" in plan.summary()

    def test_non_linear_graphs_are_rejected_with_a_pointer_to_search_grid(self):
        rng = np.random.default_rng(19)
        executor = SimulatedExecutor(random_platform(rng, 2))
        graph = fork_join_graph()
        with pytest.raises(ValueError, match="search_grid"):
            plan_grid(executor, graph, random_scenarios(rng, 2), "time")

    def test_grid_baselines_reject_non_linear_graph_tables(self):
        # The chain lattice of a fork-join graph prices a different schedule
        # than the graph engine, so its optima are not the grid's baselines.
        executor = SimulatedExecutor(edge_cluster_platform())
        grid = link_degradation_grid(
            (("D", "E"), ("D", "A"), ("E", "A")), start=wifi_ac(), end=lte(), n_points=3
        )
        tables = executor.grid_cost_tables(fork_join_graph(), grid, None)
        with pytest.raises(ValueError, match="chain workloads only; fall back to search_grid"):
            grid_baselines(tables, "time")

    def test_non_plannable_base_is_rejected(self):
        rng = np.random.default_rng(20)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 2)
        objective = WorstCaseObjective(
            base=DecisionObjective(DecisionModel(cost_weight=0.5))
        )
        with pytest.raises(ValueError, match="not DP-plannable"):
            plan_grid(executor, chain, random_scenarios(rng, 2), objective)


class TestSearchGridSharding:
    def test_sharded_grid_sweep_is_bitwise_identical_to_serial(self):
        rng = np.random.default_rng(21)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 4)
        scenarios = random_scenarios(rng, 2)
        objectives = [WorstCaseObjective(), RegretObjective(), ExpectedValueObjective()]
        serial = search_grid(
            executor, chain, scenarios, objectives=objectives, top_k=5, batch_size=13,
            baseline_method="stream",
        )
        for n_workers in (2, 3):
            sharded = search_grid(
                executor,
                chain,
                scenarios,
                objectives=objectives,
                top_k=5,
                batch_size=13,
                n_workers=n_workers,
                baseline_method="stream",
            )
            assert sharded.n_evaluated == serial.n_evaluated
            assert sharded.n_feasible == serial.n_feasible
            for objective in objectives:
                assert np.array_equal(
                    sharded.top[objective.name].values, serial.top[objective.name].values
                )
                assert np.array_equal(
                    sharded.top[objective.name].indices, serial.top[objective.name].indices
                )
                assert sharded.top[objective.name].labels == serial.top[objective.name].labels
            for name in serial.scenario_best:
                assert np.array_equal(
                    sharded.scenario_best[name].indices, serial.scenario_best[name].indices
                )
                assert np.array_equal(
                    sharded.scenario_best[name].values, serial.scenario_best[name].values
                )
            for name in serial.baselines:
                assert np.array_equal(sharded.baselines[name], serial.baselines[name])

    def test_sharded_sweep_with_constraints_matches_serial(self):
        rng = np.random.default_rng(22)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 4)
        scenarios = random_scenarios(rng, 2)
        serial = search_grid(executor, chain, scenarios, top_k=3, batch_size=5)
        deadline = float(serial.top["worst-time"].values[0]) * 2.0
        constraints = (DeadlineConstraint(deadline),)
        serial_c = search_grid(
            executor, chain, scenarios, top_k=3, batch_size=5, constraints=constraints
        )
        sharded_c = search_grid(
            executor,
            chain,
            scenarios,
            top_k=3,
            batch_size=5,
            constraints=constraints,
            n_workers=2,
        )
        assert sharded_c.n_feasible == serial_c.n_feasible
        assert np.array_equal(
            sharded_c.top["worst-time"].values, serial_c.top["worst-time"].values
        )
        assert np.array_equal(
            sharded_c.top["worst-time"].indices, serial_c.top["worst-time"].indices
        )

    def test_baseline_method_planner_is_bitwise_the_streamed_pass(self):
        rng = np.random.default_rng(23)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 4)
        scenarios = random_scenarios(rng, 2)
        streamed = search_grid(
            executor, chain, scenarios, objectives=[RegretObjective()], top_k=3,
            baseline_method="stream",
        )
        planned = search_grid(
            executor, chain, scenarios, objectives=[RegretObjective()], top_k=3,
            baseline_method="planner",
        )
        assert np.array_equal(streamed.baselines["time"], planned.baselines["time"])
        assert np.array_equal(
            streamed.top["regret-time"].values, planned.top["regret-time"].values
        )
        assert np.array_equal(
            streamed.top["regret-time"].indices, planned.top["regret-time"].indices
        )

    def test_baseline_method_planner_rejects_out_of_boundary_requests(self):
        rng = np.random.default_rng(24)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 3)
        scenarios = random_scenarios(rng, 2)
        with pytest.raises(ValueError, match="baseline_method='planner'"):
            search_grid(
                executor,
                chain,
                scenarios,
                objectives=[RegretObjective()],
                constraints=(DeadlineConstraint(100.0),),
                baseline_method="planner",
            )
        with pytest.raises(ValueError, match="unknown baseline_method"):
            search_grid(executor, chain, scenarios, baseline_method="dp")

    def test_unknown_device_alias_raises_actionable_error(self):
        rng = np.random.default_rng(25)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 2)
        with pytest.raises(KeyError, match=r"unknown device aliases \['Q'\]"):
            search_grid(executor, chain, random_scenarios(rng, 1), devices=["D", "Q"])


class TestExecutorPlanFacade:
    def test_plan_delegates_to_the_chain_dp(self):
        rng = np.random.default_rng(26)
        executor = SimulatedExecutor(random_platform(rng, 3))
        chain = random_chain(rng, 4)
        plan = executor.plan(chain, "time")
        brute = float(executor.execute_batch(chain).total_time_s.min())
        assert plan.method == "chain-dp"
        assert plan.value == brute

    def test_plan_with_scenarios_delegates_to_the_grid_planner(self):
        rng = np.random.default_rng(27)
        executor = SimulatedExecutor(random_platform(rng, 2))
        chain = random_chain(rng, 3)
        scenarios = random_scenarios(rng, 2)
        plan = executor.plan(chain, WorstCaseObjective(), scenarios=scenarios)
        streamed = search_grid(executor, chain, scenarios, top_k=1)
        assert plan.value == streamed.top["worst-time"].values[0]

    def test_planner_objective_weights_classification(self):
        assert planner_objective_weights("time") == (1.0, 0.0, 0.0)
        assert planner_objective_weights(MetricObjective("energy")) == (0.0, 1.0, 0.0)
        assert planner_objective_weights(WeightedSumObjective(2.0, 0.5, 1.0)) == (
            2.0,
            0.5,
            1.0,
        )
        assert (
            planner_objective_weights(
                DecisionObjective(DecisionModel(cost_weight=0.5))
            )
            is None
        )
