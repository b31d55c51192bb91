"""Tests for robust objectives, the streaming grid search and robust selection.

Guarantees pinned here: the streaming :func:`search_grid` selects exactly what
a materialised full-grid reduction selects, is invariant to chunk size, honours
robust feasibility (all scenarios), and the :class:`RobustDecisionModel`
composes with the existing :class:`DecisionModel` objective arithmetic.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.devices import (
    build_tables,
    SimulatedExecutor,
    edge_cluster_platform,
    execute_placements_grid,
    lte,
    wifi_ac,
)
from repro.measurement.noise import NoNoise
from repro.offload import placement_matrix
from repro.scenarios import (
    DeviceLoadFactor,
    LinkBandwidthScale,
    Scenario,
    ScenarioGrid,
    link_degradation_grid,
)
from repro.search import (
    DeadlineConstraint,
    EnergyBudgetConstraint,
    ExpectedValueObjective,
    QuantileObjective,
    RegretObjective,
    SLOObjective,
    WorstCaseObjective,
    as_robust_objectives,
    search_grid,
)
from repro.selection import DecisionModel, RobustDecisionModel
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

RADIO = (("D", "E"), ("D", "A"), ("N", "E"), ("N", "A"), ("E", "A"))


def drift_chain(n_tasks: int = 4) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(
            size=60 + 80 * i, iterations=12, name=f"L{i + 1}", generate_on_host=False
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"robust-test-{n_tasks}")


@pytest.fixture(scope="module")
def setup():
    platform = edge_cluster_platform()
    chain = drift_chain()
    scenarios = link_degradation_grid(RADIO, start=wifi_ac(), end=lte(), n_points=4)
    executor = SimulatedExecutor(platform, noise=NoNoise(), seed=0)
    tables = build_tables(chain, scenarios.platforms(platform))
    grid = execute_placements_grid(tables, placement_matrix(len(chain), 4))
    return platform, chain, scenarios, executor, grid


class TestRobustObjectives:
    def test_worst_case_reduces_to_scenario_maximum(self, setup):
        *_, grid = setup
        values = WorstCaseObjective()(grid)
        assert np.array_equal(values, grid.total_time_s.max(axis=0))
        assert WorstCaseObjective().name == "worst-time"
        assert WorstCaseObjective(base="energy").name == "worst-energy"

    def test_expected_value_uniform_and_weighted(self, setup):
        *_, grid = setup
        uniform = ExpectedValueObjective()(grid)
        assert np.allclose(uniform, grid.total_time_s.mean(axis=0))
        weights = (4.0, 2.0, 1.0, 1.0)
        weighted = ExpectedValueObjective(weights=weights)(grid)
        expected = np.array(weights) @ grid.total_time_s / sum(weights)
        assert np.array_equal(weighted, expected)
        with pytest.raises(ValueError):
            ExpectedValueObjective(weights=(-1.0, 2.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            ExpectedValueObjective(weights=(1.0,))(grid)

    def test_regret_measures_gap_to_scenario_best(self, setup):
        *_, grid = setup
        values = RegretObjective()(grid)
        times = grid.total_time_s
        expected = (times - times.min(axis=1)[:, None]).max(axis=0)
        assert np.array_equal(values, expected)
        # Each scenario's own winner has zero regret in that scenario, so the
        # minimum possible regret is bounded by the drift between winners.
        assert values.min() >= 0.0
        with pytest.raises(ValueError, match="baselines"):
            RegretObjective().reduce(times, None)

    def test_base_name_collisions_are_rejected(self, setup):
        """Two objectives whose *different* bases share a name must not silently
        share one values computation (chunk values are keyed by base name)."""
        platform, chain, scenarios, executor, _ = setup
        from repro.search import WeightedSumObjective

        disguised = WeightedSumObjective(time_weight=1.0, energy_weight=1.0, label="time")
        with pytest.raises(ValueError, match="disagree on the base objective"):
            search_grid(
                executor,
                chain,
                scenarios,
                objectives=(WorstCaseObjective(base="time"), RegretObjective(base=disguised)),
            )
        # Sharing the same base under one name stays fine.
        result = search_grid(
            executor,
            chain,
            scenarios,
            objectives=(WorstCaseObjective(base="time"), RegretObjective(base="time")),
            top_k=2,
        )
        assert set(result.top) == {"worst-time", "regret-time"}

    def test_as_robust_objectives_coercion(self):
        objectives = as_robust_objectives(("time", WorstCaseObjective(base="energy")))
        assert [objective.name for objective in objectives] == ["worst-time", "worst-energy"]
        with pytest.raises(ValueError, match="unique"):
            as_robust_objectives((WorstCaseObjective(), "time"))
        with pytest.raises(TypeError):
            as_robust_objectives((123,))

    def test_objectives_are_picklable(self):
        for objective in (
            WorstCaseObjective(),
            ExpectedValueObjective(weights=(1.0, 2.0)),
            RegretObjective(base="energy"),
        ):
            assert pickle.loads(pickle.dumps(objective)) == objective


class TestSearchGrid:
    def test_matches_materialized_reduction(self, setup):
        platform, chain, scenarios, executor, grid = setup
        result = search_grid(
            executor,
            chain,
            scenarios,
            objectives=(WorstCaseObjective(), ExpectedValueObjective(), RegretObjective()),
            top_k=7,
            batch_size=50,
        )
        labels = grid.labels()
        times = grid.total_time_s
        for name, reduced in [
            ("worst-time", times.max(axis=0)),
            ("expected-time", times.mean(axis=0)),
            ("regret-time", (times - times.min(axis=1)[:, None]).max(axis=0)),
        ]:
            order = np.argsort(reduced, kind="stable")[:7]
            assert list(result.top[name].labels) == [labels[i] for i in order]
            assert np.allclose(result.top[name].values, reduced[order])
        assert result.n_evaluated == len(labels)
        assert result.n_feasible == len(labels)
        # Per-scenario winners (the drift view) match the grid argmin.
        drift = result.scenario_best["time"]
        assert list(drift.labels) == [labels[int(i)] for i in times.argmin(axis=1)]
        assert np.array_equal(drift.values, times.min(axis=1))
        assert drift.drift() == dict(zip(scenarios.names, drift.labels))
        # Regret baselines are the per-scenario minima.
        assert np.array_equal(result.baselines["time"], times.min(axis=1))

    def test_chunking_invariance(self, setup):
        platform, chain, scenarios, executor, _ = setup
        results = [
            search_grid(
                executor,
                chain,
                scenarios,
                objectives=(WorstCaseObjective(), RegretObjective()),
                top_k=5,
                batch_size=batch_size,
            )
            for batch_size in (7, 64, 10_000)
        ]
        for other in results[1:]:
            for name in ("worst-time", "regret-time"):
                assert np.array_equal(other.top[name].indices, results[0].top[name].indices)
                assert np.array_equal(other.top[name].values, results[0].top[name].values)

    def test_range_slicing(self, setup):
        platform, chain, scenarios, executor, grid = setup
        result = search_grid(
            executor, chain, scenarios, top_k=3, start=32, stop=160, batch_size=17
        )
        times = grid.total_time_s[:, 32:160].max(axis=0)
        order = np.argsort(times, kind="stable")[:3] + 32
        assert np.array_equal(result.top["worst-time"].indices, order)
        assert result.n_evaluated == 128
        with pytest.raises(ValueError):
            search_grid(executor, chain, scenarios, start=10, stop=10)
        with pytest.raises(ValueError):
            search_grid(executor, chain, scenarios, start=0, stop=10**9)

    def test_robust_feasibility_requires_every_scenario(self, setup):
        platform, chain, scenarios, executor, grid = setup
        # Pick a deadline between the best worst-case and the best per-scenario
        # time: some placements are feasible in good scenarios but not bad ones.
        times = grid.total_time_s
        deadline = float(np.quantile(times.max(axis=0), 0.3))
        result = search_grid(
            executor,
            chain,
            scenarios,
            constraints=(DeadlineConstraint(max_time_s=deadline),),
            top_k=5,
            batch_size=64,
        )
        feasible = (times <= deadline).all(axis=0)
        assert result.n_feasible == int(feasible.sum())
        expected_best = times.max(axis=0).copy()
        expected_best[~feasible] = np.inf
        assert result.top["worst-time"].indices[0] == int(np.argmin(expected_best))
        # Regret baselines also come from the robust-feasible set only.
        regret_result = search_grid(
            executor,
            chain,
            scenarios,
            objectives=(RegretObjective(),),
            constraints=(DeadlineConstraint(max_time_s=deadline),),
            batch_size=64,
        )
        assert np.array_equal(
            regret_result.baselines["time"], times[:, feasible].min(axis=1)
        )

    def test_infeasible_everything(self, setup):
        platform, chain, scenarios, executor, _ = setup
        result = search_grid(
            executor,
            chain,
            scenarios,
            objectives=(WorstCaseObjective(), RegretObjective()),
            constraints=(EnergyBudgetConstraint(max_energy_j=1e-12),),
        )
        assert result.n_feasible == 0
        assert len(result.top["worst-time"]) == 0
        assert not result.scenario_best
        with pytest.raises(ValueError, match="no feasible"):
            result.best("worst-time")

    def test_scenario_list_and_weight_binding(self, setup):
        platform, chain, scenarios, executor, grid = setup
        weighted = ScenarioGrid(
            scenarios=tuple(
                Scenario(s.name, settings=s.settings, weight=w)
                for s, w in zip(scenarios, (8.0, 4.0, 2.0, 1.0))
            )
        )
        result = search_grid(
            executor, chain, weighted, objectives=(ExpectedValueObjective(),), top_k=3
        )
        weights = np.array([8.0, 4.0, 2.0, 1.0])
        expected = weights @ grid.total_time_s / weights.sum()
        order = np.argsort(expected, kind="stable")[:3]
        assert np.array_equal(result.top["expected-time"].indices, order)
        # A bare scenario sequence works too; junk does not.
        listed = search_grid(executor, chain, list(scenarios), top_k=1)
        assert listed.n_evaluated == len(grid.labels())
        with pytest.raises(TypeError):
            search_grid(executor, chain, ["not-a-scenario"])
        with pytest.raises(ValueError):
            search_grid(executor, chain, [])

    def test_result_pickles_and_summarises(self, setup):
        platform, chain, scenarios, executor, _ = setup
        result = search_grid(executor, chain, scenarios, top_k=3)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.best("worst-time") == result.best("worst-time")
        text = result.summary()
        assert "per-scenario winners" in text and "worst-time" in text
        assert result.best() == result.best("worst-time")


class TestRobustDecisionModel:
    def test_worst_case_composes_with_decision_objective(self, setup):
        *_, grid = setup
        model = DecisionModel(cost_weight=500.0)
        robust = RobustDecisionModel(model=model, criterion="worst_case")
        decision = robust.decide_grid(grid)
        per_scenario = np.stack(
            [model.batch_objective(batch) for batch in grid.batches()], axis=0
        )
        worst = per_scenario.max(axis=0)
        labels = grid.labels()
        best = int(np.argmin(worst))
        assert decision.label == labels[best] or worst[labels.index(decision.label)] == worst[best]
        assert decision.objective == float(worst.min())
        assert len(decision.per_scenario) == grid.n_scenarios
        assert decision.cluster is None and decision.relative_score is None
        assert "worst_case" in decision.summary()

    def test_expected_and_regret_criteria(self, setup):
        *_, grid = setup
        model = DecisionModel()
        values = np.stack([model.batch_objective(b) for b in grid.batches()], axis=0)
        expected = RobustDecisionModel(model=model, criterion="expected").decide_grid(grid)
        assert expected.objective == pytest.approx(float(values.mean(axis=0).min()))
        regret = RobustDecisionModel(model=model, criterion="regret").decide_grid(grid)
        regrets = (values - values.min(axis=1)[:, None]).max(axis=0)
        assert regret.objective == float(regrets.min())
        weighted = RobustDecisionModel(
            model=model, criterion="expected", weights=(4.0, 2.0, 1.0, 1.0)
        ).decide_grid(grid)
        weights = np.array((4.0, 2.0, 1.0, 1.0))
        assert weighted.objective == pytest.approx(
            float((weights @ values / weights.sum()).min())
        )
        with pytest.raises(ValueError, match="criterion"):
            RobustDecisionModel(criterion="hope")

    def test_decide_grid_with_clustering(self, setup):
        platform, chain, scenarios, executor, grid = setup
        from repro.experiments import default_analyzer

        # Cluster a small candidate subset measured on the base platform.
        labels = grid.labels()
        candidates = [0, 1, 4, 16, 64]
        batch = executor.execute_batch(chain, [labels[i] for i in candidates])
        noisy = SimulatedExecutor(platform, seed=3)
        measurements = noisy.measure_batch(
            noisy.execute_batch(chain, [labels[i] for i in candidates]), repetitions=20
        )
        analysis = default_analyzer(seed=0, repetitions=30, n_measurements=20, stochastic=False).analyze(
            measurements
        )
        model = DecisionModel(cost_weight=100.0, score_penalty=0.05)
        robust = RobustDecisionModel(model=model, criterion="worst_case")
        decision = robust.decide_grid(grid, analysis.final)
        # Candidates restricted to the clustered labels; penalty applied.
        assert str(decision.label) in {labels[i] for i in candidates}
        assert set(map(str, decision.objectives)) == {labels[i] for i in candidates}
        assert decision.cluster is not None and 0.0 <= decision.relative_score <= 1.0
        values = np.stack([model.batch_objective(b) for b in grid.batches()], axis=0)
        rows = [labels.index(str(label)) for label in decision.objectives]
        scores = np.array([analysis.final.score_of(label) for label in decision.objectives])
        manual = (values[:, rows] + model.score_penalty * (1.0 - scores)[None, :]).max(axis=0)
        assert decision.objective == pytest.approx(float(manual.min()))
        missing_clustering = analysis.final
        with pytest.raises(KeyError, match="missing grid placements"):
            tiny = execute_placements_grid(
                grid.tables, np.zeros((1, len(chain)), dtype=np.intp)
            )
            robust.decide_grid(tiny, missing_clustering)

    def test_quantile_and_slo_criteria(self, setup):
        *_, grid = setup
        model = DecisionModel()
        values = np.stack([model.batch_objective(b) for b in grid.batches()], axis=0)
        quantile = RobustDecisionModel(
            model=model, criterion="quantile", q=0.75
        ).decide_grid(grid)
        assert quantile.objective == float(QuantileObjective(q=0.75).reduce(values).min())
        budget = float(np.median(values))
        slo = RobustDecisionModel(
            model=model, criterion="slo", slo_budget=budget
        ).decide_grid(grid)
        assert slo.objective == pytest.approx(
            float(SLOObjective(budget=budget).reduce(values).min())
        )
        assert 0.0 <= slo.objective <= 1.0

    def test_fleet_criteria_validate_their_parameters_early(self):
        with pytest.raises(ValueError, match="quantile q"):
            RobustDecisionModel(criterion="quantile", q=1.5)
        with pytest.raises(ValueError, match="slo_budget"):
            RobustDecisionModel(criterion="slo")
        with pytest.raises(ValueError, match="budget"):
            RobustDecisionModel(criterion="slo", slo_budget=float("inf"))

    def test_robust_decision_pickles(self, setup):
        *_, grid = setup
        decision = RobustDecisionModel().decide_grid(grid)
        clone = pickle.loads(pickle.dumps(decision))
        assert clone.label == decision.label
        assert dict(clone.per_scenario) == dict(decision.per_scenario)
        with pytest.raises(TypeError):
            clone.objectives["DDDD"] = 0.0  # read-only snapshot
