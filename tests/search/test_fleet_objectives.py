"""Quantile/SLO robust objectives: properties, weights, and shard exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.devices.grid as grid_module
import repro.search.robust as robust_module
from repro.devices import SimulatedExecutor, edge_cluster_platform
from repro.devices.grid import execute_placements_grid
from repro.fleet import FleetSpec, UniformAxis, UserSegment, sample_fleet
from repro.offload import placement_matrix
from repro.scenarios import LinkBandwidthScale, LinkLatencyScale, Scenario, ScenarioGrid
from repro.search import (
    ExpectedValueObjective,
    QuantileObjective,
    SLOObjective,
    WorstCaseObjective,
    search_grid,
)
from repro.tasks import RegularizedLeastSquaresTask, TaskChain


def random_values(seed: int, n_scenarios: int, n_placements: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.01, 10.0, size=(n_scenarios, n_placements))


def stable_sort_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """Reference weighted quantile: one stable argsort per column, then the
    first sorted value whose cumulative weight reaches ``q`` of the total."""
    order = np.argsort(values, axis=0, kind="stable")
    sorted_values = np.take_along_axis(values, order, axis=0)
    cumulative = np.cumsum(weights[order], axis=0)
    picks = (cumulative >= q * cumulative[-1]).argmax(axis=0)
    return sorted_values[picks, np.arange(values.shape[1])]


def nan_with_payload(payload: int) -> float:
    return float(np.array([0x7FF8000000000000 | payload], dtype=np.uint64).view(np.float64)[0])


def assert_quantile_matches_reference(values: np.ndarray, weights: np.ndarray, q: float) -> None:
    expected = stable_sort_quantile(values, weights, q)
    for ours in (
        robust_module._weighted_quantile_columns(values, weights, q),
        QuantileObjective(q=q, weights=tuple(weights)).reduce(values),
    ):
        assert ours.dtype == expected.dtype
        assert ours.tobytes() == expected.tobytes()


@pytest.fixture
def stable_calls(monkeypatch):
    """Record the shape of every matrix handed to the stable-sort path."""
    calls = []
    stable = robust_module._stable_quantile_columns

    def recording(values, weights, q):
        calls.append(values.shape)
        return stable(values, weights, q)

    monkeypatch.setattr(robust_module, "_stable_quantile_columns", recording)
    return calls


# ---------------------------------------------------------------------------
# Reduction properties (pure array level)
# ---------------------------------------------------------------------------

class TestQuantileReduction:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_q1_equal_weights_is_exactly_the_worst_case(self, seed, s, n):
        values = random_values(seed, s, n)
        quantile = QuantileObjective(q=1.0).reduce(values)
        worst = WorstCaseObjective().reduce(values)
        assert quantile.tobytes() == worst.tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 8),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_weights_match_numpy_inverted_cdf(self, seed, s, n, q):
        values = random_values(seed, s, n)
        ours = QuantileObjective(q=q).reduce(values)
        numpy_q = np.quantile(values, q, axis=0, method="inverted_cdf")
        assert ours.tobytes() == numpy_q.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_reduction_is_invariant_to_placement_chunking(self, seed, s, n):
        """The quantile touches each column by pure indexing, so chunking the
        placement axis is bitwise invisible.  SLO and expectation reduce via
        ``weights @ values``, whose BLAS blocking depends on the chunk width --
        they are invariant only up to the last ulp, which is exactly why the
        streaming driver reduces full-width matrices instead of concatenating
        chunk reductions."""
        values = random_values(seed, s, n)
        weights = tuple(np.random.default_rng(seed + 1).uniform(0.1, 2.0, size=s))
        split = n // 2

        def chunked(objective):
            return np.concatenate(
                [objective.reduce(values[:, :split]), objective.reduce(values[:, split:])]
            )

        quantile = QuantileObjective(q=0.9, weights=weights)
        assert quantile.reduce(values).tobytes() == chunked(quantile).tobytes()
        for objective in (
            SLOObjective(budget=5.0, weights=weights),
            ExpectedValueObjective(weights=weights),
        ):
            np.testing.assert_allclose(
                objective.reduce(values), chunked(objective), rtol=1e-12
            )

    def test_zero_weight_scenarios_are_never_picked(self):
        values = np.array([[1.0], [100.0], [2.0]])
        reduced = QuantileObjective(q=1.0, weights=(1.0, 0.0, 1.0)).reduce(values)
        assert reduced[0] == 2.0

    def test_weighted_quantile_steps_at_the_cumulative_mass(self):
        # CDF over values [1, 2, 3] with masses [0.5, 0.25, 0.25]:
        # p<=0.5 -> 1, p<=0.75 -> 2, above -> 3 (left-continuous inverse).
        values = np.array([[1.0], [2.0], [3.0]])
        weights = (2.0, 1.0, 1.0)
        assert QuantileObjective(q=0.5, weights=weights).reduce(values)[0] == 1.0
        assert QuantileObjective(q=0.75, weights=weights).reduce(values)[0] == 2.0
        assert QuantileObjective(q=0.76, weights=weights).reduce(values)[0] == 3.0

    def test_weight_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="scenario weights"):
            QuantileObjective(weights=(1.0, 1.0)).reduce(np.ones((3, 2)))


class TestEqualWeightQuantile:
    """Equal weights pick one order statistic per column with a partition;
    every pick must be bitwise the stable sort's, down to signed zeros and
    NaN payloads."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 10),
        st.floats(0.01, 1.0),
        st.sampled_from([1.0, 0.37, 3.0, 1.0 / 600.0, None]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_matrices_with_ties(self, seed, s, n, q, weight):
        rng = np.random.default_rng(seed)
        # Few distinct values, so most picks sit inside a run of ties.
        values = rng.integers(1, 6, size=(s, n)) * 0.25
        assert_quantile_matches_reference(values, np.full(s, weight or 1.0 / s), q)
        assert_quantile_matches_reference(random_values(seed, s, n), np.full(s, 0.37), q)

    def test_fleet_sized_matrix_takes_the_partition(self, stable_calls):
        values = random_values(3, 6000, 64)
        assert_quantile_matches_reference(values, np.full(6000, 1.0 / 600.0), 0.95)
        assert stable_calls == []

    def test_signed_zeros_at_the_pick_fall_back_to_the_stable_sort(self, stable_calls):
        values = random_values(4, 8, 5)
        values[:, 1] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 1.0]
        values[:, 3] = [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 2.0, 3.0]
        weights = np.full(8, 0.5)
        expected = stable_sort_quantile(values, weights, 0.5)
        assert_quantile_matches_reference(values, weights, 0.5)
        # Grid order decides among equal zeros: column 1 picks its 4th entry
        # (-0.0), column 3 its 4th (0.0).
        assert np.signbit(expected[1]) and not np.signbit(expected[3])
        # Only the two ambiguous columns took the stable sort (once per call).
        assert stable_calls == [(8, 2), (8, 2)]

    def test_nan_and_inf_columns(self, stable_calls):
        values = random_values(5, 6, 5)
        values[:, 0] = [nan_with_payload(p) for p in (1, 2, 3, 4, 5, 6)]
        values[:, 1] = [1.0, nan_with_payload(7), 2.0, nan_with_payload(9), 3.0, 4.0]
        values[:, 2] = np.inf
        values[:, 3] = [-np.inf, 1.0, np.inf, -np.inf, 2.0, np.inf]
        for q in (0.2, 0.5, 0.95, 1.0):
            assert_quantile_matches_reference(values, np.full(6, 2.0), q)
        # NaNs sort last, so column 1 picks a NaN only at the top.
        assert stable_calls and all(shape[1] <= 2 for shape in stable_calls)

    def test_q1_equals_the_column_max(self):
        values = random_values(6, 50, 9)
        reduced = QuantileObjective(q=1.0, weights=(0.02,) * 50).reduce(values)
        assert reduced.tobytes() == values.max(axis=0).tobytes()

    def test_one_scenario(self, stable_calls):
        values = random_values(7, 1, 6)
        for q in (0.05, 1.0):
            assert_quantile_matches_reference(values, np.array([4.0]), q)
            assert QuantileObjective(q=q).reduce(values).tobytes() == values[0].tobytes()
        assert stable_calls == []

    def test_unequal_weights_take_the_stable_sort(self, stable_calls):
        values = random_values(8, 12, 7)
        weights = np.full(12, 0.5)
        weights[3] = 0.5000000000000001
        assert_quantile_matches_reference(values, weights, 0.9)
        assert stable_calls == [(12, 7), (12, 7)]


class TestSLOReduction:
    def test_miss_fraction_counts_strict_overruns_by_weight(self):
        values = np.array([[1.0, 3.0], [2.0, 1.0], [4.0, 1.0]])
        reduced = SLOObjective(budget=2.0, weights=(1.0, 1.0, 2.0)).reduce(values)
        # Meeting the budget exactly is a hit (strict >): column 0 misses only
        # via the weight-2 scenario, column 1 only via the weight-1 one.
        assert np.array_equal(reduced, np.array([0.5, 0.25]))

    def test_unweighted_is_the_plain_miss_rate(self):
        values = np.array([[1.0], [3.0], [5.0]])
        assert SLOObjective(budget=2.0).reduce(values)[0] == pytest.approx(2.0 / 3.0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_miss_fractions_live_in_the_unit_interval(self, seed, s, n):
        values = random_values(seed, s, n)
        reduced = SLOObjective(budget=5.0).reduce(values)
        assert np.all((reduced >= 0.0) & (reduced <= 1.0))


class TestValidation:
    def test_quantile_domain(self):
        for q in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="quantile q"):
                QuantileObjective(q=q)
        QuantileObjective(q=1.0)  # the closed upper end is the worst case

    def test_slo_budget_must_be_finite(self):
        for budget in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="budget"):
                SLOObjective(budget=budget)

    def test_non_finite_weights_are_rejected_naming_the_index(self):
        for factory in (
            lambda w: ExpectedValueObjective(weights=w),
            lambda w: QuantileObjective(weights=w),
            lambda w: SLOObjective(weights=w),
            lambda w: ExpectedValueObjective().with_weights(w),
            lambda w: QuantileObjective().with_weights(w),
            lambda w: SLOObjective().with_weights(w),
        ):
            with pytest.raises(ValueError, match=r"weights\[1\]"):
                factory((1.0, float("nan"), 1.0))
            with pytest.raises(ValueError, match=r"weights\[0\]"):
                factory((float("inf"), 1.0))
            with pytest.raises(ValueError, match=r"weights\[2\]"):
                factory((1.0, 1.0, -0.5))
            with pytest.raises(ValueError, match="positive"):
                factory((0.0, 0.0))
            with pytest.raises(ValueError, match="one-dimensional"):
                factory([[1.0, 2.0]])

    def test_names(self):
        assert QuantileObjective().name == "p95-time"
        assert QuantileObjective(q=0.99, base="energy").name == "p99-energy"
        assert SLOObjective(budget=0.25).name == "slo-time@0.25"
        assert QuantileObjective(label="tail").name == "tail"


# ---------------------------------------------------------------------------
# Through the streaming search driver
# ---------------------------------------------------------------------------

def small_chain(n_tasks: int = 3) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(
            size=60 + 60 * i, iterations=8, name=f"L{i + 1}", generate_on_host=False
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name="fleet-objectives")


def weighted_grid() -> ScenarioGrid:
    """A small weighted condition grid (unequal masses, like a sampled fleet)."""
    rng = np.random.default_rng(11)
    scenarios = []
    for i in range(8):
        scenarios.append(
            Scenario(
                name=f"user-{i}",
                settings=(
                    (LinkBandwidthScale(), float(rng.uniform(0.2, 1.2))),
                    (LinkLatencyScale(), float(rng.uniform(1.0, 5.0))),
                ),
                weight=float(rng.uniform(0.25, 2.0)),
            )
        )
    return ScenarioGrid(tuple(scenarios))


@pytest.fixture(scope="module")
def setup():
    platform = edge_cluster_platform()
    executor = SimulatedExecutor(platform, seed=0)
    return executor, small_chain(), weighted_grid()


def assert_same_search(left, right):
    """Two GridSearchResults must agree bitwise, like the shard tests pin."""
    assert left.scenario_names == right.scenario_names
    assert (left.n_evaluated, left.n_feasible) == (right.n_evaluated, right.n_feasible)
    assert sorted(left.top) == sorted(right.top)
    for name in left.top:
        assert left.top[name].labels == right.top[name].labels
        assert left.top[name].indices.tobytes() == right.top[name].indices.tobytes()
        assert left.top[name].values.tobytes() == right.top[name].values.tobytes()
    assert sorted(left.scenario_best) == sorted(right.scenario_best)
    for name in left.scenario_best:
        assert left.scenario_best[name].labels == right.scenario_best[name].labels
        assert left.scenario_best[name].values.tobytes() == right.scenario_best[name].values.tobytes()


class TestSearchGrid:
    def test_search_binds_grid_weights_and_matches_materialized(self, setup):
        executor, chain, grid = setup
        objectives = (QuantileObjective(q=0.9), SLOObjective(budget=0.0375))
        result = search_grid(executor, chain, grid, objectives=objectives, top_k=3)
        tables = executor.grid_cost_tables(chain, grid)
        times = execute_placements_grid(
            tables, placement_matrix(tables.n_tasks, tables.n_devices)
        ).metric_values("time")
        weights = tuple(grid.weights)
        for objective in objectives:
            reduced = objective.with_weights(weights).reduce(times)
            selection = result.top[objective.name]
            assert selection.values[0] == reduced.min()
            assert int(selection.indices[0]) == int(reduced.argmin())

    def test_explicit_weights_override_the_grid(self, setup):
        executor, chain, grid = setup
        pinned = tuple(np.ones(len(grid)))
        objective = QuantileObjective(q=0.9, weights=pinned)
        assert objective.bind_weights(grid.weights) is objective

    def test_batch_size_does_not_change_the_selection(self, setup):
        executor, chain, grid = setup
        objectives = (QuantileObjective(q=0.9), SLOObjective(budget=0.0375))
        whole = search_grid(executor, chain, grid, objectives=objectives, top_k=4)
        chunked = search_grid(
            executor, chain, grid, objectives=objectives, top_k=4, batch_size=7
        )
        # The quantile's per-column reduction makes its ranking bitwise
        # batch-size independent; the SLO ranking must agree too (its values
        # are exact multiples of 1/sum(w) regardless of BLAS blocking here).
        assert_same_search(whole, chunked)

    def test_scenario_shards_are_bitwise_identical_to_serial(self, setup):
        """The ISSUE's exactness pin: sharded weighted quantiles == serial."""
        executor, chain, grid = setup
        objectives = (
            QuantileObjective(q=0.9),
            SLOObjective(budget=0.0375),
            ExpectedValueObjective(),
        )
        serial = search_grid(executor, chain, grid, objectives=objectives, top_k=4)
        for shards in (2, 3):
            sharded = search_grid(
                executor, chain, grid, objectives=objectives, top_k=4,
                scenario_shards=shards,
            )
            assert_same_search(serial, sharded)

    def test_q1_search_coincides_with_worst_case_on_equal_weights(self, setup):
        executor, chain, _ = setup
        equal = ScenarioGrid(
            tuple(
                Scenario(name=s.name, settings=s.settings)  # default weight 1.0
                for s in weighted_grid().scenarios
            )
        )
        result = search_grid(
            executor,
            chain,
            equal,
            objectives=(QuantileObjective(q=1.0, label="tail"), WorstCaseObjective()),
            top_k=3,
        )
        tail, worst = result.top["tail"], result.top["worst-time"]
        assert tail.labels == worst.labels
        assert tail.values.tobytes() == worst.values.tobytes()


class TestDeferredEnergyFold:
    def test_time_only_search_never_folds_energy(self, setup, monkeypatch):
        """Energy and operating cost are folded only when something reads them:
        a search ranking time alone must never run the fold."""
        calls = []
        fold = grid_module._finalize_grid

        def counting_fold(*args, **kwargs):
            calls.append(1)
            return fold(*args, **kwargs)

        monkeypatch.setattr(grid_module, "_finalize_grid", counting_fold)
        executor, chain, grid = setup
        objectives = (
            QuantileObjective(q=0.95),
            SLOObjective(budget=0.0375),
            ExpectedValueObjective(),
            WorstCaseObjective(),
        )
        search_grid(executor, chain, grid, objectives=objectives, top_k=2, batch_size=16)
        assert calls == []
        # The spy is live: ranking energy runs the fold once per chunk (4**3
        # placements of the 4-device platform, 16 per chunk).
        search_grid(
            executor, chain, grid, objectives=(QuantileObjective(base="energy"),),
            top_k=2, batch_size=16,
        )
        assert len(calls) == 4**3 // 16

    def test_sampled_fleet_search_matches_the_stable_sort_reference(self):
        """A sampled fleet's equal weights take the partition; the searched
        top-k must equal a stable-sort reduction of the full time matrix."""
        spec = FleetSpec(
            segments=(
                UserSegment("wifi", weight=3.0, axes=(UniformAxis(LinkBandwidthScale(), 0.5, 1.5),)),
                UserSegment("cell", weight=1.0, axes=(UniformAxis(LinkLatencyScale(), 1.0, 6.0),)),
            )
        )
        executor = SimulatedExecutor(edge_cluster_platform(), seed=0)
        chain = small_chain(3)
        for seed in range(3):
            fleet = sample_fleet(spec, 400, seed=seed)
            weights = np.array(fleet.grid.weights)
            assert np.unique(weights).size == 1
            result = search_grid(
                executor, chain, fleet.grid, objectives=(QuantileObjective(q=0.95),), top_k=5
            )
            tables = executor.grid_cost_tables(chain, fleet.grid)
            times = execute_placements_grid(
                tables, placement_matrix(tables.n_tasks, tables.n_devices)
            ).metric_values("time")
            reduced = stable_sort_quantile(times, weights, 0.95)
            order = np.lexsort((np.arange(reduced.size), reduced))[:5]
            top = result.top["p95-time"]
            assert top.indices.tolist() == order.tolist()
            assert top.values.tobytes() == reduced[order].tobytes()
