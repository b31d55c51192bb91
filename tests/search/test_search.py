"""Equivalence and property tests for the streaming search subsystem.

The streaming selectors claim to be pure functions of the *multiset* of
placements fed to them: any chunking, feeding order, shard split or merge tree
must produce the identical top-K selection and Pareto frontier, and on spaces
small enough to materialise those must match the profile-based facade
(``pareto_front``) and brute-force ``min`` selection element for element.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    DeviceSpec,
    LinkSpec,
    Platform,
    SimulatedExecutor,
    cpu_gpu_platform,
    edge_cluster_platform,
)
from repro.measurement.noise import NoNoise
from repro.offload import enumerate_algorithms, profiles_from_batch
from repro.search import (
    CostBudgetConstraint,
    DeadlineConstraint,
    DecisionObjective,
    EnergyBudgetConstraint,
    MaxOffloadedConstraint,
    MetricObjective,
    SpaceSearch,
    StreamingFrontier,
    StreamingTopK,
    WeightedSumObjective,
    as_objective,
    as_objectives,
    dominated_by,
    feasible_mask,
    pareto_mask,
    search_space,
)
from repro.selection import DecisionModel, dominates, pareto_front
from repro.tasks import GemmLoopTask, TaskChain


# ---------------------------------------------------------------------------
# Randomized platforms/chains (same idiom as tests/devices/test_batch.py)
# ---------------------------------------------------------------------------


def random_platform(rng: np.random.Generator, n_devices: int) -> Platform:
    aliases = ["D", "A", "B", "C"][:n_devices]
    devices = {
        alias: DeviceSpec(
            name=f"dev-{alias}",
            peak_gflops=float(rng.uniform(5.0, 500.0)),
            half_saturation_flops=float(rng.uniform(1e4, 1e7)),
            memory_bandwidth_gbs=float(rng.uniform(2.0, 200.0)),
            kernel_launch_overhead_s=float(rng.uniform(0.0, 1e-4)),
            task_startup_overhead_s=float(rng.uniform(0.0, 1e-3)),
            power_active_w=float(rng.uniform(1.0, 250.0)),
            power_idle_w=float(rng.uniform(0.1, 30.0)),
            cost_per_hour=float(rng.uniform(0.0, 2.0)),
        )
        for alias in aliases
    }
    links = {
        (a, b): LinkSpec(
            name=f"link-{a}{b}",
            bandwidth_gbs=float(rng.uniform(0.01, 10.0)),
            latency_s=float(rng.uniform(0.0, 1e-2)),
            energy_per_byte_j=float(rng.uniform(0.0, 1e-7)),
        )
        for i, a in enumerate(aliases)
        for b in aliases[i + 1 :]
    }
    return Platform(devices=devices, links=links, host=aliases[0], name="random")


def random_chain(rng: np.random.Generator, n_tasks: int) -> TaskChain:
    tasks = [
        GemmLoopTask(
            int(rng.integers(8, 96)),
            iterations=int(rng.integers(1, 4)),
            name=f"L{i + 1}",
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"random-{n_tasks}")


class HostHeavyConstraint:
    """A custom Constraint (no dataclass, no __eq__): host runs the first task."""

    def mask(self, batch):
        return batch.placements[:, 0] == 0


def brute_force_front(values: np.ndarray) -> np.ndarray:
    """Reference O(n**2) non-dominated mask via the pairwise ``dominates``."""
    n = values.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and dominates(values[j], values[i]):
                mask[i] = False
                break
    return mask


# ---------------------------------------------------------------------------
# Dominance kernel
# ---------------------------------------------------------------------------


class TestParetoMask:
    @given(
        n=st.integers(1, 60),
        c=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        quantize=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, n, c, seed, quantize):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, size=(n, c))
        if quantize:
            # Coarse grid: plenty of exact ties and duplicate rows.
            values = np.round(values * 4.0) / 4.0
        assert np.array_equal(pareto_mask(values), brute_force_front(values))

    def test_duplicates_of_front_rows_all_kept(self):
        values = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]])
        assert pareto_mask(values).tolist() == [True, True, True, False]

    def test_single_row_and_all_equal(self):
        assert pareto_mask(np.array([[3.0, 4.0]])).tolist() == [True]
        assert pareto_mask(np.full((5, 3), 7.0)).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            pareto_mask(np.zeros(4))
        with pytest.raises(ValueError):
            pareto_mask(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            pareto_mask(np.array([[1.0, np.nan]]))
        assert pareto_mask(np.empty((0, 2))).shape == (0,)

    def test_infinite_values_are_ordered_like_the_pairwise_dominates(self):
        # +-inf is totally ordered; only NaN is rejected (the old pairwise
        # pareto_front accepted inf criteria, so the kernel must too).
        values = np.array([[1.0, 2.0], [np.inf, 0.0], [np.inf, 1.0], [-np.inf, 5.0]])
        assert np.array_equal(pareto_mask(values), brute_force_front(values))
        assert pareto_mask(values).tolist() == [True, True, False, True]

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_dominated_by_matches_pairwise(self, n, seed):
        rng = np.random.default_rng(seed)
        front = rng.uniform(0.0, 1.0, size=(rng.integers(1, 6), 3))
        values = np.round(rng.uniform(0.0, 1.0, size=(n, 3)) * 4.0) / 4.0
        expected = np.array(
            [any(dominates(f, v) for f in front) for v in values], dtype=bool
        )
        assert np.array_equal(dominated_by(front, values), expected)


# ---------------------------------------------------------------------------
# Streaming accumulators: chunking/merge invariance
# ---------------------------------------------------------------------------


def random_partition(rng: np.random.Generator, n: int) -> list[slice]:
    cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, min(6, n - 1) + 1)), replace=False).tolist()) if n > 1 else []
    bounds = [0, *cuts, n]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


class TestStreamingTopK:
    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_matches_global_sort(self, n, k, seed):
        rng = np.random.default_rng(seed)
        # Quantized values force ties across chunk boundaries.
        values = np.round(rng.uniform(0.0, 1.0, size=n) * 8.0) / 8.0
        indices = rng.permutation(n).astype(np.int64)
        order = np.lexsort((indices, values))[:k]

        top = StreamingTopK(k)
        for part in random_partition(rng, n):
            top.update(values[part], indices[part])
        assert np.array_equal(top.values, values[order])
        assert np.array_equal(top.indices, indices[order])

    @given(n=st.integers(2, 120), k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shard_merge_associativity(self, n, k, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.uniform(0.0, 1.0, size=n) * 8.0) / 8.0
        indices = np.arange(n, dtype=np.int64)

        serial = StreamingTopK(k)
        serial.update(values, indices)

        shards = []
        for part in random_partition(rng, n):
            shard = StreamingTopK(k)
            shard.update(values[part], indices[part])
            shards.append(shard)
        rng.shuffle(shards)
        merged = StreamingTopK(k)
        for shard in shards:
            merged.merge(shard)
        assert np.array_equal(merged.values, serial.values)
        assert np.array_equal(merged.indices, serial.indices)

    def test_tie_break_prefers_smaller_index(self):
        top = StreamingTopK(2)
        top.update(np.array([5.0, 5.0, 5.0]), np.array([30, 10, 20]))
        assert top.indices.tolist() == [10, 20]

    def test_boundary_ties_survive_the_partition_preshrink(self):
        # 100 equal values >> 4*k triggers the argpartition fast path; the
        # smallest indices must still win regardless of partition order.
        top = StreamingTopK(3)
        values = np.full(100, 1.0)
        indices = np.arange(100, dtype=np.int64)[::-1].copy()
        top.update(values, indices)
        assert top.indices.tolist() == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingTopK(0)
        top = StreamingTopK(2)
        with pytest.raises(ValueError):
            top.update(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            top.update(np.array([np.nan]), np.array([0]))
        with pytest.raises(ValueError):
            top.merge(StreamingTopK(3))
        top.update(np.empty(0), np.empty(0))
        assert len(top) == 0

    @pytest.mark.parametrize("k", [2.7, True, float("nan")])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(TypeError, match="k must be an integer"):
            StreamingTopK(k)


class TestStreamingFrontier:
    @given(
        n=st.integers(1, 150),
        c=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_matches_global_mask(self, n, c, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.uniform(0.0, 1.0, size=(n, c)) * 4.0) / 4.0
        indices = np.arange(n, dtype=np.int64)
        mask = pareto_mask(values)

        frontier = StreamingFrontier(c)
        for part in random_partition(rng, n):
            frontier.update(values[part], indices[part])
        assert np.array_equal(frontier.indices, indices[mask])
        assert np.array_equal(frontier.values, values[mask])

    @given(n=st.integers(2, 100), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shard_merge_associativity(self, n, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.uniform(0.0, 1.0, size=(n, 2)) * 4.0) / 4.0
        indices = np.arange(n, dtype=np.int64)
        mask = pareto_mask(values)

        shards = []
        for part in random_partition(rng, n):
            shard = StreamingFrontier(2)
            shard.update(values[part], indices[part])
            shards.append(shard)
        rng.shuffle(shards)
        merged = StreamingFrontier(2)
        for shard in shards:
            merged.merge(shard)
        assert np.array_equal(merged.indices, indices[mask])
        assert np.array_equal(merged.values, values[mask])

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingFrontier(0)
        frontier = StreamingFrontier(2)
        with pytest.raises(ValueError):
            frontier.update(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ValueError):
            frontier.update(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            frontier.merge(StreamingFrontier(3))
        frontier.update(np.empty((0, 2)), np.empty(0))
        assert len(frontier) == 0


# ---------------------------------------------------------------------------
# Objectives & constraints
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_space():
    platform = cpu_gpu_platform()
    executor = SimulatedExecutor(platform, noise=NoNoise(), seed=0)
    from repro.tasks import table1_chain

    chain = table1_chain(loop_size=5)
    algorithms = enumerate_algorithms(chain, platform)
    batch = executor.execute_batch(chain)
    profiles = profiles_from_batch(algorithms, batch)
    return platform, executor, chain, algorithms, batch, profiles


class TestObjectives:
    def test_as_objective_coercion(self, small_space):
        *_, batch, _ = small_space
        assert np.array_equal(as_objective("energy")(batch), batch.energy_total_j)
        objective = MetricObjective("cost")
        assert as_objective(objective) is objective
        with pytest.raises(TypeError):
            as_objective(123)
        with pytest.raises(ValueError):
            as_objectives(("time", "time"))

    def test_weighted_sum(self, small_space):
        *_, batch, _ = small_space
        objective = WeightedSumObjective(1.0, 2.0, 3.0)
        expected = batch.total_time_s + 2.0 * batch.energy_total_j + 3.0 * batch.operating_cost
        assert np.allclose(objective(batch), expected)
        with pytest.raises(ValueError):
            WeightedSumObjective(time_weight=-1.0)

    def test_decision_objective_matches_model(self, small_space):
        *_, batch, profiles = small_space
        model = DecisionModel(cost_weight=250.0)
        values = DecisionObjective(model)(batch)
        for index, label in enumerate(batch.labels()):
            assert values[index] == model.objective(profiles[label], 1.0)


class TestConstraints:
    def test_masks_match_profile_filters(self, small_space):
        *_, batch, profiles = small_space
        labels = batch.labels()
        deadline = float(np.median(batch.total_time_s))
        energy = float(np.median(batch.energy_total_j))
        for constraint, predicate in [
            (DeadlineConstraint(deadline), lambda p: p.time_s <= deadline),
            (EnergyBudgetConstraint(energy), lambda p: p.energy_j <= energy),
            (CostBudgetConstraint(0.0), lambda p: p.operating_cost <= 0.0),
        ]:
            mask = constraint.mask(batch)
            for index, label in enumerate(labels):
                assert mask[index] == predicate(profiles[label])

    def test_max_offloaded_matches_placements(self, small_space):
        _, _, _, algorithms, batch, _ = small_space
        mask = MaxOffloadedConstraint(1).mask(batch)
        for index, algorithm in enumerate(algorithms):
            assert mask[index] == (algorithm.placement.n_offloaded("D") <= 1)

    def test_n_offloaded_host_variants(self, small_space):
        *_, batch, _ = small_space
        # Counting relative to the accelerator: "offloaded" = not on A.
        relative_to_a = batch.n_offloaded("A")
        for index, label in enumerate(batch.labels()):
            assert relative_to_a[index] == sum(1 for ch in label if ch != "A")
        with pytest.raises(KeyError):
            batch.n_offloaded("Z")

    def test_feasible_mask_all_and_validation(self, small_space):
        *_, batch, _ = small_space
        assert feasible_mask(batch, ()).all()
        both = feasible_mask(
            batch, (MaxOffloadedConstraint(2), CostBudgetConstraint(0.0))
        )
        expected = MaxOffloadedConstraint(2).mask(batch) & CostBudgetConstraint(0.0).mask(batch)
        assert np.array_equal(both, expected)
        with pytest.raises(ValueError):
            DeadlineConstraint(0.0)
        with pytest.raises(ValueError):
            EnergyBudgetConstraint(-1.0)
        with pytest.raises(ValueError):
            CostBudgetConstraint(-0.5)
        with pytest.raises(ValueError):
            MaxOffloadedConstraint(-1)


# ---------------------------------------------------------------------------
# Streaming search vs materialize-then-select (property-style equivalence)
# ---------------------------------------------------------------------------


class TestStreamingMatchesMaterialized:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_randomized_spaces(self, seed):
        rng = np.random.default_rng(seed)
        n_devices = int(rng.integers(2, 4))
        n_tasks = int(rng.integers(3, 6))
        platform = random_platform(rng, n_devices)
        chain = random_chain(rng, n_tasks)
        executor = SimulatedExecutor(platform, noise=NoNoise(), seed=seed)

        algorithms = enumerate_algorithms(chain, platform)
        batch = executor.execute_batch(chain)
        profiles = profiles_from_batch(algorithms, batch)

        batch_size = int(rng.integers(1, len(algorithms) + 1))
        k = int(rng.integers(1, len(algorithms) + 1))
        result = search_space(
            executor,
            chain,
            objectives=("time", "energy", "cost"),
            top_k=k,
            batch_size=batch_size,
        )

        # Frontier: element-for-element identical to the materialized facade.
        front = pareto_front(profiles)
        assert set(result.frontier.labels) == set(front)
        for label, values in result.frontier.as_dict().items():
            assert values["time"] == front[label]["time_s"]
            assert values["energy"] == front[label]["energy_j"]
            assert values["cost"] == front[label]["operating_cost"]

        # Top-K: identical to brute-force selection over the profiles.
        extract = {
            "time": lambda p: p.time_s,
            "energy": lambda p: p.energy_j,
            "cost": lambda p: p.operating_cost,
        }
        for metric, fn in extract.items():
            brute = np.sort(np.array([fn(p) for p in profiles.values()]))[:k]
            assert np.array_equal(result.top[metric].values, brute)
            for label, value in zip(result.top[metric].labels, result.top[metric].values):
                assert fn(profiles[label]) == value

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_randomized_spaces_with_constraints(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, int(rng.integers(2, 4)))
        chain = random_chain(rng, int(rng.integers(3, 5)))
        executor = SimulatedExecutor(platform, noise=NoNoise(), seed=seed)

        algorithms = enumerate_algorithms(chain, platform)
        batch = executor.execute_batch(chain)
        profiles = profiles_from_batch(algorithms, batch)

        deadline = float(np.quantile(batch.total_time_s, 0.7))
        max_off = int(rng.integers(0, len(chain) + 1))
        constraints = (DeadlineConstraint(deadline), MaxOffloadedConstraint(max_off))
        feasible = {
            label: profile
            for (label, profile), algorithm in zip(profiles.items(), algorithms)
            if profile.time_s <= deadline
            and algorithm.placement.n_offloaded(platform.host) <= max_off
        }

        result = search_space(
            executor,
            chain,
            objectives=("time",),
            top_k=3,
            constraints=constraints,
            batch_size=int(rng.integers(1, 10)),
        )
        assert result.n_evaluated == len(algorithms)
        assert result.n_feasible == len(feasible)
        if not feasible:
            assert len(result.top["time"]) == 0
            assert len(result.frontier) == 0
            with pytest.raises(ValueError):
                result.best("time")
            return
        front = pareto_front(feasible)
        assert set(result.frontier.labels) == set(front)
        brute = np.sort(np.array([p.time_s for p in feasible.values()]))[:3]
        assert np.array_equal(result.top["time"].values, brute)

    def test_sharded_sweep_identical_to_serial(self):
        rng = np.random.default_rng(99)
        platform = random_platform(rng, 3)
        chain = random_chain(rng, 5)
        executor = SimulatedExecutor(platform, noise=NoNoise(), seed=0)

        serial = search_space(
            executor, chain, objectives=("time", "energy"), top_k=7, batch_size=50
        )
        for start_stops in ([(0, 100), (100, 243)], [(0, 81), (81, 150), (150, 243)]):
            merged = None
            for start, stop in start_stops:
                shard = SpaceSearch(objectives=("time", "energy"), top_k=7)
                cursor = start
                for chunk in executor.iter_execute_batches(
                    chain, batch_size=37, start=start, stop=stop
                ):
                    shard.update(chunk, start_index=cursor)
                    cursor += len(chunk)
                if merged is None:
                    merged = shard
                else:
                    merged.merge(shard)
            result = merged.result()
            assert np.array_equal(result.frontier.indices, serial.frontier.indices)
            for metric in ("time", "energy"):
                assert np.array_equal(result.top[metric].indices, serial.top[metric].indices)
                assert np.array_equal(result.top[metric].values, serial.top[metric].values)
            assert result.n_evaluated == serial.n_evaluated == 243

    def test_multiprocess_driver_matches_serial(self):
        platform = cpu_gpu_platform()
        executor = SimulatedExecutor(platform, noise=NoNoise(), seed=0)
        rng = np.random.default_rng(7)
        chain = random_chain(rng, 7)  # 2**7 = 128 placements
        serial = search_space(executor, chain, top_k=5, batch_size=13)
        parallel = search_space(executor, chain, top_k=5, batch_size=13, n_workers=3)
        assert np.array_equal(parallel.top["time"].indices, serial.top["time"].indices)
        assert np.array_equal(parallel.top["time"].values, serial.top["time"].values)
        assert np.array_equal(parallel.frontier.indices, serial.frontier.indices)
        assert parallel.n_evaluated == serial.n_evaluated == 128
        assert parallel.frontier.labels == serial.frontier.labels


# ---------------------------------------------------------------------------
# Driver API surface
# ---------------------------------------------------------------------------


class TestSearchSpaceAPI:
    def test_range_validation_and_summary(self, small_space):
        platform, executor, chain, *_ = small_space
        with pytest.raises(ValueError):
            search_space(executor, chain, start=5, stop=3)
        with pytest.raises(ValueError):
            search_space(executor, chain, start=2, stop=2)
        result = search_space(executor, chain, start=0, stop=4, top_k=2)
        assert result.n_evaluated == 4
        assert "4 of 8 placements" in result.summary()
        assert result.space_size == 8

    def test_best_requires_unambiguous_objective(self, small_space):
        _, executor, chain, *_ = small_space
        result = search_space(executor, chain, objectives=("time", "energy"), top_k=1)
        with pytest.raises(ValueError):
            result.best()
        assert result.best("time") == result.top["time"].labels[0]
        single = search_space(executor, chain, top_k=1)
        assert single.best() == single.best("time")

    def test_spacesearch_guards(self, small_space):
        *_, batch, _ = small_space
        with pytest.raises(ValueError):
            SpaceSearch(top_k=0, frontier=None)
        with pytest.raises(ValueError):
            SpaceSearch(top_k=-1)
        search = SpaceSearch(top_k=2)
        with pytest.raises(ValueError):
            search.result()  # nothing fed yet
        search.update(batch)
        other = SpaceSearch(top_k=3)
        with pytest.raises(ValueError):
            search.merge(other)
        different = SpaceSearch(objectives=("energy",), top_k=2)
        with pytest.raises(ValueError):
            search.merge(different)
        constrained = SpaceSearch(top_k=2, constraints=(MaxOffloadedConstraint(1),))
        with pytest.raises(ValueError):
            search.merge(constrained)

    @pytest.mark.parametrize("top_k", [2.7, 2.0, True, np.bool_(True), float("nan"), "3"])
    def test_top_k_must_be_an_integer(self, small_space, top_k):
        """No silent truncation (2.7 -> 2) and no bool-as-int (True -> 1)."""
        _, executor, chain, *_ = small_space
        with pytest.raises(TypeError, match="top_k"):
            search_space(executor, chain, top_k=top_k)
        with pytest.raises(TypeError, match="top_k"):
            search_space(executor, chain, top_k=top_k, frontier=None, method="auto")
        with pytest.raises(TypeError, match="top_k"):
            SpaceSearch(top_k=top_k)

    def test_top_k_accepts_integer_likes_and_rejects_negatives(self, small_space):
        _, executor, chain, *_ = small_space
        assert len(search_space(executor, chain, top_k=np.int64(3)).top["time"]) == 3
        with pytest.raises(ValueError, match="top_k"):
            search_space(executor, chain, top_k=-1)

    def test_custom_constraint_survives_sharded_merge(self, small_space):
        """Identity-only equality must not spuriously reject cross-process merges."""
        platform, executor, chain, _, batch, _ = small_space
        serial = search_space(
            executor, chain, top_k=3, constraints=(HostHeavyConstraint(),)
        )
        sharded = search_space(
            executor, chain, top_k=3, constraints=(HostHeavyConstraint(),), n_workers=2
        )
        assert sharded.n_feasible == serial.n_feasible == 4
        assert sharded.top["time"].labels == serial.top["time"].labels
        # ... while genuinely different dataclass constraints are still rejected:
        one = SpaceSearch(top_k=2, constraints=(DeadlineConstraint(1.0),))
        two = SpaceSearch(top_k=2, constraints=(DeadlineConstraint(2.0),))
        one.update(batch)
        with pytest.raises(ValueError):
            one.merge(two)

    def test_mismatched_space_rejected(self, small_space):
        platform, executor, chain, _, batch, _ = small_space
        search = SpaceSearch(top_k=2)
        search.update(batch)
        other_platform = edge_cluster_platform()
        other_executor = SimulatedExecutor(other_platform, noise=NoNoise(), seed=0)
        rng = np.random.default_rng(0)
        other_batch = other_executor.execute_batch(random_chain(rng, 3))
        with pytest.raises(ValueError):
            search.update(other_batch)

    def test_result_is_read_only_but_picklable(self, small_space):
        import copy
        import pickle

        _, executor, chain, *_ = small_space
        result = search_space(executor, chain, top_k=2)
        with pytest.raises(TypeError):
            result.top["time"] = None  # type: ignore[index]
        for clone in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert clone.top["time"].labels == result.top["time"].labels
            assert np.array_equal(clone.frontier.indices, result.frontier.indices)
            with pytest.raises(TypeError):
                clone.top["time"] = None  # type: ignore[index]

    def test_nan_relative_scores_rejected_in_batch_objective(self, small_space):
        *_, batch, _ = small_space
        model = DecisionModel(score_penalty=1.0)
        with pytest.raises(ValueError):
            model.batch_objective(batch, relative_scores=np.full(len(batch), np.nan))

    def test_frontier_disabled(self, small_space):
        _, executor, chain, *_ = small_space
        result = search_space(executor, chain, top_k=3, frontier=None)
        assert result.frontier is None
        assert "top-3 by time" in result.summary()

    def test_decision_objective_end_to_end(self, small_space):
        _, executor, chain, _, batch, profiles = small_space
        model = DecisionModel(cost_weight=1e6)
        result = search_space(
            executor, chain, objectives=(DecisionObjective(model),), top_k=1
        )
        brute = min(
            profiles, key=lambda label: (model.objective(profiles[label], 1.0), label)
        )
        assert result.best("decision") == brute
