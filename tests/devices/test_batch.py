"""Batch/sequential equivalence tests for the vectorized execution engine.

The batch engine claims *bitwise* equality with the sequential
``SimulatedExecutor.execute`` loop for every ``ExecutionRecord`` field, and
bit-for-bit identical ``MeasurementSet``s (same RNG stream) for the default
``rng_mode="sequential"`` measurement path.  These tests pin both claims down
on the calibrated platforms, on randomized platforms/chains/placements, and
for the RNG-stream identity of ``measure`` after a batched campaign.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    Platform,
    SimulatedExecutor,
    cpu_gpu_platform,
    smartphone_cloud_platform,
)
from repro.devices.batch import as_placement_matrix, placement_labels
from repro.devices.tables import build_tables
from repro.measurement.noise import NoNoise
from repro.offload import (
    MAX_ENUMERABLE_INDEX,
    OffloadedAlgorithm,
    Placement,
    enumerate_algorithms,
    enumerate_placements,
    indices_to_matrix,
    iter_placement_batches,
    measure_algorithms,
    placement_matrix,
    profile_algorithms,
    profiles_from_batch,
    space_size,
)
from repro.tasks import table1_chain

from factories import random_chain, random_platform


def assert_records_identical(expected, actual) -> None:
    """Exact (bitwise) equality of every ExecutionRecord field."""
    assert actual.placement == expected.placement
    assert actual.total_time_s == expected.total_time_s
    assert actual.transferred_bytes == expected.transferred_bytes
    assert actual.operating_cost == expected.operating_cost
    assert actual.busy_time_by_device == expected.busy_time_by_device
    assert actual.flops_by_device == expected.flops_by_device
    assert actual.energy.active_j == expected.energy.active_j
    assert actual.energy.idle_j == expected.energy.idle_j
    assert actual.energy.transfer_j == expected.energy.transfer_j
    assert actual.energy.total_j == expected.energy.total_j
    assert actual.tasks == expected.tasks


# ---------------------------------------------------------------------------
# Placement-space encoding
# ---------------------------------------------------------------------------


class TestPlacementMatrix:
    def test_matches_enumerate_placements_order(self):
        for n_tasks, aliases in [(3, ["D", "A"]), (4, ["D", "A", "N"]), (1, ["D"])]:
            matrix = placement_matrix(n_tasks, len(aliases))
            labels = placement_labels(matrix, aliases)
            assert labels == [p.label for p in enumerate_placements(n_tasks, aliases)]

    def test_space_size(self):
        assert space_size(10, 3) == 3**10
        with pytest.raises(ValueError):
            space_size(0, 2)
        with pytest.raises(ValueError):
            space_size(2, 0)

    def test_slicing(self):
        full = placement_matrix(5, 3)
        part = placement_matrix(5, 3, start=10, stop=20)
        assert np.array_equal(part, full[10:20])
        with pytest.raises(ValueError):
            placement_matrix(5, 3, start=20, stop=10)
        with pytest.raises(ValueError):
            placement_matrix(5, 3, start=0, stop=3**5 + 1)

    def test_chunked_concatenation_covers_the_space(self):
        chunks = list(iter_placement_batches(6, 3, batch_size=100))
        assert all(len(chunk) <= 100 for chunk in chunks)
        assert np.array_equal(np.concatenate(chunks), placement_matrix(6, 3))
        with pytest.raises(ValueError):
            next(iter_placement_batches(3, 2, batch_size=0))

    def test_chunked_range_slicing(self):
        full = placement_matrix(6, 3)
        chunks = list(iter_placement_batches(6, 3, batch_size=37, start=100, stop=500))
        assert np.array_equal(np.concatenate(chunks), full[100:500])
        with pytest.raises(ValueError):
            next(iter_placement_batches(6, 3, batch_size=10, start=500, stop=100))

    def test_indices_to_matrix_decodes_the_encoding(self):
        full = placement_matrix(5, 3)
        rng = np.random.default_rng(0)
        picks = rng.integers(0, 3**5, size=40)
        assert np.array_equal(indices_to_matrix(picks, 5, 3), full[picks])
        with pytest.raises(ValueError):
            indices_to_matrix(np.array([3**5]), 5, 3)  # out of range
        with pytest.raises(ValueError):
            indices_to_matrix(np.array([-1]), 5, 3)
        with pytest.raises(ValueError):
            indices_to_matrix(np.array([[0, 1]]), 5, 3)  # not 1-D
        with pytest.raises(ValueError):
            indices_to_matrix(np.array([0.5]), 5, 3)  # not integer
        # uint64 indices past int64 in a >int64 space must not wrap negative.
        with pytest.raises(ValueError, match="int64"):
            indices_to_matrix(np.array([2**63 + 5], dtype=np.uint64), 64, 2)
        top = indices_to_matrix(np.array([MAX_ENUMERABLE_INDEX], dtype=np.uint64), 64, 2)
        assert top[0].tolist() == [int(b) for b in np.binary_repr(MAX_ENUMERABLE_INDEX, width=64)]

    def test_space_size_is_exact_beyond_int64(self):
        # Python ints never overflow; 2**64 must come out exact.
        assert space_size(64, 2) == 2**64
        assert space_size(40, 3) == 3**40

    def test_int64_overflow_slice_raises_actionable_error(self):
        """Regression: slices past int64 used to wrap/overflow inside np.arange."""
        # Slices within the representable range of a >int64 space still work...
        low = placement_matrix(64, 2, start=0, stop=4)
        assert np.array_equal(low[:, -2:], [[0, 0], [0, 1], [1, 0], [1, 1]])
        # ... including the very last representable indices (2**63 - 2, 2**63 - 1):
        boundary = placement_matrix(64, 2, start=MAX_ENUMERABLE_INDEX - 1, stop=MAX_ENUMERABLE_INDEX + 1)
        digits = [int(b) for b in np.binary_repr(MAX_ENUMERABLE_INDEX, width=64)]
        assert boundary[1].tolist() == digits
        # ... an empty slice is valid at any offset (the streaming iterator
        # yields nothing for it, so the two paths agree):
        assert placement_matrix(64, 2, start=2**63 + 5, stop=2**63 + 5).shape == (0, 64)
        # ... but anything non-empty beyond must fail loudly, not wrap:
        with pytest.raises(ValueError, match="int64"):
            placement_matrix(64, 2, start=2**63, stop=2**63 + 2)
        with pytest.raises(ValueError, match="int64"):
            placement_matrix(64, 2)  # the full space cannot be enumerated
        with pytest.raises(ValueError, match="int64"):
            next(iter_placement_batches(64, 2, batch_size=4, start=2**63, stop=2**63 + 8))

    def test_compact_dtype(self):
        assert placement_matrix(4, 3).dtype == np.int8

    def test_labels_multicharacter_aliases(self):
        matrix = np.array([[0, 1], [1, 0]])
        assert placement_labels(matrix, ["D", "GPU"]) == ["DGPU", "GPUD"]

    def test_as_placement_matrix_validation(self):
        with pytest.raises(ValueError):
            as_placement_matrix(np.array([[0, 1, 0]]), ["D", "A"], 2)  # wrong width
        with pytest.raises(ValueError):
            as_placement_matrix(np.array([[0, 5]]), ["D", "A"], 2)  # out of range
        with pytest.raises(TypeError):
            as_placement_matrix(np.array([[0.0, 1.0]]), ["D", "A"], 2)  # float dtype
        with pytest.raises(KeyError):
            as_placement_matrix(["DZ"], ["D", "A"], 2)  # unknown alias
        with pytest.raises(ValueError):
            as_placement_matrix(["DAD"], ["D", "A"], 2)  # wrong length
        with pytest.raises(ValueError):
            as_placement_matrix([], ["D", "A"], 2)  # empty
        with pytest.raises(ValueError):
            as_placement_matrix(np.empty((0, 2), dtype=int), ["D", "A"], 2)  # empty matrix


# ---------------------------------------------------------------------------
# Batch execution == sequential execution, bitwise
# ---------------------------------------------------------------------------


class TestBatchExecutionEquivalence:
    @pytest.mark.parametrize("platform_factory", [cpu_gpu_platform, smartphone_cloud_platform])
    def test_full_space_bitwise_identical(self, platform_factory):
        platform = platform_factory()
        chain = table1_chain(loop_size=2)
        sequential = SimulatedExecutor(platform, seed=0, cache_executions=False)
        batch = SimulatedExecutor(platform, seed=0).execute_batch(chain)
        placements = enumerate_placements(len(chain), platform.aliases)
        assert len(batch) == len(placements)
        assert batch.labels() == [p.label for p in placements]
        for i, placement in enumerate(placements):
            expected = sequential.execute(chain, placement.devices)
            assert_records_identical(expected, batch.record(i))
            assert batch.total_time_s[i] == expected.total_time_s
            assert batch.transferred_bytes[i] == expected.transferred_bytes
            assert batch.transfer_energy_j[i] == expected.energy.transfer_j
            assert batch.energy_total_j[i] == expected.energy.total_j
            assert batch.operating_cost[i] == expected.operating_cost
            for j, alias in enumerate(batch.aliases):
                assert batch.busy_by_device[i, j] == expected.busy_time_by_device[alias]
                assert batch.flops_by_device[i, j] == expected.flops_by_device[alias]
                assert batch.active_j[i, j] == expected.energy.active_j[alias]
                assert batch.idle_j[i, j] == expected.energy.idle_j[alias]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_devices=st.integers(min_value=1, max_value=4),
        n_tasks=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=25, deadline=None)
    def test_randomized_platforms_chains_and_placements(self, seed, n_devices, n_tasks):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng, n_devices)
        chain = random_chain(rng, n_tasks)
        total = space_size(n_tasks, n_devices)
        indices = sorted(
            int(i) for i in rng.choice(total, size=min(12, total), replace=False)
        )
        matrix = placement_matrix(n_tasks, n_devices)[indices]
        sequential = SimulatedExecutor(platform, seed=1, cache_executions=False)
        batch = SimulatedExecutor(platform, seed=1).execute_batch(chain, matrix)
        aliases = batch.aliases
        for row, record in enumerate(batch.records()):
            placement = tuple(aliases[d] for d in matrix[row])
            assert_records_identical(sequential.execute(chain, placement), record)
            assert batch.total_time_s[row] == record.total_time_s
            assert batch.energy_total_j[row] == record.energy.total_j

    def test_device_subset_of_larger_platform(self):
        platform = smartphone_cloud_platform()
        chain = table1_chain(loop_size=2)
        sequential = SimulatedExecutor(platform, seed=0, cache_executions=False)
        batch = SimulatedExecutor(platform, seed=0).execute_batch(chain, devices=["D", "N"])
        assert batch.aliases == ("D", "N")
        assert len(batch) == 2 ** len(chain)
        for i in range(len(batch)):
            expected = sequential.execute(chain, batch.placement(i))
            assert_records_identical(expected, batch.record(i))
            # The materialised busy/flops maps cover *all* platform devices,
            # exactly like the sequential record (unused "A" included).
            assert set(batch.record(i).busy_time_by_device) == set(platform.devices)
            # The array fields agree too -- in particular the energy total
            # includes the idle draw of the absent "A" device.
            assert batch.total_time_s[i] == expected.total_time_s
            assert batch.energy_total_j[i] == expected.energy.total_j
            assert batch.operating_cost[i] == expected.operating_cost

    def test_partially_linked_platform(self):
        # D-A and D-B exist, A-B does not: placements that avoid the missing
        # link evaluate fine (and bitwise equal the sequential path); only a
        # placement that actually crosses A<->B is rejected -- exactly like
        # the sequential executor.
        rng = np.random.default_rng(0)
        base = random_platform(rng, 3)  # aliases D, A, B with full links
        links = {pair: link for pair, link in base.links.items() if pair != ("A", "B")}
        platform = Platform(devices=base.devices, links=links, host="D", name="partial")
        chain = random_chain(rng, 3)
        sequential = SimulatedExecutor(platform, seed=0, cache_executions=False)
        executor = SimulatedExecutor(platform, seed=0)

        safe = ["DDD", "DAD", "DBD", "ADA", "BDB", "ADD"]
        batch = executor.execute_batch(chain, safe)
        for i, label in enumerate(safe):
            assert_records_identical(sequential.execute(chain, label), batch.record(i))
            assert batch.total_time_s[i] == sequential.execute(chain, label).total_time_s

        for bad in ("DAB", "ABD", "BAD"):
            with pytest.raises(KeyError):
                sequential.execute(chain, bad)
            with pytest.raises(KeyError, match="no link defined"):
                executor.execute_batch(chain, [bad])

        # measure_algorithms keeps working on such platforms (it routes
        # through the batch engine when the space avoids the missing links).
        algorithms = [
            OffloadedAlgorithm(chain, Placement.from_string(label))
            for label in ("DDD", "DAD", "DBD")
        ]
        ms = measure_algorithms(algorithms, SimulatedExecutor(platform, seed=1), repetitions=5)
        assert ms.labels == ["DDD", "DAD", "DBD"]

    def test_chunked_execution_equals_full(self):
        platform = cpu_gpu_platform()
        chain = table1_chain(loop_size=2)
        executor = SimulatedExecutor(platform, seed=0)
        full = executor.execute_batch(chain)
        chunks = list(executor.iter_execute_batches(chain, batch_size=3))
        assert all(len(chunk) <= 3 for chunk in chunks)
        assert np.array_equal(
            np.concatenate([c.total_time_s for c in chunks]), full.total_time_s
        )
        assert np.array_equal(
            np.concatenate([c.energy_total_j for c in chunks]), full.energy_total_j
        )

    def test_accepts_every_placement_spelling(self):
        platform = cpu_gpu_platform()
        chain = table1_chain(loop_size=1)
        executor = SimulatedExecutor(platform, seed=0)
        from_strings = executor.execute_batch(chain, ["DDA", "ADA"])
        from_objects = executor.execute_batch(
            chain, [Placement.from_string("DDA"), Placement.from_string("ADA")]
        )
        from_matrix = executor.execute_batch(chain, np.array([[0, 0, 1], [1, 0, 1]]))
        for other in (from_objects, from_matrix):
            assert other.labels() == from_strings.labels()
            assert np.array_equal(other.total_time_s, from_strings.total_time_s)

    def test_selection_helpers(self):
        platform = cpu_gpu_platform()
        chain = table1_chain(loop_size=2)
        batch = SimulatedExecutor(platform, seed=0).execute_batch(chain)
        best = batch.argbest("time")
        assert batch.total_time_s[best] == batch.total_time_s.min()
        top = batch.top(3, metric="energy")
        assert len(top) == 3
        assert batch.energy_total_j[top[0]] == batch.energy_total_j.min()
        with pytest.raises(ValueError):
            batch.top(0)
        with pytest.raises(ValueError):
            batch.metric_values("latency")

    def test_cost_tables_validation(self):
        platform = cpu_gpu_platform()
        chain = table1_chain(loop_size=1)
        with pytest.raises(ValueError):
            build_tables(chain, platform, devices=["D", "D"])
        with pytest.raises(KeyError):
            build_tables(chain, platform, devices=["D", "Z"])
        with pytest.raises(ValueError):
            build_tables(chain, platform, devices=[])


# ---------------------------------------------------------------------------
# Batched measurements: RNG-stream identity
# ---------------------------------------------------------------------------


class TestBatchMeasurements:
    @pytest.fixture
    def platform(self):
        return smartphone_cloud_platform()

    @pytest.fixture
    def chain(self):
        return table1_chain(loop_size=2)

    def test_bit_for_bit_identical_to_measure_all(self, platform, chain):
        placements = [p.devices for p in enumerate_placements(len(chain), platform.aliases)]
        sequential = SimulatedExecutor(platform, seed=42)
        batched = SimulatedExecutor(platform, seed=42)
        expected = sequential.measure_all(chain, placements, repetitions=17)
        actual = batched.measure_all_batch(chain, placements, repetitions=17)
        assert actual.labels == expected.labels
        assert actual.metric == expected.metric and actual.unit == expected.unit
        for label in expected.labels:
            assert np.array_equal(actual[label], expected[label])
        # RNG-stream identity: both executors consumed exactly the same draws,
        # so their *next* measurements coincide too.
        assert np.array_equal(
            sequential.measure(chain, placements[0], 9),
            batched.measure(chain, placements[0], 9),
        )

    def test_energy_metric_bit_for_bit(self, platform, chain):
        placements = [p.devices for p in enumerate_placements(len(chain), platform.aliases)]
        sequential = SimulatedExecutor(platform, seed=3)
        batched = SimulatedExecutor(platform, seed=3)
        expected_rows = {
            "".join(p): sequential.energy_measure(chain, p, 11) for p in placements
        }
        actual = batched.measure_all_batch(chain, placements, repetitions=11, metric="energy")
        assert actual.metric == "energy" and actual.unit == "J"
        for label, row in expected_rows.items():
            assert np.array_equal(actual[label], row)

    def test_batched_rng_mode_distribution(self, platform, chain):
        executor = SimulatedExecutor(platform, seed=0)
        space = executor.execute_batch(chain)
        fast = executor.measure_batch(space, repetitions=400, rng_mode="batched")
        assert fast.labels == space.labels()
        for i, label in enumerate(fast.labels):
            values = fast[label]
            assert values.shape == (400,)
            assert np.all(values > 0)
            # Same distribution as the per-algorithm draw: the median sits on
            # the noise-free time (cf. test_measure_centres_on_noise_free_time).
            base = space.total_time_s[i]
            assert abs(np.median(values) - base) / base < 0.1

    def test_batched_rng_mode_is_deterministic_per_seed(self, platform, chain):
        a = SimulatedExecutor(platform, seed=5).measure_all_batch(
            chain, None, repetitions=8, rng_mode="batched"
        )
        b = SimulatedExecutor(platform, seed=5).measure_all_batch(
            chain, None, repetitions=8, rng_mode="batched"
        )
        for label in a.labels:
            assert np.array_equal(a[label], b[label])

    def test_no_noise_batch_measurements_are_exact(self, platform, chain):
        executor = SimulatedExecutor(platform, noise=NoNoise(), seed=0)
        space = executor.execute_batch(chain)
        for rng_mode in ("sequential", "batched"):
            ms = executor.measure_batch(space, repetitions=4, rng_mode=rng_mode)
            for i, label in enumerate(ms.labels):
                assert np.all(ms[label] == space.total_time_s[i])

    def test_measure_batch_validation(self, platform, chain):
        executor = SimulatedExecutor(platform, seed=0)
        space = executor.execute_batch(chain)
        with pytest.raises(ValueError):
            executor.measure_batch(space, repetitions=0)
        with pytest.raises(ValueError):
            executor.measure_batch(space, metric="latency")
        with pytest.raises(ValueError):
            executor.measure_batch(space, rng_mode="mixed")


# ---------------------------------------------------------------------------
# Offload-layer routing
# ---------------------------------------------------------------------------


class TestOffloadRouting:
    @pytest.fixture
    def platform(self):
        return cpu_gpu_platform()

    @pytest.fixture
    def chain(self):
        return table1_chain(loop_size=2)

    def _loop_measure(self, algorithms, executor, repetitions, metric="time"):
        """The pre-batch per-algorithm loop of measure_algorithms."""
        from repro.measurement.dataset import MeasurementSet

        measure = executor.measure if metric == "time" else executor.energy_measure
        out = MeasurementSet(
            metric="execution time" if metric == "time" else "energy",
            unit="s" if metric == "time" else "J",
        )
        for algorithm in algorithms:
            out.add(algorithm.label, measure(algorithm.chain, algorithm.placement.devices, repetitions))
        return out

    @pytest.mark.parametrize("metric", ["time", "energy"])
    def test_measure_algorithms_routes_through_batch_identically(self, platform, chain, metric):
        algorithms = enumerate_algorithms(chain, platform)
        routed = measure_algorithms(
            algorithms, SimulatedExecutor(platform, seed=9), repetitions=13, metric=metric
        )
        looped = self._loop_measure(
            algorithms, SimulatedExecutor(platform, seed=9), repetitions=13, metric=metric
        )
        assert routed.labels == looped.labels
        for label in looped.labels:
            assert np.array_equal(routed[label], looped[label])

    def test_measure_algorithms_falls_back_on_mixed_chains(self, platform):
        chain_a = table1_chain(loop_size=1)
        chain_b = table1_chain(loop_size=2)
        algorithms = [
            OffloadedAlgorithm(chain_a, Placement.from_string("DDD")),
            OffloadedAlgorithm(chain_b, Placement.from_string("DDA")),
        ]
        ms = measure_algorithms(algorithms, SimulatedExecutor(platform, seed=0), repetitions=5)
        assert ms.labels == ["DDD", "DDA"]
        assert all(ms.n_measurements(label) == 5 for label in ms.labels)

    def test_profiles_from_batch_identical_to_profile_algorithms(self, platform, chain):
        algorithms = enumerate_algorithms(chain, platform)
        executor = SimulatedExecutor(platform, seed=0)
        space = executor.execute_batch(chain, [a.placement.devices for a in algorithms])
        from_batch = profiles_from_batch(algorithms, space)
        from_loop = profile_algorithms(algorithms, SimulatedExecutor(platform, seed=0))
        assert set(from_batch) == set(from_loop)
        for label in from_loop:
            assert_records_identical(from_loop[label].record, from_batch[label].record)

    def test_profiles_from_batch_validation(self, platform, chain):
        algorithms = enumerate_algorithms(chain, platform)
        executor = SimulatedExecutor(platform, seed=0)
        space = executor.execute_batch(chain, [a.placement.devices for a in algorithms])
        with pytest.raises(ValueError):
            profiles_from_batch([], space)
        with pytest.raises(ValueError):
            profiles_from_batch(algorithms[:2], space)
        with pytest.raises(ValueError):
            profiles_from_batch(list(reversed(algorithms)), space)


# ---------------------------------------------------------------------------
# Shared execution cache
# ---------------------------------------------------------------------------


class TestExecutionCache:
    @pytest.fixture
    def platform(self):
        return cpu_gpu_platform()

    @pytest.fixture
    def chain(self):
        return table1_chain(loop_size=1)

    def test_repeated_execute_served_from_cache(self, platform, chain):
        executor = SimulatedExecutor(platform, seed=0)
        first = executor.execute(chain, "DDA")
        assert executor.execute(chain, "DDA") is first
        uncached = SimulatedExecutor(platform, seed=0, cache_executions=False)
        assert uncached.execute(chain, "DDA") is not uncached.execute(chain, "DDA")

    def test_measure_then_profile_executes_once(self, platform, chain, monkeypatch):
        executor = SimulatedExecutor(platform, seed=0)
        algorithms = enumerate_algorithms(chain, platform)
        calls = []
        original = SimulatedExecutor._execute_uncached

        def counting(self, chain_, aliases):
            calls.append(aliases)
            return original(self, chain_, aliases)

        monkeypatch.setattr(SimulatedExecutor, "_execute_uncached", counting)
        for algorithm in algorithms:  # the old measure+profile double execution
            executor.measure(algorithm.chain, algorithm.placement.devices, 3)
        profile_algorithms(algorithms, executor)
        assert len(calls) == len(algorithms)

    def test_cache_capacity_cap(self, platform, chain):
        executor = SimulatedExecutor(platform, seed=0, execution_cache_size=2)
        labels = ["DDD", "DDA", "DAD", "ADD"]
        for label in labels:
            executor.execute(chain, label)
        stats = executor.cache_stats()["records"]
        assert stats.entries == 2  # LRU-evicted down to the cap
        assert stats.evictions == 2
        # The two most recent records survived; older ones were evicted.
        assert executor.execute(chain, "ADD") is executor.execute(chain, "ADD")

    def test_clear_execution_cache(self, platform, chain):
        executor = SimulatedExecutor(platform, seed=0)
        first = executor.execute(chain, "DDD")
        tables = executor.cost_tables(chain)
        dropped = executor.clear_execution_cache()
        assert dropped == {"records": 1, "tables": 1}
        assert executor.execute(chain, "DDD") is not first
        assert executor.cost_tables(chain) is not tables
        assert executor.clear_execution_cache() == {"records": 1, "tables": 1}

    def test_cost_tables_cached_per_chain_and_devices(self, platform, chain):
        executor = SimulatedExecutor(platform, seed=0)
        assert executor.cost_tables(chain) is executor.cost_tables(chain)
        assert executor.cost_tables(chain, ["D"]) is not executor.cost_tables(chain)
        assert executor.cost_tables(chain, ["D"]) is executor.cost_tables(chain, ["D"])

    def test_caches_release_dead_chains(self, platform):
        import gc
        import weakref

        executor = SimulatedExecutor(platform, seed=0)
        chain = table1_chain(loop_size=1)
        ref = weakref.ref(chain)
        executor.execute(chain, "DDD")
        executor.cost_tables(chain)
        del chain
        gc.collect()
        # The content-addressed caches keep records/tables, but nothing (in
        # particular not the cached tables) keeps the chain object alive.
        assert ref() is None
        assert executor.cache_stats()["records"].entries == 1
        assert executor.cache_stats()["tables"].entries == 1

    def test_structurally_equal_chains_share_cache_entries(self, platform):
        executor = SimulatedExecutor(platform, seed=0)
        first = table1_chain(loop_size=1)
        second = table1_chain(loop_size=1)
        record = executor.execute(first, "DDA")
        assert executor.execute(second, "DDA") is record
        assert executor.cost_tables(second) is executor.cost_tables(first)

    def test_caching_never_changes_results(self, platform, chain):
        cached = SimulatedExecutor(platform, seed=4)
        uncached = SimulatedExecutor(platform, seed=4, cache_executions=False)
        for label in ("DDA", "DDA", "ADA"):
            assert np.array_equal(
                cached.measure(chain, label, 6), uncached.measure(chain, label, 6)
            )
