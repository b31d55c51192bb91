"""Content-fingerprint and TableCache contracts.

The cache layer's whole promise is *identity-free* reuse: two structurally
equal configurations must fingerprint identically -- across object
identities, processes and non-semantic insertion orders -- while any single
field change must produce a different digest.  Hypothesis drives the
single-field perturbations; a subprocess pins cross-process stability
(a salted ``hash()`` sneaking in would fail it immediately).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factories import random_chain, random_graph, random_platform
from repro.cache import (
    CacheStats,
    TableCache,
    cached_fingerprint,
    estimate_nbytes,
    fingerprint,
    table_key,
)
from repro.devices import DeviceSpec, Platform, SimulatedExecutor, edge_cluster_platform
from repro.devices.tables import build_tables
from repro.faults import FaultProfile, RetryPolicy, TimeoutPolicy
from repro.fleet import FleetSpec, NormalAxis, UniformAxis, UserSegment, sample_fleet
from repro.scenarios import (
    DeviceLoadFactor,
    LinkBandwidthScale,
    LinkLatencyScale,
    Scenario,
    ScenarioGrid,
)
from repro.tasks import GemmLoopTask, RegularizedLeastSquaresTask, TaskChain, TaskGraph


class TestScalarEncoding:
    def test_primitives_fingerprint_by_type_and_value(self):
        assert fingerprint(None) != fingerprint("None")
        assert fingerprint(3) == fingerprint(3)
        assert fingerprint(3) != fingerprint(4)
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint("x") == fingerprint("x")
        assert fingerprint("x") != fingerprint(("x",))

    def test_floats_are_bitwise_exact(self):
        assert fingerprint(0.1) == fingerprint(float.fromhex((0.1).hex()))
        assert fingerprint(float("nan")) == fingerprint(-float("nan"))
        assert fingerprint(float("inf")) != fingerprint(float("-inf"))
        assert fingerprint(-0.0) != fingerprint(0.0)
        assert fingerprint(1.0) != fingerprint(1)
        # 0.1 + 0.2 != 0.3 bitwise: the fingerprints must differ too.
        assert fingerprint(0.1 + 0.2) != fingerprint(0.3)

    def test_numpy_scalars_match_python_scalars(self):
        assert fingerprint(np.float64(0.25)) == fingerprint(0.25)
        assert fingerprint(np.int64(7)) == fingerprint(7)

    def test_mapping_order_is_not_semantic(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_unknown_types_raise(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(object())


class TestFingerprintEquality:
    def test_structurally_equal_platforms_fingerprint_identically(self):
        one = random_platform(np.random.default_rng(11), n_devices=3)
        two = random_platform(np.random.default_rng(11), n_devices=3)
        assert one is not two
        assert fingerprint(one) == fingerprint(two)

    def test_structurally_equal_chains_fingerprint_identically(self):
        one = random_chain(np.random.default_rng(5), n_tasks=4)
        two = random_chain(np.random.default_rng(5), n_tasks=4)
        assert fingerprint(one) == fingerprint(two)

    def test_policy_and_profile_fingerprints(self):
        assert fingerprint(RetryPolicy(max_attempts=3)) == fingerprint(
            RetryPolicy(max_attempts=3)
        )
        assert fingerprint(RetryPolicy(max_attempts=3)) != fingerprint(
            RetryPolicy(max_attempts=2)
        )
        assert fingerprint(FaultProfile()) == fingerprint(FaultProfile())
        assert fingerprint(TimeoutPolicy()) == fingerprint(TimeoutPolicy())

    def test_graph_node_insertion_order_is_not_semantic(self):
        tasks = [GemmLoopTask(16 + 8 * i, name=f"L{i + 1}") for i in range(4)]
        edges = [("L1", "L3"), ("L2", "L3"), ("L3", "L4")]
        forward = TaskGraph(tasks, edges=edges, name="g")
        backward = TaskGraph(list(reversed(tasks)), edges=edges, name="g")
        assert fingerprint(forward) == fingerprint(backward)

    def test_platform_device_order_is_semantic(self):
        # Alias order defines the device axis of every table built from the
        # platform, so reordering devices must change the fingerprint.
        base = random_platform(np.random.default_rng(3), n_devices=3)
        reordered = Platform(
            devices=dict(reversed(list(base.devices.items()))),
            links=dict(base.links),
            host=base.host,
            name=base.name,
        )
        assert fingerprint(base) != fingerprint(reordered)

    def test_scenario_grid_row_order_is_semantic(self):
        a = Scenario("a", settings=())
        b = Scenario("b", settings=())
        assert fingerprint(ScenarioGrid(scenarios=(a, b))) != fingerprint(
            ScenarioGrid(scenarios=(b, a))
        )

    def test_cached_fingerprint_memoizes_on_the_instance(self):
        chain = random_chain(np.random.default_rng(0), n_tasks=3)
        first = cached_fingerprint(chain)
        assert chain._repro_content_fingerprint == first
        assert cached_fingerprint(chain) == first == fingerprint(chain)


class TestFingerprintSensitivity:
    """Any single field change must alter the digest (hypothesis-driven)."""

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_single_device_field_change_alters_platform_fingerprint(self, seed, data):
        platform = random_platform(np.random.default_rng(seed), n_devices=3)
        alias = data.draw(st.sampled_from(sorted(platform.devices)))
        numeric = [
            f.name
            for f in dataclasses.fields(DeviceSpec)
            if isinstance(getattr(platform.devices[alias], f.name), float)
        ]
        field = data.draw(st.sampled_from(numeric))
        spec = platform.devices[alias]
        bumped = dataclasses.replace(spec, **{field: getattr(spec, field) * 1.5 + 1e-9})
        mutated = Platform(
            devices={**platform.devices, alias: bumped},
            links=dict(platform.links),
            host=platform.host,
            name=platform.name,
        )
        assert fingerprint(mutated) != fingerprint(platform)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_single_task_change_alters_chain_fingerprint(self, seed, data):
        chain = random_chain(np.random.default_rng(seed), n_tasks=4)
        index = data.draw(st.integers(0, 3))
        tasks = list(chain.tasks)
        old = tasks[index]
        tasks[index] = GemmLoopTask(
            (old.m + 1, old.k, old.n), iterations=old.iterations, name=old.name
        )
        assert fingerprint(TaskChain(tasks, name=chain.name)) != fingerprint(chain)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_edge_change_alters_graph_fingerprint(self, seed):
        graph = random_graph(np.random.default_rng(seed), n_tasks=4, edge_probability=0.4)
        names = graph.task_names
        flipped = (names[0], names[-1])
        edges = [e for e in graph.edges if e != flipped]
        if len(edges) == len(graph.edges):
            edges = list(graph.edges) + [flipped]
        mutated = TaskGraph(list(graph.tasks), edges=edges, name=graph.name)
        assert fingerprint(mutated) != fingerprint(graph)

    def test_retry_policy_field_changes_table_key(self):
        chain = random_chain(np.random.default_rng(1), n_tasks=3)
        platform = random_platform(np.random.default_rng(1), n_devices=2)
        base = table_key(chain, platform, retry=RetryPolicy(max_attempts=2))
        assert base != table_key(chain, platform, retry=RetryPolicy(max_attempts=3))
        assert base != table_key(chain, platform)
        assert base != table_key(
            chain, platform, retry=RetryPolicy(max_attempts=2), timeout=TimeoutPolicy(1.0)
        )


class TestProcessStability:
    def test_fingerprints_survive_process_restarts(self):
        """The digest of a deterministic configuration is process-invariant."""
        snippet = textwrap.dedent(
            """
            import numpy as np
            from factories import random_chain, random_graph, random_platform
            from repro.cache import fingerprint, table_key
            from repro.faults import RetryPolicy

            platform = random_platform(np.random.default_rng(42), n_devices=3)
            chain = random_chain(np.random.default_rng(42), n_tasks=4)
            graph = random_graph(np.random.default_rng(42), n_tasks=4)
            print(fingerprint(platform))
            print(fingerprint(chain))
            print(fingerprint(graph))
            print(table_key(chain, platform, retry=RetryPolicy(max_attempts=2)))
            """
        )
        repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo, "src"), os.path.join(repo, "tests")]
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout.splitlines()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        # And the parent process agrees with the children.
        platform = random_platform(np.random.default_rng(42), n_devices=3)
        chain = random_chain(np.random.default_rng(42), n_tasks=4)
        assert runs[0][0] == fingerprint(platform)
        assert runs[0][1] == fingerprint(chain)


class TestTableCache:
    def test_counters_track_hits_and_misses(self):
        cache = TableCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = TableCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now oldest
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_byte_cap_evicts_but_never_the_newest_entry(self):
        cache = TableCache(max_entries=100, max_bytes=1)
        big = np.zeros(1024)
        cache.put("a", big)
        assert "a" in cache  # a single oversized entry still caches
        cache.put("b", big)
        assert "a" not in cache and "b" in cache

    def test_get_or_build_builds_once(self):
        cache = TableCache()
        calls = []
        build = lambda: calls.append(1) or "built"  # noqa: E731
        assert cache.get_or_build("k", build) == "built"
        assert cache.get_or_build("k", build) == "built"
        assert len(calls) == 1

    def test_clear_reports_drops_and_keeps_counters(self):
        cache = TableCache()
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.stats().hits == 1  # counters survive a clear
        assert cache.clear() == 0

    def test_put_replaces_in_place(self):
        cache = TableCache(max_entries=2)
        cache.put("a", np.zeros(8))
        before = cache.stats().nbytes
        cache.put("a", np.zeros(16))
        assert len(cache) == 1
        assert cache.stats().nbytes > before

    def test_invalid_caps_raise(self):
        with pytest.raises(ValueError, match="max_entries"):
            TableCache(max_entries=0)
        with pytest.raises(ValueError, match="max_bytes"):
            TableCache(max_bytes=0)

    def test_estimate_nbytes_counts_arrays(self):
        assert estimate_nbytes(np.zeros(100)) >= 800
        assert estimate_nbytes((np.zeros(10), np.zeros(10))) >= 160

    def test_estimate_nbytes_charges_scalars_like_any_leaf(self):
        leaf = estimate_nbytes(object())
        scalars = (None, 3, 2.5, True, np.float64(1.0), np.int64(1))
        assert {estimate_nbytes(value) for value in scalars} == {leaf}
        assert estimate_nbytes(((0,), (1, 2))) == 64 + (64 + leaf) + (64 + 2 * leaf)

    def test_stats_snapshot_is_frozen(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.hits = 5


def _three_segment_spec() -> FleetSpec:
    return FleetSpec(
        segments=(
            UserSegment(
                "wifi",
                weight=6.0,
                axes=(
                    UniformAxis(LinkBandwidthScale(), 0.8, 1.3),
                    UniformAxis(LinkLatencyScale(), 0.8, 1.5),
                ),
            ),
            UserSegment(
                "cell",
                weight=3.0,
                axes=(
                    UniformAxis(LinkBandwidthScale(), 0.1, 0.45),
                    UniformAxis(LinkLatencyScale(), 2.0, 6.0),
                ),
            ),
            UserSegment(
                "loaded",
                weight=1.0,
                axes=(
                    NormalAxis(
                        DeviceLoadFactor(devices=("D",)), mean=1.6, std=0.3, low=1.0, high=2.5
                    ),
                ),
            ),
        )
    )


def _rls_chain(n_tasks: int) -> TaskChain:
    return TaskChain(
        [
            RegularizedLeastSquaresTask(
                size=60 + 60 * i, iterations=8, name=f"L{i + 1}", generate_on_host=False
            )
            for i in range(n_tasks)
        ],
        name="cache-traffic",
    )


#: The per-scenario arrays of a grid table (bitwise-compared).
_SLICE_FIELDS = (
    "busy", "hostio_time", "energy_in", "energy_out", "penalty_time",
    "penalty_energy", "first_penalty_time", "first_penalty_energy",
    "power_active", "power_idle", "cost_per_hour", "extra_idle_power",
)


class TestFleetCacheTraffic:
    def test_slice_cache_traffic_is_pinned(self):
        """A 600-user fleet in a 64-entry cache: fresh build, delta, full, delta.

        The cache holds one row source for the prefix however many users the
        fleet has.  The delta makes its result the source, so the full build
        of the next drifted grid gathers every row but the 10 redrawn ones;
        every grid must equal a build without a cache bitwise.  Each executor
        request counts one lookup of the source: the full build's read, or the
        hit that hands back an equal grid.
        """
        platform = edge_cluster_platform()
        chain = _rls_chain(3)
        cache = TableCache(max_entries=64)
        executor = SimulatedExecutor(platform, table_cache=cache)
        fleet = sample_fleet(_three_segment_spec(), 600, seed=7)

        def check(tables):
            reference = build_tables(chain, platform, scenarios=fleet.grid)
            for name in _SLICE_FIELDS:
                assert getattr(tables, name).tobytes() == getattr(reference, name).tobytes()
            assert tables.fingerprint == reference.fingerprint

        tables = executor.grid_cost_tables(chain, fleet.grid)
        check(tables)
        provenance = [(tables.cache_stats().served, tables.cache_stats().built)]
        drifts = (range(0, 600, 40), range(590, 600), range(5, 600, 25))
        for step, users in enumerate(drifts):
            fleet, replacements = fleet.resample_users(users, seed=100 + step)
            if step == 1:
                tables = executor.grid_cost_tables(chain, fleet.grid)
            else:
                tables = executor.update_grid_tables(tables, replacements)
            check(tables)
            provenance.append((tables.cache_stats().served, tables.cache_stats().built))

        assert provenance == [(0, 600), (0, 15), (590, 10), (0, 24)]
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (3, 1, 0)
        assert stats.entries == 1

    def test_estimate_nbytes_ignores_scenario_provenance(self):
        """Equal table shapes size equally, however many settings scenarios carry."""
        platform = edge_cluster_platform()
        chain = _rls_chain(2)
        one = ScenarioGrid(
            tuple(
                Scenario(f"u{i}", settings=((LinkBandwidthScale(), 0.5 + 0.1 * i),))
                for i in range(8)
            )
        )
        three = ScenarioGrid(
            tuple(
                Scenario(
                    f"u{i}",
                    settings=(
                        (LinkBandwidthScale(), 0.5 + 0.1 * i),
                        (LinkLatencyScale(), 1.5),
                        (DeviceLoadFactor(devices=("D",)), 1.2),
                    ),
                )
                for i in range(8)
            )
        )
        small = build_tables(chain, platform, scenarios=one)
        large = build_tables(chain, platform, scenarios=three)
        assert small.build_context is not None and large.build_context is not None
        assert estimate_nbytes(small) == estimate_nbytes(large)
        arrays = sum(
            getattr(small, f.name).nbytes
            for f in dataclasses.fields(small)
            if isinstance(getattr(small, f.name), np.ndarray)
        )
        assert estimate_nbytes(small) >= arrays
        # The build context (base platform, task costs) is provenance too: it
        # is charged a scenario's flat size, however much it references.
        context = small.build_context
        richer = dataclasses.replace(context, task_costs=context.task_costs * 50)
        flat = estimate_nbytes(one.scenarios[0])
        assert estimate_nbytes(context) == estimate_nbytes(richer) == flat
