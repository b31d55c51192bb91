"""Benchmark the placement service: cold table builds vs cache-served queries.

A :class:`~repro.service.PlacementService` answers every query through two
content-addressed layers: the first (cold) submission of each configuration
pays the cost-table build plus the engine, while every later (hot)
submission of a *structurally equal* request -- same
workload/platform/scenario content, any object identity -- is served whole
from the response cache (and its tables from the shared table cache).

The benchmark submits a mixed query stream (plain, scenario-grid and
fault-aware requests over two chain lengths) against a fresh service, then
replays structurally equal clones of the same stream hot.  Hot responses
must agree **bitwise** with the cold ones (asserted untimed) and every hot
query must report ``served_from_cache``; hot throughput must beat cold
throughput by the speedup floor.

The hot pass replays the *same* clone objects every round, so after its
first round each request's key is memoized on its objects.  A second hot
pass builds every round's requests from new objects (untimed), as a serving
client does, so each query pays its full request key: that is the response
cache's hit path, and it has a floor of its own against the cold pass.

Set ``BENCH_SERVICE_SMALL=1`` (the CI smoke job does) for a reduced stream
with a relaxed floor.  Results land in ``BENCH_service.json`` /
``BENCH_service_small.json``.
"""

from __future__ import annotations

import gc
import os
import time

from repro.devices import lte, wifi_ac
from repro.faults import RetryPolicy
from repro.scenarios import link_degradation_grid
from repro.service import PlacementRequest, PlacementService
from repro.tasks import RegularizedLeastSquaresTask, TaskChain

SMALL = os.environ.get("BENCH_SERVICE_SMALL", "") not in ("", "0")

if SMALL:
    CHAIN_SIZES = (4, 5)
    N_POINTS = 3  # scenarios per grid request
    HOT_ROUNDS = 5
    SPEEDUP_FLOOR = 3.0
    NEW_OBJECTS_FLOOR = 15.0
else:
    CHAIN_SIZES = (5, 6, 7)
    N_POINTS = 5
    HOT_ROUNDS = 10
    SPEEDUP_FLOOR = 10.0
    NEW_OBJECTS_FLOOR = 30.0

RADIO = (("D", "E"), ("D", "A"), ("N", "E"), ("N", "A"), ("E", "A"))
RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001)


def build_chain(n_tasks: int) -> TaskChain:
    tasks = [
        RegularizedLeastSquaresTask(
            size=60 + 40 * i, iterations=8, name=f"L{i + 1}", generate_on_host=False
        )
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"bench-service-{n_tasks}")


def build_queries() -> list[PlacementRequest]:
    """The mixed stream: plain, robust-grid and fault-aware queries per chain.

    Workloads and grids are built fresh on every call, so replaying the
    stream exercises *content*-addressed reuse, never object identity.
    """
    grid = link_degradation_grid(RADIO, start=wifi_ac(), end=lte(), n_points=N_POINTS)
    queries: list[PlacementRequest] = []
    for n_tasks in CHAIN_SIZES:
        chain = build_chain(n_tasks)
        queries.append(PlacementRequest(workload=chain, platform="edge-cluster"))
        queries.append(
            PlacementRequest(workload=chain, platform="edge-cluster", objective="energy")
        )
        queries.append(
            PlacementRequest(workload=chain, platform="edge-cluster", scenario_grid=grid)
        )
        queries.append(
            PlacementRequest(workload=chain, platform="edge-cluster", retry=RETRY)
        )
    return queries


def _submit_all(service: PlacementService, queries: list[PlacementRequest]):
    return [service.submit(query) for query in queries]


def test_hot_queries_beat_cold_builds(benchmark, bench_once, bench_json):
    """Cache-served queries: bitwise the cold answers, at a fraction of the cost."""
    # Warm lazy imports and allocator on a throwaway service + tiny stream.
    warm = PlacementService()
    warm.submit(PlacementRequest(workload=build_chain(2), platform="edge-cluster"))

    service = PlacementService()
    cold_queries = build_queries()
    gc.collect()
    start = time.perf_counter()
    cold_responses = _submit_all(service, cold_queries)
    cold_s = time.perf_counter() - start

    hot_queries = build_queries()  # structurally equal, different objects
    gc.collect()
    start = time.perf_counter()
    for _ in range(HOT_ROUNDS):
        hot_responses = _submit_all(service, hot_queries)
    hot_s = (time.perf_counter() - start) / HOT_ROUNDS

    new_objects_s = 0.0
    for _ in range(HOT_ROUNDS):
        queries = build_queries()  # every round's requests are new objects
        gc.collect()
        start = time.perf_counter()
        new_object_responses = _submit_all(service, queries)
        new_objects_s += time.perf_counter() - start
    new_objects_s /= HOT_ROUNDS

    # -- equivalence (untimed): every hot answer bitwise the cold one --------
    for cold, hot, new in zip(cold_responses, hot_responses, new_object_responses):
        assert hot.plan == cold.plan == new.plan
        assert hot.value == cold.value == new.value
        assert hot.engine == cold.engine == new.engine
        assert hot.cache_info.served_from_cache, hot.request
        assert new.cache_info.response_hit, new.request
    assert any(not r.cache_info.served_from_cache for r in cold_responses)

    n_queries = len(cold_queries)
    cold_qps = n_queries / cold_s
    hot_qps = n_queries / hot_s
    new_objects_qps = n_queries / new_objects_s
    speedup = hot_qps / cold_qps
    new_objects_speedup = new_objects_qps / cold_qps
    stats = service.cache_stats()
    print(
        f"\nplacement service: {n_queries} mixed queries "
        f"(chains {CHAIN_SIZES}, {N_POINTS}-point grid, faults)"
        f"\n  cold (table builds):  {cold_s * 1e3:8.1f} ms  ({cold_qps:8.1f} q/s)"
        f"\n  hot  (cache-served):  {hot_s * 1e3:8.1f} ms  ({hot_qps:8.1f} q/s, "
        f"{speedup:5.1f}x, floor {SPEEDUP_FLOOR}x)"
        f"\n  hot, new objects:    {new_objects_s * 1e3:8.1f} ms  ({new_objects_qps:8.1f} q/s, "
        f"{new_objects_speedup:5.1f}x, floor {NEW_OBJECTS_FLOOR}x)"
        f"\n  table cache: {stats.entries} entries, {stats.nbytes / 1e3:.1f} kB, "
        f"hit rate {stats.hit_rate:.2f}"
    )

    bench_json(
        "service_small" if SMALL else "service",
        {
            "workload": {
                "platform": "edge-cluster",
                "n_queries": n_queries,
                "chain_sizes": list(CHAIN_SIZES),
                "n_scenarios": N_POINTS,
                "hot_rounds": HOT_ROUNDS,
                "small": SMALL,
            },
            "seconds": {
                "cold_pass": cold_s,
                "hot_pass": hot_s,
                "hot_new_objects_pass": new_objects_s,
            },
            "queries_per_s": {"cold": cold_qps, "hot": hot_qps, "hot_new_objects": new_objects_qps},
            "speedups": {"hot_queries": speedup, "hot_new_objects": new_objects_speedup},
            "floors": {"hot_queries": SPEEDUP_FLOOR, "hot_new_objects": NEW_OBJECTS_FLOOR},
        },
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"service cache regressed: hot queries only {speedup:.1f}x cold "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    assert new_objects_speedup >= NEW_OBJECTS_FLOOR, (
        f"request keying regressed: hot queries built from new objects only "
        f"{new_objects_speedup:.1f}x cold (floor {NEW_OBJECTS_FLOOR}x)"
    )

    bench_once(benchmark, _submit_all, service, hot_queries)
