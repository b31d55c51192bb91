"""Benchmark the vectorized batch simulation engine vs. the per-placement path.

The acceptance workload evaluates the *whole* placement space of a 10-task
chain over the 3 devices of the smartphone-cloud platform -- ``3**10 = 59049``
placements, each profiled (noise-free record) and measured 30 times -- and
pits three implementations against each other:

* **sequential**: the seed per-placement path (enumerate ``Placement``
  objects, one ``execute`` per profile, one ``execute`` + noise draw per
  measurement vector, no caching);
* **batch / sequential-rng**: one vectorized batch execution, noise drawn per
  algorithm in the same RNG order -- **bit-for-bit identical** results;
* **batch / batched-rng**: same batch execution, each noise stage drawn once
  over the whole measurement matrix -- identical distribution, different
  stream, and the mode that makes ``m**k`` sweeps "as fast as the hardware
  allows".

Set ``BENCH_SIMULATOR_SMALL=1`` (the CI smoke job does) to run a reduced
2-device x 8-task workload with a 5x floor instead of the full acceptance
workload with its 50x floor.

The floors bound *ratios*, so a slower sequential reference would make the
batch paths look better.  Each timing therefore also has an absolute
ceiling, about 3x what it measured on a shared 2-vCPU x86-64 container
(full run: 30.4 s sequential, 0.70 s and 0.12 s batched; small run:
0.06-0.10 s, 4-6 ms and 1.8-2.4 ms).
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from repro.devices import SimulatedExecutor
from repro.devices.catalog import cpu_gpu_platform, smartphone_cloud_platform
from repro.measurement.dataset import MeasurementSet
from repro.offload import (
    AlgorithmProfile,
    enumerate_algorithms,
    placement_matrix,
    profiles_from_batch,
)
from repro.tasks import TaskChain
from repro.tasks.rls import RegularizedLeastSquaresTask

SMALL = os.environ.get("BENCH_SIMULATOR_SMALL", "") not in ("", "0")

if SMALL:
    PLATFORM_FACTORY = cpu_gpu_platform
    N_TASKS = 8
    BATCHED_RNG_FLOOR = 5.0
    SEQUENTIAL_RNG_FLOOR = 3.0
    CEILINGS_S = {"sequential": 0.3, "batch_sequential_rng": 0.02, "batch_batched_rng": 0.008}
else:
    PLATFORM_FACTORY = smartphone_cloud_platform
    N_TASKS = 10
    BATCHED_RNG_FLOOR = 50.0
    SEQUENTIAL_RNG_FLOOR = 10.0
    CEILINGS_S = {"sequential": 90.0, "batch_sequential_rng": 2.1, "batch_batched_rng": 0.4}

REPETITIONS = 30
SEED = 0


def _chain(n_tasks: int = N_TASKS) -> TaskChain:
    """An n-task RLS chain with mixed task sizes (small and large solves)."""
    tasks = [
        RegularizedLeastSquaresTask(size=40 + 12 * i, iterations=4, name=f"L{i + 1}")
        for i in range(n_tasks)
    ]
    return TaskChain(tasks, name=f"bench-rls-{n_tasks}")


def _sequential_evaluate(chain, platform, repetitions, seed):
    """Replica of the seed path: per-placement execution, no cache, no batching."""
    executor = SimulatedExecutor(platform, seed=seed, cache_executions=False)
    algorithms = enumerate_algorithms(chain, platform)
    profiles = {
        algorithm.label: AlgorithmProfile(
            algorithm=algorithm,
            record=executor.execute(algorithm.chain, algorithm.placement.devices),
        )
        for algorithm in algorithms
    }
    measurements = MeasurementSet(metric="execution time", unit="s")
    for algorithm in algorithms:
        measurements.add(
            algorithm.label,
            executor.measure(algorithm.chain, algorithm.placement.devices, repetitions),
        )
    return algorithms, profiles, measurements


def _batch_evaluate(chain, platform, repetitions, seed, rng_mode):
    """The batch engine path: matrix enumeration + vectorized execution."""
    executor = SimulatedExecutor(platform, seed=seed)
    matrix = placement_matrix(len(chain), len(platform.aliases))
    space = executor.execute_batch(chain, matrix)
    measurements = executor.measure_batch(space, repetitions=repetitions, rng_mode=rng_mode)
    return space, measurements


def test_batch_engine_speedup(benchmark, bench_once, bench_json):
    """Batch engine vs. the sequential path on the full ``m**k`` space."""
    platform = PLATFORM_FACTORY()
    chain = _chain()
    n_placements = len(platform.aliases) ** len(chain)

    # Warm both code paths on a tiny space so lazy NumPy/interpreter setup is
    # not billed to either timed region, and time the batch paths before the
    # sequential one: the latter keeps ~n_placements Python objects alive,
    # which would otherwise tax the batch region with full GC traversals.
    warm_chain = _chain(3)
    _sequential_evaluate(warm_chain, platform, 3, SEED)
    _batch_evaluate(warm_chain, platform, 3, SEED, "batched")

    gc.collect()
    start = time.perf_counter()
    space, exact_measurements = _batch_evaluate(chain, platform, REPETITIONS, SEED, "sequential")
    batch_exact_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    _, fast_measurements = _batch_evaluate(chain, platform, REPETITIONS, SEED, "batched")
    batch_fast_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    algorithms, seq_profiles, seq_measurements = _sequential_evaluate(
        chain, platform, REPETITIONS, SEED
    )
    sequential_s = time.perf_counter() - start

    # -- equivalence (untimed) ------------------------------------------------
    # The sequential-rng batch set is bit-for-bit identical to the seed path.
    assert exact_measurements.labels == seq_measurements.labels
    for label in seq_measurements.labels:
        assert np.array_equal(exact_measurements[label], seq_measurements[label])
    # Batch profiles materialise records bitwise identical to execute().
    rng = np.random.default_rng(123)
    for index in rng.choice(n_placements, size=min(50, n_placements), replace=False):
        algorithm = algorithms[int(index)]
        assert space.record(int(index)) == seq_profiles[algorithm.label].record
    # The batched-rng mode only claims the same distribution: sanity-check it.
    assert fast_measurements.labels == seq_measurements.labels
    fast_medians = np.array([np.median(fast_measurements[l]) for l in fast_measurements.labels])
    assert np.all(fast_medians > 0)
    assert np.all(np.abs(fast_medians / space.total_time_s - 1.0) < 0.5)

    exact_speedup = sequential_s / batch_exact_s
    fast_speedup = sequential_s / batch_fast_s
    print(
        f"\n{platform.name}: {n_placements} placements x ({REPETITIONS} measurements + profile)"
        f"\n  sequential path:        {sequential_s:8.3f} s"
        f"\n  batch (sequential rng): {batch_exact_s:8.3f} s  ({exact_speedup:6.1f}x, floor {SEQUENTIAL_RNG_FLOOR}x)"
        f"\n  batch (batched rng):    {batch_fast_s:8.3f} s  ({fast_speedup:6.1f}x, floor {BATCHED_RNG_FLOOR}x)"
    )
    seconds = {
        "sequential": sequential_s,
        "batch_sequential_rng": batch_exact_s,
        "batch_batched_rng": batch_fast_s,
    }
    bench_json(
        # The reduced smoke workload records under its own name so it never
        # clobbers the tracked acceptance-workload record.
        "simulator_small" if SMALL else "simulator",
        {
            "workload": {
                "platform": platform.name,
                "n_devices": len(platform.aliases),
                "n_tasks": len(chain),
                "n_placements": n_placements,
                "repetitions": REPETITIONS,
                "small": SMALL,
            },
            "seconds": seconds,
            "speedups": {
                "batch_sequential_rng": exact_speedup,
                "batch_batched_rng": fast_speedup,
            },
            "floors": {
                "batch_sequential_rng": SEQUENTIAL_RNG_FLOOR,
                "batch_batched_rng": BATCHED_RNG_FLOOR,
            },
            "ceilings_s": CEILINGS_S,
        },
    )
    for name, ceiling in CEILINGS_S.items():
        assert seconds[name] <= ceiling, f"{name} took {seconds[name]:.4f} s, ceiling {ceiling} s"
    assert exact_speedup >= SEQUENTIAL_RNG_FLOOR, (
        f"bit-for-bit batch path regressed: {exact_speedup:.1f}x < {SEQUENTIAL_RNG_FLOOR}x"
    )
    assert fast_speedup >= BATCHED_RNG_FLOOR, (
        f"batched-rng batch path regressed: {fast_speedup:.1f}x < {BATCHED_RNG_FLOOR}x"
    )

    # One measured round for the pytest-benchmark record (the fast batch path).
    bench_once(benchmark, _batch_evaluate, chain, platform, REPETITIONS, SEED, "batched")


def test_chunked_space_streaming(benchmark, bench_once):
    """The chunked enumeration covers the space in bounded memory, same results."""
    platform = PLATFORM_FACTORY()
    chain = _chain(min(N_TASKS, 8))
    executor = SimulatedExecutor(platform, seed=SEED)
    full = executor.execute_batch(chain)

    def stream():
        chunks = list(executor.iter_execute_batches(chain, batch_size=1000))
        return chunks

    chunks = bench_once(benchmark, stream)
    assert all(len(c) <= 1000 for c in chunks)
    streamed_total = np.concatenate([c.total_time_s for c in chunks])
    assert np.array_equal(streamed_total, full.total_time_s)
    print(f"\n{len(full)} placements streamed in {len(chunks)} chunks of <= 1000 rows")
