"""Benchmark the comparison engine: cached vs. seed (uncached) analysis.

Procedure 4 repeats the three-way bubble sort ``Rep`` times, so the seed
implementation re-bootstrapped every pair of algorithms on every comparison --
up to ``Rep`` times per pair -- even though the deterministic comparator
guarantees an identical outcome on every call.  The
:class:`~repro.core.engine.ComparisonEngine` precomputes the full antisymmetric
outcome matrix in one vectorized batch and serves every lookup from cache.

This benchmark pits the engine-backed
:meth:`~repro.core.analyzer.RelativePerformanceAnalyzer.analyze` against a
faithful replica of the seed implementation (direct per-call comparator
binding, exactly the old ``bind_comparator``) on the acceptance workload
(p = 12 algorithms, N = 30 measurements, Rep = 100, deterministic
``BootstrapComparator``), asserting a >= 5x wall-clock speedup with *identical*
``ScoreTable`` and ``FinalClustering`` outputs.  It also records absolute
seconds at the size of perfbench's ``select`` analyses (p = 16, N = 30,
Rep = 100): one ``analyze`` and ``win_fraction_matrix`` alone, best of five.
At that size ``win_fraction_matrix`` (one draw per pair into one buffer,
quantiles read level by level) must equal, bit for bit, and beat by >= 1.5x
a replica of the stacked batch path it replaced.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import BootstrapComparator, RelativePerformanceAnalyzer
from repro.core.bootstrap import bootstrap_indices
from repro.core.clustering import final_assignment, relative_scores
from repro.core.sorting import three_way_bubble_sort

P_ALGORITHMS = 12
N_MEASUREMENTS = 30
REPETITIONS = 100
SPEEDUP_FLOOR = 5.0
#: Candidates per ``select`` job in perfbench (its top-16 sweep).
P_SELECT = 16
#: One-pass kernel over the stacked batch path, ``win_fraction_matrix`` at P_SELECT.
KERNEL_SPEEDUP_FLOOR = 1.5


def _workload(p: int = P_ALGORITHMS, n: int = N_MEASUREMENTS) -> dict[str, np.ndarray]:
    """p overlapping measurement distributions, N measurements each."""
    rng = np.random.default_rng(42)
    return {
        f"alg{i:02d}": np.abs(rng.normal(2.0 + 0.04 * i, 0.25, size=n)) for i in range(p)
    }


def _best_seconds(fn, *args, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _stacked_quantiles(rows, q):
    """Quantiles at levels ``q`` of sorted ``rows``, gathered with index arrays."""
    n = rows.shape[-1]
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    at_top = virtual >= n - 1
    below[at_top] = -1
    above[at_top] = -1
    below = below.astype(np.intp)
    gamma = virtual - below
    a = np.take(rows, below, axis=-1)
    b = np.take(rows, above.astype(np.intp), axis=-1)
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def _stacked_win_fraction_matrix(c: BootstrapComparator, arrays) -> np.ndarray:
    """Replica of the stacked batch path the one-pass kernel replaced.

    Per pair two fancy-indexed ``(R, n)`` resample matrices go into a list;
    each width is ``np.stack``-ed and sorted, its quantiles gathered with
    ``np.take`` index arrays, and the profiles are ``swapaxes``-copied
    before the interval sort.
    """
    q = np.asarray(c.quantiles, dtype=float)
    alpha = 1.0 - c.confidence
    bounds = np.array([alpha / 2.0, 1.0 - alpha / 2.0])
    vecs = [np.asarray(a, dtype=float) for a in arrays]
    blobs = [v.tobytes() for v in vecs]
    p = len(vecs)
    fractions = np.full((p, p), 0.5)
    slots = [
        (i, j) if blobs[i] < blobs[j] else (j, i)
        for i in range(p)
        for j in range(i + 1, p)
        if blobs[i] != blobs[j]
    ]
    for start in range(0, len(slots), 256):
        chunk = slots[start : start + 256]
        matrices = []
        for x, y in chunk:
            rng = c._rng_for(blobs[x], blobs[y])
            matrices.append(vecs[x][bootstrap_indices(vecs[x].size, c.n_resamples, rng)])
            matrices.append(vecs[y][bootstrap_indices(vecs[y].size, c.n_resamples, rng)])
        profiles = np.empty((len(matrices), c.n_resamples, q.size))
        by_width: dict[int, list[int]] = {}
        for index, m in enumerate(matrices):
            by_width.setdefault(m.shape[1], []).append(index)
        for indices in by_width.values():
            stacked = np.stack([matrices[i] for i in indices])
            stacked.sort(axis=-1)
            profiles[indices] = _stacked_quantiles(stacked, q)
        summaries = []
        for side in (profiles[0::2], profiles[1::2]):
            ordered = np.sort(np.swapaxes(side, -1, -2), axis=-1)
            low, high = np.moveaxis(_stacked_quantiles(ordered, bounds), -1, 0)
            summaries.append((low, high, np.mean(ordered[..., (c.n_resamples - 1) // 2 : c.n_resamples // 2 + 1], axis=-1)))
        (lo_a, hi_a, mid_a), (lo_b, hi_b, mid_b) = summaries
        tol = c.min_relative_difference * 0.5 * (np.abs(mid_a) + np.abs(mid_b))
        a_wins = (hi_a < lo_b) & (mid_b - mid_a > tol)
        b_wins = (hi_b < lo_a) & (mid_a - mid_b > tol)
        scores = np.where(a_wins, 1.0, np.where(b_wins, 0.0, 0.5))
        for (x, y), f in zip(chunk, scores.mean(axis=1)):
            fractions[x, y] = float(f)
            fractions[y, x] = 1.0 - float(f)
    return fractions


def _seed_analyze(measurements, comparator, repetitions, seed):
    """Replica of the seed implementation: per-call comparator binding, no caching."""
    arrays = {label: np.asarray(values, dtype=float) for label, values in measurements.items()}

    def compare(a, b):
        return comparator.compare(arrays[a], arrays[b])

    table = relative_scores(
        list(arrays), compare, repetitions=repetitions, rng=seed, shuffle=True
    )
    final = final_assignment(table)
    canonical = three_way_bubble_sort(list(arrays), compare)
    return table, final, canonical


def test_engine_speedup_over_seed_implementation(benchmark, bench_once, bench_json):
    """>= 5x faster than the seed path on p=12 / N=30 / Rep=100, identical outputs."""
    measurements = _workload()
    seed = 0
    analyzer = RelativePerformanceAnalyzer(
        comparator=BootstrapComparator(seed=seed), repetitions=REPETITIONS, seed=seed
    )

    start = time.perf_counter()
    seed_table, seed_final, seed_canonical = _seed_analyze(
        measurements, BootstrapComparator(seed=seed), REPETITIONS, seed
    )
    seed_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    result = analyzer.analyze(measurements)
    engine_elapsed = time.perf_counter() - start

    speedup = seed_elapsed / engine_elapsed
    print(
        f"\nseed implementation: {seed_elapsed:.3f} s   engine: {engine_elapsed:.3f} s   "
        f"speedup: {speedup:.1f}x  (floor: {SPEEDUP_FLOOR}x)"
    )

    select_measurements = _workload(P_SELECT)
    select_arrays = list(select_measurements.values())
    select_comparator = BootstrapComparator(seed=seed)
    select_analyze = _best_seconds(analyzer.analyze, select_measurements)
    select_matrix = _best_seconds(select_comparator.win_fraction_matrix, select_arrays)
    select_stacked = _best_seconds(_stacked_win_fraction_matrix, select_comparator, select_arrays)
    kernel_speedup = select_stacked / select_matrix
    print(
        f"select size (p={P_SELECT}): analyze {select_analyze * 1e3:.1f} ms, "
        f"win_fraction_matrix {select_matrix * 1e3:.1f} ms, stacked batch path "
        f"{select_stacked * 1e3:.1f} ms ({kernel_speedup:.2f}x, floor {KERNEL_SPEEDUP_FLOOR}x)"
    )

    bench_json(
        "engine",
        {
            "workload": {
                "p_algorithms": P_ALGORITHMS,
                "n_measurements": N_MEASUREMENTS,
                "repetitions": REPETITIONS,
            },
            "seconds": {
                "seed": seed_elapsed,
                "engine": engine_elapsed,
                "select_analyze": select_analyze,
                "select_win_fraction_matrix": select_matrix,
                "select_win_fraction_matrix_stacked": select_stacked,
            },
            "select_workload": {
                "p_algorithms": P_SELECT,
                "n_measurements": N_MEASUREMENTS,
                "repetitions": REPETITIONS,
            },
            "speedups": {"engine": speedup, "kernel": kernel_speedup},
            "floors": {"engine": SPEEDUP_FLOOR, "kernel": KERNEL_SPEEDUP_FLOOR},
        },
    )

    # Identical outputs, not just statistically equivalent ones.
    assert result.score_table == seed_table
    assert result.final.as_dict() == seed_final.as_dict()
    assert result.canonical_sort.sequence == seed_canonical.sequence
    assert result.canonical_sort.ranks == seed_canonical.ranks
    assert speedup >= SPEEDUP_FLOOR, f"expected >= {SPEEDUP_FLOOR}x, got {speedup:.1f}x"
    stacked = _stacked_win_fraction_matrix(select_comparator, select_arrays)
    assert select_comparator.win_fraction_matrix(select_arrays).tobytes() == stacked.tobytes()
    assert kernel_speedup >= KERNEL_SPEEDUP_FLOOR, (
        f"expected >= {KERNEL_SPEEDUP_FLOOR}x over the stacked batch path, got {kernel_speedup:.2f}x"
    )

    # One measured round for the record (the engine path).
    bench_once(benchmark, analyzer.analyze, measurements)


def test_engine_precomputes_each_pair_once(benchmark, bench_once):
    """The precomputed matrix serves ~Rep * p^2/2 lookups from p*(p-1)/2 pair evaluations."""
    measurements = _workload()
    analyzer = RelativePerformanceAnalyzer(
        comparator=BootstrapComparator(seed=0), repetitions=REPETITIONS, seed=0
    )
    engine = bench_once(benchmark, analyzer.engine_for, measurements)
    pairs = P_ALGORITHMS * (P_ALGORITHMS - 1) // 2
    assert engine.comparator_calls == pairs

    three_way_bubble_sort(list(measurements), engine)
    assert engine.comparator_calls == pairs  # all lookups served from the matrix
    print(f"\n{pairs} pair evaluations precomputed in one vectorized batch")


def test_analyze_many_campaign(benchmark, bench_once):
    """A whole sweep of scenarios runs as one campaign (sequential == parallel)."""
    rng = np.random.default_rng(7)
    campaigns = {
        f"scenario-{k}": {
            f"alg{i}": np.abs(rng.normal(1.5 + 0.1 * i + 0.3 * k, 0.2, size=N_MEASUREMENTS))
            for i in range(6)
        }
        for k in range(4)
    }
    analyzer = RelativePerformanceAnalyzer(
        comparator=BootstrapComparator(seed=0), repetitions=40, seed=0
    )

    results = bench_once(benchmark, analyzer.analyze_many, campaigns)
    assert set(results) == set(campaigns)

    parallel = analyzer.analyze_many(campaigns, parallel=True, max_workers=2)
    for key in campaigns:
        assert results[key].score_table == parallel[key].score_table
        assert results[key].final.as_dict() == parallel[key].final.as_dict()
    print(f"\ncampaign of {len(campaigns)} scenarios analyzed; parallel == sequential")
