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
At that size ``win_fraction_matrix`` (each array bootstrapped once, all
pairs compared in one broadcast) must take at most 3 ms: an absolute
ceiling, so a slower kernel fails here instead of hiding behind a ratio.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import BootstrapComparator, RelativePerformanceAnalyzer
from repro.core.clustering import final_assignment, relative_scores
from repro.core.sorting import three_way_bubble_sort

P_ALGORITHMS = 12
N_MEASUREMENTS = 30
REPETITIONS = 100
SPEEDUP_FLOOR = 5.0
#: Candidates per ``select`` job in perfbench (its top-16 sweep).
P_SELECT = 16
#: Seconds ``win_fraction_matrix`` may take at P_SELECT, best of five.
SELECT_MATRIX_CEILING_S = 0.003


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
    print(
        f"select size (p={P_SELECT}): analyze {select_analyze * 1e3:.1f} ms, "
        f"win_fraction_matrix {select_matrix * 1e3:.2f} ms "
        f"(ceiling {SELECT_MATRIX_CEILING_S * 1e3:.0f} ms)"
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
            },
            "select_workload": {
                "p_algorithms": P_SELECT,
                "n_measurements": N_MEASUREMENTS,
                "repetitions": REPETITIONS,
            },
            "speedups": {"engine": speedup},
            "floors": {"engine": SPEEDUP_FLOOR},
            "ceilings_s": {"select_win_fraction_matrix": SELECT_MATRIX_CEILING_S},
        },
    )

    # Identical outputs, not just statistically equivalent ones.
    assert result.score_table == seed_table
    assert result.final.as_dict() == seed_final.as_dict()
    assert result.canonical_sort.sequence == seed_canonical.sequence
    assert result.canonical_sort.ranks == seed_canonical.ranks
    assert speedup >= SPEEDUP_FLOOR, f"expected >= {SPEEDUP_FLOOR}x, got {speedup:.1f}x"
    assert select_matrix <= SELECT_MATRIX_CEILING_S, (
        f"win_fraction_matrix at p={P_SELECT} took {select_matrix * 1e3:.2f} ms, "
        f"ceiling {SELECT_MATRIX_CEILING_S * 1e3:.0f} ms"
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
