"""Randomized pins of Procedure 4 against the label-level bubble sort.

``three_way_bubble_sort`` moves int positions and keeps class-boundary flags,
and a precomputed :class:`~repro.core.engine.ComparisonEngine` hands it the
whole outcome table.  This file keeps the label-level formulation it replaced
(ranks shifted position by position, every comparison a ``compare`` call) as
the oracle: score tables, final clusterings, canonical sorts and traced
:class:`~repro.core.sorting.SortStep`\\ s must be identical, including the
insertion order of labels within each rank, for deterministic comparators,
stochastic comparators and plain user compare functions.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import (
    BootstrapComparator,
    Comparison,
    ComparisonEngine,
    MannWhitneyComparator,
    MeanComparator,
    RelativePerformanceAnalyzer,
    ScoreTable,
    SortResult,
    SortStep,
    final_assignment,
    relative_scores,
    three_way_bubble_sort,
)

# -- the label-level formulation, kept here as the oracle ----------------------


def _reference_equivalent(ranks: list[int], j: int) -> str:
    if ranks[j] != ranks[j + 1]:
        for k in range(j + 1, len(ranks)):
            ranks[k] -= 1
        return f"merge: ranks of positions {j + 1}.. decreased by 1"
    return "no rank update (already same class)"


def _reference_post_swap(ranks: list[int], j: int) -> str:
    same_as_predecessor = j > 0 and ranks[j] == ranks[j - 1]
    same_as_successor = ranks[j] == ranks[j + 1]
    if same_as_predecessor and not same_as_successor:
        for k in range(j + 1, len(ranks)):
            ranks[k] -= 1
        return f"merge: ranks of positions {j + 1}.. decreased by 1"
    if same_as_successor and not same_as_predecessor:
        for k in range(j + 1, len(ranks)):
            ranks[k] += 1
        return f"split: ranks of positions {j + 1}.. increased by 1"
    return "no rank update"


def _reference_sort(labels, compare, record_trace=False) -> SortResult:
    sequence = list(labels)
    p = len(sequence)
    ranks = list(range(1, p + 1))
    trace = []
    n_comparisons = 0
    for pass_index in range(1, p):
        for j in range(0, p - pass_index):
            left, right = sequence[j], sequence[j + 1]
            outcome = compare(left, right)
            n_comparisons += 1
            swapped = False
            if outcome is Comparison.WORSE:
                sequence[j], sequence[j + 1] = sequence[j + 1], sequence[j]
                swapped = True
                update = _reference_post_swap(ranks, j)
            elif outcome is Comparison.EQUIVALENT:
                update = _reference_equivalent(ranks, j)
            else:
                update = "no rank update"
            if record_trace:
                trace.append(
                    SortStep(
                        pass_index, j, left, right, outcome, swapped, update,
                        tuple(sequence), tuple(ranks),
                    )
                )
    return SortResult(tuple(sequence), tuple(ranks), tuple(trace), n_comparisons)


def _reference_scores(labels, compare, repetitions, seed) -> ScoreTable:
    generator = np.random.default_rng(seed)
    counts: dict[int, dict] = {}
    order = list(labels)
    for _ in range(repetitions):
        generator.shuffle(order)
        for label, rank in _reference_sort(order, compare).pairs():
            counts.setdefault(rank, {}).setdefault(label, 0)
            counts[rank][label] += 1
    return ScoreTable(
        {
            rank: {label: count / repetitions for label, count in entries.items()}
            for rank, entries in counts.items()
        }
    )


def _reference_analysis(table, comparator, repetitions, seed):
    """Per-call comparator binding, memoized only under the deterministic contract."""
    arrays = {label: np.asarray(values, dtype=float) for label, values in table.items()}
    memo: dict = {}

    def compare(a, b):
        if getattr(comparator, "stochastic", True) is not False:
            return comparator.compare(arrays[a], arrays[b])
        if (a, b) not in memo:
            memo[(a, b)] = comparator.compare(arrays[a], arrays[b])
            memo[(b, a)] = memo[(a, b)].flipped()
        return memo[(a, b)]

    scores = _reference_scores(list(arrays), compare, repetitions, seed)
    canonical = _reference_sort(list(arrays), compare)
    return scores, final_assignment(scores), canonical


def _random_table(rng: np.random.Generator) -> dict[str, np.ndarray]:
    p = int(rng.integers(1, 15))
    n = int(rng.integers(2, 40))
    return {
        f"alg{i:02d}": np.round(np.abs(rng.normal(2.0 + 0.05 * i, 0.3, size=n)), 1)
        for i in rng.permutation(p)
    }


COMPARATORS = {
    "bootstrap": lambda seed: BootstrapComparator(seed=seed, n_resamples=60),
    "bootstrap-stochastic": lambda seed: BootstrapComparator(
        seed=seed, n_resamples=40, stochastic=True
    ),
    "mean": lambda seed: MeanComparator(rel_tolerance=0.02),
    "mann-whitney": lambda seed: MannWhitneyComparator(),
}


@pytest.mark.parametrize("name", COMPARATORS)
@pytest.mark.parametrize("case", range(12))
def test_analysis_equals_label_level_procedure(name, case):
    rng = np.random.default_rng(500 + case)
    table = _random_table(rng)
    repetitions = int(rng.integers(1, 30))
    comparator = COMPARATORS[name](case)
    result = RelativePerformanceAnalyzer(
        comparator=copy.deepcopy(comparator), repetitions=repetitions, seed=case
    ).analyze(table)
    scores, final, canonical = _reference_analysis(
        table, copy.deepcopy(comparator), repetitions, case
    )
    assert repr(result.score_table) == repr(scores)
    assert repr(result.final) == repr(final)
    assert result.final.as_dict() == final.as_dict()
    assert repr(result.canonical_sort) == repr(canonical)


@pytest.mark.parametrize("name", COMPARATORS)
@pytest.mark.parametrize("case", range(6))
def test_traced_sort_equals_label_level_procedure(name, case):
    rng = np.random.default_rng(900 + case)
    table = _random_table(rng)
    comparator = COMPARATORS[name](case)
    order = list(rng.permutation(list(table)))
    traced = three_way_bubble_sort(
        order, ComparisonEngine(table, copy.deepcopy(comparator)), record_trace=True
    )
    # A lazy engine serves the oracle one compare call at a time.
    lazy = ComparisonEngine(table, copy.deepcopy(comparator), precompute=False)
    reference = _reference_sort(order, lazy.compare, record_trace=True)
    assert repr(traced) == repr(reference)
    assert traced.trace == reference.trace


def _random_compare_fn(seed: int, p_equivalent: float):
    """A user CompareFn drawing fresh outcomes on every call (not antisymmetric)."""
    generator = np.random.default_rng(seed)
    outcomes = (Comparison.BETTER, Comparison.WORSE, Comparison.EQUIVALENT)
    weights = [(1 - p_equivalent) / 2, (1 - p_equivalent) / 2, p_equivalent]

    def compare(a, b):
        return outcomes[int(generator.choice(3, p=weights))]

    return compare


@pytest.mark.parametrize("case", range(10))
def test_user_compare_fn_equals_label_level_procedure(case):
    rng = np.random.default_rng(case)
    labels = [f"x{i}" for i in rng.permutation(int(rng.integers(0, 13)))]
    p_equivalent = float(rng.random())
    traced = three_way_bubble_sort(
        labels, _random_compare_fn(case, p_equivalent), record_trace=True
    )
    reference = _reference_sort(labels, _random_compare_fn(case, p_equivalent), record_trace=True)
    assert repr(traced) == repr(reference)
    scores = relative_scores(labels or ["x"], _random_compare_fn(case, p_equivalent), 25, rng=case)
    expected = _reference_scores(labels or ["x"], _random_compare_fn(case, p_equivalent), 25, case)
    assert repr(scores) == repr(expected)


def test_engine_counts_table_lookups_as_served():
    rng = np.random.default_rng(3)
    table = {f"a{i}": rng.normal(2 + 0.1 * i, 0.2, 20) for i in range(7)}
    engine = ComparisonEngine(table, BootstrapComparator(seed=0, n_resamples=50))
    three_way_bubble_sort(list(table), engine)
    three_way_bubble_sort(list(table)[:4], engine)
    assert engine.lookups == 7 * 6 // 2 + 4 * 3 // 2
    assert engine.comparator_calls == 7 * 6 // 2


def test_unknown_label_still_reaches_the_engine_error():
    table = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
    engine = ComparisonEngine(table, BootstrapComparator(seed=0, n_resamples=20))
    with pytest.raises(KeyError, match="no measurements recorded"):
        three_way_bubble_sort(["a", "missing"], engine)
