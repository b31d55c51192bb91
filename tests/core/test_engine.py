"""Tests for the pairwise comparison engine (outcome matrices, pass-through, campaigns)."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BootstrapComparator,
    Comparison,
    ComparisonCounter,
    ComparisonEngine,
    IntervalOverlapComparator,
    MannWhitneyComparator,
    MeanComparator,
    MedianComparator,
    MinimumComparator,
    RelativePerformanceAnalyzer,
    relative_scores,
    three_way_bubble_sort,
)

DETERMINISTIC_COMPARATORS = [
    BootstrapComparator(seed=1),
    BootstrapComparator(seed=1, n_resamples=80, quantiles=(0.25, 0.5, 0.75)),
    MeanComparator(rel_tolerance=0.02),
    MedianComparator(rel_tolerance=0.02),
    MinimumComparator(rel_tolerance=0.02),
    MannWhitneyComparator(),
    IntervalOverlapComparator(seed=1),
]


def _ids(comparator) -> str:
    return type(comparator).__name__ + getattr(comparator, "name", "")


@pytest.fixture
def table(rng) -> dict[str, np.ndarray]:
    """Six overlapping algorithms, enough for borderline comparisons."""
    return {
        f"alg{i}": np.abs(rng.normal(2.0 + 0.08 * i, 0.25, size=40)) for i in range(6)
    }


class _CountingComparator:
    """Array-level wrapper counting how often each unordered pair is evaluated."""

    def __init__(self, inner):
        self.inner = inner
        self.stochastic = bool(getattr(inner, "stochastic", False))
        self.pair_counts: dict[tuple[bytes, bytes], int] = {}

    def compare(self, a, b):
        key = tuple(sorted((a.tobytes(), b.tobytes())))
        self.pair_counts[key] = self.pair_counts.get(key, 0) + 1
        return self.inner.compare(a, b)


class TestEngineOutcomes:
    @pytest.mark.parametrize("comparator", DETERMINISTIC_COMPARATORS, ids=_ids)
    def test_cached_identical_to_uncached_for_every_pair(self, table, comparator):
        """Engine outcomes are bitwise identical to direct comparator calls."""
        engine = ComparisonEngine(table, comparator)
        for a in table:
            for b in table:
                assert engine.compare(a, b) is comparator.compare(table[a], table[b])

    @pytest.mark.parametrize("comparator", DETERMINISTIC_COMPARATORS, ids=_ids)
    def test_outcome_table_is_antisymmetric(self, table, comparator):
        outcomes = ComparisonEngine(table, comparator).outcome_table()
        for a in table:
            for b in table:
                assert outcomes[(a, b)] is outcomes[(b, a)].flipped()
                if a == b:
                    assert outcomes[(a, b)] is Comparison.EQUIVALENT

    def test_outcome_matrix_equals_the_per_pair_loop(self, table):
        """The comparator's batched outcome_matrix and the engine's own loop
        over compare (i < j, mirrored) build the same codes."""
        comparator = BootstrapComparator(seed=3)
        batched = ComparisonEngine(table, comparator)
        looped = ComparisonEngine(table, _CountingComparator(comparator))
        assert batched.codes.dtype == np.int8
        assert np.array_equal(batched.codes, looped.codes)
        assert batched.outcome_table() == looped.outcome_table()

    def test_zero_margin_exact_tie_is_equivalent_in_every_mode(self):
        """A win fraction of exactly 0.5 is a perfect tie: EQUIVALENT in both
        directions, identically for direct calls, the batched matrix and the
        per-pair loop."""
        comparator = BootstrapComparator(seed=0, equivalence_margin=0.0)
        data = np.array([1.0, 2.0, 3.0, 4.0])
        table = {"a": data, "b": data.copy()}
        assert comparator.compare(data, data.copy()) is Comparison.EQUIVALENT
        for bound in (comparator, _CountingComparator(comparator)):
            engine = ComparisonEngine(table, bound)
            assert engine.compare("a", "b") is Comparison.EQUIVALENT
            assert engine.compare("b", "a") is Comparison.EQUIVALENT

    def test_win_fraction_matrix_bitwise_identical_to_per_call(self, table):
        comparator = BootstrapComparator(seed=5)
        arrays = list(table.values())
        matrix = comparator.win_fraction_matrix(arrays)
        for i, a in enumerate(arrays):
            for j, b in enumerate(arrays):
                if i == j:
                    assert matrix[i, j] == 0.5
                else:
                    assert matrix[i, j] == comparator.win_fraction(a, b)

    def test_win_fraction_matrix_handles_mixed_lengths(self, rng):
        comparator = BootstrapComparator(seed=0)
        arrays = [rng.normal(1, 0.1, 30), rng.normal(2, 0.1, 45), rng.normal(3, 0.1, 30)]
        matrix = comparator.win_fraction_matrix(arrays)
        for i, a in enumerate(arrays):
            for j, b in enumerate(arrays):
                if i != j:
                    assert matrix[i, j] == comparator.win_fraction(a, b)

    def test_win_fraction_matrix_rejects_stochastic_mode(self, table):
        with pytest.raises(ValueError):
            BootstrapComparator(seed=0, stochastic=True).win_fraction_matrix(
                list(table.values())
            )

    def test_unknown_label_raises_key_error(self, table):
        engine = ComparisonEngine(table, MeanComparator())
        with pytest.raises(KeyError):
            engine.compare("alg0", "missing")

    def test_rejects_comparator_without_compare(self, table):
        with pytest.raises(TypeError):
            ComparisonEngine(table, "not a comparator")


class TestStochasticBypass:
    def test_stochastic_comparator_bypasses_the_cache(self, table):
        """Every call reaches the comparator: borderline pairs may switch outcome."""
        comparator = _CountingComparator(BootstrapComparator(seed=0, stochastic=True))
        engine = ComparisonEngine(table, comparator)
        for _ in range(7):
            engine.compare("alg0", "alg1")
        assert engine.comparator_calls == 7
        assert max(comparator.pair_counts.values()) == 7

    def test_stochastic_engine_preserves_comparator_stream(self, table):
        """Pass-through calls consume the comparator rng exactly like direct calls."""
        engine_comp = BootstrapComparator(seed=9, stochastic=True)
        direct_comp = BootstrapComparator(seed=9, stochastic=True)
        engine = ComparisonEngine(table, engine_comp)
        labels = list(table)
        for a, b in zip(labels, labels[1:]):
            assert engine.compare(a, b) is direct_comp.compare(table[a], table[b])

    def test_stochastic_engine_has_no_outcome_matrix(self, table):
        engine = ComparisonEngine(table, BootstrapComparator(seed=0, stochastic=True))
        assert engine.codes is None
        with pytest.raises(ValueError):
            engine.outcome_table()

    def test_comparator_without_stochastic_attribute_is_never_cached(self, table):
        """Caching is opt-in: unknown comparators might hide per-call randomness."""

        class OpaqueComparator:
            def __init__(self):
                self.calls = 0

            def compare(self, a, b):
                self.calls += 1
                return Comparison.EQUIVALENT

        comparator = OpaqueComparator()
        engine = ComparisonEngine(table, comparator)
        assert engine.stochastic  # pass-through mode
        for _ in range(4):
            engine.compare("alg0", "alg1")
        assert comparator.calls == 4

    def test_comparator_subclass_without_declaration_is_never_cached(self, table):
        """Subclassing the Comparator base alone does not opt into caching."""
        from repro.core import Comparator

        class LegacySubclass(Comparator):
            def __init__(self):
                self.calls = 0

            def compare(self, a, b):
                self.calls += 1
                return Comparison.EQUIVALENT

        comparator = LegacySubclass()
        engine = ComparisonEngine(table, comparator)
        assert engine.stochastic  # no stochastic=False declaration -> pass-through
        for _ in range(3):
            engine.compare("alg0", "alg1")
        assert comparator.calls == 3


class TestProcedure4Complexity:
    def test_procedure_4_bootstraps_each_pair_at_most_once(self, table):
        """Across Rep repetitions every unordered pair reaches the bootstrap <= once,
        while the sorts themselves still perform O(Rep * p^2) label-level comparisons."""
        comparator = _CountingComparator(BootstrapComparator(seed=2))
        engine = ComparisonEngine(table, comparator)
        counter = ComparisonCounter(engine)
        relative_scores(list(table), counter, repetitions=50, rng=0)
        p = len(table)
        assert counter.calls >= 50 * (p * (p - 1) // 2 - (p - 1))  # many label-level calls...
        assert comparator.pair_counts, "the bootstrap was never reached"
        assert max(comparator.pair_counts.values()) == 1  # ...each bootstrapped at most once
        assert len(comparator.pair_counts) <= p * (p - 1) // 2

    def test_precomputed_engine_serves_sorts_without_new_evaluations(self, table):
        analyzer = RelativePerformanceAnalyzer(
            comparator=BootstrapComparator(seed=0), repetitions=30, seed=0
        )
        engine = analyzer.engine_for(table)
        pairs = len(table) * (len(table) - 1) // 2
        assert engine.comparator_calls == pairs
        three_way_bubble_sort(list(table), engine)
        relative_scores(list(table), engine, repetitions=10, rng=0)
        assert engine.comparator_calls == pairs


class TestAnalyzerIntegration:
    def test_analyze_routes_through_one_engine(self, table):
        """analyze() == score() + final_assignment + canonical sort, deduplicated."""
        analyzer = RelativePerformanceAnalyzer(seed=4, repetitions=25)
        result = analyzer.analyze(table)
        assert result.score_table == analyzer.score(table)
        canonical = analyzer.rank_once(table)
        assert result.canonical_sort.sequence == canonical.sequence
        assert result.canonical_sort.ranks == canonical.ranks

    def test_rank_once_over_a_subset_only_evaluates_touched_pairs(self, table):
        """No eager p x p precomputation when `order` restricts the sort."""
        comparator = _CountingComparator(BootstrapComparator(seed=0))
        analyzer = RelativePerformanceAnalyzer(comparator=comparator, repetitions=5)
        labels = list(table)[:2]
        analyzer.rank_once(table, order=labels)
        assert len(comparator.pair_counts) == 1  # just the one adjacent pair

    def test_deterministic_analysis_unchanged_by_caching(self, table):
        """Engine-backed analyze equals the uncached seed implementation bit for bit."""
        analyzer = RelativePerformanceAnalyzer(
            comparator=BootstrapComparator(seed=0), repetitions=30, seed=0
        )
        result = analyzer.analyze(table)

        comparator = BootstrapComparator(seed=0)
        arrays = {k: np.asarray(v, float) for k, v in table.items()}
        uncached = relative_scores(
            list(arrays),
            lambda a, b: comparator.compare(arrays[a], arrays[b]),
            repetitions=30,
            rng=0,
        )
        assert result.score_table == uncached


class TestAnalyzeMany:
    def _campaigns(self, table):
        return {
            "base": table,
            "doubled": {k: v * 2.0 for k, v in table.items()},
            "shifted": {k: v + 1.0 for k, v in table.items()},
        }

    def test_matches_sequential_analyze_per_key(self, table):
        analyzer = RelativePerformanceAnalyzer(seed=0, repetitions=20)
        campaigns = self._campaigns(table)
        results = analyzer.analyze_many(campaigns)
        assert list(results) == list(campaigns)
        for key, measurements in campaigns.items():
            solo = RelativePerformanceAnalyzer(seed=0, repetitions=20).analyze(measurements)
            assert results[key].score_table == solo.score_table
            assert results[key].final.as_dict() == solo.final.as_dict()

    def test_stochastic_campaigns_are_order_independent(self, table):
        """Each entry gets an independent comparator copy, so dict order is irrelevant."""
        campaigns = self._campaigns(table)
        reversed_campaigns = dict(reversed(campaigns.items()))

        def analyzer():
            return RelativePerformanceAnalyzer(
                comparator=BootstrapComparator(seed=0, stochastic=True),
                repetitions=15,
                seed=0,
            )

        forward = analyzer().analyze_many(campaigns)
        backward = analyzer().analyze_many(reversed_campaigns)
        for key in campaigns:
            assert forward[key].score_table == backward[key].score_table

    def test_each_entry_equals_a_deepcopied_analyzer(self, table):
        campaigns = self._campaigns(table)
        analyzer = RelativePerformanceAnalyzer(
            comparator=BootstrapComparator(seed=1, stochastic=True), repetitions=15, seed=1
        )
        results = analyzer.analyze_many(campaigns)
        for key, measurements in campaigns.items():
            solo = copy.deepcopy(analyzer).analyze(measurements)
            assert results[key].score_table == solo.score_table
            assert results[key].final.as_dict() == solo.final.as_dict()

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            RelativePerformanceAnalyzer().analyze_many({})

    def test_does_not_mutate_the_calling_analyzer(self, table):
        """Campaign copies leave the analyzer's own comparator stream untouched."""
        analyzer = RelativePerformanceAnalyzer(
            comparator=BootstrapComparator(seed=0, stochastic=True), repetitions=10, seed=0
        )
        probe = copy.deepcopy(analyzer)
        analyzer.analyze_many(self._campaigns(table))
        assert analyzer.analyze(table).score_table == probe.analyze(table).score_table


#: The built-in comparators that declare ``stochastic = False``.
ANTISYMMETRIC_BUILTINS = [
    MeanComparator(),
    MeanComparator(rel_tolerance=0.1),
    MedianComparator(rel_tolerance=0.1),
    MinimumComparator(),
    MannWhitneyComparator(),
    IntervalOverlapComparator(seed=1, n_resamples=40),
    BootstrapComparator(seed=1, n_resamples=40),
    BootstrapComparator(seed=2, n_resamples=30, equivalence_margin=0.0, quantiles=(0.5,)),
]


@st.composite
def _measurement_pairs(draw):
    """Two arrays of mixed widths over a coarse grid (so ties are common),
    sometimes identical or a permutation of each other."""
    values = st.lists(st.integers(1, 6), min_size=1, max_size=12)
    a = np.array(draw(values), dtype=float) * 0.5
    kind = draw(st.sampled_from(["independent", "identical", "permuted"]))
    if kind == "identical":
        return a, a.copy()
    if kind == "permuted":
        return a, a[::-1].copy()
    return a, np.array(draw(values), dtype=float) * 0.5


@given(pair=_measurement_pairs())
@settings(max_examples=60, deadline=None)
def test_builtin_deterministic_comparators_are_antisymmetric(pair):
    """The outcome matrix evaluates each pair in the i < j direction only and
    mirrors it, which is exact only because every built-in deterministic
    comparator returns the flip of compare(b, a) from compare(a, b)."""
    a, b = pair
    for comparator in ANTISYMMETRIC_BUILTINS:
        assert comparator.compare(a, b) is comparator.compare(b, a).flipped()
