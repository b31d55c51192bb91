"""Tests for the single-statistic baseline rankers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SingleStatisticRanker, rank_by_statistic


class TestSingleStatisticRanker:
    def test_mean_ranking_order(self, well_separated_measurements):
        ranking = SingleStatisticRanker("mean").rank(well_separated_measurements)
        assert ranking.order == ("fast", "medium", "slow", "slowest")
        assert ranking.ranks["fast"] == 1
        assert ranking.ranks["slowest"] == 4
        assert ranking.best() == "fast"

    def test_named_statistics(self):
        data = {"a": np.array([1.0, 3.0]), "b": np.array([2.0, 2.1])}
        assert SingleStatisticRanker("mean").rank(data).best() == "a"
        assert SingleStatisticRanker("min").rank(data).best() == "a"
        assert SingleStatisticRanker("median").rank(data).best() == "a"
        assert SingleStatisticRanker("max").rank(data).best() == "b"
        assert SingleStatisticRanker("p90").rank(data).best() == "b"

    def test_callable_statistic(self):
        data = {"a": np.array([1.0, 100.0]), "b": np.array([5.0, 6.0])}
        ranking = SingleStatisticRanker(lambda x: float(np.var(x))).rank(data)
        assert ranking.best() == "b"
        assert ranking.statistic == "<lambda>"

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ValueError):
            SingleStatisticRanker("geometric-mean")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SingleStatisticRanker("mean", rel_tolerance=-1)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="rel_tolerance"):
            SingleStatisticRanker("mean", rel_tolerance=tolerance)

    def test_empty_measurements_rejected(self):
        with pytest.raises(ValueError):
            SingleStatisticRanker("mean").rank({})

    def test_tolerance_groups_near_ties(self):
        data = {"a": np.array([1.00]), "b": np.array([1.01]), "c": np.array([2.0])}
        ranking = SingleStatisticRanker("mean", rel_tolerance=0.05).rank(data)
        assert ranking.ranks["a"] == ranking.ranks["b"] == 1
        assert ranking.ranks["c"] == 2
        assert ranking.n_classes == 2
        assert ranking.clusters() == {1: ["a", "b"], 2: ["c"]}

    def test_zero_tolerance_separates_everything(self):
        data = {"a": np.array([1.00]), "b": np.array([1.000001]), "c": np.array([2.0])}
        ranking = SingleStatisticRanker("mean").rank(data)
        assert ranking.n_classes == 3

    def test_exact_ties_share_rank_even_with_zero_tolerance(self):
        data = {"a": np.array([1.0]), "b": np.array([1.0])}
        ranking = SingleStatisticRanker("mean").rank(data)
        assert ranking.ranks["a"] == ranking.ranks["b"] == 1

    def test_higher_is_better(self):
        data = {"a": np.array([10.0]), "b": np.array([1.0])}
        ranking = SingleStatisticRanker("mean", lower_is_better=False).rank(data)
        assert ranking.best() == "a"


class TestRankByStatistic:
    def test_convenience_wrapper(self, well_separated_measurements):
        ranking = rank_by_statistic(well_separated_measurements, "median")
        assert ranking.best() == "fast"
        assert ranking.statistic == "median"

    def test_instability_of_single_numbers_under_noise(self):
        """The motivating observation of the paper: with noisy, overlapping distributions
        the mean-based winner flips between measurement rounds, even though the two
        algorithms are statistically equivalent."""
        rng = np.random.default_rng(42)
        winners = set()
        for _ in range(20):
            data = {
                "x": rng.lognormal(mean=0.0, sigma=0.25, size=15),
                "y": rng.lognormal(mean=0.01, sigma=0.25, size=15),
            }
            winners.add(rank_by_statistic(data, "mean").best())
        assert winners == {"x", "y"}
