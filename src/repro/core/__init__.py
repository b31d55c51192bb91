"""Relative-performance analysis core (the paper's primary contribution).

Public surface:

* three-way comparators (:mod:`repro.core.comparison`),
* the comparison engine, one outcome matrix per measurement table
  (:mod:`repro.core.engine`),
* the bubble sort with rank merging (:mod:`repro.core.sorting`),
* relative-score clustering and final assignment (:mod:`repro.core.clustering`),
* score/clustering containers (:mod:`repro.core.scores`),
* the high-level :class:`~repro.core.analyzer.RelativePerformanceAnalyzer`,
* single-statistic baseline rankers and stability metrics for ablations.
"""

from .analyzer import AnalysisResult, RelativePerformanceAnalyzer
from .baselines import SingleStatisticRanker, SingleStatisticRanking, rank_by_statistic
from .bootstrap import (
    BootstrapInterval,
    bootstrap_indices,
    bootstrap_quantiles,
    bootstrap_samples,
    bootstrap_statistic,
    percentile_interval,
)
from .clustering import cluster_algorithms, final_assignment, get_cluster, relative_scores
from .comparison import (
    DEFAULT_QUANTILES,
    BootstrapComparator,
    Comparator,
    IntervalOverlapComparator,
    MannWhitneyComparator,
    MeanComparator,
    MedianComparator,
    MinimumComparator,
    SingleStatisticComparator,
    derive_pair_rng,
)
from .engine import ComparisonEngine, coerce_measurements
from .scores import ClusterEntry, FinalClustering, ScoreTable, make_final_clustering
from .sorting import SortResult, SortStep, ranks_are_valid, three_way_bubble_sort
from .stability import (
    StabilityReport,
    cluster_partition_agreement,
    kendall_tau_distance,
    pairwise_order_agreement,
    stability_across_rounds,
)
from .types import (
    Comparison,
    ComparisonCounter,
    Label,
    PairwiseOracle,
    bind_comparator,
)

__all__ = [
    # types
    "Comparison",
    "Label",
    "PairwiseOracle",
    "ComparisonCounter",
    "bind_comparator",
    # bootstrap
    "bootstrap_indices",
    "bootstrap_samples",
    "bootstrap_statistic",
    "bootstrap_quantiles",
    "percentile_interval",
    "BootstrapInterval",
    # comparators
    "Comparator",
    "BootstrapComparator",
    "SingleStatisticComparator",
    "MeanComparator",
    "MedianComparator",
    "MinimumComparator",
    "MannWhitneyComparator",
    "IntervalOverlapComparator",
    "DEFAULT_QUANTILES",
    "derive_pair_rng",
    # engine
    "ComparisonEngine",
    "coerce_measurements",
    # sorting
    "three_way_bubble_sort",
    "SortResult",
    "SortStep",
    "ranks_are_valid",
    # clustering / scores
    "relative_scores",
    "get_cluster",
    "final_assignment",
    "cluster_algorithms",
    "ScoreTable",
    "FinalClustering",
    "ClusterEntry",
    "make_final_clustering",
    # analyzer
    "RelativePerformanceAnalyzer",
    "AnalysisResult",
    # baselines / stability
    "SingleStatisticRanker",
    "SingleStatisticRanking",
    "rank_by_statistic",
    "pairwise_order_agreement",
    "kendall_tau_distance",
    "cluster_partition_agreement",
    "stability_across_rounds",
    "StabilityReport",
]
