"""repro -- Relative performance analysis for scientific computations on the edge.

Reproduction of "Performance Comparison for Scientific Computations on the
Edge via Relative Performance" (Sankaran & Bientinesi, IPPS 2021).

The package is organised as:

* :mod:`repro.core` -- the paper's contribution: three-way comparators,
  bubble sort with rank merging, relative-score clustering, baselines.
* :mod:`repro.measurement` -- measurement harness, datasets, noise injectors.
* :mod:`repro.devices` -- simulated heterogeneous platform (edge devices,
  accelerators, interconnects, energy) plus a host-based executor.
* :mod:`repro.cache` -- content fingerprints (SHA-256 over tagged binary
  encodings) and the bounded LRU ``TableCache`` behind cost-table reuse.
* :mod:`repro.tasks` -- linear-algebra workloads (GEMM / Regularised Least
  Squares loops), FLOP accounting, scientific-code task chains and DAGs.
* :mod:`repro.offload` -- the algorithm space induced by splitting a task
  chain (or graph) between devices.
* :mod:`repro.scenarios` -- condition-parameterized platforms: environment
  drift (link degradation, load, DVFS, prices) as scenario grids.
* :mod:`repro.selection` -- decision models for algorithm selection (cost /
  FLOPs / energy-aware switching / robust-across-drift).
* :mod:`repro.search` -- streaming search & selection over huge placement
  spaces (top-K, incremental Pareto frontier, constraints, sharded sweeps,
  robust grid search).
* :mod:`repro.service` -- the placement-query serving layer:
  ``PlacementService`` routes ``PlacementRequest`` objects planner-or-stream
  and serves repeated queries from content-addressed caches.
* :mod:`repro.experiments` -- one runner per paper table/figure.
* :mod:`repro.reporting` -- text tables, ASCII histograms, CSV export.

Quickstart::

    from repro import RelativePerformanceAnalyzer
    analyzer = RelativePerformanceAnalyzer(seed=0)
    result = analyzer.analyze({"DD": times_dd, "DA": times_da})
    print(result.summary())
"""

from .core import (
    AnalysisResult,
    BootstrapComparator,
    Comparator,
    Comparison,
    ComparisonEngine,
    FinalClustering,
    MannWhitneyComparator,
    MeanComparator,
    MedianComparator,
    MinimumComparator,
    PairwiseOracle,
    RelativePerformanceAnalyzer,
    ScoreTable,
    SortResult,
    bind_comparator,
    cluster_algorithms,
    final_assignment,
    relative_scores,
    three_way_bubble_sort,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "RelativePerformanceAnalyzer",
    "AnalysisResult",
    "BootstrapComparator",
    "Comparator",
    "Comparison",
    "MeanComparator",
    "MedianComparator",
    "MinimumComparator",
    "MannWhitneyComparator",
    "PairwiseOracle",
    "ScoreTable",
    "FinalClustering",
    "SortResult",
    "ComparisonEngine",
    "three_way_bubble_sort",
    "relative_scores",
    "final_assignment",
    "cluster_algorithms",
    "bind_comparator",
]
