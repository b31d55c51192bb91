"""High-level entry point: cluster a table of measurements into performance classes.

:class:`RelativePerformanceAnalyzer` wires together the pieces of the
methodology -- a three-way comparator, the bubble sort of Procedure 1 and the
relative-score clustering of Procedure 4 -- behind a single call::

    analyzer = RelativePerformanceAnalyzer(seed=0)
    analysis = analyzer.analyze({"DD": times_dd, "DA": times_da, ...})
    analysis.score_table        # rank -> {algorithm: relative score}
    analysis.final              # deterministic clusters (Table I style)
    analysis.best_algorithms()  # the fastest performance class

Every analysis is served through a per-table
:class:`~repro.core.engine.ComparisonEngine`, so a deterministic comparator
evaluates each pair of algorithms exactly once into one outcome matrix, over
which Procedure 4 runs all its sorts in lockstep.  Whole sweeps of
measurement tables (several chains, platforms or metrics) run as one
campaign through :meth:`RelativePerformanceAnalyzer.analyze_many`.

The analyzer makes no assumption about what the measurements are (execution
time, energy, ...); it only assumes that smaller is better unless the
comparator says otherwise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .clustering import final_assignment, relative_scores
from .comparison import BootstrapComparator
from .engine import ComparisonEngine, coerce_measurements
from .scores import FinalClustering, ScoreTable
from .sorting import SortResult, three_way_bubble_sort
from .types import ArrayComparator, Label

__all__ = ["RelativePerformanceAnalyzer", "AnalysisResult"]


MeasurementsLike = Mapping[Label, "np.ndarray | Sequence[float]"]


@dataclass(frozen=True)
class AnalysisResult:
    """Full output of one relative-performance analysis."""

    #: Measurements the analysis was run on (label -> 1-D array).
    measurements: Mapping[Label, np.ndarray] = field(repr=False)
    #: Relative scores per rank (Procedure 4 output).
    score_table: ScoreTable
    #: Deterministic final assignment derived from the score table.
    final: FinalClustering
    #: A single canonical sort of the algorithms in their given order (Procedure 1).
    canonical_sort: SortResult
    #: Number of Procedure-4 repetitions used.
    repetitions: int

    @property
    def n_clusters(self) -> int:
        return self.final.n_clusters

    def cluster_of(self, label: Label) -> int:
        return self.final.cluster_of(label)

    def best_algorithms(self) -> list[Label]:
        """Algorithms in the fastest performance class (cluster 1)."""
        return self.final.best_cluster()

    def clusters(self) -> dict[int, list[Label]]:
        return {cluster: [e.label for e in entries] for cluster, entries in self.final}

    def summary(self) -> str:
        """Paper-style cluster table as a multi-line string (see Table I)."""
        lines = ["Cluster  Algorithm  Relative Score"]
        for cluster, entries in self.final:
            for i, entry in enumerate(entries):
                prefix = f"C{cluster}" if i == 0 else "  "
                lines.append(f"{prefix:<8} {str(entry.label):<10} {entry.score:.2f}")
        return "\n".join(lines)


@dataclass
class RelativePerformanceAnalyzer:
    """Cluster equivalent algorithms into performance classes from their measurements.

    Parameters
    ----------
    comparator:
        Array-level three-way comparator.  Defaults to the bootstrap
        quantile-profile comparator with the seed below.
    repetitions:
        Number of shuffled repetitions of the sorting procedure (``Rep``).
    seed:
        Seed for the shuffling generator (and the default comparator).
    shuffle:
        Whether to shuffle the algorithm order before each repetition.
    """

    comparator: ArrayComparator | None = None
    repetitions: int = 100
    seed: int | None = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.repetitions <= 0:
            raise ValueError("repetitions must be positive")
        if self.comparator is None:
            self.comparator = BootstrapComparator(seed=self.seed if self.seed is not None else 0)
        if not hasattr(self.comparator, "compare"):
            raise TypeError("comparator must expose a compare(a, b) method")

    # ------------------------------------------------------------------
    def engine_for(self, measurements: MeasurementsLike) -> ComparisonEngine:
        """Comparison engine bound to this analyzer's comparator and one measurement table."""
        return ComparisonEngine(measurements, self.comparator)

    def _score_with(self, labels: Sequence[Label], engine: ComparisonEngine) -> ScoreTable:
        return relative_scores(
            labels,
            engine,
            repetitions=self.repetitions,
            rng=self.seed,
            shuffle=self.shuffle,
        )

    def rank_once(
        self,
        measurements: MeasurementsLike,
        order: Sequence[Label] | None = None,
        record_trace: bool = False,
    ) -> SortResult:
        """Run a single three-way bubble sort (Procedure 1) over the measurements."""
        data = coerce_measurements(measurements)
        labels = list(order) if order is not None else list(data)
        missing = [label for label in labels if label not in data]
        if missing:
            raise KeyError(f"no measurements for algorithms {missing!r}")
        # The engine holds only the sorted arrays (an empty order sorts nothing).
        engine = ComparisonEngine({label: data[label] for label in labels} or data, self.comparator)
        return three_way_bubble_sort(labels, engine, record_trace=record_trace)

    def score(self, measurements: MeasurementsLike) -> ScoreTable:
        """Relative scores per rank (Procedure 4) without the final assignment."""
        engine = self.engine_for(measurements)
        return self._score_with(engine.labels, engine)

    def analyze(self, measurements: MeasurementsLike) -> AnalysisResult:
        """Full pipeline: canonical sort, relative scores and final clustering.

        One :class:`~repro.core.engine.ComparisonEngine` backs the whole
        analysis, so measurements are coerced and the comparator bound exactly
        once; with a deterministic comparator every pair of algorithms is
        evaluated exactly once for all ``repetitions`` sorts *and* the
        canonical sort.
        """
        engine = self.engine_for(measurements)
        table = self._score_with(engine.labels, engine)
        final = final_assignment(table)
        canonical = three_way_bubble_sort(engine.labels, engine)
        return AnalysisResult(
            measurements=engine.arrays,
            score_table=table,
            final=final,
            canonical_sort=canonical,
            repetitions=self.repetitions,
        )

    # Backwards-friendly alias matching the paper's terminology.
    cluster = analyze

    # ------------------------------------------------------------------
    def analyze_many(
        self, campaigns: Mapping[Label, MeasurementsLike]
    ) -> dict[Label, AnalysisResult]:
        """Analyze several measurement tables as one campaign.

        Each campaign entry is analyzed by an *independent copy* of this
        analyzer, so the result of every key equals
        ``copy.deepcopy(analyzer).analyze(measurements)`` regardless of dict
        order or of the other entries -- this matters for stochastic
        comparators, whose internal generator would otherwise thread state
        from one campaign into the next.

        Parameters
        ----------
        campaigns:
            Mapping from a campaign key (any hashable: scenario name, loop
            size, metric, platform, ...) to its measurement table.

        Returns
        -------
        dict
            ``key -> AnalysisResult`` in the input key order.
        """
        coerced = {key: coerce_measurements(m) for key, m in campaigns.items()}
        if not coerced:
            raise ValueError("at least one campaign is required")
        return {
            key: copy.deepcopy(self).analyze(data)
            for key, data in coerced.items()
        }
