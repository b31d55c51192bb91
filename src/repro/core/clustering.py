"""Relative-score clustering (Procedure 4) and the final cluster assignment.

When measurement distributions partially overlap, the outcome of the
three-way bubble sort depends on the (shuffled) initial order and on the
randomness inside the comparator; the clustering is therefore *not*
deterministic.  Procedure 4 embraces this: the sort is repeated ``Rep`` times
over shuffled inputs and each algorithm receives, for every rank it ever
obtained, a **relative score** equal to the fraction of repetitions in which
it obtained that rank.

The paper then derives a deterministic clustering for downstream use (e.g. as
ground truth for training performance models): each algorithm is assigned to
the rank where its relative score is maximal, and its final score cumulates
the scores from better ranks (Section III, "Computing the relative scores").
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .scores import ClusterEntry, FinalClustering, ScoreTable, make_final_clustering
from .sorting import three_way_bubble_sort
from .types import CompareFn, Label

__all__ = [
    "relative_scores",
    "get_cluster",
    "final_assignment",
    "cluster_algorithms",
]


def _normalise_labels(labels: Iterable[Label]) -> list[Label]:
    out = list(labels)
    if len(out) == 0:
        raise ValueError("at least one algorithm is required")
    if len(set(out)) != len(out):
        raise ValueError("algorithm labels must be unique")
    return out


def relative_scores(
    labels: Iterable[Label],
    compare: CompareFn,
    repetitions: int = 100,
    rng: np.random.Generator | int | None = None,
    shuffle: bool = True,
) -> ScoreTable:
    """Repeat the three-way sort over shuffled inputs and tally per-rank relative scores.

    This is Procedure 4 generalised to all ranks at once: the paper's
    ``GetCluster_r`` is recovered by :func:`get_cluster` or by indexing the
    returned :class:`~repro.core.scores.ScoreTable` with ``r``.

    Parameters
    ----------
    labels:
        Algorithm identifiers.
    compare:
        Label-level three-way comparison (bind a comparator to measurements
        with :func:`repro.core.types.bind_comparator`, or hand in a
        :class:`repro.core.engine.ComparisonEngine` directly -- the engine
        caches deterministic comparators so each pair is bootstrapped at most
        once across all repetitions).  The measurements are *not* re-collected
        between repetitions -- only the procedure is repeated, exactly as in
        the paper (footnote 5).
    repetitions:
        Number of repetitions ``Rep``.
    rng:
        Random generator or seed controlling the shuffles.
    shuffle:
        If False the input order is kept for every repetition (useful for
        deterministic comparators, where shuffling is the only randomness).
    """
    algorithms = _normalise_labels(labels)
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    generator = np.random.default_rng(rng)

    counts: dict[int, dict[Label, int]] = {}
    order = list(algorithms)
    for _ in range(repetitions):
        if shuffle:
            generator.shuffle(order)
        result = three_way_bubble_sort(order, compare)
        for label, rank in result.pairs():
            counts.setdefault(rank, {}).setdefault(label, 0)
            counts[rank][label] += 1

    scores = {
        rank: {label: count / repetitions for label, count in entries.items()}
        for rank, entries in counts.items()
    }
    return ScoreTable(scores)


def get_cluster(
    labels: Iterable[Label],
    compare: CompareFn,
    rank: int,
    repetitions: int = 100,
    rng: np.random.Generator | int | None = None,
) -> list[ClusterEntry]:
    """Procedure 4 (``GetCluster_r``): algorithms assigned to ``rank`` with their relative scores."""
    table = relative_scores(labels, compare, repetitions=repetitions, rng=rng)
    return table.entries(rank) if rank in table else []


def final_assignment(table: ScoreTable) -> FinalClustering:
    """Assign every algorithm to the cluster where its relative score is maximal.

    The final score of an algorithm is its relative score at the chosen rank
    plus the scores it obtained at *better* ranks, as in the worked example of
    Section III (``alg_DA``: rank 3 with 0.6 plus rank 2 with 0.3 -> final
    score 0.9 in cluster 3).  Cluster indices are re-numbered consecutively
    so that empty ranks disappear.
    """
    assignments: dict[int, list[ClusterEntry]] = {}
    for label in table.labels:
        rank = table.argmax_rank(label)
        score = table.cumulative_score(label, rank)
        assignments.setdefault(rank, []).append(ClusterEntry(label, min(score, 1.0)))
    return make_final_clustering(assignments, source=table)


def cluster_algorithms(
    labels: Iterable[Label],
    compare: CompareFn,
    repetitions: int = 100,
    rng: np.random.Generator | int | None = None,
    shuffle: bool = True,
) -> tuple[ScoreTable, FinalClustering]:
    """End-to-end clustering: relative scores plus the derived final assignment."""
    table = relative_scores(labels, compare, repetitions=repetitions, rng=rng, shuffle=shuffle)
    return table, final_assignment(table)
