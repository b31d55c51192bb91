"""Bubble sort with three-way comparison and positional rank merging (Procedures 1-3).

The paper sorts the algorithm set with a bubble-sort whose comparison is not a
binary relation but the three-way outcome of :class:`~repro.core.types.Comparison`.
Alongside the sequence of algorithms, the procedure maintains a vector of
*positional ranks*: ``rank[j]`` is the performance class of the algorithm
currently sitting at position ``j``.  Ranks always form a non-decreasing
staircase ``1 = rank[0] <= rank[1] <= ... <= rank[p-1]`` with unit steps.

Update rules (Section III of the paper, update rules 1, 2a and 2b):

* **Swap rule** -- if the algorithm at position ``j`` is *worse* than its
  successor, the two algorithms swap positions (ranks stay attached to the
  positions, not to the algorithms).
* **Equivalence merge (2a)** -- if the two algorithms are *equivalent* but
  their positional ranks differ, the ranks of positions ``j+1 .. p-1`` are
  decreased by one, merging the two performance classes.
* **Post-swap split/merge (2b)** -- after a swap, if the winner now shares the
  rank of its *predecessor* but not of its *successor*, the successor ranks
  are decreased by one (the loser joins the winner's class); if instead the
  winner shares the rank of its *successor* but not of its predecessor, the
  successor ranks are increased by one (the winner "reached the top of its
  performance class" and is promoted above the algorithms it defeated).
* A *better* outcome without a swap leaves the ranks untouched (rule 2a).

The loop moves int positions rather than labels and stores the staircase as
class-boundary flags (``step[j] = rank[j+1] - rank[j]``), so each merge or
split flips one flag instead of shifting every later rank; ranks are rebuilt
as ``1 + cumsum(step)``.  :func:`lockstep_bubble_sorts` runs the same loop
for many initial orders at once over an int8 outcome matrix -- Procedure 4's
``Rep`` sorts of one :class:`~repro.core.engine.ComparisonEngine` table --
with each order in one column of a ``(p, Rep)`` position array.

The module also records an optional step-by-step trace, which is used to
regenerate the Figure 2 walk-through of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .types import CompareFn, Comparison, Label

__all__ = [
    "SortStep",
    "SortResult",
    "three_way_bubble_sort",
    "lockstep_bubble_sorts",
    "ranks_are_valid",
]


@dataclass(frozen=True)
class SortStep:
    """One adjacent comparison of the bubble sort, for tracing / Figure 2."""

    #: 1-based index of the outer bubble-sort pass.
    pass_index: int
    #: 0-based position of the left element of the compared pair.
    position: int
    #: Label sitting at ``position`` *before* the step.
    left: Label
    #: Label sitting at ``position + 1`` *before* the step.
    right: Label
    #: Outcome of comparing ``left`` against ``right``.
    outcome: Comparison
    #: Whether the two algorithms swapped positions.
    swapped: bool
    #: Human-readable description of the rank update that was applied.
    rank_update: str
    #: Snapshot of the label sequence after the step.
    sequence_after: tuple[Label, ...]
    #: Snapshot of the positional ranks after the step.
    ranks_after: tuple[int, ...]

    def describe(self) -> str:
        """Single-line description in the style of the paper's Figure 2 captions."""
        action = "swap" if self.swapped else "keep"
        return (
            f"pass {self.pass_index}, pos {self.position}: "
            f"{self.left} {self.outcome.symbol} {self.right} -> {action}; {self.rank_update}"
        )


@dataclass(frozen=True)
class SortResult:
    """Outcome of :func:`three_way_bubble_sort`.

    Attributes
    ----------
    sequence:
        Algorithm labels in sorted order (best first).
    ranks:
        Positional ranks aligned with ``sequence`` (``ranks[0] == 1``).
    trace:
        Recorded :class:`SortStep` objects (empty unless tracing was enabled).
    n_comparisons:
        Total number of pairwise comparisons performed.
    """

    sequence: tuple[Label, ...]
    ranks: tuple[int, ...]
    trace: tuple[SortStep, ...] = field(default=())
    n_comparisons: int = 0

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.ranks):
            raise ValueError("sequence and ranks must have the same length")

    @property
    def n_classes(self) -> int:
        """Number of distinct performance classes."""
        return self.ranks[-1] if self.ranks else 0

    def rank_of(self, label: Label) -> int:
        """Rank (performance class, 1 = best) assigned to ``label``."""
        return self.as_mapping()[label]

    def as_mapping(self) -> dict[Label, int]:
        """Mapping label -> rank."""
        return dict(zip(self.sequence, self.ranks))

    def clusters(self) -> dict[int, list[Label]]:
        """Mapping rank -> labels in that performance class (sequence order preserved)."""
        out: dict[int, list[Label]] = {}
        for label, rank in zip(self.sequence, self.ranks):
            out.setdefault(rank, []).append(label)
        return out

    def pairs(self) -> list[tuple[Label, int]]:
        """The paper's output format: ``[(alg_s[1], rank_1), ..., (alg_s[p], rank_p)]``."""
        return list(zip(self.sequence, self.ranks))


def ranks_are_valid(ranks: Sequence[int]) -> bool:
    """Check the positional-rank invariant: starts at 1, non-decreasing, unit steps."""
    if len(ranks) == 0:
        return True
    if ranks[0] != 1:
        return False
    for previous, current in zip(ranks, ranks[1:]):
        if current - previous not in (0, 1):
            return False
    return True


def _ranks(step: list[int]) -> tuple[int, ...]:
    """Positional ranks from class-boundary flags: ``1 + cumsum(step)``."""
    return tuple(accumulate(step, initial=1))


def _describe_update(outcome: Comparison, update: int, j: int) -> str:
    """Trace text of the rank update one comparison applied."""
    if update < 0:
        return f"merge: ranks of positions {j + 1}.. decreased by 1"
    if update > 0:
        return f"split: ranks of positions {j + 1}.. increased by 1"
    if outcome is Comparison.EQUIVALENT:
        return "no rank update (already same class)"
    return "no rank update"


def three_way_bubble_sort(
    labels: Iterable[Label],
    compare: CompareFn,
    record_trace: bool = False,
) -> SortResult:
    """Sort algorithms with a three-way comparison and cluster them by rank (Procedure 1).

    Parameters
    ----------
    labels:
        Algorithm identifiers in their initial (arbitrary) order.  The initial
        order matters when the comparison is noisy, which is exactly why the
        clustering of Procedure 4 re-runs this sort over shuffled inputs.
    compare:
        Label-level three-way comparison function; ``compare(a, b)`` must
        return the outcome *for a* (``BETTER`` means ``a`` outperforms ``b``).
    record_trace:
        If True, a :class:`SortStep` is recorded for every comparison.

    Returns
    -------
    SortResult
        The sorted sequence, positional ranks, optional trace and comparison count.
    """
    sequence: list[Label] = list(labels)
    if len(set(sequence)) != len(sequence):
        raise ValueError("algorithm labels must be unique")
    p = len(sequence)
    # The loop moves int positions into ``sequence``.  ``step[j]`` is 1 when
    # ``rank[j + 1] == rank[j] + 1`` (a class boundary) and 0 when the two
    # positions share a class, so every merge or split flips one flag.
    order = list(range(p))
    step = [1] * max(p - 1, 0)
    trace: list[SortStep] = []
    n_comparisons = 0
    worse, equivalent = Comparison.WORSE, Comparison.EQUIVALENT

    for pass_index in range(1, p):  # p-1 bubble passes
        for j in range(0, p - pass_index):
            a, b = order[j], order[j + 1]
            outcome = compare(sequence[a], sequence[b])
            if not isinstance(outcome, Comparison):
                raise TypeError(
                    f"compare({sequence[a]!r}, {sequence[b]!r}) returned {outcome!r}, "
                    "expected a Comparison"
                )
            n_comparisons += 1
            update = 0  # -1 merge, +1 split, 0 none
            if outcome is worse:
                order[j], order[j + 1] = b, a
                # Rule 2b: the winner now sits at j.
                same_as_predecessor = j > 0 and not step[j - 1]
                if step[j] and same_as_predecessor:
                    step[j], update = 0, -1
                elif not step[j] and not same_as_predecessor:
                    step[j], update = 1, 1
            elif outcome is equivalent and step[j]:
                step[j], update = 0, -1  # rule 2a merge
            if record_trace:
                trace.append(
                    SortStep(
                        pass_index=pass_index,
                        position=j,
                        left=sequence[a],
                        right=sequence[b],
                        outcome=outcome,
                        swapped=outcome is worse,
                        rank_update=_describe_update(outcome, update, j),
                        sequence_after=tuple(sequence[i] for i in order),
                        ranks_after=_ranks(step),
                    )
                )

    ranks = _ranks(step) if p else ()
    assert ranks_are_valid(ranks), f"internal error: invalid rank staircase {ranks}"
    return SortResult(
        sequence=tuple(sequence[i] for i in order),
        ranks=ranks,
        trace=tuple(trace),
        n_comparisons=n_comparisons,
    )


def lockstep_bubble_sorts(codes: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run :func:`three_way_bubble_sort` over every row of ``orders`` at once.

    ``codes`` is an int8 ``(p, p)`` outcome matrix (``1`` better, ``0``
    equivalent, ``-1`` worse, as
    :attr:`~repro.core.engine.ComparisonEngine.codes`) and ``orders`` a
    ``(Rep, k)`` integer array of initial orders, each a sequence of ``k``
    distinct indices into it.  Every comparison step reads the ``Rep``
    outcomes by fancy indexing and applies the scalar sort's swap and
    class-boundary updates to all orders together, so row ``r`` of the
    result is bit for bit the sort of ``orders[r]``.

    Returns the sorted orders and their positional ranks, both ``(Rep, k)``.
    """
    p = codes.shape[0]
    worse_flat, better_flat = (codes < 0).ravel(), (codes > 0).ravel()
    k = orders.shape[1]
    order = np.array(orders.T, dtype=np.intp)  # one column per sort
    step = np.ones((max(k - 1, 0), orders.shape[0]), dtype=bool)
    for last in range(k - 1, 0, -1):  # the same k-1 passes as the scalar sort
        for j in range(last):
            a, b = order[j], order[j + 1]
            pair = a * p
            pair += b
            worse = worse_flat[pair]
            swap = a ^ b
            swap *= worse
            a ^= swap
            b ^= swap
            # A swap opens a class boundary unless the winner's predecessor
            # shares its class (rule 2b); equivalence closes it (rule 2a).
            if j:
                worse &= step[j - 1]
            boundary = step[j]
            boundary &= better_flat[pair]
            boundary |= worse
    ranks = np.ones((k, orders.shape[0]), dtype=np.intp)
    np.cumsum(step, axis=0, out=ranks[1:])
    ranks[1:] += 1
    return order.T, ranks.T
