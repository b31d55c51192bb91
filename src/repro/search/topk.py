"""Bounded-memory streaming top-K selection over chunked objective values.

The accumulator keeps at most ``k`` ``(value, placement index)`` pairs at any
time, so selecting winners from an ``m**k`` space costs O(k) memory no matter
how many chunks stream through.  Ties break on the smaller global placement
index, which makes the result a pure function of the *set* of fed pairs:
feeding chunks in any order, or merging independently filled accumulators
(shards), yields the identical selection.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["StreamingTopK"]


def _read_int(value, name: str) -> int:
    """``value`` as an int: no silent truncation, no bools (``TypeError`` naming ``name``)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _read_count(value, name: str) -> int:
    """``value`` as a non-negative int (``TypeError``/``ValueError`` naming ``name``)."""
    count = _read_int(value, name)
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {count}")
    return count


class StreamingTopK:
    """Retain the ``k`` smallest (value, index) pairs of a stream."""

    def __init__(self, k: int):
        self.k = _read_count(k, "k")
        if not self.k:
            raise ValueError("k must be positive")
        self._values = np.empty(0, dtype=float)
        self._indices = np.empty(0, dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        """Current best values, best first (ties by ascending placement index)."""
        return self._values

    @property
    def indices(self) -> np.ndarray:
        """Global placement indices of the current best values, best first."""
        return self._indices

    def __len__(self) -> int:
        return self._values.size

    def update(self, values: np.ndarray, indices: np.ndarray) -> None:
        """Fold one chunk of (value, global index) pairs into the selection."""
        values = np.asarray(values, dtype=float)
        indices = np.asarray(indices, dtype=np.int64)
        if values.shape != indices.shape or values.ndim != 1:
            raise ValueError(
                f"values and indices must be matching 1-D arrays, "
                f"got shapes {values.shape} and {indices.shape}"
            )
        if values.size and np.isnan(values).any():
            raise ValueError("objective values must not contain NaN")
        if not values.size:
            return
        if values.size > 4 * self.k:
            # Pre-shrink big chunks with an O(n) partition on the values, then
            # widen to *every* entry tied with the k-th value: ties must reach
            # the exact lexsort below or the (value, index) tie-break would
            # depend on how the stream was chunked.
            part = np.argpartition(values, self.k - 1)
            boundary = values[part[: self.k]].max()
            keep = values <= boundary
            values, indices = values[keep], indices[keep]
        merged_values = np.concatenate([self._values, values])
        merged_indices = np.concatenate([self._indices, indices])
        order = np.lexsort((merged_indices, merged_values))[: self.k]
        self._values = merged_values[order]
        self._indices = merged_indices[order]

    def merge(self, other: "StreamingTopK") -> None:
        """Fold another accumulator (e.g. a shard's) into this one."""
        if other.k != self.k:
            raise ValueError(f"cannot merge top-{other.k} into top-{self.k}")
        self.update(other._values, other._indices)
