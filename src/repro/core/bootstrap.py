"""Vectorised bootstrap resampling utilities.

The comparator of Section III quantifies the overlap of two measurement
distributions by *bootstrapping*: statistics are repeatedly evaluated on data
resampled (with replacement) from the ``N`` raw measurements, instead of being
summarised once into a single number.  This module provides the resampling
primitives used by :mod:`repro.core.comparison`.

Following the HPC guide, resampling is fully vectorised: a single
``(n_resamples, n)`` index matrix is drawn and statistics are evaluated along
an axis, avoiding Python-level loops over bootstrap rounds.

Quantiles are read from rows sorted once: :func:`_sorted_quantiles` and
:func:`_sorted_median` gather the order statistics of already sorted rows and
apply numpy's default ``linear`` interpolation and median arithmetic, so one
``np.sort`` serves every level instead of one ``np.quantile`` partition per
call.  The results equal ``np.quantile``/``np.median`` bit for bit, except
that a zero at a position where ``-0.0`` and ``+0.0`` tie within a row may
carry either sign (the two compare equal, so no comparison outcome changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "bootstrap_indices",
    "bootstrap_samples",
    "bootstrap_statistic",
    "bootstrap_quantiles",
    "batched_quantile_profiles",
    "percentile_interval",
    "BootstrapInterval",
]


def _as_1d_float(data: np.ndarray | Sequence[float], name: str = "data") -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one measurement")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _validate_quantiles(quantiles: Sequence[float]) -> np.ndarray:
    q = np.asarray(quantiles, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("quantiles must be a non-empty 1-D sequence")
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("quantiles must lie in [0, 1] (NaN is rejected)")
    return q


def _sorted_quantiles(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quantiles at levels ``q`` of ``rows`` already sorted along the last axis.

    Returns shape ``rows.shape[:-1] + (len(q),)``.  The arithmetic is numpy's
    default ``linear`` method step by step: virtual index ``(n-1)*q``, floor
    and ceil order statistics with both set to ``-1`` at or above ``n-1``,
    ``gamma`` taken against that clamped floor, and ``a + (b-a)*gamma``
    replaced by ``b - (b-a)*(1-gamma)`` where ``gamma >= 0.5``.
    """
    n = rows.shape[-1]
    virtual = (n - 1) * q
    below = np.floor(virtual)
    above = below + 1
    at_top = virtual >= n - 1
    below[at_top] = -1
    above[at_top] = -1
    below = below.astype(np.intp)
    gamma = virtual - below
    a = np.take(rows, below, axis=-1)
    b = np.take(rows, above.astype(np.intp), axis=-1)
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def _sorted_median(rows: np.ndarray) -> np.ndarray:
    """``np.median`` along the last axis of ``rows`` already sorted along it:
    the ``np.mean`` of the middle one or two order statistics."""
    half, odd = divmod(rows.shape[-1], 2)
    return np.mean(rows[..., half - 1 + odd : half + 1], axis=-1)


def bootstrap_indices(
    n: int,
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a ``(n_resamples, n)`` matrix of resampling indices with replacement."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n_resamples <= 0:
        raise ValueError("n_resamples must be positive")
    return rng.integers(0, n, size=(n_resamples, n))


def bootstrap_samples(
    data: np.ndarray | Sequence[float],
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return a ``(n_resamples, n)`` matrix of bootstrap resamples of ``data``."""
    arr = _as_1d_float(data)
    idx = bootstrap_indices(arr.size, n_resamples, rng)
    return arr[idx]


def bootstrap_statistic(
    data: np.ndarray | Sequence[float],
    statistic: Callable[[np.ndarray], np.ndarray],
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Evaluate ``statistic`` on every bootstrap resample.

    ``statistic`` must accept a 2-D array and an ``axis`` keyword is *not*
    assumed; instead it is called on the full resample matrix and must reduce
    the last axis (e.g. ``lambda m: np.mean(m, axis=-1)``).  For the common
    cases prefer :func:`bootstrap_quantiles`.
    """
    samples = bootstrap_samples(data, n_resamples, rng)
    out = np.asarray(statistic(samples))
    if out.ndim == 0 or out.shape[0] != n_resamples:
        raise ValueError(
            "statistic must preserve the resample axis: expected leading dimension "
            f"{n_resamples}, got shape {out.shape}"
        )
    return out


def bootstrap_quantiles(
    data: np.ndarray | Sequence[float],
    quantiles: Sequence[float],
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Quantile profile of every bootstrap resample.

    Returns an array of shape ``(n_resamples, len(quantiles))`` where row ``r``
    holds the requested quantiles of the ``r``-th resample.
    """
    q = _validate_quantiles(quantiles)
    samples = bootstrap_samples(data, n_resamples, rng)
    samples.sort(axis=-1)
    return _sorted_quantiles(samples, q)


def batched_quantile_profiles(
    sample_matrices: Sequence[np.ndarray],
    quantiles: Sequence[float],
) -> np.ndarray:
    """Quantile profiles of many ``(n_resamples, n)`` resample matrices at once.

    The comparison engine stacks the resample matrices of *all* algorithm pairs
    and sorts the stacked batch once, reading every quantile level from the
    sorted rows.  Matrices are grouped by sample width ``n`` (measurement
    vectors of different lengths cannot share a stack).

    Returns an array of shape ``(len(sample_matrices), n_resamples, len(quantiles))``
    whose slice ``k`` equals :func:`bootstrap_quantiles` on the same resamples
    (every row is sorted and interpolated independently of the others).
    """
    q = _validate_quantiles(quantiles)
    matrices = list(sample_matrices)
    if not matrices:
        return np.empty((0, 0, q.size))
    n_resamples = matrices[0].shape[0]
    for m in matrices:
        if m.ndim != 2 or m.shape[0] != n_resamples:
            raise ValueError(
                f"all resample matrices must share the shape ({n_resamples}, n), got {m.shape}"
            )
    out = np.empty((len(matrices), n_resamples, q.size))
    by_width: dict[int, list[int]] = {}
    for index, m in enumerate(matrices):
        by_width.setdefault(m.shape[1], []).append(index)
    for indices in by_width.values():
        stacked = np.stack([matrices[i] for i in indices])
        stacked.sort(axis=-1)
        out[indices] = _sorted_quantiles(stacked, q)
    return out


@dataclass(frozen=True)
class BootstrapInterval:
    """A two-sided percentile confidence interval for a bootstrapped statistic."""

    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        return self.high - self.low

    def overlaps(self, other: "BootstrapInterval") -> bool:
        """True if the two intervals share at least one point."""
        return self.low <= other.high and other.low <= self.high

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def percentile_interval(
    samples: np.ndarray | Sequence[float],
    confidence: float = 0.95,
) -> BootstrapInterval:
    """Percentile confidence interval of a vector of bootstrapped statistics."""
    arr = _as_1d_float(samples, "samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    alpha = 1.0 - confidence
    low, high = np.quantile(arr, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapInterval(low=float(low), high=float(high), confidence=confidence)
