"""Vectorised bootstrap resampling utilities.

The comparator of Section III quantifies the overlap of two measurement
distributions by *bootstrapping*: statistics are repeatedly evaluated on data
resampled (with replacement) from the ``N`` raw measurements, instead of being
summarised once into a single number.  This module provides the resampling
primitives used by :mod:`repro.core.comparison`.

Resampling is vectorised: one ``(n_resamples, n)`` index matrix per array,
and statistics are evaluated along an axis.  :func:`bootstrap_summaries` is
the comparator's one kernel.  Each array draws its resamples from its own
generator, in the order given (arrays sharing a generator draw one after the
other, as two calls in a row would), into one buffer per width, sorted in
place; :func:`_sorted_quantile` then reads each level from two
order-statistic views with numpy's ``linear`` arithmetic into a level-major
``(arrays, levels, n_resamples)`` buffer, whose in-place sort serves the
interval bounds and medians (:func:`_sorted_median`).  The results equal
``np.quantile``/``np.median`` bit for bit, except that a zero where ``-0.0``
and ``+0.0`` tie within a row may carry either sign; the two compare equal,
so no outcome changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "bootstrap_indices",
    "bootstrap_samples",
    "bootstrap_statistic",
    "bootstrap_quantiles",
    "bootstrap_summaries",
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


def _sorted_quantile(rows: np.ndarray, level: float, out: np.ndarray | None = None) -> np.ndarray:
    """Quantile at one ``level`` of ``rows`` already sorted along the last axis.

    Returns (or fills ``out`` with) shape ``rows.shape[:-1]``.  The arithmetic
    is numpy's default ``linear`` method step by step: virtual index
    ``(n-1)*level``, floor and ceil order statistics with both set to ``-1``
    at or above ``n-1``, ``gamma`` taken against that clamped floor, and
    ``a + (b-a)*gamma`` replaced by ``b - (b-a)*(1-gamma)`` where
    ``gamma >= 0.5``.  Both order statistics are views, so nothing is gathered.
    """
    n = rows.shape[-1]
    virtual = (n - 1) * level
    below = -1 if virtual >= n - 1 else math.floor(virtual)
    above = -1 if below < 0 else below + 1
    gamma = virtual - below
    a, b = rows[..., below], rows[..., above]
    out = np.subtract(b, a, out=out)
    if gamma >= 0.5:
        out *= 1 - gamma
        return np.subtract(b, out, out=out)
    out *= gamma
    return np.add(a, out, out=out)


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
    out = np.empty((n_resamples, q.size))
    for k, level in enumerate(q):
        _sorted_quantile(samples, level, out=out[:, k])
    return out


def bootstrap_summaries(
    samples: Sequence[tuple[np.ndarray, np.random.Generator]],
    quantiles: Sequence[float],
    n_resamples: int,
    confidence: float,
) -> np.ndarray:
    """Bootstrap quantile-profile summaries of many arrays.

    ``samples`` holds ``(values, rng)``: a 1-D float array and the generator
    its resamples come from, drawn in the order given.  Per quantile level,
    each array's bootstrap distribution of that quantile is summarised by its
    two-sided ``confidence`` percentile interval and its median.  Returns
    ``(low, high, mid)`` as one ``(3, len(samples), len(quantiles))`` array.
    Each array is sorted and read on its own, so its summary depends only on
    its values and the draws from its generator, not on the other arrays.
    """
    q = _validate_quantiles(quantiles)
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    rows_of: dict[int, list[int]] = {}  # width -> rows of `samples`
    for row, (values, _) in enumerate(samples):
        rows_of.setdefault(values.size, []).append(row)
    buffers = {n: np.empty((len(rows), n_resamples, n)) for n, rows in rows_of.items()}
    slot = {row: buffers[n][k] for n, rows in rows_of.items() for k, row in enumerate(rows)}
    # Indices come from integers(0, n), so mode="clip" never clips; unlike
    # the default "raise" it writes into `out` without a staging copy.
    for row, (values, rng) in enumerate(samples):
        np.take(values, bootstrap_indices(values.size, n_resamples, rng), out=slot[row], mode="clip")
    alpha = 1.0 - confidence
    summaries = np.empty((3, len(samples), q.size))  # low, high, mid
    for n, rows in rows_of.items():
        resamples = buffers[n]
        resamples.sort(axis=-1)
        profiles = np.empty((len(rows), q.size, n_resamples))
        for k, level in enumerate(q):
            _sorted_quantile(resamples, level, out=profiles[:, k])
        profiles.sort(axis=-1)
        summaries[0, rows] = _sorted_quantile(profiles, alpha / 2.0)
        summaries[1, rows] = _sorted_quantile(profiles, 1.0 - alpha / 2.0)
        summaries[2, rows] = _sorted_median(profiles)
    return summaries


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
