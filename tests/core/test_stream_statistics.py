"""Statistical pin for the comparator's per-array resampling stream.

The deterministic :class:`~repro.core.BootstrapComparator` bootstraps each
array once, from a generator keyed by the seed and the array's bytes.  It
replaced a stream that re-drew both arrays of every pair from a generator
keyed by the pair (``derive_pair_rng`` over the canonically ordered bytes).
The two streams give different fractions bit for bit, but each pair still
compares two independent bootstrap distributions of the same statistics, so
over many seeds every pair's outcome frequencies must agree.  The replaced
stream is replayed here, test-locally, through the same kernel; its outcome
rule is the one it was used with (``f >= 0.5 + margin`` forward, ``1 - f``
for the reverse direction).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from statistics import NormalDist

import numpy as np

from repro.core import BootstrapComparator, Comparison, derive_pair_rng
from repro.core.bootstrap import bootstrap_summaries

SEEDS = 200
#: Family-wise error rate of the per-cell two-proportion tests (Bonferroni).
ALPHA = 0.01
CODE = {Comparison.WORSE: 0, Comparison.EQUIVALENT: 1, Comparison.BETTER: 2}


def _digest_tables() -> dict:
    """The measurement tables of the digest's ``analyze`` section."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "digest.py"
    spec = importlib.util.spec_from_file_location("digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest._analyze_tables(np.random.default_rng(30))


def _pair_stream_codes(c: BootstrapComparator, arrays) -> np.ndarray:
    """Outcome codes under the replaced per-pair stream: for each pair in
    canonical byte order, the smaller array's resamples and then the
    larger's from ``derive_pair_rng(seed, bytes_x, bytes_y)``."""
    p = len(arrays)
    blobs = [a.tobytes() for a in arrays]
    slots = [
        (i, j) if blobs[i] < blobs[j] else (j, i)
        for i in range(p)
        for j in range(i + 1, p)
        if blobs[i] != blobs[j]
    ]
    samples = []
    for x, y in slots:
        rng = derive_pair_rng(c.seed, blobs[x], blobs[y])
        samples += [(arrays[x], rng), (arrays[y], rng)]
    lo, hi, mid = bootstrap_summaries(samples, c.quantiles, c.n_resamples, c.confidence)
    lo_a, lo_b, hi_a, hi_b, mid_a, mid_b = lo[0::2], lo[1::2], hi[0::2], hi[1::2], mid[0::2], mid[1::2]
    tol = c.min_relative_difference * 0.5 * (np.abs(mid_a) + np.abs(mid_b))
    a_wins = (hi_a < lo_b) & (mid_b - mid_a > tol)
    b_wins = (hi_b < lo_a) & (mid_a - mid_b > tol)
    fractions = np.where(a_wins, 1.0, np.where(b_wins, 0.0, 0.5)).mean(axis=-1)
    codes = np.ones((p, p), dtype=int)
    for (x, y), f in zip(slots, fractions):
        for row, column, g in ((x, y, f), (y, x, 1.0 - f)):
            if g > 0.5 and g >= 0.5 + c.equivalence_margin:
                codes[row, column] = 2
            elif g < 0.5 and g <= 0.5 - c.equivalence_margin:
                codes[row, column] = 0
    return codes


def _per_array_codes(c: BootstrapComparator, arrays) -> np.ndarray:
    return np.array([[CODE[o] for o in row] for row in c.outcome_matrix(arrays)])


def test_pair_outcome_frequencies_agree_with_the_replaced_stream():
    """Per table, pair and outcome, the frequencies over SEEDS comparator
    seeds under the two streams agree within a two-proportion z interval,
    Bonferroni-corrected over every cell of every table."""
    tables = _digest_tables()
    z_scores = []
    for arrays in (tables["p11/n30"], tables["mixed"]):
        p = len(arrays)
        rows, columns = np.triu_indices(p, 1)
        counts = np.zeros((2, rows.size, 3))
        for seed in range(SEEDS):
            comparator = BootstrapComparator(seed=seed)
            for side, codes in enumerate(
                (_pair_stream_codes(comparator, arrays), _per_array_codes(comparator, arrays))
            ):
                counts[side, np.arange(rows.size), codes[rows, columns]] += 1
        old, new = counts / SEEDS
        pooled = (old + new) / 2
        spread = np.sqrt(pooled * (1 - pooled) * 2 / SEEDS)
        # A cell with zero spread has the same outcome on every seed under both.
        z_scores.append(np.abs(old - new) / np.where(spread > 0, spread, 1.0))
    z = np.concatenate([scores.ravel() for scores in z_scores])
    critical = NormalDist().inv_cdf(1 - ALPHA / (2 * z.size))
    assert z.max() <= critical, f"max |z| {z.max():.2f} over {z.size} cells exceeds {critical:.2f}"
