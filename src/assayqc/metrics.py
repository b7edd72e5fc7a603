"""Parametric assay-quality metrics computed from group summaries.

All functions take the positive-control summary first and the
negative-control summary second, mirroring the mu_1/mu_2 convention.

``z_factor``, ``ssmd`` and ``cnr`` also score a block's row summaries, each row
with the bits of its own call; a block raises if a row would, with a class some
row raises. Rows overflow to inf without raising, as one pair's floats do.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMeanDifference, DegenerateVariance, DivisionByZeroMean
from .samples import SummaryStats


def snr_assay(pos: SummaryStats, neg: SummaryStats) -> float:
    """Assay signal-to-noise ratio: (mu_1 - mu_2) / sigma_2."""
    if neg.std_dev == 0:
        raise DegenerateVariance("S/N needs a positive negative-control std dev")
    return (pos.mean - neg.mean) / neg.std_dev


def sbr(pos: SummaryStats, neg: SummaryStats) -> float:
    """Signal-to-background ratio: mu_1 / mu_2."""
    if neg.mean == 0:
        raise DivisionByZeroMean("S/B needs a nonzero negative-control mean")
    return pos.mean / neg.mean


def z_factor(pos: SummaryStats, neg: SummaryStats) -> float | np.ndarray:
    """Z'-factor: 1 - 3*(sigma_1 + sigma_2) / |mu_1 - mu_2|, range (-inf, 1]."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = abs(pos.mean - neg.mean)
        if np.equal(diff, 0).any():
            raise DegenerateMeanDifference("Z'-factor is undefined for equal group means")
        return 1.0 - 3.0 * (pos.std_dev + neg.std_dev) / diff


def ssmd(pos: SummaryStats, neg: SummaryStats) -> float | np.ndarray:
    """Strictly standardized mean difference: (mu_1 - mu_2) / sqrt(sigma_1^2 + sigma_2^2)."""
    with np.errstate(over="ignore", invalid="ignore"):
        pooled = pos.variance + neg.variance
        if np.equal(pooled, 0).any():
            raise DegenerateVariance("SSMD needs at least one positive group variance")
        root = np.sqrt(pooled)  # a float's stays a float
        return (pos.mean - neg.mean) / (root if np.ndim(root) else float(root))


def cnr(pos: SummaryStats, neg: SummaryStats) -> float | np.ndarray:
    """Contrast-to-noise ratio: |SSMD| (magnitude only, direction stripped)."""
    return abs(ssmd(pos, neg))
