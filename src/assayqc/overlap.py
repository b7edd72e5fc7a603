"""Non-parametric overlap metrics over shared-edge histograms.

Two groups are binned onto one set of equal-width edges spanning the pooled
sample range; each group's counts are normalized to unit mass. The overlap
coefficient (OVL) is the summed per-bin minimum of the two mass vectors,
GCNR is 1 - OVL, and the signed variant multiplies GCNR by the sign of the
difference of the group means:

    signed overlap effect = sgn(mean_pos - mean_neg) * (1 - OVL)

Bin-count default follows the Sturges-style rule ceil(1 + log2(N)) with N
the pooled sample count; both histograms must share edges, so the pooled
count governs resolution.

Bin assignment is left-closed/right-open with a right-closed final bin;
ties at interior edges go to the higher bin (``numpy.histogram`` semantics,
stated here so other implementations can match bit-exactly). One function,
``_histogram_counts``, bins a pair or a block of row pairs; it counts a group
by its values below each edge, numpy's own rule for non-decreasing edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EdgesOutOfOrder, NonFiniteRange, UndefinedMeanDifference
from .samples import SampleSet


@dataclass(frozen=True)
class HistogramPair:
    """Two unit-mass histograms over shared strictly increasing edges.

    ``counts_neg``/``counts_pos`` are the raw per-bin occupancies; the
    ``mass_*`` properties divide by the group sizes ``n_neg``/``n_pos``.
    """

    edges: np.ndarray
    counts_neg: np.ndarray
    counts_pos: np.ndarray
    n_neg: int
    n_pos: int

    @property
    def bins(self) -> int:
        return int(self.counts_neg.size)

    @property
    def mass_neg(self) -> np.ndarray:
        return self.counts_neg / self.n_neg

    @property
    def mass_pos(self) -> np.ndarray:
        return self.counts_pos / self.n_pos

    @property
    def bin_width(self) -> float:
        return float(self.edges[1] - self.edges[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass(frozen=True)
class OverlapResult:
    """OVL and its derived quantities for one negative/positive pair.

    Invariants: ``gcnr == 1 - ovl`` and ``gssmd == sign * gcnr`` exactly;
    ``sign`` is -1/0/+1 from the difference of sample means (0 when the
    means coincide exactly, which forces ``gssmd == 0``).
    """

    ovl: float
    gcnr: float
    gssmd: float
    bins_used: int
    sign: int


def bin_count(n: int) -> int:
    """Histogram bin count for ``n`` pooled samples: ceil(1 + log2(n)), min 1."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return max(1, math.ceil(1.0 + math.log2(n)))


def _histogram_counts(neg: np.ndarray, pos: np.ndarray, bins: int | None):
    """Shared ``(edges, counts_neg, counts_pos)`` of two groups, or of each row pair of a
    (T, m) and a (T, n) block: then a row of edges and of counts each.

    A row's edges are scalar ``np.linspace``'s, by its arithmetic: ``i * (span / k) + lo``,
    or ``i / k * span + lo`` where that step is 0, and ``hi`` last (an array ``linspace``
    rescales every row once one step is 0). An all-equal pair gets one unit-width bin; an
    all-equal row counts every value in its last bin, for the same OVL of 1. Groups of up
    to 2**16 values are sorted, then counted by comparison (T > 1, k <= 9) or ``searchsorted``;
    longer ones by ``numpy.histogram``. A range of no finite width raises ``NonFiniteRange``;
    edges whose last ones round out of order raise ``EdgesOutOfOrder``, as numpy would.
    """
    if bins is not None and bins < 1:
        raise ValueError("bins must be >= 1")
    groups = (neg[None], pos[None]) if neg.ndim == 1 else (neg, pos)
    sizes = groups[0].shape[1], groups[1].shape[1]
    k = bin_count(sum(sizes)) if bins is None else bins
    small = max(sizes) <= 1 << 16
    if small:
        groups = np.sort(groups[0], axis=1), np.sort(groups[1], axis=1)
    lo = np.minimum(*(g[:, 0] if small else g.min(axis=1) for g in groups))
    hi = np.maximum(*(g[:, -1] if small else g.max(axis=1) for g in groups))
    span = hi - lo
    r = np.isfinite(span).argmin()  # the first row of no finite width, if any
    if not math.isfinite(span[r]):
        raise NonFiniteRange(f"the pooled range [{float(lo[r])!r}, {float(hi[r])!r}] "
                             "has no finite width")
    if neg.ndim == 1 and span[0] == 0:
        # All pooled samples identical: one unit-width bin, complete overlap.
        return np.array([lo[0] - 0.5, lo[0] + 0.5]), np.array([neg.size]), np.array([pos.size])
    step = span / k
    i = np.arange(k + 1.0)
    edges = i * step[:, None]
    if np.count_nonzero(step) < len(step):  # numpy's own branch for a step that underflows to 0
        zero = step == 0
        edges[zero] = i / k * span[zero, None]
    edges += lo[:, None]
    r = (edges[:, -2] > hi).argmax()  # the first row whose last edges round out of order, if any
    if edges[r, -2] > hi[r]:
        raise EdgesOutOfOrder(f"{k} equal-width bins over the pooled range [{float(lo[r])!r}, "
                              f"{float(hi[r])!r}] round their last edges out of order")
    edges[:, -1] = hi
    if small:  # bin j holds the values below edge j + 1 less those below edge j
        below = np.zeros((2, len(edges), k + 1), np.intp)  # none lies below the first edge
        below[0, :, -1], below[1, :, -1] = sizes  # and all below the last: that bin is closed
        inner = edges[:, 1:-1]
        for j, g in enumerate(groups):
            if k <= 9 and len(g) > 1:  # a (T, k - 1, m) boolean block is within the rows' bytes
                np.sum(g[:, None] < inner[:, :, None], axis=2, out=below[j, :, 1:-1])
            else:
                for r in range(len(g)):
                    below[j, r, 1:-1] = g[r].searchsorted(inner[r])
        counts = below[..., 1:] - below[..., :-1]
    else:  # numpy.histogram sorts 2**16 values at a time, not a whole copy
        counts = np.array([[np.histogram(row, e)[0] for row, e in zip(g, edges)] for g in groups])
    if neg.ndim == 1:
        return edges[0], counts[0, 0], counts[1, 0]
    return edges, counts[0], counts[1]


def build_histogram_pair(
    neg: SampleSet, pos: SampleSet, bins: int | None = None
) -> HistogramPair:
    """Bin both groups onto shared equal-width edges over the pooled range.

    ``bins`` defaults to ``bin_count(n_neg + n_pos)``. When every pooled
    sample is identical the pair degenerates to one bin regardless of
    ``bins``.
    """
    edges, c_neg, c_pos = _histogram_counts(neg.values, pos.values, bins)
    return HistogramPair(
        edges=edges,
        counts_neg=c_neg,
        counts_pos=c_pos,
        n_neg=len(neg),
        n_pos=len(pos),
    )


def _ovl_from_counts(c_neg: np.ndarray, c_pos: np.ndarray, n_neg: int, n_pos: int):
    """OVL over the last axis of the count arrays (one value per histogram pair)."""
    # Cross-multiplied integer minimum: exact 0.0 / 1.0 at the extremes
    # (identical multisets sum to exactly n_neg * n_pos) and a single
    # rounding at the final division.
    num = np.minimum(np.multiply(c_neg, n_pos, dtype=np.int64),
                     np.multiply(c_pos, n_neg, dtype=np.int64)).sum(axis=-1)
    return num / (n_neg * n_pos)


def ovl(pair: HistogramPair) -> float:
    """Overlap coefficient: sum over bins of min(mass_neg, mass_pos), in [0, 1]."""
    return float(_ovl_from_counts(pair.counts_neg, pair.counts_pos, pair.n_neg, pair.n_pos))


def _gssmd_from_arrays(
    neg: np.ndarray, pos: np.ndarray, bins: int | None = None
) -> OverlapResult:
    """Array-level core of ``gssmd``, which ``_gssmd_rows`` matches row by row."""
    _, c_neg, c_pos = _histogram_counts(neg, pos, bins)
    return _result_from_counts(c_neg, c_pos, neg, pos)


def _result_from_counts(
    c_neg: np.ndarray, c_pos: np.ndarray, neg: np.ndarray, pos: np.ndarray
) -> OverlapResult:
    """``OverlapResult`` of two raw arrays from their shared-edge bin counts."""
    overlap = float(_ovl_from_counts(c_neg, c_pos, neg.size, pos.size))
    sign = int(_mean_signs(neg[None], pos[None])[0])
    gcnr = 1.0 - overlap
    return OverlapResult(
        ovl=overlap,
        gcnr=gcnr,
        gssmd=sign * gcnr,
        bins_used=int(c_neg.size),
        sign=sign,
    )


def _mean_signs(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """sgn(mean(pos) - mean(neg)) of each row pair of a (T, m) and a (T, n) block, as floats.

    Row sums of C-ordered rows add like the 1-D sums of ``mean``, which divides them by the
    count; +0.0 turns a sign of -0.0 into +0.0, as ``int`` does. Means that overflow leave a
    NaN difference, with no sign: ``UndefinedMeanDifference`` names the first such row's.
    """
    means = np.add.reduce(neg, axis=1) / neg.shape[1], np.add.reduce(pos, axis=1) / pos.shape[1]
    sign = np.sign(means[1] - means[0]) + 0.0
    r = np.isnan(sign).argmax()  # the first row with no sign, if any
    if math.isnan(sign[r]):
        raise UndefinedMeanDifference(f"the group means {float(means[0][r])!r} (neg) and "
                                      f"{float(means[1][r])!r} (pos) overflow: their "
                                      "difference has no sign")
    return sign


def gssmd(neg: SampleSet, pos: SampleSet, bins: int | None = None) -> OverlapResult:
    """Signed non-overlap of two groups' histogram mass.

    The sign comes from ``sgn(mean(pos) - mean(neg))`` with sgn(0) = 0, so
    a pair with exactly equal sample means reports 0 regardless of partial
    overlap; callers can inspect ``sign`` to detect that case.
    """
    return _gssmd_from_arrays(neg.values, pos.values, bins)


def _gssmd_rows(
    neg: np.ndarray, pos: np.ndarray, bins: int | None = None, ovl: np.ndarray | None = None
) -> np.ndarray:
    """Signed GSSMD of every row pair of a (T, m) and a (T, n) matrix.

    Row ``t`` equals ``_gssmd_from_arrays(neg[t], pos[t], bins).gssmd`` bit
    for bit; given ``ovl``, an array of T values, row ``t`` of it receives
    that result's ``.ovl``. ``_histogram_counts`` bins a slice of rows at a
    time: all at up to 9 bins, which it counts by comparison, else as many as
    keep about 8 (rows, k + 1) arrays within the rows' bytes, and at least one.
    """
    rows, m = neg.shape
    n = pos.shape[1]
    k = bin_count(m + n) if bins is None else bins
    step = max(rows if k <= 9 else rows * (m + n) // (8 * (k + 1)), 1)
    ovl_rows = np.empty(rows) if ovl is None else ovl
    for s in range(0, rows, step):
        _, c_neg, c_pos = _histogram_counts(neg[s:s + step], pos[s:s + step], k)
        ovl_rows[s:s + step] = _ovl_from_counts(c_neg, c_pos, m, n)
    return _mean_signs(neg, pos) * (1.0 - ovl_rows)
