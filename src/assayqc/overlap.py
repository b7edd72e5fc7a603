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
stated here so other implementations can match bit-exactly). Both kernels
count a group by its values below each inner edge: numpy's own rule for any
non-decreasing edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EdgesOutOfOrder
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


def _bin_counts(below: np.ndarray, size: int) -> np.ndarray:
    """Per-bin counts of ``size`` values, from how many lie below each inner edge (last axis)."""
    counts = np.empty((*below.shape[:-1], below.shape[-1] + 1), np.intp)
    counts[..., :-1], counts[..., -1] = below, size
    counts[..., 1:] -= below
    return counts


def _histogram_counts(neg: np.ndarray, pos: np.ndarray, bins: int | None):
    """Shared-edge counts for two raw arrays; handles the all-equal range.

    Groups of up to 2**16 values are sorted once, for the pooled range and ``searchsorted``;
    longer groups (``numpy.histogram`` sorts 2**16 values at a time, not a whole copy) and a
    non-finite pair go through ``numpy.histogram``. Edges whose last ones round out of order
    (a span of a few subnormal units) raise ``EdgesOutOfOrder``, where numpy's error would.
    """
    small = max(neg.size, pos.size) <= 1 << 16
    groups = (np.sort(neg), np.sort(pos)) if small else (neg, pos)
    finite = small and all(math.isfinite(g[i]) for g in groups for i in (0, -1))
    ends = [(g[0], g[-1]) if finite else (g.min(), g.max()) for g in groups]
    lo, hi = min(ends[0][0], ends[1][0]), max(ends[0][1], ends[1][1])
    if lo == hi:
        # All pooled samples identical: one unit-width bin, complete overlap.
        edges = np.array([lo - 0.5, lo + 0.5])
        return edges, np.array([neg.size]), np.array([pos.size])
    if bins is None:
        bins = bin_count(neg.size + pos.size)
    elif bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.linspace(lo, hi, bins + 1)
    if edges[-2] > hi:  # False for a non-finite pair, which keeps numpy's errors
        raise EdgesOutOfOrder(f"{bins} equal-width bins over the pooled range [{float(lo)!r}, "
                              f"{float(hi)!r}] round their last edges out of order")
    if not finite:
        return edges, *(np.histogram(g, bins=edges)[0] for g in (neg, pos))
    return edges, *(_bin_counts(g.searchsorted(edges[1:-1]), g.size) for g in groups)


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
    num = np.minimum(c_neg.astype(np.int64) * n_pos,
                     c_pos.astype(np.int64) * n_neg).sum(axis=-1)
    return num / (np.int64(n_neg) * np.int64(n_pos))


def ovl(pair: HistogramPair) -> float:
    """Overlap coefficient: sum over bins of min(mass_neg, mass_pos), in [0, 1]."""
    return float(_ovl_from_counts(pair.counts_neg, pair.counts_pos, pair.n_neg, pair.n_pos))


def _gssmd_from_arrays(
    neg: np.ndarray, pos: np.ndarray, bins: int | None = None
) -> OverlapResult:
    """Array-level core shared with the simulation runners."""
    _, c_neg, c_pos = _histogram_counts(neg, pos, bins)
    return _result_from_counts(c_neg, c_pos, neg, pos)


def _result_from_counts(
    c_neg: np.ndarray, c_pos: np.ndarray, neg: np.ndarray, pos: np.ndarray
) -> OverlapResult:
    """``OverlapResult`` of two raw arrays from their shared-edge bin counts."""
    overlap = float(_ovl_from_counts(c_neg, c_pos, neg.size, pos.size))
    sign = int(np.sign(pos.mean() - neg.mean()))
    gcnr = 1.0 - overlap
    return OverlapResult(
        ovl=overlap,
        gcnr=gcnr,
        gssmd=sign * gcnr,
        bins_used=int(c_neg.size),
        sign=sign,
    )


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
    that result's ``.ovl``. A lone row (T = 1) goes pair by pair. Rows get
    ``linspace`` edges between the ends of their sorted rows, and up to 9
    bins are counted by comparing values with the inner edges (a (T, k-1, m)
    boolean block is within the rows' float bytes), more by ``searchsorted``,
    a slice of rows whose counts fit those bytes at a time. Non-finite rows,
    rows with a subnormal step span/k (an array ``linspace`` with a zero step
    rescales every row) and rows whose edges alone outgrow the bytes go
    through the per-pair kernel.
    """
    rows, m = neg.shape
    n = pos.shape[1]
    ovl_rows = np.empty(rows) if ovl is None else ovl
    if rows == 1:  # a chunk of one trial, or a row scored again: faster, and raises as a pair
        pair = _gssmd_from_arrays(neg[0], pos[0], bins)
        ovl_rows[0] = pair.ovl
        return np.array([pair.gssmd])
    k = bin_count(m + n) if bins is None else bins
    if k < 1:
        raise ValueError("bins must be >= 1")
    groups = np.sort(neg, axis=1), np.sort(pos, axis=1)
    lo = np.minimum(groups[0][:, 0], groups[1][:, 0])
    hi = np.maximum(groups[0][:, -1], groups[1][:, -1])
    span = hi - lo
    compare = k <= 9
    step = rows if compare else rows * (m + n) // (8 * (k + 1))  # about 8 (rows, k) arrays
    binned = np.isfinite(span) & (span / k >= np.finfo(np.float64).tiny) & (step > 0)
    ovl_rows[:] = 1.0  # all pooled values equal: complete overlap
    todo = np.flatnonzero(binned)
    for s in range(0, todo.size, max(step, 1)):
        r = todo[s:s + step]
        inner = np.linspace(lo[r], hi[r], k + 1, axis=1)[:, 1:-1]
        below = [(g[r, None] < inner[:, :, None]).sum(axis=2) if compare
                 else np.array([g[i].searchsorted(e) for i, e in zip(r, inner)]) for g in groups]
        ovl_rows[r] = _ovl_from_counts(_bin_counts(below[0], m), _bin_counts(below[1], n), m, n)
    # Row means of C-ordered rows sum like the 1-D means of the per-pair path;
    # +0.0 turns a sign of -0.0 into +0.0, as int(np.sign(...)) does.
    sign = np.sign(pos.mean(axis=1) - neg.mean(axis=1)) + 0.0
    signed = sign * (1.0 - ovl_rows)
    for r in np.flatnonzero(~binned & (span != 0)):
        pair = _gssmd_from_arrays(neg[r], pos[r], bins)
        signed[r], ovl_rows[r] = pair.gssmd, pair.ovl
    return signed
