"""Hit-threshold rules, the logistic reference classifier, and hit selection.

Four interchangeable threshold rules are supported:

* overlap rule: the shared-histogram density crossing between the control
  groups (disjoint controls: midpoint of the empty gap), with a flag for
  whether the assay reaches |GSSMD| >= 1 - alpha;
* sigma rule: negative-control mean +/- k std deviations;
* ssmd rule: the readout at which a single point-mass measurement has
  |SSMD| = beta against the negative controls;
* logistic rule: decision boundary of a 1-D logistic regression fit on the
  controls by iteratively reweighted least squares.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _RULE_NAMES
from .errors import (
    DegenerateVariance,
    InsufficientControls,
    InvalidRuleParameter,
    NumericError,
    SingleClassInput,
    ZeroSign,
)
from .overlap import HistogramPair, OverlapResult, build_histogram_pair
from .plates import Plate, WellRole
from .report import MetricReport, measure_controls
from .samples import Record, SampleSet, SummaryStats, summarize


class Direction(str, Enum):
    POSITIVE_IS_HIGHER = "higher"
    POSITIVE_IS_LOWER = "lower"

    def beyond(self, values: np.ndarray, threshold: float) -> np.ndarray:
        """Mask of the values strictly past ``threshold`` in this direction (NaN never is)."""
        if self is Direction.POSITIVE_IS_HIGHER:
            return values > threshold
        return values < threshold


class RuleKind(str, Enum):
    GSSMD_OVERLAP, SIGMA, SSMD, LOGISTIC = _RULE_NAMES


class ThresholdRule(Record):
    """A rule kind plus its single scalar parameter.

    Parameter meaning: alpha (allowed overlap) for the overlap rule, k for
    the sigma rule, beta for the ssmd rule; unused by the logistic rule.
    """

    __slots__ = ("kind", "parameter")

    def __init__(self, kind: RuleKind, parameter: float = 1.0):
        if not parameter > 0:
            raise InvalidRuleParameter(
                f"{kind.value} rule parameter must be positive, got {parameter}"
            )
        if kind is RuleKind.GSSMD_OVERLAP and not parameter < 1:
            raise InvalidRuleParameter(f"overlap alpha must be < 1, got {parameter}")
        super().__init__(kind, parameter)

    @classmethod
    def gssmd(cls, alpha: float = 0.05) -> "ThresholdRule":
        return cls(RuleKind.GSSMD_OVERLAP, alpha)

    @classmethod
    def sigma(cls, k: float = 3.0) -> "ThresholdRule":
        return cls(RuleKind.SIGMA, k)

    @classmethod
    def ssmd(cls, beta: float = 3.0) -> "ThresholdRule":
        return cls(RuleKind.SSMD, beta)

    @classmethod
    def logistic(cls) -> "ThresholdRule":
        return cls(RuleKind.LOGISTIC, 1.0)


def _direction(result: OverlapResult) -> Direction:
    """The hit direction: the sign of the controls' mean difference, which must not be 0."""
    if result.sign == 0:
        raise ZeroSign("control means are exactly equal; no hit direction")
    return Direction.POSITIVE_IS_HIGHER if result.sign > 0 else Direction.POSITIVE_IS_LOWER


class GssmdThreshold(NamedTuple):
    """Overlap-rule boundary plus whether the assay meets 1 - alpha."""

    threshold: float
    direction: Direction
    meets_target: bool
    gssmd: float
    bin_width: float


def gssmd_threshold(
    neg: SampleSet, pos: SampleSet, alpha: float = 0.05, bins: int | None = None
) -> GssmdThreshold:
    """Histogram density-crossing threshold between the control groups.

    Scans shared bins from the negative-control mode toward the
    positive-control mode and returns the center of the first bin where the
    positive mass reaches the negative mass. Disjoint control ranges yield
    the midpoint of the empty gap between the extreme samples.
    ``meets_target`` states whether |GSSMD| >= 1 - alpha. Binning errors
    come first; then equal means raise ``ZeroSign`` and overflowing ones
    ``UndefinedMeanDifference``, as neither gives a hit direction.
    """
    pair = build_histogram_pair(neg, pos, bins)
    result = OverlapResult.of(pair.counts_neg, pair.counts_pos, neg.values, pos.values)
    direction, g = _direction(result), result.gssmd
    return GssmdThreshold(_crossing(neg, pos, pair), direction, abs(g) >= 1.0 - alpha, g,
                          pair.bin_width)


def _crossing(neg: SampleSet, pos: SampleSet, pair: HistogramPair) -> float:
    """``gssmd_threshold``'s boundary between controls already binned to ``pair``."""
    neg_lo, neg_hi = float(neg.values.min()), float(neg.values.max())
    pos_lo, pos_hi = float(pos.values.min()), float(pos.values.max())
    if neg_hi < pos_lo or pos_hi < neg_lo:
        return 0.5 * (min(neg_hi, pos_hi) + max(neg_lo, pos_lo))

    mass_neg, mass_pos = pair.mass_neg, pair.mass_pos
    centers = pair.centers
    b_neg = int(np.argmax(mass_neg))
    b_pos = int(np.argmax(mass_pos))
    step = 1 if b_pos >= b_neg else -1
    for b in range(b_neg, b_pos + step, step):
        if mass_pos[b] >= mass_neg[b]:
            return float(centers[b])
    return float(centers[b_pos])  # fallback: the positive mode itself


def _shifted_mean(stats: SummaryStats, kind: RuleKind, k: float, direction: Direction) -> float:
    """Negative-control mean shifted toward the hits by k standard deviations (sigma rule),
    or by k * sqrt(2) of them (ssmd rule, k = beta)."""
    if stats.std_dev == 0:
        raise DegenerateVariance(f"{kind.value} rule needs a positive control spread")
    c = k * math.sqrt(2.0) if kind is RuleKind.SSMD else k
    if direction is Direction.POSITIVE_IS_LOWER:
        return stats.mean - c * stats.std_dev
    return stats.mean + c * stats.std_dev


def sigma_rule_threshold(neg: SampleSet, k: float, direction: Direction) -> float:
    """Negative-control mean shifted k standard deviations toward the hits."""
    return _shifted_mean(summarize(neg), RuleKind.SIGMA, k, direction)


def ssmd_rule_threshold(neg: SampleSet, beta: float, direction: Direction) -> float:
    """Readout where a single point-mass measurement reaches |SSMD| = beta.

    A lone measurement t against controls with spread sigma has
    SSMD = (t - mean) / (sigma * sqrt(2)) under the pooled-variance form
    with the sample treated as zero-variance, so t = mean +/- beta*sqrt(2)*sigma.
    """
    return _shifted_mean(summarize(neg), RuleKind.SSMD, beta, direction)


class LogisticModel(NamedTuple):
    """1-D logistic fit: P(positive | x) = sigmoid(intercept + slope * x).

    ``boundary`` is the 50% decision point -intercept/slope. ``converged``
    is false when the controls are perfectly separable (no finite maximum
    likelihood exists; the reported boundary still falls between the
    groups).
    """

    intercept: float
    slope: float
    boundary: float
    converged: bool
    iterations: int


_IRLS_MAX_ITERS, _IRLS_TOL, _IRLS_RIDGE = 50, 1e-8, 1e-8


def fit_logistic_1d(neg, pos) -> LogisticModel:
    """Fit by iteratively reweighted least squares with ridge-damped normal equations.

    Accepts SampleSets or raw arrays (label 0 = negative, 1 = positive).
    The readout is standardized internally for conditioning and the
    coefficients mapped back, so the boundary is exactly equivariant under
    positive-affine readout transforms.
    """
    x_neg = neg.values if isinstance(neg, SampleSet) else np.asarray(neg, dtype=np.float64)
    x_pos = pos.values if isinstance(pos, SampleSet) else np.asarray(pos, dtype=np.float64)
    if x_neg.size == 0 or x_pos.size == 0:
        raise SingleClassInput("both control classes are required")

    x = np.concatenate([x_neg, x_pos])
    y = np.concatenate([np.zeros(x_neg.size), np.ones(x_pos.size)])
    mu, sd = float(x.mean()), float(x.std())
    if sd == 0:
        sd = 1.0
    z = (x - mu) / sd

    b0 = b1 = 0.0
    ll_prev = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, _IRLS_MAX_ITERS + 1):
        eta = b0 + b1 * z
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))
        w = p * (1.0 - p)
        r = y - p
        a00 = w.sum() + _IRLS_RIDGE
        a01 = (w * z).sum()
        a11 = (w * z * z).sum() + _IRLS_RIDGE
        g0, g1 = r.sum(), (r * z).sum()
        det = a00 * a11 - a01 * a01
        d0 = (a11 * g0 - a01 * g1) / det
        d1 = (a00 * g1 - a01 * g0) / det
        b0 += d0
        b1 += d1
        ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
        if max(abs(d0), abs(d1)) < _IRLS_TOL or abs(ll - ll_prev) < _IRLS_TOL:
            converged = True
            break
        ll_prev = ll

    # Perfectly separable 1-D data has no finite MLE; the damped iteration
    # stalls at large but finite coefficients. Report that honestly.
    if x_neg.max() < x_pos.min() or x_pos.max() < x_neg.min():
        converged = False

    slope = b1 / sd
    intercept = b0 - b1 * mu / sd
    boundary = -intercept / slope if slope != 0 else math.nan
    return LogisticModel(intercept, slope, float(boundary), converged, iterations)


class ThresholdEvaluation(NamedTuple):
    accuracy: float
    type1_error: float


def evaluate_threshold(
    test_neg: SampleSet, test_pos: SampleSet, threshold: float, direction: Direction
) -> ThresholdEvaluation:
    """Control classification accuracy and type-I error of a threshold.

    A value strictly beyond the threshold in the hit direction is
    classified positive; ties count as negative.
    """
    pos_hits = direction.beyond(test_pos.values, threshold)
    neg_hits = direction.beyond(test_neg.values, threshold)
    n = len(test_neg) + len(test_pos)
    correct = int(pos_hits.sum()) + int((~neg_hits).sum())
    return ThresholdEvaluation(correct / n, float(neg_hits.mean()))


def _controls(plate: Plate) -> tuple[SampleSet, SampleSet]:
    """The plate's (negative, positive) control sets, which need two wells each."""
    if plate.count(WellRole.POSITIVE) < 2 or plate.count(WellRole.NEGATIVE) < 2:
        raise InsufficientControls(
            f"plate {plate.plate_id} needs >= 2 positive and >= 2 negative control wells"
        )
    return plate.control_sets()


def assay_quality(plate: Plate, bins: int | None = None) -> MetricReport:
    """All eight metrics on a plate's control groups, with acceptance flags."""
    return measure_controls(*_controls(plate), bins)[0]


class HitReport(NamedTuple):
    """Hit-selection outcome for one plate under one rule."""

    threshold: float
    direction: Direction
    hits: list[str]
    n_hits: int
    rule: ThresholdRule
    assay_quality: MetricReport

    def to_dict(self) -> dict:
        return {
            "rule": {"kind": self.rule.kind.value, "parameter": self.rule.parameter},
            "threshold": self.threshold,
            "direction": self.direction.value,
            "n_hits": self.n_hits,
            "hits": list(self.hits),
            "assay_quality": self.assay_quality.to_dict(),
        }


def select_hits(
    plate: Plate,
    rule: ThresholdRule,
    bins: int | None = None,
    direction: Direction | None = None,
) -> HitReport:
    """Threshold the plate's sample wells against its own controls, measured once for the
    quality report and the rule alike.

    The overlap and logistic rules derive the direction from the controls; an explicit
    ``direction`` is honored only by the one-sided sigma/ssmd rules. A non-finite boundary,
    which no report holds, raises ``NumericError``.
    """
    neg, pos = _controls(plate)
    quality, neg_stats, pair, result = measure_controls(neg, pos, bins)
    if rule.kind is RuleKind.GSSMD_OVERLAP:
        threshold, direction = _crossing(neg, pos, pair), _direction(result)
    elif rule.kind is RuleKind.LOGISTIC:
        threshold, direction = fit_logistic_1d(neg, pos).boundary, _direction(result)
    else:
        if direction is None:
            direction = _direction(result)
        threshold = _shifted_mean(neg_stats, rule.kind, rule.parameter, direction)
    if not math.isfinite(threshold):
        raise NumericError(f"{rule.kind.value} threshold is {threshold}, outside the float range")
    beyond = direction.beyond(plate.value, threshold)
    hits = plate.addresses(plate.is_role(WellRole.SAMPLE) & beyond)
    return HitReport(
        threshold=float(threshold),
        direction=direction,
        hits=hits,
        n_hits=len(hits),
        rule=rule,
        assay_quality=quality,
    )
