import math
import sys

import numpy as np
import pytest

import assayqc.overlap
import assayqc.samples
from assayqc import (
    DegenerateVariance,
    Direction,
    DistributionSpec,
    InsufficientControls,
    NumericError,
    Plate,
    RuleKind,
    SampleSet,
    SingleClassInput,
    SummaryStats,
    ThresholdRule,
    Well,
    WellRole,
    ZeroSign,
    assay_quality,
    compute_metric_report,
    derive_seed,
    draw,
    evaluate_threshold,
    fit_logistic_1d,
    gssmd_threshold,
    select_hits,
    sigma_rule_threshold,
    ssmd_rule_threshold,
)
from assayqc.errors import NonFiniteRange, UndefinedMeanDifference

NORMAL = DistributionSpec.normal(0, 1)


def control_pair(d, n, seed, scale=1.0):
    neg = draw(DistributionSpec.normal(0, scale), n, derive_seed(seed, 0))
    pos = draw(DistributionSpec.normal(d, scale), n, derive_seed(seed, 1))
    return neg, pos


def make_plate(pid, neg_vals, pos_vals, sample_vals=()):
    wells = []
    for r, v in enumerate(neg_vals, 1):
        wells.append(Well(r, 1, WellRole.NEGATIVE, float(v)))
    for r, v in enumerate(pos_vals, 1):
        wells.append(Well(r, 2, WellRole.POSITIVE, float(v)))
    for r, v in enumerate(sample_vals, 1):
        wells.append(Well(r, 3, WellRole.SAMPLE, float(v)))
    return Plate(pid, wells)


class TestThresholdRule:
    def test_defaults(self):
        assert ThresholdRule.gssmd().parameter == 0.05
        assert ThresholdRule.sigma().parameter == 3.0
        assert ThresholdRule.ssmd().parameter == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule(RuleKind.SIGMA, 0.0)
        with pytest.raises(ValueError):
            ThresholdRule(RuleKind.GSSMD_OVERLAP, 1.0)


class TestAssayQuality:
    def test_wide_separation_accepted_only_by_overlap_metric(self):
        neg, pos = control_pair(10, 100, 1)
        report = assay_quality(make_plate("p", neg.values, pos.values))
        assert report.accepted["gssmd"]
        assert report.z_factor == pytest.approx(0.4, abs=0.1)
        assert not report.accepted["z_factor"]

    def test_identical_controls_accept_nothing(self):
        values = draw(NORMAL, 50, 2).values
        report = assay_quality(make_plate("p", values, values))
        assert report.z_factor is None  # equal means: Z' undefined
        assert report.ssmd == 0.0
        assert report.gssmd == 0.0
        assert report.snr == 0.0
        assert not any(report.accepted.values())

    def test_huge_separation_accepted_by_all(self):
        neg, pos = control_pair(30, 200, 3)
        report = assay_quality(make_plate("p", neg.values, pos.values))
        assert report.z_factor == pytest.approx(0.8, abs=0.05)
        assert report.ssmd == pytest.approx(21.2, abs=1.5)
        assert report.gssmd == 1.0
        assert all(report.accepted.values())

    def test_needs_two_controls_per_class(self):
        plate = make_plate("p", [0.0], [1.0, 2.0])
        with pytest.raises(InsufficientControls):
            assay_quality(plate)


class TestGssmdThreshold:
    def test_disjoint_gap_midpoint(self):
        neg, pos = control_pair(10, 1000, 0)
        cut = gssmd_threshold(neg, pos)
        assert 3.5 < cut.threshold < 6.5
        assert cut.direction is Direction.POSITIVE_IS_HIGHER
        assert cut.meets_target
        # exact contract: midpoint of the empty gap between extreme samples
        assert cut.threshold == (neg.values.max() + pos.values.min()) / 2

    def test_density_crossing_near_equal_variance_midpoint(self):
        neg, pos = control_pair(2, 10**5, 1)
        cut = gssmd_threshold(neg, pos)
        assert abs(cut.threshold - 1.0) <= cut.bin_width
        assert not cut.meets_target  # heavy overlap at d=2

    def test_mirrored_direction(self):
        neg, pos = control_pair(2, 10**5, 1)
        cut = gssmd_threshold(neg, pos)
        mirrored = gssmd_threshold(SampleSet(-neg.values), SampleSet(-pos.values))
        assert mirrored.direction is Direction.POSITIVE_IS_LOWER
        assert mirrored.threshold == pytest.approx(-cut.threshold, abs=1e-9)

    def test_threshold_stays_in_pooled_range(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            neg = SampleSet(rng.normal(0, 1, 60))
            pos = SampleSet(rng.normal(rng.uniform(0.5, 8), rng.uniform(0.5, 2), 60))
            cut = gssmd_threshold(neg, pos)
            lo = min(neg.values.min(), pos.values.min())
            hi = max(neg.values.max(), pos.values.max())
            assert lo <= cut.threshold <= hi

    def test_equal_means_have_no_direction(self):
        s = SampleSet([1.0, 2.0, 3.0])
        with pytest.raises(ZeroSign):
            gssmd_threshold(s, s)


class TestSigmaRule:
    def test_hand_values(self):
        neg = SampleSet([-1.0, 0.0, 1.0])  # mean 0, std 1
        assert sigma_rule_threshold(neg, 3.0, Direction.POSITIVE_IS_LOWER) == -3.0
        assert sigma_rule_threshold(neg, 0.0, Direction.POSITIVE_IS_HIGHER) == 0.0

    def test_scaled(self):
        rng = np.random.default_rng(3)
        neg = SampleSet(rng.normal(100, 10, 10**5))
        t = sigma_rule_threshold(neg, 3.0, Direction.POSITIVE_IS_HIGHER)
        assert t == pytest.approx(130.0, abs=0.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateVariance):
            sigma_rule_threshold(SampleSet([5.0, 5.0]), 3.0, Direction.POSITIVE_IS_HIGHER)


class TestSelectHitsThreshold:
    @pytest.mark.parametrize("rule", [ThresholdRule.sigma(1e308), ThresholdRule.ssmd(1e308)])
    def test_a_threshold_outside_the_float_range_raises(self, rule):
        plate = make_plate("p", [0.0, 10.0, 20.0], [100.0, 120.0])
        with pytest.raises(NumericError, match=f"^{rule.kind.value} threshold is inf, outside"):
            select_hits(plate, rule)


class TestSsmdRule:
    def test_hand_values(self):
        neg = SampleSet([-1.0, 0.0, 1.0])
        t = ssmd_rule_threshold(neg, 3.0, Direction.POSITIVE_IS_LOWER)
        assert t == pytest.approx(-3 * math.sqrt(2), abs=1e-12)
        assert ssmd_rule_threshold(neg, 0.0, Direction.POSITIVE_IS_HIGHER) == 0.0

    def test_scaled(self):
        rng = np.random.default_rng(4)
        neg = SampleSet(rng.normal(10, 2, 10**5))
        t = ssmd_rule_threshold(neg, 3.0, Direction.POSITIVE_IS_HIGHER)
        assert t == pytest.approx(10 + 6 * math.sqrt(2), abs=0.1)

    def test_monotone_in_beta_with_nested_hit_sets(self):
        neg, pos = control_pair(6, 100, 7)
        samples = draw(DistributionSpec.normal(3, 2), 100, derive_seed(7, 9)).values
        prev_hits = None
        prev_t = 0.0
        for beta in (1.0, 2.0, 3.0, 4.0):
            t = ssmd_rule_threshold(neg, beta, Direction.POSITIVE_IS_HIGHER)
            hits = {i for i, v in enumerate(samples) if v > t}
            if prev_hits is not None:
                assert t > prev_t
                assert hits <= prev_hits
            prev_hits, prev_t = hits, t


class TestFitLogistic:
    def test_separable_symmetric_boundary(self):
        model = fit_logistic_1d(np.array([-1.0, -2.0]), np.array([1.0, 2.0]))
        assert abs(model.boundary) <= 0.1
        assert not model.converged

    def test_overlapping_normals_recover_bayes_boundary(self):
        neg, pos = control_pair(2, 10**4, 2)
        model = fit_logistic_1d(neg, pos)
        assert model.boundary == pytest.approx(1.0, abs=0.05)
        assert model.converged

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInput):
            fit_logistic_1d(np.array([]), np.array([1.0]))

    def test_boundary_affine_equivariance(self):
        neg, pos = control_pair(2, 500, 5)
        base = fit_logistic_1d(neg, pos)
        rng = np.random.default_rng(6)
        for _ in range(25):
            a, b = rng.uniform(0.1, 8), rng.uniform(-50, 50)
            moved = fit_logistic_1d(
                SampleSet(a * neg.values + b), SampleSet(a * pos.values + b)
            )
            assert moved.boundary == pytest.approx(a * base.boundary + b, rel=1e-9, abs=1e-9)

    def test_boundary_definition(self):
        neg, pos = control_pair(2, 1000, 8)
        model = fit_logistic_1d(neg, pos)
        assert model.boundary == pytest.approx(-model.intercept / model.slope)


class TestEvaluateThreshold:
    def test_disjoint_perfect(self):
        neg, pos = control_pair(10, 500, 3)
        result = evaluate_threshold(neg, pos, 5.0, Direction.POSITIVE_IS_HIGHER)
        assert result.accuracy == 1.0
        assert result.type1_error == 0.0

    def test_degenerate_threshold_sides(self):
        neg = draw(NORMAL, 100, derive_seed(4, 0))
        pos = draw(DistributionSpec.normal(2, 1), 60, derive_seed(4, 1))
        below_all = min(neg.values.min(), pos.values.min()) - 1
        # nothing is below the threshold: all classified negative
        res = evaluate_threshold(neg, pos, below_all, Direction.POSITIVE_IS_LOWER)
        assert res.accuracy == 100 / 160
        assert res.type1_error == 0.0
        # everything is above it: all classified positive
        res = evaluate_threshold(neg, pos, below_all, Direction.POSITIVE_IS_HIGHER)
        assert res.accuracy == 60 / 160
        assert res.type1_error == 1.0

    def test_accuracy_plus_misclassification_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            neg = SampleSet(rng.normal(0, 1, 40))
            pos = SampleSet(rng.normal(1.5, 1, 60))
            t = rng.uniform(-1, 3)
            res = evaluate_threshold(neg, pos, t, Direction.POSITIVE_IS_HIGHER)
            n_pos_hits = int((pos.values > t).sum())
            n_neg_ok = int((neg.values <= t).sum())
            wrong = (len(pos) - n_pos_hits) + (len(neg) - n_neg_ok)
            assert res.accuracy + wrong / 100 == pytest.approx(1.0, abs=1e-12)


class TestSelectHits:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.neg = rng.normal(0, 1, 64)
        self.pos = rng.normal(10, 1, 64)
        self.rng = rng

    def test_null_samples_produce_no_hits(self):
        plate = make_plate("p", self.neg, self.pos, self.rng.normal(0, 1, 64))
        for rule in (ThresholdRule.gssmd(), ThresholdRule.sigma(),
                     ThresholdRule.ssmd(), ThresholdRule.logistic()):
            assert select_hits(plate, rule).n_hits == 0

    def test_samples_at_positive_level_all_hit(self):
        plate = make_plate("p", self.neg, self.pos, self.pos.copy())
        report = select_hits(plate, ThresholdRule.gssmd())
        assert report.n_hits == 64
        assert report.assay_quality.accepted["gssmd"]

    def test_direction_coherence_under_negation(self):
        samples = self.rng.normal(5, 3, 40)
        plate = make_plate("p", self.neg, self.pos, samples)
        flipped = make_plate("p", -self.neg, -self.pos, -samples)
        for rule in (ThresholdRule.sigma(), ThresholdRule.ssmd()):
            a = select_hits(plate, rule)
            b = select_hits(flipped, rule)
            assert b.direction is not a.direction
            assert b.threshold == -a.threshold
            assert set(b.hits) == set(a.hits)
        for rule in (ThresholdRule.gssmd(), ThresholdRule.logistic()):
            a = select_hits(plate, rule)
            b = select_hits(flipped, rule)
            assert b.direction is not a.direction
            assert b.threshold == pytest.approx(-a.threshold, abs=1e-9)
            assert set(b.hits) == set(a.hits)

    def test_explicit_direction_honored_by_one_sided_rules(self):
        plate = make_plate("p", self.neg, self.pos, self.rng.normal(-6, 0.5, 10))
        auto = select_hits(plate, ThresholdRule.sigma())
        assert auto.direction is Direction.POSITIVE_IS_HIGHER
        assert auto.n_hits == 0
        forced = select_hits(plate, ThresholdRule.sigma(),
                             direction=Direction.POSITIVE_IS_LOWER)
        assert forced.direction is Direction.POSITIVE_IS_LOWER
        assert forced.n_hits == 10  # the low-side wells

    def test_sigma_rule_nesting(self):
        samples = self.rng.normal(4, 3, 80)
        plate = make_plate("p", self.neg, self.pos, samples)
        hits_by_k = [
            set(select_hits(plate, ThresholdRule.sigma(k)).hits) for k in (2.0, 3.0, 5.0)
        ]
        assert hits_by_k[2] <= hits_by_k[1] <= hits_by_k[0]

    def test_long_tailed_negative_control_ordering(self):
        # A negative control with a long tail toward the positives: the
        # density-crossing threshold and the logistic boundary agree, while
        # the 3-sigma rule cuts inside the tail and flags strictly more
        # wells.
        rng = np.random.default_rng(0)
        neg = np.concatenate([rng.normal(0, 1, 150), rng.exponential(2.5, 50)])
        pos = rng.normal(12, 1, 200)
        samples = np.concatenate([
            rng.normal(0, 1, 100), rng.exponential(2.5, 40), rng.normal(12, 1, 12),
        ])
        plate = make_plate("p", neg, pos, samples)
        cut = gssmd_threshold(*plate.control_sets())
        g = select_hits(plate, ThresholdRule.gssmd())
        s = select_hits(plate, ThresholdRule.sigma())
        l = select_hits(plate, ThresholdRule.logistic())
        assert abs(g.threshold - l.threshold) <= cut.bin_width
        assert s.n_hits > g.n_hits
        assert set(s.hits) >= set(g.hits)


RULES = (ThresholdRule.gssmd(), ThresholdRule.sigma(), ThresholdRule.ssmd(),
         ThresholdRule.logistic())
RULE_IDS = [rule.kind.value for rule in RULES]


class TestOnePass:
    """One ``select_hits`` gathers, summarizes, bins and signs a plate's controls once."""

    CALLS = {  # each function and how often one select_hits runs it, under every rule
        Plate.control_sets: 1,
        assayqc.samples._finite: 2,  # one check a control group
        SummaryStats.of.__func__: 2,  # one summary a control group
        assayqc.overlap._histogram_counts: 1,
        assayqc.overlap._mean_signs: 1,  # the sign of the mean difference
    }

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_each_control_step_runs_once(self, rule):
        rng = np.random.default_rng(0)
        plate = make_plate("p", rng.normal(0, 1, 64), rng.normal(10, 1, 64),
                           rng.normal(5, 3, 64))
        names = {f.__code__: f.__qualname__ for f in self.CALLS}
        calls = dict.fromkeys(names.values(), 0)

        def profile(frame, event, arg):  # counts, as bench/layers.py's CallCounter does
            if event == "call" and frame.f_code in names:
                calls[names[frame.f_code]] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            select_hits(plate, rule)
        finally:
            sys.setprofile(previous)
        assert calls == {f.__qualname__: n for f, n in self.CALLS.items()}


WIDE = [-1e308, -1e307], [1e308, 1e307]  # a pooled range of no finite width
OVERFLOW = [1.7e308] * 2, [1.7e308, 1.6e308]  # group means that overflow to inf
EQUAL = [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]  # exactly equal means: no hit direction
DIRECTIONS = (None, Direction.POSITIVE_IS_HIGHER, Direction.POSITIVE_IS_LOWER)
DIRECTION_IDS = ["auto", "higher", "lower"]
NO_DIRECTION = "^control means are exactly equal; no hit direction$"


def _threshold(controls, rule, direction=None):
    return select_hits(make_plate("p", *controls, [4.0]), rule, direction=direction).threshold


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the floats overflow, unsilenced
class TestErrorPrecedence:
    """Which error an input that breaks several steps raises: the first step's."""

    @pytest.mark.parametrize("controls, value", [(WIDE, "-inf"), (OVERFLOW, "nan")],
                             ids=["wide", "overflow"])
    def test_the_report_raises_its_z_factor(self, controls, value):
        with pytest.raises(NumericError, match=f"^z_factor of these controls is {value}, "):
            compute_metric_report(*map(SampleSet, controls))

    @pytest.mark.parametrize("direction", DIRECTIONS, ids=DIRECTION_IDS)
    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    @pytest.mark.parametrize("controls, value", [(WIDE, "-inf"), (OVERFLOW, "nan")],
                             ids=["wide", "overflow"])
    def test_select_hits_raises_the_reports_error_under_every_rule(
        self, controls, value, rule, direction
    ):
        with pytest.raises(NumericError, match=f"^z_factor of these controls is {value}, "):
            _threshold(controls, rule, direction)

    @pytest.mark.parametrize("controls, error", [
        (WIDE, NonFiniteRange),
        (OVERFLOW, UndefinedMeanDifference),
        (([-1e308, 1e308], [-1e308, 1e308]), NonFiniteRange),  # equal means, binned first
    ], ids=["wide", "overflow", "wide_equal_means"])
    def test_gssmd_threshold_bins_before_it_signs(self, controls, error):
        with pytest.raises(error):
            gssmd_threshold(*map(SampleSet, controls))

    def test_equal_means_give_a_report_with_gssmd_zero(self):
        assert compute_metric_report(*map(SampleSet, EQUAL)).gssmd == 0.0

    @pytest.mark.parametrize("rule, direction", [
        *[(rule, d) for rule in (RULES[0], RULES[3]) for d in DIRECTIONS],
        (RULES[1], None),
        (RULES[2], None),
    ], ids=[*[f"{r}-{d}" for r in ("gssmd", "logistic") for d in DIRECTION_IDS],
            "sigma-auto", "ssmd-auto"])
    def test_equal_means_have_no_hit_direction(self, rule, direction):
        with pytest.raises(ZeroSign, match=NO_DIRECTION):
            _threshold(EQUAL, rule, direction)

    def test_a_forced_direction_holds_for_sigma_on_equal_means(self):
        assert _threshold(EQUAL, ThresholdRule.sigma(), Direction.POSITIVE_IS_HIGHER) == 5.0
