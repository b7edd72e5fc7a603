import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assayqc import (
    DegenerateMeanDifference,
    DegenerateVariance,
    DistributionSpec,
    DivisionByZeroMean,
    SampleSet,
    SummaryStats,
    cnr,
    draw,
    sbr,
    snr_assay,
    ssmd,
    summarize,
    z_factor,
)


def stats(mean, std):
    return SummaryStats(mean=mean, variance=std * std, count=100)


class TestSnrAssay:
    def test_direct_substitution(self):
        assert snr_assay(stats(10, 1), stats(0, 1)) == 10.0
        assert snr_assay(stats(3, 1), stats(0, 2)) == 1.5

    def test_zero_numerator(self):
        assert snr_assay(stats(7, 1), stats(7, 2)) == 0.0

    def test_degenerate_noise(self):
        with pytest.raises(DegenerateVariance):
            snr_assay(stats(1, 1), stats(0, 0))


class TestSbr:
    def test_direct_substitution(self):
        assert sbr(stats(10, 1), stats(2, 1)) == 5.0
        assert sbr(stats(0, 1), stats(4, 1)) == 0.0

    def test_identical_means(self):
        assert sbr(stats(7, 1), stats(7, 1)) == 1.0

    def test_zero_background(self):
        with pytest.raises(DivisionByZeroMean):
            sbr(stats(1, 1), stats(0, 1))


class TestZFactor:
    def test_direct_substitution(self):
        assert z_factor(stats(10, 1), stats(0, 1)) == pytest.approx(0.4)
        assert z_factor(stats(30, 1), stats(0, 1)) == pytest.approx(0.8)

    def test_zero_noise_upper_bound(self):
        assert z_factor(stats(5, 0), stats(0, 0)) == 1.0

    def test_equal_means(self):
        with pytest.raises(DegenerateMeanDifference):
            z_factor(stats(3, 1), stats(3, 1))

    def test_symmetric_in_groups(self):
        a, b = stats(12.5, 2.0), stats(3.0, 0.7)
        assert z_factor(a, b) == z_factor(b, a)


class TestSsmd:
    def test_direct_substitution(self):
        assert ssmd(stats(3, 1), stats(0, 1)) == pytest.approx(3 / math.sqrt(2))
        assert ssmd(stats(30, 5), stats(0, 5)) == pytest.approx(30 / math.sqrt(50))

    def test_zero_numerator(self):
        assert ssmd(stats(4, 1), stats(4, 2)) == 0.0

    def test_both_variances_zero(self):
        with pytest.raises(DegenerateVariance):
            ssmd(stats(1, 0), stats(0, 0))

    def test_antisymmetric(self):
        a, b = stats(9.0, 1.5), stats(2.0, 0.5)
        assert ssmd(a, b) == -ssmd(b, a)


class TestCnr:
    def test_magnitude_of_ssmd(self):
        assert cnr(stats(3, 1), stats(0, 1)) == pytest.approx(2.1213, abs=1e-4)
        assert cnr(stats(0, 1), stats(3, 1)) == pytest.approx(2.1213, abs=1e-4)
        assert cnr(stats(4, 1), stats(4, 2)) == 0.0

    def test_equals_abs_ssmd_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            a = stats(rng.normal(0, 10), rng.uniform(0.1, 5))
            b = stats(rng.normal(0, 10), rng.uniform(0.1, 5))
            assert cnr(a, b) == abs(ssmd(a, b))


class TestAffineEquivariance:
    def test_scale_and_shift_cancel(self):
        # x -> a*x + b with a > 0 leaves ssmd, cnr and z_factor unchanged.
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), 100)
            y = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), 100)
            a, b = rng.uniform(0.5, 3.0), rng.uniform(-10, 10)
            s1, s2 = summarize(SampleSet(x)), summarize(SampleSet(y))
            t1, t2 = summarize(SampleSet(a * x + b)), summarize(SampleSet(a * y + b))
            assert ssmd(t1, t2) == pytest.approx(ssmd(s1, s2), rel=1e-12, abs=1e-12)
            assert cnr(t1, t2) == pytest.approx(cnr(s1, s2), rel=1e-12, abs=1e-12)
            assert z_factor(t1, t2) == pytest.approx(z_factor(s1, s2), rel=1e-12, abs=1e-12)


class TestLargeSampleValues:
    @pytest.mark.parametrize("d", [1.0, 10.0])
    def test_sample_metrics_near_population_values(self, d):
        n = 10**6
        neg = summarize(draw(DistributionSpec.normal(0, 1), n, 11))
        pos = summarize(draw(DistributionSpec.normal(d, 1), n, 12))
        assert ssmd(pos, neg) == pytest.approx(d / math.sqrt(2), abs=0.01)
        assert z_factor(pos, neg) == pytest.approx(1 - 6 / d, abs=0.02)


def metric_outcome(metric, pos, neg):
    """A metric's value, or the class of what it raised, with numpy errors raising."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            return metric(pos, neg)
        except Exception as exc:
            return type(exc)


# Ties give equal means and zero variances; 1e308 overflows means, variances and metrics.
row_values = (st.integers(-2, 2).map(float) | st.floats(-1e3, 1e3)
              | st.sampled_from([-0.0, 1e-320, 1e154, -1e308, 1e308]))


@st.composite
def row_blocks(draw):
    """Two (rows, n) blocks of values, one value a row allowed."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    return tuple(np.array(draw(st.lists(row_values, min_size=rows * n, max_size=rows * n)))
                 .reshape(rows, n) for _ in range(2))


class TestRowSummaries:
    """z_factor, ssmd and cnr on a block's row summaries, against each row's own call."""

    @settings(max_examples=200)
    @given(row_blocks())
    def test_rows_equal_the_per_row_calls(self, blocks):
        neg, pos = blocks
        with warnings.catch_warnings():  # moments that overflow warn and read inf or NaN
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = SummaryStats.of(pos), SummaryStats.of(neg)
            pairs = [(SummaryStats.of(p), SummaryStats.of(q)) for p, q in zip(pos, neg)]
        for metric in (z_factor, ssmd, cnr):
            got = metric_outcome(metric, *rows)
            want = [metric_outcome(metric, *pair) for pair in pairs]
            raised = {w for w in want if isinstance(w, type)}
            if raised:  # a block raises if a row does, with a class some row raises
                assert got in raised, (metric, got, want)
                continue
            assert all(type(w) is float for w in want)
            np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))

    def test_a_block_with_one_degenerate_row_raises(self):
        neg = SummaryStats.of(np.array([[0.0, 1.0], [3.0, 3.0]]))
        pos = SummaryStats.of(np.array([[2.0, 5.0], [4.0, 4.0]]))
        assert z_factor(pos, neg).shape == (2,)  # the means differ in every row
        with pytest.raises(DegenerateVariance, match="^SSMD needs at least one positive"):
            ssmd(pos, neg)  # row 1 has two zero variances

    def test_scalar_calls_return_floats(self):
        neg = SummaryStats.of(np.array([0.0, 1.0, 3.0]))
        pos = SummaryStats.of(np.array([5.0, 8.0]))
        for metric in (z_factor, ssmd, cnr, snr_assay, sbr):
            assert type(metric(pos, neg)) is float
