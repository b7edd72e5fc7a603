import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assayqc import (
    DistributionSpec,
    EmptySampleSet,
    SampleSet,
    SummaryStats,
    draw,
    summarize,
)


class TestSampleSet:
    def test_rejects_empty(self):
        with pytest.raises(EmptySampleSet):
            SampleSet([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            SampleSet([1.0, bad])

    def test_values_are_immutable(self):
        s = SampleSet([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_copies_input(self):
        src = np.array([1.0, 2.0])
        s = SampleSet(src)
        src[0] = 99.0
        assert s.values[0] == 1.0

    def test_len(self):
        assert len(SampleSet([3.0, 4.0, 5.0])) == 3


class TestSummaryStats:
    def test_std_dev_is_exact_sqrt(self):
        stats = SummaryStats(mean=0.0, variance=2.0, count=5)
        assert stats.std_dev == np.sqrt(2.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            SummaryStats(mean=0.0, variance=-1.0, count=2)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            SummaryStats(mean=0.0, variance=0.0, count=0)


class TestSummarize:
    def test_hand_computed(self):
        stats = summarize(SampleSet([1.0, 2.0, 3.0]))
        assert stats.mean == 2.0
        assert stats.variance == 1.0
        assert stats.count == 3
        assert not stats.degenerate

    def test_single_point_is_degenerate(self):
        stats = summarize(SampleSet([5.0]))
        assert stats.mean == 5.0
        assert stats.variance == 0.0
        assert stats.degenerate

    def test_large_sample_matches_generator(self):
        # Law-of-large-numbers check against the generating parameters.
        s = draw(DistributionSpec.normal(0.0, 1.0), 10**6, 42)
        stats = summarize(s)
        assert abs(stats.mean) <= 0.01
        assert abs(stats.variance - 1.0) <= 0.01


@st.composite
def blocks(draw):
    """A (rows, n) block, one value a row allowed, with -0.0 and magnitudes to 1e308."""
    rows, n = draw(st.integers(1, 12)), draw(st.integers(1, 20))
    values = st.floats(-1e3, 1e3) | st.sampled_from([-0.0, 0.0, 1e308, -1e154, 5e-324])
    return np.array(draw(st.lists(values, min_size=rows * n, max_size=rows * n))).reshape(rows, n)


def same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.int64),
                          np.asarray(b, dtype=np.float64).view(np.int64))


class TestRowSummaries:
    """SummaryStats.of a C-ordered block: each row has the bits of its own 1-D summary."""

    @settings(max_examples=100)
    @given(blocks())
    def test_rows_equal_the_1d_summaries(self, block):
        with warnings.catch_warnings():  # overflowing moments warn and read inf or NaN
            warnings.simplefilter("ignore", RuntimeWarning)
            rows = SummaryStats.of(block)
            each = [SummaryStats.of(row) for row in block]
        for name in ("mean", "variance", "std_dev"):
            assert same_bits(getattr(rows, name), [getattr(s, name) for s in each]), name
        assert {(rows.count, rows.degenerate)} == {(s.count, s.degenerate) for s in each}

    @settings(max_examples=100)
    @given(blocks())
    def test_1d_summary_is_the_direct_moments(self, block):
        values = block[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            stats = SummaryStats.of(values)
            lone = values.size == 1
            mean = float(values[0]) if lone else float(values.mean())
            variance = 0.0 if lone else float(values.var(ddof=1))
        assert type(stats.mean) is type(stats.variance) is type(stats.std_dev) is float
        assert same_bits([stats.mean, stats.variance], [mean, variance])
        assert (stats.count, stats.degenerate) == (values.size, lone)

    @settings(max_examples=300)
    @given(st.integers(1, 5), st.integers(2, 300), st.integers(0, 2**32 - 1),
           st.integers(-100, 100), st.integers(0, 100))
    def test_variance_is_numpys_var_bit_for_bit(self, rows, n, seed, exponent, spread):
        """The variance from the row means is ``var(ddof=1)`` of each row, at magnitudes
        spread over up to 10**+-100 within a block."""
        rng = np.random.default_rng(seed)
        low = max(-100, exponent - spread)
        block = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(low, exponent, (rows, n))
        assert same_bits(SummaryStats.of(block).variance, block.var(axis=1, ddof=1))

    def test_a_lone_negative_zero_keeps_its_sign(self):
        for stats in (SummaryStats.of(np.array([-0.0])), summarize(SampleSet([-0.0]))):
            assert math.copysign(1.0, stats.mean) == -1.0 and stats.degenerate
        rows = SummaryStats.of(np.array([[-0.0], [2.0]]))
        assert math.copysign(1.0, rows.mean[0]) == -1.0 and rows.degenerate
        assert same_bits(rows.variance, [0.0, 0.0])
