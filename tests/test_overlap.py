import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from assayqc import (
    DistributionSpec,
    SampleSet,
    bin_count,
    build_histogram_pair,
    derive_seed,
    draw,
    gssmd,
    ovl,
)
from assayqc import overlap
from assayqc.errors import EdgesOutOfOrder, NonFiniteRange, NumericError
from assayqc.overlap import _gssmd_from_arrays, _gssmd_rows, _histogram_counts

# Overlap of two unit-variance normals d apart is 2*Phi(-d/2); at d=1 that
# is 0.6170750774519738 (frozen from numerical integration of the pointwise
# minimum of the two densities; re-derived by quadrature in the acceptance
# suite).
OVL_UNIT_SHIFT = 0.61708


def brute_force_ovl(pair):
    """Independent oracle: per-bin min/sum with an explicit loop."""
    total = 0.0
    for m1, m2 in zip(pair.mass_neg, pair.mass_pos):
        total += m1 if m1 < m2 else m2
    return total


def two_draws(dist_neg, dist_pos, n, seed):
    neg = draw(dist_neg, n, derive_seed(seed, 0))
    pos = draw(dist_pos, n, derive_seed(seed, 1))
    return neg, pos


class TestBinCount:
    @pytest.mark.parametrize("n,expected", [(1000, 11), (2, 2), (10**6, 21), (1, 1)])
    def test_rule(self, n, expected):
        assert bin_count(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bin_count(0)


class TestBuildHistogramPair:
    def test_identical_inputs(self):
        s = SampleSet([0.0, 1.0, 2.0, 3.0])
        pair = build_histogram_pair(s, s, bins=4)
        assert pair.mass_neg.tolist() == [0.25, 0.25, 0.25, 0.25]
        assert pair.mass_pos.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_disjoint_ranges(self):
        pair = build_histogram_pair(SampleSet([0.0, 1.0]), SampleSet([10.0, 11.0]), bins=2)
        assert pair.mass_neg.tolist() == [1.0, 0.0]
        assert pair.mass_pos.tolist() == [0.0, 1.0]

    def test_degenerate_range_single_bin(self):
        s = SampleSet([5.0, 5.0, 5.0])
        pair = build_histogram_pair(s, s)
        assert pair.bins == 1
        assert pair.mass_neg.tolist() == [1.0]
        assert pair.mass_pos.tolist() == [1.0]

    def test_default_bin_rule_uses_pooled_count(self):
        neg, pos = two_draws(DistributionSpec.normal(), DistributionSpec.normal(), 1000, 3)
        pair = build_histogram_pair(neg, pos)
        assert pair.bins == bin_count(2000)

    def test_edges_span_pooled_range_with_equal_widths(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            neg = SampleSet(rng.normal(0, 2, 40))
            pos = SampleSet(rng.normal(1, 3, 60))
            pair = build_histogram_pair(neg, pos)
            lo = min(neg.values.min(), pos.values.min())
            hi = max(neg.values.max(), pos.values.max())
            assert pair.edges[0] == lo and pair.edges[-1] == hi
            widths = np.diff(pair.edges)
            assert np.allclose(widths, widths[0], rtol=1e-12)
            assert abs(pair.mass_neg.sum() - 1) < 1e-9
            assert abs(pair.mass_pos.sum() - 1) < 1e-9

    # All-equal pooled values take one bin whatever ``bins`` asks, but a bin count below 1
    # is rejected before that rule, as it is for any other data.
    @pytest.mark.parametrize("run, neg, pos", [(build_histogram_pair, [1.0, 1.0], [1.0]),
                                               (gssmd, [1.0, 2.0], [1.0])])
    def test_zero_bins_raise_whatever_the_data(self, run, neg, pos):
        with pytest.raises(ValueError, match="^bins must be >= 1$"):
            run(SampleSet(neg), SampleSet(pos), bins=0)

    def test_max_sample_lands_in_last_bin(self):
        # Right-closed final bin: the pooled maximum is counted, and an
        # interior-edge tie goes to the higher bin.
        pair = build_histogram_pair(SampleSet([0.0, 2.0]), SampleSet([4.0]), bins=4)
        assert pair.counts_pos.tolist() == [0, 0, 0, 1]
        assert pair.counts_neg.tolist() == [1, 0, 1, 0]


class TestOvl:
    def test_complete_overlap(self):
        s = SampleSet([1.0, 2.0, 2.0, 4.0])
        assert ovl(build_histogram_pair(s, s)) == 1.0

    def test_disjoint(self):
        pair = build_histogram_pair(SampleSet([0.0, 1.0]), SampleSet([10.0, 11.0]), bins=2)
        assert ovl(pair) == 0.0

    def test_unit_shift_normals_match_analytic_overlap(self):
        neg, pos = two_draws(
            DistributionSpec.normal(0, 1), DistributionSpec.normal(1, 1), 10**6, 21
        )
        assert ovl(build_histogram_pair(neg, pos)) == pytest.approx(OVL_UNIT_SHIFT, abs=0.05)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            neg = SampleSet(rng.normal(0, 1, rng.integers(5, 80)))
            pos = SampleSet(rng.normal(rng.uniform(-2, 2), 1, rng.integers(5, 80)))
            pair = build_histogram_pair(neg, pos)
            assert ovl(pair) == pytest.approx(brute_force_ovl(pair), abs=1e-12)


class TestGssmd:
    def test_null_draws_with_shared_seed_are_identical(self):
        # Both groups "drawn with seed 7" is the same deterministic draw,
        # so the pair fully overlaps and the sign is zero.
        spec = DistributionSpec.normal(0, 1)
        result = gssmd(draw(spec, 1000, 7), draw(spec, 1000, 7))
        assert abs(result.gssmd) <= 0.05
        assert result.gssmd == 0.0 and result.sign == 0

    def test_null_independent_draws_stay_small(self):
        spec = DistributionSpec.normal(0, 1)
        neg, pos = two_draws(spec, spec, 1000, 7)
        # Null |GSSMD| at this size concentrates near 0.05 (see the null
        # calibration table); 0.15 is a generous 3-sigma-style bound.
        assert abs(gssmd(neg, pos).gssmd) <= 0.15

    def test_disjoint_shift_is_maximal(self):
        neg, pos = two_draws(
            DistributionSpec.normal(0, 1), DistributionSpec.normal(10, 1), 1000, 99
        )
        assert gssmd(neg, pos).gssmd == 1.0

    def test_sign_flip_of_maximal_case(self):
        neg, pos = two_draws(
            DistributionSpec.normal(0, 1), DistributionSpec.normal(-10, 1), 1000, 99
        )
        assert gssmd(neg, pos).gssmd == -1.0

    def test_result_identities(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            neg = SampleSet(rng.normal(0, 1, 50))
            pos = SampleSet(rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2), 50))
            r = gssmd(neg, pos)
            assert r.gcnr == 1.0 - r.ovl
            assert r.gssmd == r.sign * r.gcnr
            assert 0.0 <= r.ovl <= 1.0
            assert 0.0 <= r.gcnr <= 1.0
            assert abs(r.gssmd) <= 1.0

    def test_overlap_symmetry_and_gssmd_antisymmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = SampleSet(rng.normal(0, 1, 60))
            b = SampleSet(rng.normal(rng.uniform(-2, 2), 1.3, 40))
            fwd, rev = gssmd(a, b), gssmd(b, a)
            assert fwd.ovl == rev.ovl
            assert fwd.gssmd == -rev.gssmd

    def test_identity_on_same_multiset(self):
        rng = np.random.default_rng(31)
        values = rng.normal(0, 1, 137)
        r = gssmd(SampleSet(values), SampleSet(np.random.default_rng(0).permutation(values)))
        assert r.ovl == 1.0
        assert r.gssmd == 0.0


def _away_from_edges(rng, n1, n2, margin_frac=1e-6):
    """Random pair with every sample bounded away from its bin edges."""
    while True:
        neg = rng.normal(0, 1, n1)
        pos = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), n2)
        pair = build_histogram_pair(SampleSet(neg), SampleSet(pos))
        margin = pair.bin_width * margin_frac
        pooled = np.concatenate([neg, pos])
        dist = np.abs(pooled[:, None] - pair.edges[None, 1:-1])
        if dist.min() > margin:
            return neg, pos


class TestAffineBehaviour:
    def test_positive_affine_map_is_bit_identical_off_edges(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            neg, pos = _away_from_edges(rng, 80, 120)
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-10, 10)
            r1 = gssmd(SampleSet(neg), SampleSet(pos))
            r2 = gssmd(SampleSet(a * neg + b), SampleSet(a * pos + b))
            assert r1.ovl == r2.ovl
            assert r1.gssmd == r2.gssmd

    def test_negation_flips_gssmd_keeps_ovl(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            neg, pos = _away_from_edges(rng, 60, 60)
            r1 = gssmd(SampleSet(neg), SampleSet(pos))
            r2 = gssmd(SampleSet(-neg), SampleSet(-pos))
            assert r1.ovl == r2.ovl
            assert r1.gssmd == -r2.gssmd


class TestMonotoneTrend:
    def test_median_gssmd_increases_with_shift(self):
        shifts = [0.0, 1.0, 3.0, 5.0, 10.0]
        medians = []
        for i, d in enumerate(shifts):
            vals = []
            for run in range(100):
                neg = draw(DistributionSpec.normal(0, 1), 1000, derive_seed(777, i, run, 0))
                pos = draw(DistributionSpec.normal(d, 1), 1000, derive_seed(777, i, run, 1))
                vals.append(gssmd(neg, pos).gssmd)
            medians.append(float(np.median(vals)))
        assert all(a < b for a, b in zip(medians, medians[1:]))


def per_pair_rows(neg, pos, bins=None):
    """Oracle for the row kernel: the per-pair kernel applied row by row."""
    return np.array([_gssmd_from_arrays(a, b, bins).gssmd for a, b in zip(neg, pos)])


def assert_same_bits(actual, expected):
    # Compared as integers, so that -0.0 and +0.0 differ.
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


class TestGssmdRows:
    """Row kernel vs the per-pair kernel: equal bit for bit, row by row."""

    @pytest.mark.parametrize("bins", [None, 1, 2, 5])
    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
    def test_normal_draws(self, n, rows, bins):
        rng = np.random.default_rng(n * 10 + rows)
        neg = rng.normal(0, 1, (rows, n))
        pos = rng.normal(0.3, 1, (rows, n))
        assert_same_bits(_gssmd_rows(neg, pos, bins), per_pair_rows(neg, pos, bins))

    @pytest.mark.parametrize("bins", [None, 1, 2, 5])
    @pytest.mark.parametrize("rows", [1, 9])
    def test_integer_data_with_ties_on_edges(self, rows, bins):
        # Every row spans 0..5, so at bins=5 each integer sits on an edge.
        rng = np.random.default_rng(rows)
        neg = rng.integers(0, 6, (rows, 12)).astype(float)
        pos = rng.integers(0, 6, (rows, 15)).astype(float)
        neg[:, 0], pos[:, 0] = 0.0, 5.0
        assert_same_bits(_gssmd_rows(neg, pos, bins), per_pair_rows(neg, pos, bins))

    @pytest.mark.parametrize("bins", [None, 1, 3, 7])
    @pytest.mark.parametrize("rows", [1, 8])
    def test_values_on_and_next_to_the_computed_edges(self, rows, bins):
        # Values equal to the linspace edges (and one ulp either side) are
        # where a first-guess index from the scaled offset can miss by one.
        rng = np.random.default_rng(rows + (bins or 0))
        m = n = 16
        k = bin_count(m + n) if bins is None else bins
        pooled = np.empty((rows, m + n))
        for r in range(rows):
            lo = rng.uniform(-10, 10)
            edges = np.linspace(lo, lo + rng.uniform(0.1, 100), k + 1)
            near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                   np.nextafter(edges, np.inf)])
            near = near[(near >= edges[0]) & (near <= edges[-1])]
            values = rng.choice(near, m + n)
            values[:2] = edges[0], edges[-1]
            pooled[r] = rng.permutation(values)
        neg, pos = pooled[:, :m], pooled[:, m:]
        assert_same_bits(_gssmd_rows(neg, pos, bins), per_pair_rows(neg, pos, bins))

    @pytest.mark.parametrize("bins", [None, 1, 2, 5])
    def test_all_equal_rows_alone_and_mixed_with_normal_rows(self, bins):
        rng = np.random.default_rng(5)
        neg, pos = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        for r, c in zip((0, 3, 4, 7), (2.0, -1.5, 0.0, 1e-300)):
            neg[r], pos[r] = c, c
        # Groups of +0.0 and -0.0: were a mean -0.0, the difference would be
        # -0.0, which the per-pair kernel signs as 0.
        neg[5], pos[5] = 0.0, -0.0
        neg[8], pos[8] = [-1.0, 1.0, -2.0, 2.0], -0.0
        got = _gssmd_rows(neg, pos, bins)
        assert_same_bits(got, per_pair_rows(neg, pos, bins))
        assert_same_bits(_gssmd_rows(neg[[0]], pos[[0]], bins), got[[0]])
        assert np.all(got[[0, 3, 4, 5, 7]] == 0.0)

    @pytest.mark.parametrize("bins", [None, 5, 20, 50])
    def test_rows_a_few_ulps_wide_use_the_per_pair_kernel(self, bins):
        # Edges a fraction of an ulp apart round onto each other, so one
        # correction step may not find the bin; such rows take the per-pair
        # path, next to an ordinary row.
        rng = np.random.default_rng(11)
        ulp = np.spacing(1.0)
        narrow = 1.0 + ulp * rng.integers(0, 4, (2, 16))
        narrow[:, 0], narrow[:, -1] = 1.0, 1.0 + 3 * ulp
        neg = np.vstack([narrow[:, :8], rng.normal(size=8)])
        pos = np.vstack([narrow[:, 8:], rng.normal(size=8)])
        assert_same_bits(_gssmd_rows(neg, pos, bins), per_pair_rows(neg, pos, bins))

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            _gssmd_rows(np.zeros((2, 3)), np.ones((2, 3)), bins=0)

    # Bounded so that a row's range (hi - lo) stays finite.
    @given(st.data())
    def test_matches_per_pair_kernel_on_arbitrary_finite_floats(self, data):
        rows = data.draw(st.integers(1, 4))
        m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        values = st.floats(-1e300, 1e300, allow_nan=False)
        neg = data.draw(hnp.arrays(np.float64, (rows, m), elements=values))
        pos = data.draw(hnp.arrays(np.float64, (rows, n), elements=values))
        bins = data.draw(st.none() | st.integers(1, 8))
        assert_same_bits(_gssmd_rows(neg, pos, bins), per_pair_rows(neg, pos, bins))


class TestGssmdRowsOvl:
    """The row kernel's per-row OVL, written into ``ovl``, against the per-pair kernel."""

    @given(st.data())
    def test_matches_per_pair_ovl(self, data):
        rows = data.draw(st.integers(1, 6))
        m, n = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        # Small integers tie on edges and give all-equal rows; the wide floats
        # include rows too narrow for the row kernel.
        values = st.integers(-3, 3).map(float) | st.floats(-1e150, 1e150)
        neg = data.draw(hnp.arrays(np.float64, (rows, m), elements=values))
        pos = data.draw(hnp.arrays(np.float64, (rows, n), elements=values))
        bins = data.draw(st.none() | st.integers(1, 8))
        ovl = np.full(rows, np.nan)
        assert_same_bits(_gssmd_rows(neg, pos, bins, ovl), per_pair_rows(neg, pos, bins))
        expected = np.array([_gssmd_from_arrays(a, b, bins).ovl for a, b in zip(neg, pos)])
        assert_same_bits(ovl, expected)


# Row values that stress the counting rule: integers tie on edges, a few ulps
# above 1.0 round edges onto each other, multiples of the smallest subnormal
# make a step span/k that is 0 or rounds the last edges out of order.
ROW_VALUES = {
    "ties": st.integers(-3, 3).map(float),
    "ulps": st.integers(0, 6).map(lambda k: 1.0 + k * np.spacing(1.0)),
    "subnormal": st.integers(-6, 6).map(lambda k: k * 5e-324),
    "normal": st.floats(-1e3, 1e3),
    "wide": st.floats(-1e300, 1e300),  # bounded, so that a row's range stays finite
}


@st.composite
def row_pairs(draw, max_rows=6):
    """A (T, m) and a (T, n) block whose rows each take their values from one ROW_VALUES kind,
    and a bin count: the default, 1 to 40, or more than the values, which slices the rows."""
    rows, m, n = draw(st.integers(1, max_rows)), draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(ROW_VALUES)), min_size=rows, max_size=rows))
    neg, pos = (np.array([draw(st.lists(ROW_VALUES[kind], min_size=size, max_size=size))
                          for kind in kinds]).reshape(rows, size) for size in (m, n))
    return neg, pos, draw(st.none() | st.integers(1, 40) | st.integers(41, 400))


def outcome(run, *args):
    """``run(*args)``, or the class and message of the ``ValueError`` it raised."""
    try:
        return run(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def numpy_histogram_counts(neg, pos, bins):
    """Oracle: ``numpy.histogram`` on ``linspace`` edges over the pooled range, as the
    per-pair kernel binned before it counted by itself (same all-equal rule)."""
    lo, hi = min(neg.min(), pos.min()), max(neg.max(), pos.max())
    if lo == hi:
        return np.array([lo - 0.5, lo + 0.5]), np.array([neg.size]), np.array([pos.size])
    edges = np.linspace(lo, hi, (bin_count(neg.size + pos.size) if bins is None else bins) + 1)
    return edges, np.histogram(neg, bins=edges)[0], np.histogram(pos, bins=edges)[0]


class TestCountingRule:
    """Both kernels count by the values below each inner edge, as numpy.histogram bins."""

    @settings(max_examples=300)
    @given(row_pairs(max_rows=1))
    def test_per_pair_counts_equal_numpy_histogram(self, pair):
        neg, pos, bins = pair[0][0], pair[1][0], pair[2]
        got, want = (outcome(run, neg, pos, bins)
                     for run in (_histogram_counts, numpy_histogram_counts))
        if isinstance(want[0], type):  # edges out of order: numpy raises, and so must the kernel
            assert "monotonically" in want[1] and got[0] is EdgesOutOfOrder
            return
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    @settings(max_examples=300)
    @given(row_pairs())
    def test_row_kernel_equals_the_per_pair_kernel(self, pairs):
        neg, pos, bins = pairs
        ovl = np.full(len(neg), np.nan)
        got = outcome(_gssmd_rows, neg, pos, bins, ovl)
        want = outcome(per_pair_rows, neg, pos, bins)
        if isinstance(want, tuple):
            assert got == want
            return
        assert_same_bits(got, want)
        assert_same_bits(ovl, np.array([_gssmd_from_arrays(a, b, bins).ovl
                                        for a, b in zip(neg, pos)]))

    @pytest.mark.parametrize("units, bins", [([0, 3], 5), ([0, 1, 3], 5), ([-2, 3], 7)])
    def test_edges_out_of_order_raise_as_numpy_does(self, units, bins):
        # A span of 3 subnormal units over 5 bins: the step rounds up to 1 unit, so the
        # fifth edge (4 units) passes the last (3), and numpy.histogram rejects the edges.
        neg = np.array(units, dtype=float) * 5e-324
        pos = neg[::-1].copy()
        assert outcome(numpy_histogram_counts, neg, pos, bins)[0] is ValueError
        # The kernel's error is a NumericError (exit 3 in the CLI) and still a ValueError.
        want = (EdgesOutOfOrder, f"{bins} equal-width bins over the pooled range "
                f"[{min(units) * 5e-324!r}, {max(units) * 5e-324!r}] round their last edges "
                "out of order")
        assert issubclass(EdgesOutOfOrder, NumericError)
        assert outcome(_histogram_counts, neg, pos, bins) == want
        assert outcome(_gssmd_rows, neg[None], pos[None], bins) == want

    @pytest.mark.parametrize("bins", [None, 5, 40])
    def test_subnormal_span_row_in_a_block_of_normal_rows(self, bins):
        # A span of two subnormal units makes the step span/k 0: an array linspace
        # with a zero step would rescale every row's edges, so the row goes pair by pair.
        rng = np.random.default_rng(17)
        neg, pos = rng.normal(size=(5, 9)), rng.normal(size=(5, 9))
        neg[2], pos[2] = 5e-324 * rng.integers(0, 3, 9), 5e-324 * rng.integers(0, 3, 9)
        neg[2, 0], pos[2, 0] = 0.0, 2 * 5e-324
        assert_same_bits(_gssmd_rows(neg, pos, bins), per_pair_rows(neg, pos, bins))

    @pytest.mark.parametrize("bins", [10, 20, 40, 80])
    def test_many_bins_slice_the_rows(self, bins):
        # A slice holds 20 * 24 // (8 * (k + 1)) rows: 5, 2 and 1, and at 80 bins
        # none, so every row goes pair by pair.
        rng = np.random.default_rng(bins)
        neg, pos = rng.normal(size=(20, 12)), rng.normal(0.5, 1, (20, 12))
        assert_same_bits(_gssmd_rows(neg, pos, bins), per_pair_rows(neg, pos, bins))


class TestNonFiniteRange:
    """A pooled range of no finite width raises one error, a pair or a row at a time."""

    @pytest.mark.parametrize("value, shown", [(np.inf, "[0.5, inf]"), (-np.inf, "[-inf, 2.0]"),
                                              (np.nan, "[0.5, nan]")])
    def test_a_non_finite_value(self, value, shown):
        neg, pos = np.array([1.0, value]), np.array([0.5, 2.0])
        want = (NonFiniteRange, f"the pooled range {shown} has no finite width")
        assert outcome(_histogram_counts, neg, pos, None) == want
        assert outcome(_gssmd_rows, neg[None], pos[None], None) == want

    def test_a_finite_range_whose_width_overflows(self):
        neg, pos = np.array([-1e308, 0.0]), np.array([1e308])
        want = (NonFiniteRange, "the pooled range [-1e+308, 1e+308] has no finite width")
        with np.errstate(over="ignore"):
            assert outcome(_histogram_counts, neg, pos, 5) == want
            assert outcome(_gssmd_rows, neg[None], np.array([[1e308, 1e308]]), 5) == want
        # A NumericError (exit 3 in the CLI), and still a ValueError.
        assert issubclass(NonFiniteRange, NumericError)


SPECIAL_ROWS = ["inf", "-inf", "nan", "all equal", "2 subnormal units", "3 subnormal units",
                "overflowing span"]


def special_row(kind, rng, size):
    """A neg and a pos row of ``size`` values each that binning treats specially."""
    neg, pos = rng.normal(size=size), rng.normal(size=size)
    if kind in ("inf", "-inf", "nan"):
        (pos if kind == "-inf" else neg)[size // 2] = float(kind)
    elif kind == "all equal":
        neg[:], pos[:] = 2.5, 2.5
    elif kind.endswith("subnormal units"):
        # Over 5 or more bins, 2 units make a step span/k of 0 (numpy linspace's own branch);
        # over 5 bins, 3 units round the last edges out of order.
        units = int(kind[0])
        neg, pos = 5e-324 * rng.integers(0, units + 1, (2, size))
        neg[0], pos[0] = 0.0, units * 5e-324
    else:
        neg[0], pos[0] = -1e308, 1e308
    return neg, pos


class TestSpecialRowInABlock:
    """One special row among normal rows scores, or raises, as the pair alone does."""

    @pytest.mark.parametrize("bins", [None, 5, 20])  # at 20 bins a slice holds 2 rows of 8
    @pytest.mark.parametrize("rows, at", [(1, 0), (2, 0), (2, 1), (8, 0), (8, 4), (8, 7)])
    @pytest.mark.parametrize("kind", SPECIAL_ROWS)
    def test_scores_or_raises_as_the_pair_does(self, kind, rows, at, bins):
        rng = np.random.default_rng(10 * rows + at)
        neg, pos = rng.normal(size=(rows, 30)), rng.normal(0.5, 1, (rows, 30))
        neg[at], pos[at] = special_row(kind, rng, 30)
        ovl = np.full(rows, np.nan)
        with np.errstate(over="ignore"):
            got = outcome(_gssmd_rows, neg, pos, bins, ovl)
            want = outcome(per_pair_rows, neg, pos, bins)
        if isinstance(want, tuple):
            assert got == want
            return
        assert_same_bits(got, want)
        assert_same_bits(ovl, np.array([_gssmd_from_arrays(a, b, bins).ovl
                                        for a, b in zip(neg, pos)]))


def test_every_overlap_reaches_the_counting_function_the_benchmark_traces():
    # The benchmark counts calls of overlap._histogram_counts through its __code__, as here;
    # a rename or a wrapper would fail every traced run.
    kernel = overlap._histogram_counts
    assert isinstance(kernel, types.FunctionType)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is kernel.__code__:
            calls.append(frame)

    neg, pos = np.random.default_rng(6).normal(size=(2, 8, 40))
    pair = SampleSet(neg[0]), SampleSet(pos[0])
    runs = {"gssmd": lambda: gssmd(*pair),
            "build_histogram_pair": lambda: build_histogram_pair(*pair),
            "T = 1": lambda: _gssmd_rows(neg[:1], pos[:1]),
            "T = 8": lambda: _gssmd_rows(neg, pos)}
    for name, run in runs.items():
        calls.clear()
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        assert len(calls) == 1, name


class TestRowKernelMemory:
    """The row kernel's temporaries stay a small multiple of the chunk it scores."""

    @pytest.mark.parametrize("bins, bound", [
        (None, 2.0),  # 11 bins, counted with searchsorted: sorted copies of the chunk
        (9, 3.0),  # counted by comparison: a (8, 8, 1000) boolean block a group
        (1000, 3.0),  # about 8 arrays of k + 1 counts a row: slices of one row
    ])
    def test_default_chunk(self, bins, bound):
        neg, pos = np.random.default_rng(3).normal(size=(2, 8, 1000))
        assert peak_bytes(_gssmd_rows, neg, pos, bins) <= bound * (neg.nbytes + pos.nbytes)

    def test_edges_that_outgrow_the_chunk_go_pair_by_pair(self):
        # Each pair holds its own 10**5 + 1 edges and counts, never every row's.
        neg, pos = np.random.default_rng(4).normal(size=(2, 8, 1000))
        edge_bytes = 8 * (10**5 + 1)
        assert peak_bytes(_gssmd_rows, neg, pos, 10**5) <= 8 * (neg.nbytes + pos.nbytes
                                                                 + edge_bytes)


def peak_bytes(run, *args):
    """Peak of the memory ``tracemalloc`` sees (numpy's arrays included) during ``run``."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_groups_above_two_to_the_sixteen_values_keep_numpy_histogram_blocks():
    # numpy.histogram sorts 2**16 values at a time (about 1 MB at its peak here);
    # a whole sorted copy of both groups would peak at their own 4 MB.
    neg, pos = np.random.default_rng(9).normal(size=(2, 4 * 2**16))
    for a, b in zip(_histogram_counts(neg, pos, None), numpy_histogram_counts(neg, pos, None)):
        np.testing.assert_array_equal(a, b)
    assert peak_bytes(_histogram_counts, neg, pos, None) <= 0.5 * (neg.nbytes + pos.nbytes)
