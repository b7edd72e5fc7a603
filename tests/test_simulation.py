import functools
import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assayqc import (
    ConfigError,
    DegenerateMeanDifference,
    DegenerateVariance,
    DistributionSpec,
    GridPoint,
    InvalidSubsampleSize,
    NullCalibrationRow,
    SampleSet,
    ScenarioConfig,
    SummaryStats,
    TrialAggregate,
    ZeroPowerSignal,
    add_awgn,
    calibrate_null,
    derive_seed,
    draw,
    gssmd,
    inject_outliers,
    run_mean_difference_sweep,
    run_noise_sweep,
    run_outlier_sweep,
    run_subsampled_estimate,
    ssmd,
    summarize,
    z_factor,
)
from assayqc import scenarios, simulation
from assayqc.errors import NonFiniteRange, NumericError
from assayqc.overlap import _gssmd_from_arrays

NORMAL = DistributionSpec.normal(0, 1)


def _moments(values):
    a = np.asarray(values)
    return TrialAggregate(float(a.mean()), float(a.std()), float(a.min()), float(a.max()))


def _trial_metrics(neg, pos, bins):
    s_neg, s_pos = summarize(neg), summarize(pos)
    overlap = gssmd(neg, pos, bins)
    return {"z_factor": z_factor(s_pos, s_neg), "ssmd": ssmd(s_pos, s_neg),
            "gssmd": overlap.gssmd, "ovl": overlap.ovl}


def _point(params, trials):
    return GridPoint(params, {k: _moments([t[k] for t in trials]) for k in trials[0]})


def recomputed_sweep_points(cfg):
    """run_mean_difference_sweep rebuilt trial by trial from derive_seed(seed, i, t, group)."""
    points = []
    for i, d in enumerate(cfg.mu_diffs):
        trials = []
        for t in range(cfg.trials):
            neg = draw(cfg.neg, cfg.n, derive_seed(cfg.seed, i, t, 0))
            pos = draw(cfg.neg.shifted(d), cfg.n, derive_seed(cfg.seed, i, t, 1))
            trials.append(_trial_metrics(neg, pos, cfg.bins))
        points.append(_point({"mu_diff": float(d)}, trials))
    return points


def recomputed_outlier_points(cfg):
    """run_outlier_sweep rebuilt trial by trial from derive_seed(seed, i, j, t, stream)."""
    points = []
    for i, frac in enumerate(cfg.outlier_fractions):
        for j, om in enumerate(cfg.outlier_means):
            trials = []
            for t in range(cfg.trials):
                neg = draw(cfg.neg, cfg.n, derive_seed(cfg.seed, i, j, t, 0))
                pos = draw(cfg.neg, cfg.n, derive_seed(cfg.seed, i, j, t, 1))
                pos = inject_outliers(pos, frac, DistributionSpec.normal(om, cfg.outlier_scale),
                                      derive_seed(cfg.seed, i, j, t, 2))
                trials.append(_trial_metrics(neg, pos, cfg.bins))
            points.append(_point({"fraction": float(frac), "outlier_mean": float(om)}, trials))
    return points


def recomputed_noise_points(cfg):
    """run_noise_sweep rebuilt trial by trial from derive_seed(seed, i, j, t, stream)."""
    points = []
    for i, d in enumerate(cfg.mu_diffs):
        for j, snr in enumerate(cfg.snr_db):
            trials = []
            for t in range(cfg.trials):
                base = draw(cfg.neg, cfg.n, derive_seed(cfg.seed, i, j, t, 0))
                neg = add_awgn(base, snr, derive_seed(cfg.seed, i, j, t, 1))
                pos = add_awgn(SampleSet(base.values + d), snr, derive_seed(cfg.seed, i, j, t, 2))
                trials.append(_trial_metrics(neg, pos, cfg.bins))
            points.append(_point({"mu_diff": float(d), "snr_db": float(snr)}, trials))
    return points


def recomputed_null_rows(sizes, trials, dist, seed, bins=None):
    """calibrate_null rebuilt trial by trial from derive_seed(seed, i, t, group)."""
    rows = []
    for i, n in enumerate(sizes):
        signed = np.array([
            gssmd(draw(dist, n, derive_seed(seed, i, t, 0)),
                  draw(dist, n, derive_seed(seed, i, t, 1)), bins).gssmd
            for t in range(trials)
        ])
        a = np.abs(signed)
        p95, p99, p999 = np.percentile(a, [95.0, 99.0, 99.9])
        rows.append(NullCalibrationRow(
            n, float(a.mean()), float(a.var(ddof=1)), float(a.min()), float(a.max()),
            float(p95), float(p99), float(p999), float(signed.mean()),
        ))
    return rows


class TestDraw:
    def test_normal_mean_matches_parameters(self):
        s = draw(NORMAL, 10**5, 1)
        assert abs(s.values.mean()) <= 0.02

    def test_lognormal_median_is_exp_location(self):
        s = draw(DistributionSpec.lognormal(0, 0.5), 10**5, 1)
        assert np.median(s.values) == pytest.approx(1.0, abs=0.03)

    def test_deterministic(self):
        a = draw(NORMAL, 1000, 42)
        b = draw(NORMAL, 1000, 42)
        assert np.array_equal(a.values, b.values)

    def test_lognormal_is_exp_of_normal(self):
        log_draw = draw(DistributionSpec.lognormal(2.0, 0.7), 100, 5)
        norm_draw = draw(DistributionSpec.normal(2.0, 0.7), 100, 5)
        assert np.array_equal(log_draw.values, np.exp(norm_draw.values))

    def test_rejects_bad_spec(self):
        with pytest.raises(ConfigError):
            DistributionSpec("cauchy", 0, 1)
        with pytest.raises(ConfigError):
            DistributionSpec.normal(0, 0)


class RecordingGenerator:
    """A generator that records the names of the methods called on it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


class TestSample:
    """``_sample`` has the bits of ``rng.normal`` (and its exp), by the standard path where
    the spec is (0, 1)."""

    @pytest.mark.parametrize("kind", ["normal", "lognormal"])
    @pytest.mark.parametrize("location, scale, path", [
        (0.0, 1.0, "standard_normal"), (-0.0, 1.0, "standard_normal"), (0, 1, "standard_normal"),
        (0.5, 1.0, "normal"), (0.0, 2.0, "normal"), (-3.0, 0.25, "normal"),
    ])
    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_bits_of_normal(self, kind, location, scale, path, n):
        for seed in range(3):
            rng = RecordingGenerator(seed)
            got = simulation._sample(DistributionSpec(kind, location, scale), n, rng)
            want = np.random.default_rng(seed).normal(location, scale, n)
            if kind == "lognormal":
                want = np.exp(want)
            assert got.tobytes() == want.tobytes()
            assert rng.calls == [path]


class TestInjectOutliers:
    def test_zero_fraction_returns_input(self):
        s = draw(NORMAL, 100, 1)
        assert inject_outliers(s, 0.0, DistributionSpec.normal(30, 1), 2) is s

    def test_full_replacement(self):
        s = draw(NORMAL, 1000, 1)
        out = inject_outliers(s, 1.0, DistributionSpec.normal(30, 1), 2)
        assert out.values.mean() == pytest.approx(30.0, abs=0.2)

    @pytest.mark.parametrize("fraction", [0.01, 0.1, 0.25, 0.333, 0.5])
    def test_replacement_count_is_exact(self, fraction):
        s = draw(NORMAL, 1000, 3)
        out = inject_outliers(s, fraction, DistributionSpec.normal(100, 1), 4)
        changed = int(np.sum(out.values != s.values))
        assert changed == round(fraction * 1000)
        assert len(out) == len(s)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gssmd_converges_to_fraction(self, seed):
        neg = draw(NORMAL, 1000, derive_seed(seed, 0))
        pos = draw(NORMAL, 1000, derive_seed(seed, 1))
        injected = inject_outliers(pos, 0.1, DistributionSpec.normal(30, 1), derive_seed(seed, 2))
        assert gssmd(neg, injected).gssmd == pytest.approx(0.10, abs=0.02)


class TestAddAwgn:
    def test_zero_db_noise_matches_signal_power(self):
        s = draw(NORMAL, 10**5, 3)
        noisy = add_awgn(s, 0.0, 4)
        assert (noisy.values - s.values).var() == pytest.approx(1.0, abs=0.02)

    def test_minus_ten_db(self):
        s = draw(NORMAL, 10**5, 3)
        noisy = add_awgn(s, -10.0, 4)
        assert (noisy.values - s.values).var() == pytest.approx(10.0, abs=0.2)

    def test_plus_sixty_db_barely_perturbs(self):
        s = draw(NORMAL, 1000, 5)
        noisy = add_awgn(s, 60.0, 6)
        assert np.max(np.abs(noisy.values - s.values)) <= 0.01

    def test_zero_power_signal(self):
        with pytest.raises(ZeroPowerSignal):
            add_awgn(SampleSet([0.0, 0.0, 0.0]), 10.0, 1)

    def test_noise_power_law(self):
        # Regressing measured noise variance on 10^(-snr/10) recovers the
        # measured signal power as the slope.
        s = draw(DistributionSpec.normal(1.0, 2.0), 10**5, 9)
        power = float(np.mean(s.values**2))
        x, y = [], []
        for i, snr in enumerate([-10.0, -5.0, 0.0, 5.0, 10.0]):
            noisy = add_awgn(s, snr, derive_seed(10, i))
            x.append(10.0 ** (-snr / 10.0))
            y.append(float((noisy.values - s.values).var()))
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(power, rel=0.02)


class TestMeanDifferenceSweep:
    def test_disjoint_point_matches_analytic_values(self):
        cfg = ScenarioConfig(neg=NORMAL, mu_diffs=(10.0,), n=1000, seed=42, trials=20)
        point = run_mean_difference_sweep(cfg).points[0]
        assert point.metrics["gssmd"].mean == 1.0
        assert point.metrics["z_factor"].mean == pytest.approx(0.4, abs=0.05)
        assert point.metrics["ssmd"].mean == pytest.approx(7.07, abs=0.3)

    def test_null_point_centers_on_zero(self):
        cfg = ScenarioConfig(neg=NORMAL, mu_diffs=(0.0,), n=1000, seed=42, trials=50)
        point = run_mean_difference_sweep(cfg).points[0]
        assert abs(point.metrics["gssmd"].mean) <= 0.05

    def test_lognormal_shift_detected_only_by_overlap_metric(self):
        neg = draw(DistributionSpec.lognormal(0, 0.5), 1000, derive_seed(1, 0))
        pos = draw(DistributionSpec.lognormal(3.0, 0.5), 1000, derive_seed(1, 1))
        from assayqc import z_factor

        assert gssmd(neg, pos).gssmd >= 0.95
        assert ssmd(summarize(pos), summarize(neg)) < 3
        assert z_factor(summarize(pos), summarize(neg)) < 0.5

    def test_needs_grid(self):
        with pytest.raises(ConfigError):
            run_mean_difference_sweep(ScenarioConfig(neg=NORMAL, n=100, seed=1))


@pytest.fixture(scope="module")
def sweep():
    cfg = ScenarioConfig(
        neg=NORMAL, n=1000, seed=5, trials=20,
        outlier_fractions=(0.0, 0.01, 0.05, 0.1, 0.2, 0.3),
        outlier_means=(30.0,),
    )
    return run_outlier_sweep(cfg)


class TestOutlierSweep:
    def test_gssmd_tracks_fraction(self, sweep):
        for point in sweep.points:
            if point.params["fraction"] >= 0.05:
                assert point.metrics["gssmd"].mean == pytest.approx(
                    point.params["fraction"], abs=0.02
                )

    def test_clean_case_is_null(self, sweep):
        clean = [p for p in sweep.points if p.params["fraction"] == 0.0][0]
        assert abs(clean.metrics["gssmd"].mean) <= 0.05

    def test_z_factor_magnitude_collapses_with_contamination(self, sweep):
        by_frac = {p.params["fraction"]: p.metrics["z_factor"].mean for p in sweep.points}
        assert abs(by_frac[0.3]) < abs(by_frac[0.01])

    def test_needs_grids(self):
        with pytest.raises(ConfigError):
            run_outlier_sweep(ScenarioConfig(neg=NORMAL, n=100, seed=1))


class TestNoiseSweep:
    def test_clean_disjoint_case(self):
        cfg = ScenarioConfig(neg=NORMAL, mu_diffs=(10.0,), n=10**4, seed=11,
                             trials=3, snr_db=(40.0,))
        point = run_noise_sweep(cfg).points[0]
        assert point.metrics["gssmd"].mean >= 0.999

    def test_no_effect_case(self):
        cfg = ScenarioConfig(neg=NORMAL, mu_diffs=(0.0,), n=10**4, seed=11,
                             trials=5, snr_db=(-10.0, 40.0))
        for point in run_noise_sweep(cfg).points:
            assert abs(point.metrics["gssmd"].mean) <= 0.02

    def test_unit_shift_overlap_matches_analytic_value(self):
        cfg = ScenarioConfig(neg=NORMAL, mu_diffs=(1.0,), n=10**6, seed=13,
                             trials=1, snr_db=(40.0,))
        point = run_noise_sweep(cfg).points[0]
        assert point.metrics["ovl"].mean == pytest.approx(0.617, abs=0.05)


class TestSubsampledEstimate:
    def test_full_size_equals_direct_metric(self):
        neg = draw(NORMAL, 100, derive_seed(8, 0))
        pos = draw(DistributionSpec.normal(10, 1), 100, derive_seed(8, 1))
        est = run_subsampled_estimate(neg, pos, 100, 1, derive_seed(8, 2))
        assert est.mean_gssmd == gssmd(neg, pos).gssmd
        assert est.mean_ssmd == ssmd(summarize(pos), summarize(neg))

    def test_small_subsamples_retain_power(self):
        neg = draw(NORMAL, 100, derive_seed(8, 0))
        pos = draw(DistributionSpec.normal(10, 1), 100, derive_seed(8, 1))
        est = run_subsampled_estimate(neg, pos, 10, 10, derive_seed(8, 2))
        assert est.mean_gssmd >= 0.9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_identical_groups_stay_near_null(self, seed):
        base = draw(NORMAL, 100, 9)
        est = run_subsampled_estimate(base, base, 10, 10, derive_seed(seed, 5))
        assert abs(est.mean_gssmd) <= 0.3

    def test_size_validation(self):
        base = draw(NORMAL, 50, 1)
        with pytest.raises(InvalidSubsampleSize):
            run_subsampled_estimate(base, base, 51, 1, 0)
        with pytest.raises(InvalidSubsampleSize):
            run_subsampled_estimate(base, base, 0, 1, 0)

    def test_repeats_validation_keeps_the_library_message(self):
        # The CLI names the config key; a library caller gets the argument's message.
        base = draw(NORMAL, 50, 1)
        with pytest.raises(ConfigError, match=r"^repeats must be >= 1$"):
            run_subsampled_estimate(base, base, 5, 0, 0)


class TestPercentiles:
    """The null table's p95/p99/p99.9 have the bits of ``np.percentile``'s."""

    @given(size=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1),
           spread=st.integers(0, 300), distinct=st.integers(1, 4000), nan=st.booleans())
    def test_bits_of_np_percentile(self, size, seed, spread, distinct, nan):
        rng = np.random.default_rng(seed)
        # Magnitudes up to 1e300 mixed (b - a may overflow), and ties once ``distinct`` is
        # below the size; a NaN anywhere makes every percentile NaN.
        pool = rng.normal(size=distinct) * 10.0 ** rng.uniform(-spread, spread, distinct)
        values = pool[rng.integers(0, distinct, size)]
        if nan:
            values[rng.integers(0, size)] = np.nan
        with np.errstate(all="ignore"):
            got = simulation._percentiles(values)
            want = np.percentile(values, [95.0, 99.0, 99.9])
        assert got.tobytes() == want.tobytes()


class TestCalibrateNull:
    def test_deterministic(self):
        a = calibrate_null([10, 100], 200, NORMAL, 13)
        b = calibrate_null([10, 100], 200, NORMAL, 13)
        assert a.rows == b.rows

    def test_extremes_shrink_with_sample_size(self):
        table = calibrate_null([100, 10**6], 100, NORMAL, 17)
        small, large = table.rows
        assert large.max < small.max

    def test_percentiles_ordered_within_row(self):
        table = calibrate_null([10, 100, 1000], 300, NORMAL, 13)
        for row in table.rows:
            assert row.p95 <= row.p99 <= row.p999
            for value in (row.mean, row.variance, row.min, row.max,
                          row.p95, row.p99, row.p999):
                assert 0.0 <= value <= 1.0

    def test_tail_decreases_with_sample_size(self):
        table = calibrate_null([10, 100, 1000], 300, NORMAL, 13)
        p999 = [row.p999 for row in table.rows]
        assert p999[0] >= p999[1] >= p999[2]

    def test_lognormal_tail_not_heavier_than_normal(self):
        normal = calibrate_null([1000], 2000, NORMAL, 19)
        lognormal = calibrate_null([1000], 2000, DistributionSpec.lognormal(0, 1), 19)
        assert lognormal.rows[0].p999 <= normal.rows[0].p999 + 0.01

    def test_null_mean_is_unbiased(self):
        # Signed GSSMD over many null trials should sit within 3 standard
        # errors of zero.
        trials = 10**4
        vals = np.empty(trials)
        for t in range(trials):
            neg = draw(NORMAL, 100, derive_seed(23, 0, t, 0))
            pos = draw(NORMAL, 100, derive_seed(23, 0, t, 1))
            vals[t] = gssmd(neg, pos).gssmd
        se = vals.std(ddof=1) / np.sqrt(trials)
        assert abs(vals.mean()) <= 3 * se

    def test_bins_override_reaches_binning(self):
        table = calibrate_null([10, 100], 120, NORMAL, 41, bins=2)
        assert table.rows == recomputed_null_rows([10, 100], 120, NORMAL, 41, bins=2)
        assert table.rows != calibrate_null([10, 100], 120, NORMAL, 41).rows

    def test_validation(self):
        with pytest.raises(ConfigError):
            calibrate_null([], 200, NORMAL, 1)
        with pytest.raises(ConfigError):
            calibrate_null([10], 50, NORMAL, 1)

    def test_repeated_size_rejected(self):
        # A repeated size would write a second, differently seeded row for it.
        with pytest.raises(ConfigError, match=r"^calibration sizes \[10, 100, 10\] repeat a size"):
            calibrate_null([10, 100, 10], 100, NORMAL, 1)

    def test_infinite_draws_name_location_and_scale(self):
        # Under numpy's default errstate exp(800) is inf without raising, so binning meets it.
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            calibrate_null([10], 100, DistributionSpec.lognormal(800.0, 1.0), 1)
        assert str(info.value) == ("dist lognormal, location 800.0, scale 1.0, n 10: the pooled "
                                   "range [inf, inf] has no finite width")


def null_pool_counts(dist, n, pools, seed):
    """Bin counts of ``pools`` pooled samples of 2n values from ``dist``, one row a pool.

    Binning is numpy.histogram's with the ceil(1 + log2(2n)) rule, written out here rather
    than taken from assayqc.
    """
    x = np.random.default_rng(seed).normal(dist.location, dist.scale, (pools, 2 * n))
    if dist.kind == "lognormal":
        x = np.exp(x)
    bins = int(np.ceil(1 + np.log2(2 * n)))
    return np.stack([np.histogram(row, bins=bins)[0] for row in x])


def exact_null_mean(dist, n, pools, seed):
    """Exact E|GSSMD| of a null pair, averaged over ``pools`` pooled samples, and its SE.

    Under the null a pair is a pooled sample of 2n i.i.d. values split in half at random. The
    shared edges depend on the pooled sample alone; given its bin counts c, the negative
    counts a are multivariate hypergeometric, and |GSSMD| = 1 - sum_j min(a_j, c_j - a_j) / n
    (equal means have probability 0). Each bin's expectation is a sum over a 1-D
    hypergeometric pmf, computed once per distinct count.
    """
    from scipy.stats import hypergeom

    c = null_pool_counts(dist, n, pools, seed)
    counts, where = np.unique(c, return_inverse=True)
    a = np.arange(counts.max() + 1)[:, None]  # pmf is 0 for a > c
    e_min = (np.minimum(a, counts - a) * hypergeom.pmf(a, 2 * n, counts, n)).sum(axis=0)
    g = 1.0 - e_min[where.reshape(c.shape)].sum(axis=1) / n
    return g.mean(), g.std(ddof=1) / np.sqrt(pools)


class TestLibraryConfigErrors:
    """The library's own checks, which the CLI's flag rules keep its users from reaching."""

    @pytest.mark.parametrize("call, message", [
        (lambda: calibrate_null([0], 100, NORMAL, 1), "calibration sizes must be >= 1"),
        (lambda: calibrate_null([2 ** 63], 100, NORMAL, 1),
         f"calibration sizes must be under 2**63, got [{2 ** 63}]"),
        (lambda: draw(NORMAL, 0, 1), "n must be >= 1"),
        (lambda: inject_outliers(SampleSet([1.0, 2.0]), 1.5, NORMAL, 1),
         "outlier fraction must lie in [0, 1]"),
        (lambda: run_noise_sweep(ScenarioConfig(NORMAL, mu_diffs=(1.0,))),
         "noise sweep needs an snr_db grid"),
        (lambda: run_noise_sweep(ScenarioConfig(NORMAL, snr_db=(10.0,))),
         "noise sweep needs a mu_diffs grid"),
    ], ids=["calibrate_size_0", "calibrate_size_2_63", "draw_n_0", "outlier_fraction",
            "noise_without_snr_db", "noise_without_mu_diffs"])
    def test_raises_config_error(self, call, message):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(info.value) == message


class TestNullOracle:
    """calibrate_null's mean |GSSMD| against the exact permutation expectation."""

    # Set from the test's design, not from a run: 6 cells, each a two-sided normal test;
    # |z| > 4 has probability 6.3e-5 per cell under a correct calibrate_null.
    Z_BOUND = 4.0
    TRIALS = 2000
    POOLS = {10: 2000, 100: 1000, 1000: 200}  # oracle SE well below calibrate's

    def z_scores(self, dist, seed=505):
        table = calibrate_null(list(self.POOLS), self.TRIALS, dist, seed)
        z = {}
        for row in table.rows:
            exact, se_exact = exact_null_mean(dist, row.n, self.POOLS[row.n], seed=7)
            se = np.hypot(se_exact, np.sqrt(row.variance / self.TRIALS))
            z[row.n] = (row.mean - exact) / se
        return z

    @pytest.mark.parametrize("dist", [NORMAL, DistributionSpec.lognormal(0, 1)],
                             ids=["normal", "lognormal"])
    def test_mean_matches_the_exact_null_expectation(self, dist):
        z = self.z_scores(dist)
        assert all(abs(v) <= self.Z_BOUND for v in z.values()), z

    def test_catches_a_second_group_with_a_shifted_location(self, monkeypatch):
        rows = simulation._gssmd_rows
        monkeypatch.setattr(simulation, "_gssmd_rows",
                            lambda neg, pos, bins: rows(neg, pos + 0.1, bins))
        z = self.z_scores(NORMAL)
        assert z[1000] > self.Z_BOUND, z


def overlap_pmf(counts, n):
    """Exact pmf of m = sum_j min(a_j, c_j - a_j) over m = 0..n, for one pool's counts c.

    The negative counts a are multivariate hypergeometric. Bins are placed one at a time:
    given p negatives placed in the bins before it, bin j takes a_j of the n - p still
    unplaced with the 1-D hypergeometric pmf over the 2n - sum_{i<j} c_i values left. A
    dynamic program over (negatives placed, m so far) carries the joint pmf from bin to bin.
    """
    from scipy.stats import hypergeom

    state = np.zeros((n + 1, n + 1))  # [placed, m]
    state[0, 0], before = 1.0, 0
    for c in counts[counts > 0]:
        lo, hi = max(0, before - n), min(before, n)  # the negatives the bins before can hold
        taken = np.arange(min(c, n - lo) + 1)
        pmf = hypergeom.pmf(taken[:, None], 2 * n - before, c, n - np.arange(lo, hi + 1))
        placed = np.zeros_like(state)
        for a in taken:  # m <= placed, so only the first top + 1 columns can be nonzero
            shared, top = min(a, c - a), min(hi, n - a)
            placed[lo + a:top + 1 + a, shared:shared + top + 1] += (
                state[lo:top + 1, :top + 1] * pmf[a, :top + 1 - lo, None])
        state, before = placed, before + c
    return state[n]


@functools.cache
def exact_null_pmfs(dist, n, pools, seed):
    """``overlap_pmf`` of each of ``pools`` pooled samples, one row a pool: their mean is the
    null mixture, whose only error is the sampling of the pools."""
    c = null_pool_counts(dist, n, pools, seed)
    distinct, where = np.unique(c, axis=0, return_inverse=True)
    return np.array([overlap_pmf(row, n) for row in distinct])[where.ravel()]


def null_tail_z_scores(row, pmfs, trials):
    """How far a calibrate_null row's p95, p99 and variance lie outside the exact null, in
    standard errors: positive where they disagree.

    |GSSMD| = 1 - m/n. Each reported percentile x must bracket its level q: the exact mass
    at or below x at least q ("low" fails where it is not), the mass below x at most q
    ("high"). Each side allows 1/trials for the interpolation index, and its standard error
    is the binomial one of ``trials`` draws at q with the pools' own spread. The variance is
    the mixture's, by the law of total variance over pools, against the sampling error of
    a ddof=1 variance of ``trials`` draws and the pools' spread (delta method).
    """
    n, m = row.n, np.arange(row.n + 1)
    z = {}
    for name, q in (("p95", 0.95), ("p99", 0.99)):
        m_x = n * (1 - getattr(row, name))  # the m of x, between two integers if interpolated
        for side, mass, sign in (("low", pmfs[:, m >= math.ceil(m_x - 1e-9)].sum(axis=1), -1),
                                 ("high", pmfs[:, m > math.floor(m_x + 1e-9)].sum(axis=1), 1)):
            se = np.hypot(np.sqrt(q * (1 - q) / trials), mass.std(ddof=1) / np.sqrt(len(mass)))
            z[f"{name} {side}"] = (sign * (mass.mean() - q) - 1 / trials) / se
    g = 1 - m / n
    means, squares = pmfs @ g, pmfs @ g ** 2
    mean = means.mean()
    variance = means.var() + (squares - means ** 2).mean()  # between pools + within them
    fourth = pmfs.mean(axis=0) @ (g - mean) ** 4
    se = np.hypot(np.sqrt((fourth - variance ** 2) / trials),
                  (squares - 2 * mean * means).std(ddof=1) / np.sqrt(len(means)))
    z["variance"] = abs(row.variance - variance) / se
    return z


class TestNullTailOracle:
    """calibrate_null's p95, p99 and variance against the exact null distribution of |GSSMD|."""

    # Set from the test's design, not from a run: 4 cells of 5 checks, each a normal test;
    # z > 4 has probability 3.2e-5 one-sided (6.3e-5 for the variance) under a correct table.
    Z_BOUND = 4.0
    TRIALS = 10_000
    POOLS = {10: 500, 100: 100}  # pool spread below calibrate's binomial error at p95/p99

    def failures(self, dist, seed=505):
        table = calibrate_null(list(self.POOLS), self.TRIALS, dist, seed)
        failed = set()
        for row in table.rows:
            z = null_tail_z_scores(row, exact_null_pmfs(dist, row.n, self.POOLS[row.n], 7),
                                   self.TRIALS)
            failed |= {(row.n, check) for check, v in z.items() if v > self.Z_BOUND}
        return failed

    @pytest.mark.parametrize("dist", [NORMAL, DistributionSpec.lognormal(0, 1)],
                             ids=["normal", "lognormal"])
    def test_tail_and_variance_match_the_exact_null(self, dist):
        assert self.failures(dist) == set()

    def test_catches_a_second_group_with_a_shifted_location(self, monkeypatch):
        rows = simulation._gssmd_rows
        monkeypatch.setattr(simulation, "_gssmd_rows",
                            lambda neg, pos, bins: rows(neg, pos + 0.2, bins))
        assert {(100, "p95 high"), (100, "variance")} <= self.failures(NORMAL)

    def test_catches_p999_reported_as_p99(self, monkeypatch):
        percentiles = simulation._percentiles
        monkeypatch.setattr(simulation, "_percentiles", lambda v: percentiles(v)[[0, 2, 2]])
        assert self.failures(NORMAL) == {(10, "p99 high"), (100, "p99 high")}


class TestCalibrateNullChunks:
    """calibrate_null scores trials in chunks of rows; chunk edges must not show."""

    @pytest.mark.parametrize("bins", [None, 3])
    def test_sizes_on_both_sides_of_the_kernel_selection(self, bins):
        sizes, trials = [7, 1000, 5000], 101
        per_chunk = [simulation._CALIBRATION_CHUNK_VALUES // (2 * n) for n in sizes]
        # One partial chunk, several chunks with a partial last one, and a
        # size scored pair by pair.
        assert per_chunk[0] > trials and trials % per_chunk[1] and per_chunk[2] < 2
        table = calibrate_null(sizes, trials, NORMAL, 43, bins=bins)
        assert table.rows == recomputed_null_rows(sizes, trials, NORMAL, 43, bins=bins)

    @pytest.mark.parametrize("bins", [None, 2])
    def test_many_chunks_with_a_partial_last_one(self, monkeypatch, bins):
        # 10, 3 and 2 rows a chunk at n = 3, 10 and 16; n = 20 pair by pair.
        monkeypatch.setattr(simulation, "_CALIBRATION_CHUNK_VALUES", 64)
        sizes, dist = [3, 10, 16, 20], DistributionSpec.lognormal(0, 1)
        table = calibrate_null(sizes, 103, dist, 47, bins=bins)
        assert table.rows == recomputed_null_rows(sizes, 103, dist, 47, bins=bins)


class TestSeedLayout:
    """Every trial is a pure function of derive_seed(master, grid..., trial, group)."""

    def test_mean_difference_sweep_matches_per_trial_recomputation(self):
        cfg = ScenarioConfig(neg=NORMAL, mu_diffs=(0.0, 2.0), n=500, seed=31, trials=8)
        assert run_mean_difference_sweep(cfg).points == recomputed_sweep_points(cfg)

    def test_outlier_sweep_matches_per_trial_recomputation(self):
        # A 3 x 2 grid, so a swapped or dropped grid index changes the keys.
        cfg = ScenarioConfig(neg=NORMAL, n=300, seed=41, trials=4, bins=7,
                             outlier_fractions=(0.0, 0.1, 0.3), outlier_means=(5.0, 20.0))
        assert run_outlier_sweep(cfg).points == recomputed_outlier_points(cfg)

    def test_noise_sweep_matches_per_trial_recomputation(self):
        cfg = ScenarioConfig(neg=DistributionSpec.lognormal(0, 0.5), mu_diffs=(0.0, 3.0),
                             n=300, seed=43, trials=4, snr_db=(-10.0, 10.0, 30.0))
        assert run_noise_sweep(cfg).points == recomputed_noise_points(cfg)

    def test_calibration_matches_per_trial_recomputation(self):
        table = calibrate_null([3, 50], 200, NORMAL, 37)
        assert table.rows == recomputed_null_rows([3, 50], 200, NORMAL, 37)


def seeded_like_default_rng(words, master, *key):
    """Whether numpy seeds a generator from ``words`` as ``default_rng(derive_seed(...))``."""
    rng = np.random.Generator(np.random.PCG64(simulation._SeedWords(words)))
    state = np.random.default_rng(derive_seed(master, *key)).bit_generator.state
    return rng.bit_generator.state == state


class TestBatchedSeeding:
    """calibrate_null computes trial seed words in batches, with the bits of derive_seed."""

    @given(master=st.integers(0, 2 ** 128 - 1) | st.integers(2 ** 128, 2 ** 160),
           prefix=st.lists(st.integers(0, 3) | st.integers(0, 2 ** 32 - 1), max_size=3),
           k=st.sampled_from([0, 1, 2]),
           start=st.integers(2 ** 32 - 64, 2 ** 32 - 4) | st.integers(0, 100))
    def test_states_match_derive_seed(self, master, prefix, k, start):
        trials = range(start, start + 4)
        words = simulation._seed_words(master, *prefix, trials, k)
        assert words.dtype == np.uint64
        assert words.tolist() == [derive_seed(master, *prefix, t, k).generate_state(4, np.uint64)
                                  .tolist() for t in trials]
        assert seeded_like_default_rng(words[-1], master, *prefix, trials[-1], k)

    def test_fallback_gives_the_same_table(self, monkeypatch):
        def unused(*args):
            raise AssertionError("batched seed words used after a failed check")
        monkeypatch.setattr(simulation, "_batched_seeding_agrees", lambda: False)
        monkeypatch.setattr(simulation, "_seed_words", unused)
        table = calibrate_null([3, 5000], 101, NORMAL, 53)
        assert table.rows == recomputed_null_rows([3, 5000], 101, NORMAL, 53)

    def test_a_numpy_that_seeds_otherwise_takes_the_fallback(self, monkeypatch):
        monkeypatch.setattr(simulation._SeedWords, "generate_state",
                            lambda self, n_words, dtype=np.uint32: self.words ^ np.uint64(1))
        simulation._batched_seeding_agrees.cache_clear()
        try:
            assert not simulation._batched_seeding_agrees()
            table = calibrate_null([3, 5000], 101, NORMAL, 59)
        finally:
            monkeypatch.undo()
            simulation._batched_seeding_agrees.cache_clear()
        assert table.rows == recomputed_null_rows([3, 5000], 101, NORMAL, 59)
        assert simulation._batched_seeding_agrees()

    def test_any_other_request_gets_zeros(self):
        seeds = simulation._SeedWords(simulation._seed_words(5, 1, 2)[0])
        assert seeds.generate_state(8, np.uint32).tolist() == [0] * 8
        assert seeds.generate_state(2, np.uint64).tolist() == [0] * 2

    def test_block_edges_do_not_show(self, monkeypatch):
        monkeypatch.setattr(simulation, "_SEED_BLOCK", 7)
        dist = DistributionSpec.lognormal(0, 1)
        table = calibrate_null([3, 5000], 103, dist, 2 ** 40)
        assert table.rows == recomputed_null_rows([3, 5000], 103, dist, 2 ** 40)

    def test_same_table_under_raising_errstate(self):
        # Sizes on both sides of the chunk switch; a 64-bit master is two entropy words.
        seed = 2 ** 64 - 1
        with np.errstate(all="raise"):
            table = calibrate_null([3, 5000], 101, NORMAL, seed)
        assert table.rows == recomputed_null_rows([3, 5000], 101, NORMAL, seed)


class TestRowMoments:
    """Row moments of a C-ordered (T, n) block equal the 1-D moments of each row."""

    # n across numpy's pairwise-summation edges: the 8-way unrolled block and 128.
    @given(n=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129, 1000, 4096]),
           rows=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           spread=st.integers(0, 150))
    def test_mean_var_and_power_match_the_1d_path(self, n, rows, seed, spread):
        rng = np.random.default_rng(seed)
        # Magnitudes up to 1e150 mixed within a row, so the order of summation shows.
        block = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-spread, spread, (rows, n))
        with warnings.catch_warnings():  # var(ddof=1) of one value is NaN, with a warning
            warnings.simplefilter("ignore", RuntimeWarning)
            got = [block.mean(axis=1), block.var(axis=1, ddof=1), (block * block).mean(axis=1)]
            want = [[row.mean() for row in block], [row.var(ddof=1) for row in block],
                    [np.mean(row * row) for row in block]]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.int64), np.array(w).view(np.int64))

    @given(trials=st.sampled_from([1, 2, 3, 7, 8, 9, 20, 128, 129]), metrics=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1), spread=st.integers(0, 150), strided=st.booleans())
    def test_grid_point_aggregates_equal_each_columns_own(self, trials, metrics, seed, spread,
                                                          strided):
        """GridPoint.of's block reductions against mean/std/min/max of each column, for
        columns of their own and for panel D's strided columns of a (trials, metrics) block."""
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(trials, metrics)) * 10.0 ** rng.uniform(-spread, spread,
                                                                          (trials, metrics))
        block[rng.random(block.shape) < 0.1] = -0.0
        names = [f"m{i}" for i in range(metrics)]
        columns = dict(zip(names, block.T if strided else block.T.copy()))
        want = GridPoint({"x": 1.0}, {name: _moments(col) for name, col in columns.items()})
        assert same_points(GridPoint.of({"x": 1.0}, columns), want)

    @given(metrics=st.integers(1, 5), trials=st.integers(1, 129),
           seed=st.integers(0, 2 ** 32 - 1), spread=st.integers(0, 100))
    def test_grid_point_std_is_the_blocks_own(self, metrics, trials, seed, spread):
        """GridPoint.of's std, from the means it has taken, against ``block.std(axis=1)``."""
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(metrics, trials)) * 10.0 ** rng.uniform(-spread, spread,
                                                                          (metrics, trials))
        point = GridPoint.of({"x": 1.0}, {f"m{i}": row for i, row in enumerate(block)})
        got = np.array([a.std for a in point.metrics.values()])
        np.testing.assert_array_equal(got.view(np.int64), block.std(axis=1).view(np.int64))


def same_points(a, b):
    """Equal bit for bit, NaN and the sign of zero included."""
    return repr(a) == repr(b)


def one_group_summary(values):
    """``SummaryStats.of`` of a 1-D array, stated on its own: a lone value is degenerate."""
    if values.size == 1:
        return SummaryStats(mean=float(values[0]), variance=0.0, count=1, degenerate=True)
    return SummaryStats(mean=float(values.mean()), variance=float(values.var(ddof=1)),
                        count=int(values.size))


def subsampled_estimate_by_repeat(neg, pos, subsample_size, repeats, seed, bins=None):
    """run_subsampled_estimate one repeat at a time: each pair through the per-pair kernel
    and the scalar SSMD, so the first failing repeat raises what it raises."""
    rng = np.random.default_rng(seed)
    gs, ss = [], []
    for _ in range(repeats):
        a = neg.values[rng.choice(len(neg), subsample_size, replace=False)]
        b = pos.values[rng.choice(len(pos), subsample_size, replace=False)]
        gs.append(_gssmd_from_arrays(a, b, bins).gssmd)
        ss.append(ssmd(one_group_summary(b), one_group_summary(a)))
    return simulation.SubsampleEstimate(float(np.mean(gs)), float(np.mean(ss)))


def recomputed_subsample_points(cfg, seed, bins):
    """fig5 panel D rebuilt trial by trial from derive_seed(seed, i, j, t, stream)."""
    points = []
    for i, d in enumerate(cfg["mu_diffs"]):
        for j, snr in enumerate(cfg["snr_db"]):
            trials = []
            for t in range(cfg["trials"]):
                key = (seed, i, j, t)
                base = draw(NORMAL, cfg["n"], derive_seed(*key, 0))
                neg = add_awgn(base, snr, derive_seed(*key, 1))
                pos = add_awgn(SampleSet(base.values + d), snr, derive_seed(*key, 2))
                sub = subsampled_estimate_by_repeat(neg, pos, cfg["subsample_size"],
                                                    cfg["subsample_repeats"],
                                                    derive_seed(*key, 3), bins)
                full = subsampled_estimate_by_repeat(neg, pos, cfg["n"], 1,
                                                     derive_seed(*key, 4), bins)
                trials.append({"gssmd_subsampled": sub.mean_gssmd,
                               "ssmd_subsampled": sub.mean_ssmd,
                               "gssmd_full": full.mean_gssmd, "ssmd_full": full.mean_ssmd})
            points.append(_point({"mu_diff": float(d), "snr_db": float(snr)}, trials))
    return points


def outcome(run, *args):
    """A run's points, or the class of what it raised."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            return repr(run(*args))
        except Exception as exc:  # the class is what must agree
            return type(exc)


locations = st.floats(-10, 10) | st.floats(-1e150, 1e150)
scales = st.floats(0.01, 10) | st.floats(1e-300, 1e150)
grid = st.lists(st.floats(-30, 30) | st.floats(-1e150, 1e150), min_size=1, max_size=3, unique=True)


@st.composite
def sweep_configs(draw, **grids):
    kind = draw(st.sampled_from(["normal", "lognormal"]))
    # A lognormal draw overflows from a log-scale location of about 710.
    location = draw(locations if kind == "normal" else st.floats(-50, 750))
    scale = draw(scales if kind == "normal" else st.floats(0.01, 3) | scales)
    return ScenarioConfig(
        neg=DistributionSpec(kind, location, scale),
        n=draw(st.integers(2, 60)), seed=draw(st.integers(0, 2 ** 64 - 1)),
        trials=draw(st.integers(1, 12)), bins=draw(st.none() | st.integers(1, 5)),
        **{name: tuple(draw(strategy)) for name, strategy in grids.items()})


snr_grid = st.lists(st.floats(-80, 80) | st.sampled_from([-1e6, 1e6]), min_size=1,
                    max_size=3, unique=True)


class TestBatchedSweeps:
    """Trials scored as rows, with batched seeds, against the trial-by-trial recomputation."""

    @given(cfg=sweep_configs(mu_diffs=grid), chunk=st.sampled_from([64, 2 ** 14]))
    def test_mean_difference_sweep(self, cfg, chunk):
        with mock.patch.object(simulation, "_CALIBRATION_CHUNK_VALUES", chunk):
            got = outcome(lambda: run_mean_difference_sweep(cfg).points)
        assert got == outcome(recomputed_sweep_points, cfg)

    @given(cfg=sweep_configs(outlier_fractions=st.lists(st.floats(0, 1), min_size=1, max_size=3,
                                                        unique=True),
                             outlier_means=st.lists(st.floats(-30, 30) | st.just(np.inf)
                                                    | st.floats(-1e150, 1e150),
                                                    min_size=1, max_size=3, unique=True)),
           chunk=st.sampled_from([64, 2 ** 14]))
    def test_outlier_sweep(self, cfg, chunk):
        with mock.patch.object(simulation, "_CALIBRATION_CHUNK_VALUES", chunk):
            got = outcome(lambda: run_outlier_sweep(cfg).points)
        assert got == outcome(recomputed_outlier_points, cfg)

    @given(cfg=sweep_configs(mu_diffs=grid, snr_db=snr_grid), chunk=st.sampled_from([64, 2 ** 14]))
    def test_noise_sweep(self, cfg, chunk):
        with mock.patch.object(simulation, "_CALIBRATION_CHUNK_VALUES", chunk):
            got = outcome(lambda: run_noise_sweep(cfg).points)
        assert got == outcome(recomputed_noise_points, cfg)

    @settings(max_examples=40)
    @given(n=st.integers(2, 60), trials=st.integers(1, 12), mu_diffs=grid, snr_db=snr_grid,
           size=st.integers(1, 60), repeats=st.integers(1, 4), seed=st.integers(0, 2 ** 64 - 1),
           bins=st.none() | st.integers(1, 5))
    def test_subsample_panel(self, n, trials, mu_diffs, snr_db, size, repeats, seed, bins):
        cfg = {"n": n, "trials": trials, "mu_diffs": mu_diffs, "snr_db": snr_db,
               "subsample_size": min(size, n), "subsample_repeats": repeats}
        assert (outcome(scenarios._subsample_panel, cfg, seed, bins)
                == outcome(recomputed_subsample_points, cfg, seed, bins))

    def test_outcomes_include_points_and_every_error_class(self):
        # The property tests above compare both; these configs pin that each kind occurs.
        degenerate = DistributionSpec.normal(1e150, 1e-10)  # every value is 1e150
        cases = {
            DegenerateMeanDifference: ScenarioConfig(neg=degenerate, mu_diffs=(0.0,), n=4),
            DegenerateVariance: ScenarioConfig(neg=degenerate, mu_diffs=(1e140,), n=4),
            FloatingPointError: ScenarioConfig(neg=DistributionSpec.lognormal(750, 1),
                                               mu_diffs=(0.0,), n=4),
        }
        for error, cfg in cases.items():
            assert outcome(lambda: run_mean_difference_sweep(cfg).points) is error
            assert outcome(recomputed_sweep_points, cfg) is error
        cfg = ScenarioConfig(neg=DistributionSpec.normal(0, 1e-300), mu_diffs=(1.0,), n=4,
                             snr_db=(10.0,))
        assert outcome(lambda: run_noise_sweep(cfg).points) is ZeroPowerSignal

    def test_first_failing_row_raises_although_a_later_row_fails_first_in_bulk(self):
        # Point 0: equal means (no z_factor). Point 1, same chunk: its moments
        # overflow, which a bulk pass over the chunk would meet first.
        cfg = ScenarioConfig(neg=DistributionSpec.normal(1e150, 1e-10),
                             mu_diffs=(0.0, 1e308), n=4, trials=3)
        assert outcome(recomputed_sweep_points, cfg) is DegenerateMeanDifference
        assert outcome(lambda: run_mean_difference_sweep(cfg).points) is DegenerateMeanDifference

    def test_rows_before_a_failing_draw_are_scored_first(self):
        # Point 0: exp(700) in every row, equal means. Point 1: exp(800) overflows in the draw.
        cfg = ScenarioConfig(neg=DistributionSpec.lognormal(700, 1e-20),
                             mu_diffs=(0.0, 100.0), n=4, trials=3)
        assert outcome(recomputed_sweep_points, cfg) is DegenerateMeanDifference
        assert outcome(lambda: run_mean_difference_sweep(cfg).points) is DegenerateMeanDifference

    def test_forced_fallback_gives_the_same_points(self, monkeypatch):
        def unused(*args):
            raise AssertionError("batched seed words used after a failed check")
        monkeypatch.setattr(simulation, "_batched_seeding_agrees", lambda: False)
        monkeypatch.setattr(simulation, "_seed_words", unused)
        cfg = ScenarioConfig(neg=NORMAL, n=40, seed=2 ** 64 - 1, trials=3, bins=4,
                             outlier_fractions=(0.0, 0.5), outlier_means=(5.0, 20.0))
        assert same_points(run_outlier_sweep(cfg).points, recomputed_outlier_points(cfg))
        cfg = ScenarioConfig(neg=NORMAL, mu_diffs=(0.0, 2.0), n=30, seed=3, trials=2,
                             snr_db=(0.0, 30.0))
        assert same_points(run_noise_sweep(cfg).points, recomputed_noise_points(cfg))

    def test_seed_block_and_chunk_edges_do_not_show(self, monkeypatch):
        monkeypatch.setattr(simulation, "_SEED_BLOCK", 5)
        monkeypatch.setattr(simulation, "_CALIBRATION_CHUNK_VALUES", 7 * 2 * 50)
        cfg = ScenarioConfig(neg=NORMAL, mu_diffs=(0.0, 1.0, 3.0), n=50, seed=9, trials=4)
        assert same_points(run_mean_difference_sweep(cfg).points, recomputed_sweep_points(cfg))


@st.composite
def subsample_groups(draw):
    """A neg and a pos group of 1..20 values, often tied, at scales up to 1e154."""
    scale = draw(st.floats(1e-3, 1e3) | st.sampled_from([1e-300, 1e150, 1e154]))
    values = st.integers(-2, 2).map(float) | st.floats(-1, 1)
    return tuple(SampleSet(np.array(draw(st.lists(values, min_size=1, max_size=20))) * scale)
                 for _ in range(2))


class TestSubsampledEstimateRows:
    """run_subsampled_estimate scores its repeats as rows, against one repeat at a time."""

    @settings(max_examples=300)
    @given(groups=subsample_groups(), size=st.integers(1, 20), repeats=st.integers(1, 12),
           seed=st.integers(0, 2 ** 64 - 1), bins=st.none() | st.integers(1, 6))
    def test_rows_equal_the_per_repeat_loop(self, groups, size, repeats, seed, bins):
        # 12 repeats cross numpy's 8-value pairwise block in the repeat means.
        neg, pos = groups
        args = (neg, pos, min(size, len(neg), len(pos)), repeats, seed, bins)
        with warnings.catch_warnings():  # numpy's default errstate: overflow warns, gives inf
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = (same_or_class(run, *args) for run in (run_subsampled_estimate,
                                                                subsampled_estimate_by_repeat))
        assert got == want
        # Under a raising errstate, as in the CLI, overflows raise too.
        got, want = (outcome(run, *args) for run in (run_subsampled_estimate,
                                                    subsampled_estimate_by_repeat))
        assert got == want

    def test_an_earlier_degenerate_repeat_raises_before_a_later_overflow(self):
        # Seed 1 draws two tied neg values in an early repeat and 2e154 in a later one. A
        # raising errstate meets that overflow first in the block, which is then scored
        # repeat by repeat.
        neg, pos = SampleSet([0.0, 0.0, 0.0, 2e154, -2e154]), SampleSet([5.0] * 4)
        assert outcome(subsampled_estimate_by_repeat, neg, pos, 2, 4, 1) is DegenerateVariance
        assert outcome(run_subsampled_estimate, neg, pos, 2, 4, 1) is DegenerateVariance

    @pytest.mark.parametrize("budget, per_chunk", [(2 * 5 * 3, 3), (1, 1)])
    def test_repeats_in_bounded_chunks_equal_one_block(self, monkeypatch, budget, per_chunk):
        # 23 repeats of 5 + 5 values: one block at the default budget; under a tiny
        # one, chunks of 3 repeats with a partial last one, or one repeat a chunk.
        rng = np.random.default_rng(8)
        neg, pos = SampleSet(rng.normal(size=40)), SampleSet(rng.normal(0.5, 1, 50))
        whole = run_subsampled_estimate(neg, pos, 5, 23, 7, bins=None)
        rows, chunks = simulation._gssmd_rows, []  # called once a chunk
        monkeypatch.setattr(simulation, "_gssmd_rows",
                            lambda neg, *args: (chunks.append(len(neg)), rows(neg, *args))[1])
        monkeypatch.setattr(simulation, "_CALIBRATION_CHUNK_VALUES", budget)
        chunked = run_subsampled_estimate(neg, pos, 5, 23, 7, bins=None)
        assert [v.hex() for v in chunked] == [v.hex() for v in whole]
        assert max(chunks) == per_chunk and sum(chunks) == 23


def same_or_class(run, *args):
    """A run's result, or the class of what it raised, under the errstate in force."""
    try:
        return repr(run(*args))
    except Exception as exc:
        return type(exc)


def quiet_outcome(run, *args):
    """A run's points, or the class of what it raised, under numpy's default errstate but
    silent: an overflow gives inf without raising, so the sweep's own checks meet it."""
    with np.errstate(all="ignore"):
        return same_or_class(run, *args)


outlier_fraction_grid = st.lists(st.floats(0, 1), min_size=1, max_size=3, unique=True)
outlier_mean_grid = st.lists(st.floats(-30, 30) | st.just(np.inf) | st.floats(-1e150, 1e150),
                             min_size=1, max_size=3, unique=True)


class TestSweepsWithoutRaisingErrstate:
    """Without a raising errstate, most non-finite values reach the checks at each trial
    step: the sweeps must raise what the trial-by-trial path raises first."""

    @settings(max_examples=300)
    @given(cfg=sweep_configs(outlier_fractions=outlier_fraction_grid,
                             outlier_means=outlier_mean_grid),
           chunk=st.sampled_from([64, 2 ** 14]))
    def test_outlier_sweep(self, cfg, chunk):
        with mock.patch.object(simulation, "_CALIBRATION_CHUNK_VALUES", chunk):
            got = quiet_outcome(lambda: run_outlier_sweep(cfg).points)
        assert got == quiet_outcome(recomputed_outlier_points, cfg)

    @settings(max_examples=300)
    @given(cfg=sweep_configs(mu_diffs=grid, snr_db=snr_grid), chunk=st.sampled_from([64, 2 ** 14]))
    def test_noise_sweep(self, cfg, chunk):
        with mock.patch.object(simulation, "_CALIBRATION_CHUNK_VALUES", chunk):
            got = quiet_outcome(lambda: run_noise_sweep(cfg).points)
        assert got == quiet_outcome(recomputed_noise_points, cfg)

    @settings(max_examples=100)
    @given(n=st.integers(2, 60), trials=st.integers(1, 12), mu_diffs=grid,
           snr_db=snr_grid | st.lists(st.floats(-3090, -3070), min_size=1, max_size=2),
           size=st.integers(1, 60), repeats=st.integers(1, 4), seed=st.integers(0, 2 ** 64 - 1),
           bins=st.none() | st.integers(1, 5))
    def test_subsample_panel(self, n, trials, mu_diffs, snr_db, size, repeats, seed, bins):
        # Near -3080 dB the noise variance overflows for some draws only.
        cfg = {"n": n, "trials": trials, "mu_diffs": mu_diffs, "snr_db": snr_db,
               "subsample_size": min(size, n), "subsample_repeats": repeats}
        assert (quiet_outcome(scenarios._subsample_panel, cfg, seed, bins)
                == quiet_outcome(recomputed_subsample_points, cfg, seed, bins))

    def test_infinite_draws_raise_instead_of_scoring(self):
        # A lognormal scale of 300 overflows some draws to inf; binning raises on the first
        # such row, where it used to score GSSMD beyond [-1, 1].
        cfg = ScenarioConfig(neg=DistributionSpec.lognormal(0, 300), mu_diffs=(0.0, 5.0), n=50,
                             trials=3, seed=1)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteRange) as info:
            run_mean_difference_sweep(cfg)
        assert re.fullmatch(r"mu_diff 0: the pooled range \[\S+, inf\] has no finite width",
                            str(info.value))

    def test_trials_build_no_sample_set(self, monkeypatch):
        outliers = ScenarioConfig(neg=NORMAL, n=40, seed=5, trials=3, bins=4,
                                  outlier_fractions=(0.0, 0.25), outlier_means=(5.0, 20.0))
        noise = ScenarioConfig(neg=DistributionSpec.lognormal(0, 0.5), mu_diffs=(0.0, 2.0),
                               n=30, seed=6, trials=2, snr_db=(0.0, 30.0))
        want = [recomputed_outlier_points(outliers), recomputed_noise_points(noise)]

        def unused(*args, **kwargs):
            raise AssertionError("a sweep trial built a SampleSet")
        monkeypatch.setattr(simulation, "SampleSet", unused)
        got = [run_outlier_sweep(outliers).points, run_noise_sweep(noise).points]
        assert same_points(got, want)


class TestGridSeedStates:
    """_seed_words over a whole grid's keys, each word a column, against derive_seed."""

    @given(master=st.integers(0, 2 ** 160 - 1),
           key=st.lists(st.lists(st.integers(0, 5) | st.integers(2 ** 32 - 8, 2 ** 32 - 1),
                                 min_size=1, max_size=3), min_size=3, max_size=4),
           prefix=st.sampled_from([(), (7,), (2 ** 32 - 1,)]))
    def test_states_match_derive_seed(self, master, key, prefix):
        # One column a word: they broadcast to every combination of the words.
        columns = [np.array(words, dtype=np.uint64).reshape((-1,) + (1,) * (len(key) - 1 - d))
                   for d, words in enumerate(key)]
        keys = list(itertools.product(*key))
        words = simulation._seed_words(master, *prefix, *columns)
        assert words.tolist() == [derive_seed(master, *prefix, *k).generate_state(4, np.uint64)
                                  .tolist() for k in keys]
        for row in (0, -1):
            assert seeded_like_default_rng(words[row], master, *prefix, *keys[row])
