"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at run time.
"""

import io
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from assayqc import (
    DistributionSpec,
    GridPoint,
    SampleSet,
    ScenarioConfig,
    SummaryStats,
    ThresholdRule,
    TrialAggregate,
    build_histogram_pair,
    calibrate_null,
    cnr,
    derive_seed,
    draw,
    evaluate_threshold,
    fit_logistic_1d,
    gssmd,
    gssmd_threshold,
    inject_outliers,
    load_plate_csv,
    ovl,
    run_mean_difference_sweep,
    run_subsampled_estimate,
    select_hits,
    ssmd,
    summarize,
    z_factor,
)
from test_simulation import exact_null_mean

NORMAL = DistributionSpec.normal(0, 1)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_disjoint_case_maximality():
    t0 = time.perf_counter()
    pos_spec = DistributionSpec.normal(10, 1)
    values, zs, ss = [], [], []
    for run in range(100):
        neg = draw(NORMAL, 1000, derive_seed(101, run, 0))
        pos = draw(pos_spec, 1000, derive_seed(101, run, 1))
        values.append(gssmd(neg, pos).gssmd)
        s_neg, s_pos = summarize(neg), summarize(pos)
        zs.append(z_factor(s_pos, s_neg))
        ss.append(ssmd(s_pos, s_neg))
    elapsed = time.perf_counter() - t0

    n_exact = sum(v == 1.0 for v in values)
    mean_z, mean_ssmd = float(np.mean(zs)), float(np.mean(ss))
    ok = (
        n_exact >= 95
        and min(values) >= 0.999
        and abs(mean_z - 0.4) <= 0.05
        and abs(mean_ssmd - 7.07) <= 0.3
        and elapsed < 5.0
    )
    detail = (f"gssmd==1.0 in {n_exact}/100 runs, min={min(values):.4f}, "
              f"mean Z'={mean_z:.4f} (target 0.4±0.05), "
              f"mean SSMD={mean_ssmd:.4f} (target 7.07±0.3), {elapsed:.1f}s")
    assert _report(1, "disjoint-case maximality", ok, detail), detail


def test_criterion_2_analytic_overlap_oracle():
    t0 = time.perf_counter()

    def overlap_oracle(d):
        # Brute-force quadrature of the pointwise minimum of the two
        # analytic densities, independent of the histogram path.
        val, _ = integrate.quad(
            lambda x: min(norm.pdf(x), norm.pdf(x - d)), -12.0, d + 12.0,
            points=[d / 2.0], limit=200,
        )
        return val

    errors = {}
    for i, d in enumerate((1.0, 3.0, 5.0)):
        oracle = overlap_oracle(d)
        assert abs(oracle - 2 * norm.cdf(-d / 2)) < 1e-9  # quadrature sanity
        neg = draw(NORMAL, 10**6, derive_seed(202, i, 0))
        pos = draw(DistributionSpec.normal(d, 1), 10**6, derive_seed(202, i, 1))
        est = ovl(build_histogram_pair(neg, pos))
        errors[d] = abs(est - oracle)
    elapsed = time.perf_counter() - t0

    ok = all(e <= 0.05 for e in errors.values()) and elapsed < 30.0
    detail = ("|OVL - oracle| = "
              + ", ".join(f"{e:.4f} (d={d:g})" for d, e in errors.items())
              + f", tol 0.05, {elapsed:.1f}s")
    assert _report(2, "analytic overlap oracle", ok, detail), detail


def test_criterion_3_outlier_convergence():
    t0 = time.perf_counter()
    outlier = DistributionSpec.normal(30, 1)
    errors = {}
    for i, fraction in enumerate((0.05, 0.1, 0.2, 0.3)):
        vals = []
        for seed in range(20):
            neg = draw(NORMAL, 1000, derive_seed(303, i, seed, 0))
            pos = draw(NORMAL, 1000, derive_seed(303, i, seed, 1))
            pos = inject_outliers(pos, fraction, outlier, derive_seed(303, i, seed, 2))
            vals.append(gssmd(neg, pos).gssmd)
        errors[fraction] = abs(float(np.mean(vals)) - fraction)
    elapsed = time.perf_counter() - t0

    ok = all(e <= 0.02 for e in errors.values()) and elapsed < 10.0
    detail = ("|mean GSSMD - fraction| = "
              + ", ".join(f"{e:.4f} (f={f:g})" for f, e in errors.items())
              + f", tol 0.02, {elapsed:.1f}s")
    assert _report(3, "outlier convergence", ok, detail), detail


def test_criterion_4_lognormal_sensitivity():
    t0 = time.perf_counter()
    mu_diff, shape = 3.0, 0.5
    neg = draw(DistributionSpec.lognormal(0.0, shape), 1000, derive_seed(1, 0))
    pos = draw(DistributionSpec.lognormal(mu_diff, shape), 1000, derive_seed(1, 1))
    g = gssmd(neg, pos).gssmd
    s_neg, s_pos = summarize(neg), summarize(pos)
    sample_ssmd = ssmd(s_pos, s_neg)
    sample_z = z_factor(s_pos, s_neg)

    # Closed-form raw-scale moments of a lognormal: mean = exp(mu + s^2/2),
    # var = (exp(s^2) - 1) * exp(2*mu + s^2). Independent oracle for the
    # population SSMD the sample estimate should sit near.
    def moments(mu, s):
        return math.exp(mu + s * s / 2), (math.exp(s * s) - 1) * math.exp(2 * mu + s * s)

    m1, v1 = moments(mu_diff, shape)
    m2, v2 = moments(0.0, shape)
    oracle_ssmd = (m1 - m2) / math.sqrt(v1 + v2)
    elapsed = time.perf_counter() - t0

    ok = g >= 0.95 and sample_ssmd < 3 and sample_z < 0.5 and elapsed < 5.0
    detail = (f"GSSMD={g:.4f} (>=0.95), SSMD={sample_ssmd:.3f} (<3, population "
              f"oracle {oracle_ssmd:.3f}), Z'={sample_z:.3f} (<0.5), {elapsed:.1f}s")
    assert _report(4, "log-normal sensitivity", ok, detail), detail


def test_criterion_5_null_calibration():
    t0 = time.perf_counter()
    table = calibrate_null([10, 100, 1000, 10**4], 10**4, NORMAL, 505)
    elapsed = time.perf_counter() - t0

    p999 = {row.n: row.p999 for row in table.rows}
    monotone = all(a >= b for a, b in zip(
        [p999[10], p999[100], p999[1000]], [p999[100], p999[1000], p999[10**4]]
    ))
    bound_ok = p999[1000] <= 0.05
    ok = bound_ok and monotone and elapsed < 120.0
    # The 0.05 bound is not reachable by a shared-edge histogram overlap at
    # this sample size: even with the minimal 2-bin histogram the binomial
    # sampling noise of the per-bin masses puts the null 99.9th percentile
    # of |GSSMD| near 0.07, and the 1+log2(N) rule yields ~0.09-0.10. The
    # assertion is kept at its stated tolerance; see the measured value.
    # Context only, no bound: the exact null mean of |GSSMD| at n = 1000 over TestNullOracle's
    # pools, which places the tail against where the null distribution sits.
    exact, se = exact_null_mean(NORMAL, 1000, 200, seed=7)
    mean_1000 = next(row.mean for row in table.rows if row.n == 1000)
    detail = (f"p99.9(|GSSMD|) at n=1000 = {p999[1000]:.4f} (required <=0.05: "
              f"{'ok' if bound_ok else 'UNMET'}), tail over n grid "
              + " >= ".join(f"{p999[n]:.4f}" for n in (10, 100, 1000, 10**4))
              + f" (non-increasing: {'ok' if monotone else 'UNMET'}), mean at n=1000 "
              f"{mean_1000:.4f} against the exact null mean {exact:.4f} (SE {se:.4f}), "
              f"{elapsed:.0f}s")
    assert _report(5, "null calibration", ok, detail), detail


def test_criterion_6_subsampling_power():
    t0 = time.perf_counter()
    pos_spec = DistributionSpec.normal(10, 1)
    subs, fulls = [], []
    for seed in range(20):
        neg = draw(NORMAL, 100, derive_seed(606, seed, 0))
        pos = draw(pos_spec, 100, derive_seed(606, seed, 1))
        est = run_subsampled_estimate(neg, pos, 10, 10, derive_seed(606, seed, 2))
        subs.append(est.mean_gssmd)
        fulls.append(gssmd(neg, pos).gssmd)
    elapsed = time.perf_counter() - t0

    mean_sub, mean_full = float(np.mean(subs)), float(np.mean(fulls))
    ok = mean_sub >= 0.9 and abs(mean_sub - mean_full) <= 0.1 and elapsed < 5.0
    detail = (f"mean subsampled GSSMD={mean_sub:.4f} (>=0.9), "
              f"full-sample mean={mean_full:.4f}, |diff|={abs(mean_sub - mean_full):.4f} "
              f"(<=0.1), {elapsed:.1f}s")
    assert _report(6, "subsampling power", ok, detail), detail


def _control_plate_csv(pid, neg_values, pos_values):
    rows = [f"{pid},{r},1,neg,{v}" for r, v in enumerate(neg_values, 1)]
    rows += [f"{pid},{r},2,pos,{v}" for r, v in enumerate(pos_values, 1)]
    return "\n".join(rows)


def test_criterion_7_threshold_agreement():
    t0 = time.perf_counter()
    pos_spec = DistributionSpec.normal(4, 1)
    csv_text = "plate_id,row,col,role,value\n" + "\n".join([
        _control_plate_csv("plate1", draw(NORMAL, 200, derive_seed(0, 0)).values,
                           draw(pos_spec, 200, derive_seed(0, 1)).values),
        _control_plate_csv("plate2", draw(NORMAL, 200, derive_seed(0, 2)).values,
                           draw(pos_spec, 200, derive_seed(0, 3)).values),
    ]) + "\n"
    train, test = load_plate_csv(io.StringIO(csv_text))
    train_neg, train_pos = train.control_sets()
    test_neg, test_pos = test.control_sets()

    cut = gssmd_threshold(train_neg, train_pos, alpha=0.05)
    model = fit_logistic_1d(train_neg, train_pos)
    evaluation = evaluate_threshold(test_neg, test_pos, model.boundary, cut.direction)
    elapsed = time.perf_counter() - t0

    diff = abs(cut.threshold - model.boundary)
    ok = diff <= cut.bin_width and abs(model.boundary - 2.0) <= 0.15 and elapsed < 5.0
    detail = (f"|t_gssmd - t_logistic| = |{cut.threshold:.3f} - {model.boundary:.3f}| "
              f"= {diff:.3f} <= bin width {cut.bin_width:.3f}; boundary within "
              f"2.0±0.15; replicate-plate accuracy={evaluation.accuracy:.3f}, "
              f"type I={evaluation.type1_error:.3f}; {elapsed:.1f}s")
    assert _report(7, "threshold agreement", ok, detail), detail


def _recomputed_sweep_points(cfg):
    """The sweep rebuilt trial by trial from derive_seed(seed, i, t, group)."""
    points = []
    for i, d in enumerate(cfg.mu_diffs):
        per_metric = {"z_factor": [], "ssmd": [], "gssmd": [], "ovl": []}
        for t in range(cfg.trials):
            neg = draw(cfg.neg, cfg.n, derive_seed(cfg.seed, i, t, 0))
            pos = draw(cfg.neg.shifted(d), cfg.n, derive_seed(cfg.seed, i, t, 1))
            s_neg, s_pos = summarize(neg), summarize(pos)
            overlap = gssmd(neg, pos)
            per_metric["z_factor"].append(z_factor(s_pos, s_neg))
            per_metric["ssmd"].append(ssmd(s_pos, s_neg))
            per_metric["gssmd"].append(overlap.gssmd)
            per_metric["ovl"].append(overlap.ovl)
        aggregates = {}
        for name, values in per_metric.items():
            a = np.array(values)
            aggregates[name] = TrialAggregate(float(a.mean()), float(a.std()),
                                              float(a.min()), float(a.max()))
        points.append(GridPoint({"mu_diff": float(d)}, aggregates))
    return points


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    failures = {"affine": 0, "antisymmetry": 0, "cnr": 0, "gcnr": 0, "range": 0,
                "seed_layout": 0}
    cases = 1000

    rng = np.random.default_rng(808)
    for _ in range(cases):
        # pair with all samples bounded away from interior bin edges so the
        # affine map cannot move a sample across an edge
        while True:
            neg = rng.normal(0, 1, int(rng.integers(30, 120)))
            pos = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2),
                             int(rng.integers(30, 120)))
            pair = build_histogram_pair(SampleSet(neg), SampleSet(pos))
            margin = pair.bin_width * 1e-6
            pooled = np.concatenate([neg, pos])
            if np.abs(pooled[:, None] - pair.edges[None, 1:-1]).min() > margin:
                break

        fwd = gssmd(SampleSet(neg), SampleSet(pos))
        rev = gssmd(SampleSet(pos), SampleSet(neg))
        a, b = rng.uniform(0.1, 5.0), rng.uniform(-10, 10)
        moved = gssmd(SampleSet(a * neg + b), SampleSet(a * pos + b))

        failures["affine"] += not (moved.ovl == fwd.ovl and moved.gssmd == fwd.gssmd)
        failures["antisymmetry"] += not (fwd.gssmd == -rev.gssmd and fwd.ovl == rev.ovl)
        failures["gcnr"] += not (fwd.gcnr == 1.0 - fwd.ovl)
        failures["range"] += not (0 <= fwd.ovl <= 1 and 0 <= fwd.gcnr <= 1
                                  and abs(fwd.gssmd) <= 1)

        s1 = SummaryStats(mean=rng.normal(0, 5), variance=rng.uniform(0.01, 9), count=10)
        s2 = SummaryStats(mean=rng.normal(0, 5), variance=rng.uniform(0.01, 9), count=10)
        failures["cnr"] += not (cnr(s1, s2) == abs(ssmd(s1, s2)))

    for i in range(8):
        cfg = ScenarioConfig(
            neg=NORMAL, mu_diffs=(0.0, float(rng.uniform(1, 5))),
            n=int(rng.integers(50, 300)), seed=900 + i, trials=6,
        )
        failures["seed_layout"] += (run_mean_difference_sweep(cfg).points
                                    != _recomputed_sweep_points(cfg))
    elapsed = time.perf_counter() - t0

    ok = not any(failures.values()) and elapsed < 60.0
    detail = (f"{cases} randomized cases per property, failures: "
              + ", ".join(f"{k}={v}" for k, v in failures.items())
              + f"; {elapsed:.1f}s")
    assert _report(8, "property suites", ok, detail), detail


def test_criterion_9_dataset_replication():
    path = os.environ.get("ASSAYQC_CELLHTS2_CSV")
    if not path or not os.path.exists(path):
        print("ACCEPTANCE 9 [dataset replication]: SKIP — set ASSAYQC_CELLHTS2_CSV "
              "to a plate-schema CSV export to enable")
        pytest.skip("screening dataset export not provided")

    plates = load_plate_csv(path)
    assert len(plates) >= 2, "need a train plate and a replicate test plate"
    train, test = plates[0], plates[1]
    train_neg, train_pos = train.control_sets()
    model = fit_logistic_1d(train_neg, train_pos)
    report = select_hits(train, ThresholdRule.logistic())
    test_neg, test_pos = test.control_sets()
    evaluation = evaluate_threshold(test_neg, test_pos, model.boundary, report.direction)

    ok = (abs(evaluation.accuracy - 0.956) <= 0.01
          and abs(evaluation.type1_error - 0.018) <= 0.01)
    detail = (f"train={train.plate_id} test={test.plate_id} "
              f"accuracy={evaluation.accuracy:.3f} (0.956±0.01), "
              f"type I={evaluation.type1_error:.3f} (0.018±0.01)")
    assert _report(9, "dataset replication", ok, detail), detail
