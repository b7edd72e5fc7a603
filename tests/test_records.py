"""The contract of every public record class: its fields in order, its repr, immutability,
equality, the checks it makes and the key order of its dictionaries."""

import copy
import json
import math
import pickle

import numpy as np
import pytest

from assayqc import (
    ACCEPTANCE_THRESHOLDS,
    ConfigError,
    Direction,
    DistributionSpec,
    EmptySampleSet,
    GridPoint,
    GssmdThreshold,
    HistogramPair,
    HitReport,
    InvalidRuleParameter,
    LogisticModel,
    MetricReport,
    NonFiniteValue,
    NullCalibrationRow,
    NullCalibrationTable,
    OverlapResult,
    RuleKind,
    RunManifest,
    SampleSet,
    ScenarioConfig,
    ScenarioResult,
    SummaryStats,
    ThresholdRule,
    TrialAggregate,
    Well,
    WellRole,
    json_dumps,
)

# Arrays shared by every HistogramPair built here: two pairs over distinct equal arrays
# raise on ``==`` (numpy's elementwise compare has no truth value), as they always have.
EDGES, COUNTS = np.array([0.0, 0.5, 1.0]), np.array([2, 1])
NORMAL = DistributionSpec("normal", 0.0, 1.0)


def metric_report():
    return MetricReport(1.0, 2.0, 0.5, 3.0, 3.0, 0.125, 0.875, -0.875, 4, 5, 3,
                        accepted={"z_factor": True, "ssmd": True, "gssmd": False})


def grid_point():
    return GridPoint({"mu_diff": 1.0}, {"gssmd": TrialAggregate(0.5, 0.1, 0.25, 0.75)})


def calibration_row():
    return NullCalibrationRow(10, 0.3, 0.01, 0.1, 0.6, 0.5, 0.55, 0.6, 0.01)


# Each public record class: a factory that builds one instance from fixed values, and the
# class's fields in order.
RECORDS = {
    "ThresholdRule": (lambda: ThresholdRule(RuleKind.SIGMA, 3.0), ["kind", "parameter"]),
    "GssmdThreshold": (
        lambda: GssmdThreshold(1.5, Direction.POSITIVE_IS_HIGHER, True, 0.97, 0.25),
        ["threshold", "direction", "meets_target", "gssmd", "bin_width"]),
    "LogisticModel": (lambda: LogisticModel(-3.0, 2.0, 1.5, True, 7),
                      ["intercept", "slope", "boundary", "converged", "iterations"]),
    "HitReport": (
        lambda: HitReport(1.5, Direction.POSITIVE_IS_LOWER, ["R1C2"], 1, ThresholdRule.sigma(),
                          metric_report()),
        ["threshold", "direction", "hits", "n_hits", "rule", "assay_quality"]),
    "HistogramPair": (lambda: HistogramPair(EDGES, COUNTS, COUNTS, 3, 3),
                      ["edges", "counts_neg", "counts_pos", "n_neg", "n_pos"]),
    "OverlapResult": (lambda: OverlapResult(0.25, 0.75, -0.75, 2, -1),
                      ["ovl", "gcnr", "gssmd", "bins_used", "sign"]),
    "Well": (lambda: Well(2, 3, WellRole.SAMPLE, 0.5), ["row", "col", "role", "value"]),
    "MetricReport": (metric_report, [
        "snr", "sbr", "z_factor", "ssmd", "cnr", "ovl", "gcnr", "gssmd", "n_neg", "n_pos",
        "bins", "thresholds", "accepted"]),
    "RunManifest": (
        lambda: RunManifest(subcommand="simulate", seed=1, config={"n": 2},
                            outputs={"a.csv": "00"}, timestamp="2023-11-14T22:13:20Z"),
        ["tool", "version", "subcommand", "seed", "config", "outputs", "timestamp"]),
    "SampleSet": (lambda: SampleSet([1.5], "neg"), ["values", "label"]),
    "SummaryStats": (lambda: SummaryStats(1.0, 4.0, 5),
                     ["mean", "variance", "std_dev", "count", "degenerate"]),
    "DistributionSpec": (lambda: DistributionSpec("lognormal", 0.5, 2.0),
                         ["kind", "location", "scale"]),
    "TrialAggregate": (lambda: TrialAggregate(0.5, 0.1, 0.25, 0.75),
                       ["mean", "std", "min", "max"]),
    "GridPoint": (grid_point, ["params", "metrics"]),
    "ScenarioResult": (lambda: ScenarioResult("mean_difference", [grid_point()], 10, 2, 1),
                       ["kind", "points", "n", "trials", "seed", "bins"]),
    "ScenarioConfig": (lambda: ScenarioConfig(NORMAL, (0.0, 1.0), 10, 1, 2), [
        "neg", "mu_diffs", "n", "seed", "trials", "outlier_fractions", "outlier_means",
        "outlier_scale", "snr_db", "bins"]),
    "NullCalibrationRow": (calibration_row, [
        "n", "mean", "variance", "min", "max", "p95", "p99", "p999", "mean_signed"]),
    "NullCalibrationTable": (lambda: NullCalibrationTable([calibration_row()], 100, 1, NORMAL),
                             ["rows", "trials", "seed", "dist"]),
}
HASHABLE = ["ThresholdRule", "GssmdThreshold", "LogisticModel", "OverlapResult", "Well",
            "SummaryStats", "DistributionSpec", "TrialAggregate", "NullCalibrationRow"]


@pytest.mark.parametrize("name", RECORDS)
def test_fields_in_order_and_repr(name):
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_or_deleting_a_field_raises(name):
    make, fields = RECORDS[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("name", RECORDS)
def test_copies_and_pickles_keep_the_fields(name):
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_instances_compare_equal(name):
    make, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in HASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("make, error, message", [
    (lambda: ThresholdRule(RuleKind.SIGMA, 0.0), InvalidRuleParameter,
     "sigma rule parameter must be positive, got 0.0"),
    (lambda: ThresholdRule(RuleKind.GSSMD_OVERLAP, 1.0), InvalidRuleParameter,
     "overlap alpha must be < 1, got 1.0"),
    (lambda: DistributionSpec("cauchy"), ConfigError, "unknown distribution kind 'cauchy'"),
    (lambda: DistributionSpec("normal", 0.0, 0.0), ConfigError,
     "distribution scale must be positive"),
    (lambda: DistributionSpec("normal", math.nan), ConfigError,
     "distribution location must not be NaN"),
    (lambda: ScenarioConfig(NORMAL, n=1), ConfigError, "n must be >= 2"),
    (lambda: ScenarioConfig(NORMAL, trials=0), ConfigError, "trials must be >= 1"),
    (lambda: ScenarioConfig(NORMAL, outlier_fractions=(1.5,)), ConfigError,
     "outlier fractions must lie in [0, 1]"),
    (lambda: ScenarioConfig(NORMAL, snr_db=(math.nan,)), ConfigError,
     "snr_db must not be NaN, got [nan]"),
    (lambda: ScenarioConfig(NORMAL, bins=0), ConfigError, "bins override must be >= 1"),
    (lambda: SampleSet([], "neg"), EmptySampleSet, "sample set 'neg' is empty"),
    (lambda: SampleSet([1.0, math.inf], "pos"), NonFiniteValue,
     "sample set 'pos' contains non-finite values"),
    (lambda: SummaryStats(0.0, -1.0), ValueError, "variance must be non-negative"),
    (lambda: SummaryStats(0.0, 1.0, 0), ValueError, "count must be positive"),
], ids=["rule_parameter", "overlap_alpha", "dist_kind", "dist_scale", "dist_location",
        "config_n", "config_trials", "config_fractions", "config_snr_db", "config_bins",
        "sample_set_empty", "sample_set_non_finite", "stats_variance", "stats_count"])
def test_checks_raise_their_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_std_dev_is_the_square_root_of_the_variance():
    one = SummaryStats(1.0, 2.0, 3)
    assert type(one.std_dev) is float and one.std_dev == math.sqrt(2.0)
    rows = SummaryStats(np.zeros(2), np.array([4.0, 2.0]), 3)
    assert np.array_equal(rows.std_dev, np.sqrt([4.0, 2.0]))


def test_a_sample_set_holds_a_read_only_copy_of_its_input():
    given = np.array([1.0, 2.0, 3.0])
    samples = SampleSet(given, "neg")
    assert samples.values is not given and not np.shares_memory(samples.values, given)
    assert given.flags.writeable and not samples.values.flags.writeable
    assert len(samples) == 3 and samples.values.tolist() == [1.0, 2.0, 3.0]


def test_metric_report_to_dict_keys_in_field_order():
    report = metric_report()
    d = report.to_dict()
    assert list(d) == RECORDS["MetricReport"][1]
    assert type(d["thresholds"]) is dict and d["thresholds"] == ACCEPTANCE_THRESHOLDS
    assert d["accepted"] == {"z_factor": True, "ssmd": True, "gssmd": False}
    assert json.loads(report.to_json()) == json.loads(json_dumps(d))


def test_hit_report_to_dict_keys():
    d = RECORDS["HitReport"][0]().to_dict()
    assert list(d) == ["rule", "threshold", "direction", "n_hits", "hits", "assay_quality"]
    assert d["rule"] == {"kind": "sigma", "parameter": 3.0} and d["direction"] == "lower"
    assert d["assay_quality"] == metric_report().to_dict()


def test_run_manifest_to_dict_keys_in_field_order():
    manifest = RECORDS["RunManifest"][0]()
    d = manifest.to_dict()
    assert list(d) == RECORDS["RunManifest"][1]
    assert d["tool"] == "assayqc" and d["outputs"] == {"a.csv": "00"}
    assert manifest.to_json() == json_dumps(d)
