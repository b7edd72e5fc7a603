"""assayqc: assay quality metrics, simulation studies and hit selection.

Parametric metrics (S/N, S/B, Z'-factor, SSMD, CNR) and their
overlap-based non-parametric counterparts (OVL, GCNR, signed GSSMD) over
control samples, deterministic seeded simulation runners, null lower-bound
calibration, and plate-format hit selection with four threshold rules.

The namespace is lazy (PEP 562): ``import assayqc`` loads no submodule, and
a public name imports its module on first access, so a CLI start loads only
the modules its subcommand uses.
"""

from importlib import import_module

# The CLI's parser needs these at parse time, and every start loads this
# module; the modules that use them import them from here.
__version__ = "0.1.0"
SCENARIO_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
DEFAULT_CALIBRATION_SIZES = (3, 10, 30, 100, 300, 1_000, 10_000, 100_000, 1_000_000)
_RULE_NAMES = ("gssmd", "sigma", "ssmd", "logistic")  # hits.RuleKind values

# Each submodule and the public names it exports here.
_EXPORTS = {
    "errors": (
        "AssayQCError", "ConfigError", "DataValidationError", "DegenerateMeanDifference",
        "DegenerateVariance", "DivisionByZeroMean", "DuplicateWell", "EmptySampleSet",
        "InsufficientControls", "InvalidRuleParameter", "InvalidSubsampleSize",
        "MalformedRow", "NonFiniteValue", "NonPositiveValue", "NumericError",
        "SingleClassInput", "UnknownRole", "UnknownScenario", "ZeroPowerSignal", "ZeroSign",
    ),
    "hits": (
        "Direction", "GssmdThreshold", "HitReport", "LogisticModel", "RuleKind",
        "ThresholdRule", "assay_quality", "compute_threshold", "evaluate_threshold",
        "fit_logistic_1d", "gssmd_threshold", "select_hits", "sigma_rule_threshold",
        "ssmd_rule_threshold",
    ),
    "metrics": ("cnr", "sbr", "snr_assay", "ssmd", "z_factor"),
    "overlap": (
        "HistogramPair", "OverlapResult", "bin_count", "build_histogram_pair", "gssmd", "ovl",
    ),
    "plates": ("Plate", "Well", "WellRole", "load_plate_csv"),
    "report": (
        "ACCEPTANCE_THRESHOLDS", "MetricReport", "RunManifest", "compute_metric_report",
        "json_dumps",
    ),
    "samples": ("SampleSet", "SummaryStats", "summarize"),
    "scenarios": ("default_config", "run_scenario"),
    "simulation": (
        "DistributionSpec", "GridPoint", "NullCalibrationRow", "NullCalibrationTable",
        "ScenarioConfig", "ScenarioResult", "SubsampleEstimate", "TrialAggregate", "add_awgn",
        "calibrate_null", "derive_seed", "draw", "inject_outliers", "run_mean_difference_sweep",
        "run_noise_sweep", "run_outlier_sweep", "run_subsampled_estimate",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_OWNER, *_EXPORTS, "DEFAULT_CALIBRATION_SIZES", "SCENARIO_NAMES"])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
