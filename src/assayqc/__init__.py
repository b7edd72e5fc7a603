"""assayqc: assay quality metrics, simulation studies and hit selection.

Parametric metrics (S/N, S/B, Z'-factor, SSMD, CNR) and their
overlap-based non-parametric counterparts (OVL, GCNR, signed GSSMD) over
control samples, deterministic seeded simulation runners, null lower-bound
calibration, and plate-format hit selection with four threshold rules.

The namespace is lazy (PEP 562): ``import assayqc`` loads no submodule, and
a public name imports its module on first access, so a CLI start loads only
the modules its subcommand uses.
"""

import operator
import sys
from importlib import import_module

# The CLI's parser needs these at parse time, and every start loads this
# module; the modules that use them import them from here.
__version__ = "0.1.0"
SCENARIO_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
DEFAULT_CALIBRATION_SIZES = (3, 10, 30, 100, 300, 1_000, 10_000, 100_000, 1_000_000)
_RULE_NAMES = ("gssmd", "sigma", "ssmd", "logistic")  # hits.RuleKind values
_DIST_NAMES = ("normal", "lognormal")  # simulation.NORMAL, LOGNORMAL
_MAX_BINS = 2**31 - 1  # --bins: under it, every array the kernels size by bins fits numpy
_DIST_LIMIT = "[" + ", ".join(f'"{name}"' for name in _DIST_NAMES) + "]"  # a JSON list

# Each config key's and CLI flag's rule: the JSON type of its value, or [type] for a
# list of them, then its bounds as its error states them, "op limit", the limit a JSON
# value or the key that holds it. A bool is never a number, a number is finite, an
# integer is below 2**63 (no array is longer; each integer rule's lower bound judges a
# negative one), and a list is non-empty (no empty tables) and holds each value once. It
# serves every scenario, a replayed ``bins`` and the CLI's flags; ScenarioConfig,
# ThresholdRule and the other models keep checks for library calls.
_RULES = {
    "n": (int, ">= 2"),
    "trials": (int, ">= 1"),  # calibrate_null keeps its own floor of 100
    "mu_diffs": ([float],),
    "sigmas": ([float], "> 0"),
    "shape": (float, "> 0"),
    "fractions": ([float], ">= 0", "<= 1"),
    "outlier_means": ([float],),
    "outlier_scale": (float, "> 0"),
    "snr_db": ([float],),
    "panel_c_sizes": ([int], ">= 2"),  # a panel C sweep needs two values a group
    "subsample_size": (int, ">= 2", "<= n"),  # a one-value subsample has no variance
    "subsample_repeats": (int, ">= 1"),
    "sizes": ([int], ">= 1"),
    "dists": ([str], f"in {_DIST_LIMIT}"),
    "dist": (str, f"in {_DIST_LIMIT}"),
    "location": (float,),
    "scale": (float, "> 0"),
    "bins": (int, ">= 1", f"<= {_MAX_BINS}"),  # or null, the 1+log2(N) rule
    "seed": ("u64", ">= 0"),  # numpy seeds with any 64-bit unsigned integer
    "alpha": (float, "> 0", "< 1"),  # the overlap rule's allowed overlap
    "k": (float, "> 0"),
    "beta": (float, "> 0"),
}
_TYPES = {  # each JSON type: whether a value has it, its name, and a list's name
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool) and v < 2**63,
          "an integer under 2**63", "a list of integers under 2**63"),
    "u64": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v < 2**64,
            "an integer under 2**64"),
    float: (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max, "a finite number", "a list of finite numbers"),
    str: (lambda v: isinstance(v, str), "a string", "a list of strings"),
}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le,
            "in": lambda value, allowed: value in allowed}


def _check_config(cfg: dict, subject: str) -> None:
    """Raise ``ConfigError`` for the first value of ``cfg`` that breaks its rule in ``_RULES``.

    ``subject.format(key)`` names the key, as ``"config key {!r} for scenario
    fig1"`` and ``"calibrate flag --{}"`` do.
    """
    import json  # both here, so that a start that only parses loads neither

    from .errors import ConfigError

    for key, value in cfg.items():
        (kind, *bounds), what = _RULES[key], subject.format(key)
        many, items = isinstance(kind, list), (value if isinstance(value, list) else [value])
        has_type, *names = _TYPES[kind[0] if many else kind]
        if many is not isinstance(value, list) or not all(map(has_type, items)):
            raise ConfigError(f"{what} must be {names[many]}, got {value!r}")
        if not items:
            raise ConfigError(f"{what} must be a non-empty list, got []")
        repeated = [v for i, v in enumerate(items) if v in items[:i]]
        if repeated:  # its runs would write one file or row twice
            raise ConfigError(f"{what} repeats {repeated[0]!r}; each grid value must appear once")
        for bound in bounds:
            op, name = bound.split(" ", 1)
            limit = cfg[name] if name in cfg else json.loads(name)
            if not all(_COMPARE[op](v, limit) for v in items):
                held_as = f"hold {'sizes' if kind == [int] else 'values'}" if many else "be"
                shown = f" ({limit})" if name in cfg else ""
                raise ConfigError(f"{what} must {held_as} {bound}{shown}, got {value!r}")


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
        "ThresholdRule", "assay_quality", "evaluate_threshold", "fit_logistic_1d",
        "gssmd_threshold", "select_hits", "sigma_rule_threshold", "ssmd_rule_threshold",
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
