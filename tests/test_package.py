"""The package namespace: its public names, its version and what a CLI start imports."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import assayqc

ROOT = Path(__file__).resolve().parent.parent

# Each public name of ``assayqc`` and the module that owned it when the
# namespace imported every submodule up front (None: the namespace itself).
OWNERS = {
    None: ["DEFAULT_CALIBRATION_SIZES", "SCENARIO_NAMES"],
    "errors": [
        "AssayQCError", "ConfigError", "DataValidationError", "DegenerateMeanDifference",
        "DegenerateVariance", "DivisionByZeroMean", "DuplicateWell", "EmptySampleSet",
        "InsufficientControls", "InvalidRuleParameter", "InvalidSubsampleSize",
        "MalformedRow", "NonFiniteValue", "NonPositiveValue", "NumericError",
        "SingleClassInput", "UnknownRole", "UnknownScenario", "ZeroPowerSignal", "ZeroSign",
    ],
    "hits": [
        "Direction", "GssmdThreshold", "HitReport", "LogisticModel", "RuleKind",
        "ThresholdRule", "assay_quality", "evaluate_threshold", "fit_logistic_1d",
        "gssmd_threshold", "select_hits", "sigma_rule_threshold", "ssmd_rule_threshold",
    ],
    "metrics": ["cnr", "sbr", "snr_assay", "ssmd", "z_factor"],
    "overlap": [
        "HistogramPair", "OverlapResult", "bin_count", "build_histogram_pair", "gssmd", "ovl",
    ],
    "plates": ["Plate", "Well", "WellRole", "load_plate_csv"],
    "report": [
        "ACCEPTANCE_THRESHOLDS", "MetricReport", "RunManifest", "compute_metric_report",
        "json_dumps",
    ],
    "samples": ["SampleSet", "SummaryStats", "summarize"],
    "scenarios": ["default_config", "run_scenario"],
    "simulation": [
        "DistributionSpec", "GridPoint", "NullCalibrationRow", "NullCalibrationTable",
        "ScenarioConfig", "ScenarioResult", "SubsampleEstimate", "TrialAggregate", "add_awgn",
        "calibrate_null", "derive_seed", "draw", "inject_outliers", "run_mean_difference_sweep",
        "run_noise_sweep", "run_outlier_sweep", "run_subsampled_estimate",
    ],
}

ALL_NAMES = [
    "ACCEPTANCE_THRESHOLDS", "AssayQCError", "ConfigError", "DEFAULT_CALIBRATION_SIZES",
    "DataValidationError", "DegenerateMeanDifference", "DegenerateVariance", "Direction",
    "DistributionSpec", "DivisionByZeroMean", "DuplicateWell", "EmptySampleSet", "GridPoint",
    "GssmdThreshold", "HistogramPair", "HitReport", "InsufficientControls",
    "InvalidRuleParameter", "InvalidSubsampleSize", "LogisticModel", "MalformedRow",
    "MetricReport", "NonFiniteValue", "NonPositiveValue", "NullCalibrationRow",
    "NullCalibrationTable", "NumericError", "OverlapResult", "Plate", "RuleKind",
    "RunManifest", "SCENARIO_NAMES", "SampleSet", "ScenarioConfig", "ScenarioResult",
    "SingleClassInput", "SubsampleEstimate", "SummaryStats", "ThresholdRule",
    "TrialAggregate", "UnknownRole", "UnknownScenario", "Well", "WellRole", "ZeroPowerSignal",
    "ZeroSign", "add_awgn", "assay_quality", "bin_count", "build_histogram_pair",
    "calibrate_null", "cnr", "compute_metric_report", "default_config",
    "derive_seed", "draw", "errors", "evaluate_threshold", "fit_logistic_1d", "gssmd",
    "gssmd_threshold", "hits", "inject_outliers", "json_dumps", "load_plate_csv", "metrics",
    "overlap", "ovl", "plates", "report", "run_mean_difference_sweep", "run_noise_sweep",
    "run_outlier_sweep", "run_scenario", "run_subsampled_estimate", "samples", "sbr",
    "scenarios", "select_hits", "sigma_rule_threshold", "simulation", "snr_assay", "ssmd",
    "ssmd_rule_threshold", "summarize", "z_factor",
]


# Every private name a module of the package imports from another, as
# "importer: module.name" ("." is the package namespace). A module's private
# names are its own; this list only shrinks.
PRIVATE_IMPORTS = [
    "cli: ._DIST_NAMES", "cli: ._RULES", "cli: ._RULE_NAMES", "cli: .__version__",
    "cli: ._check_config",
    "hits: ._RULE_NAMES",
    "report: .__version__",
    "scenarios: ._DIST_NAMES", "scenarios: ._check_config", "scenarios: simulation._noisy_pair",
    "scenarios: simulation._run_grid",
    "simulation: ._DIST_NAMES", "simulation: overlap._gssmd_rows", "simulation: samples._finite",
    "simulation: samples._row_variances",
]


def test_modules_import_only_the_listed_private_names():
    found = []
    for path in sorted((ROOT / "src" / "assayqc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [f"{path.stem}: {node.module or ''}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert sorted(found) == sorted(PRIVATE_IMPORTS)


class TestNamespace:
    def test_all_is_unchanged(self):
        assert assayqc.__all__ == ALL_NAMES
        owned = [n for names in OWNERS.values() for n in names]
        submodules = [m for m in OWNERS if m is not None]
        assert sorted(owned + submodules) == ALL_NAMES

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from assayqc import *", namespace)
        assert set(ALL_NAMES) <= set(namespace)

    @pytest.mark.parametrize("module", [m for m in OWNERS if m is not None])
    def test_names_are_their_modules_objects(self, module):
        owner = importlib.import_module(f"assayqc.{module}")
        assert getattr(assayqc, module) is owner
        for name in OWNERS[module]:
            assert getattr(assayqc, name) is getattr(owner, name), name

    def test_parse_time_constants_are_the_users_objects(self):
        assert assayqc.SCENARIO_NAMES is assayqc.scenarios.SCENARIO_NAMES
        manifest = assayqc.RunManifest(subcommand="simulate", seed=1, config={})
        assert manifest.version == assayqc.__version__
        assert [k.value for k in assayqc.RuleKind] == ["gssmd", "sigma", "ssmd", "logistic"]

    def test_dir_lists_all(self):
        listed = dir(assayqc)
        assert "__all__" in listed and set(ALL_NAMES) <= set(listed)

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            assayqc.no_such_name  # noqa: B018


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools calls [tool.setuptools] beta
def test_pyproject_version_is_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == assayqc.__version__ == "0.1.0"


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"assayqc": "assayqc.cli:run"}


PLATE = "plate_id,row,col,role,value\n" + "".join(
    f"p,{r},{c},{role},{v}\n"
    for c, role, base in ((1, "neg", 0.0), (2, "pos", 10.0), (3, "sample", 5.0))
    for r, v in enumerate([base + 0.1 * i for i in range(8)], 1)
)

# Run one command in a fresh interpreter and print the assayqc modules it loaded.
PROBE = """
import json, sys
from assayqc.cli import build_parser, main
argv = json.loads(sys.argv[1])
if argv is None:
    build_parser()
else:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules if m.startswith("assayqc."))))
"""

SIMULATION_SIDE = {"assayqc.scenarios", "assayqc.simulation"}
PLATE_SIDE = {"assayqc.hits", "assayqc.plates"}


@pytest.mark.parametrize("argv, loads, skips", [
    (None, set(), SIMULATION_SIDE | PLATE_SIDE),
    (["--version"], set(), SIMULATION_SIDE | PLATE_SIDE),
    (["metrics", "plate.csv"], PLATE_SIDE, SIMULATION_SIDE),
    (["metrics", "group.csv"], {"assayqc.plates", "assayqc.report"},
     SIMULATION_SIDE | {"assayqc.hits"}),
    (["hits", "plate.csv", "--rule", "sigma"], PLATE_SIDE, SIMULATION_SIDE),
    (["simulate", "fig1", "--seed", "1", "--config", "fig1.json", "--out-dir", "fig1"],
     SIMULATION_SIDE, PLATE_SIDE),
    (["calibrate", "--seed", "1", "--sizes", "3", "--trials", "100", "--out-dir", "cal"],
     SIMULATION_SIDE, PLATE_SIDE),
], ids=["build_parser", "version", "metrics", "metrics_group", "hits", "simulate",
        "calibrate"])
def test_a_start_loads_only_its_subcommands_modules(tmp_path, argv, loads, skips):
    (tmp_path / "plate.csv").write_text(PLATE)
    (tmp_path / "group.csv").write_text("group,value\nneg,0.1\nneg,0.3\nneg,0.2\n"
                                        "pos,5.1\npos,5.3\npos,5.2\n")
    (tmp_path / "fig1.json").write_text(
        json.dumps({"n": 20, "trials": 1, "mu_diffs": [1], "sigmas": [1]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert loads <= loaded and not loaded & skips, sorted(loaded)


@pytest.mark.parametrize("argv", [
    ["metrics", "plate.csv"],
    ["metrics", "group.csv"],
    ["hits", "plate.csv", "--rule", "logistic"],
    ["simulate", "fig1", "--seed", "1", "--config", "fig1.json", "--out-dir", "fig1"],
    ["calibrate", "--seed", "1", "--sizes", "3", "--trials", "100", "--out-dir", "cal"],
], ids=["metrics", "metrics_group", "hits", "simulate", "calibrate"])
def test_no_start_loads_dataclasses(tmp_path, argv):
    """The package's record classes are ``NamedTuple``s or slotted classes, which generate no
    code at import: no subcommand loads ``dataclasses``."""
    (tmp_path / "plate.csv").write_text(PLATE)
    (tmp_path / "group.csv").write_text("group,value\nneg,0.1\nneg,0.3\npos,5.1\npos,5.3\n")
    (tmp_path / "fig1.json").write_text(
        json.dumps({"n": 20, "trials": 1, "mu_diffs": [1], "sigmas": [1]}))
    probe = ("import sys\n"
             "from assayqc.cli import main\n"
             "assert main(sys.argv[1:]) == 0\n"
             "print('dataclasses' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False", proc.stdout


def test_a_start_that_only_parses_loads_neither_json_nor_dataclasses():
    """Every subcommand loads json later, and none loads dataclasses; a parser-only or
    usage-error start loads neither."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "from assayqc.cli import build_parser\n"
             "build_parser()\n"
             "print(sorted({'json', 'dataclasses'} & set(sys.modules) - before))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


@pytest.mark.parametrize("argv", [
    ["simulate", "fig6", "--seed", "1", "--config", "fig6.json", "--out-dir", "fig6"],
    ["calibrate", "--seed", "1", "--sizes", "3", "10", "--trials", "100", "--out-dir", "cal"],
], ids=["fig6", "calibrate"])
def test_a_null_calibration_start_loads_no_numpy_ma(tmp_path, argv):
    """``np.percentile`` imports ``numpy.ma`` (through ``np.unique``); the table's do not."""
    (tmp_path / "fig6.json").write_text(json.dumps({"sizes": [3, 10], "trials": 100}))
    probe = ("import sys\n"
             "from assayqc.cli import main\n"
             "assert main(sys.argv[1:]) == 0\n"
             "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
