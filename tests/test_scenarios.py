import json

import numpy as np
import pytest

from assayqc import _RULES, UnknownScenario, _check_config, run_scenario
from assayqc.errors import ConfigError
from assayqc.cli import build_parser, number
from assayqc.scenarios import (
    SCENARIO_NAMES,
    default_config,
    load_config_file,
    resolve_config,
    write_tidy_csv,
)


def subcommand_parsers() -> dict:
    """Each subcommand's parser, from the parser ``main`` builds."""
    parser = build_parser()
    return next(a for a in parser._actions if a.dest == "subcommand").choices


def calibrate_defaults() -> dict:
    """The value of each calibrate flag that its rule covers, as the parser sets it."""
    args = vars(build_parser().parse_args(["calibrate", "--seed", "1"]))
    return {k: v for k, v in args.items() if k not in ("subcommand", "seed", "out_dir")}


class TestConfigResolution:
    def test_every_scenario_has_defaults(self):
        for name in SCENARIO_NAMES:
            assert default_config(name)

    def test_defaults_are_copies(self):
        a = default_config("fig1")
        a["n"] = 1
        assert default_config("fig1")["n"] != 1

    def test_override_merges(self):
        cfg = resolve_config("fig1", {"n": 50})
        assert cfg["n"] == 50
        assert cfg["sigmas"] == [1, 3, 5]

    def test_values_of_the_default_type_accepted(self):
        cfg = resolve_config("fig6", {"sizes": [10, 20], "location": 1, "scale": 2.5,
                                      "dists": ["normal"], "trials": 100})
        assert cfg["location"] == 1 and cfg["dists"] == ["normal"]
        assert resolve_config("fig1", {"mu_diffs": [0.5, 2]})["mu_diffs"] == [0.5, 2]

    @pytest.mark.parametrize("name, key, value, expected", [
        ("fig6", "sizes", [10, 20.0], "a list of integers"),
        ("fig1", "sigmas", [], "a non-empty list"),
        ("fig6", "dists", [], "a non-empty list"),
    ])
    def test_values_no_run_can_use_rejected(self, name, key, value, expected):
        with pytest.raises(ConfigError, match=f"'{key}' for scenario {name} must be {expected}"):
            resolve_config(name, {key: value})

    @pytest.mark.parametrize("name, key, value, repeated", [
        ("fig1", "sigmas", [1, 1], "1"),
        ("fig1", "mu_diffs", [0, 1, 1.0], "1.0"),
        ("fig4", "panel_c_sizes", [100, 10, 100], "100"),
        ("fig6", "dists", ["lognormal", "lognormal"], "'lognormal'"),
    ])
    def test_repeated_grid_value_rejected(self, name, key, value, repeated):
        with pytest.raises(ConfigError, match=f"^config key '{key}' for scenario {name} "
                                              f"repeats {repeated};"):
            resolve_config(name, {key: value})

    @pytest.mark.parametrize("key, value", [
        ("n", True), ("n", 10.0), ("shape", False), ("shape", "1"), ("shape", None),
        ("mu_diffs", [1, None]), ("mu_diffs", [True]), ("mu_diffs", {"a": 1}),
    ])
    def test_values_of_another_type_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            resolve_config("fig2", {key: value})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            resolve_config("fig1", {"bogus": 1})

    def test_scenario_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("fig1", {"scenario": "fig2"})

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(UnknownScenario):
            run_scenario("fig99", 1, tmp_path)

    def test_config_file_must_be_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config_file(path)
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config_file(path)

    def test_manifest_config_block_extracted(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"tool": "assayqc", "config": {"n": 7}}))
        assert load_config_file(path) == {"n": 7}


class TestConfigRules:
    def test_every_key_and_checked_flag_has_one_rule(self):
        """``main`` checks each subcommand option whose dest has a rule: the rules are
        the config keys and those flags, and every option parsed by ``number`` is one."""
        keys = {key for name in SCENARIO_NAMES for key in default_config(name)}
        options = [a for p in subcommand_parsers().values() for a in p._actions]
        checked = {a.dest for a in options if a.dest in _RULES}
        assert checked == {"bins", "seed", "alpha", "k", "beta", "sizes", "trials", "dist",
                           "location", "scale"}
        assert keys | checked == set(_RULES)
        assert {a.dest for a in options if a.type is number} <= checked
        assert "bins" in calibrate_defaults()  # and a replayed manifest's bins

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_every_default_keeps_its_rule(self, name):
        _check_config(default_config(name), "config key {!r}")

    def test_every_calibrate_default_keeps_its_rule(self):
        defaults = calibrate_defaults()
        assert defaults.pop("bins") is None  # null: the 1+log2(N) rule
        _check_config(defaults, "calibrate flag --{}")

    @pytest.mark.parametrize("key, value", [
        ("sizes", [10, 10]), ("sizes", [0]), ("sizes", [2**63]), ("trials", 2**63),
        ("location", float("inf")), ("scale", 0.0), ("scale", float("nan")),
    ])
    def test_fig6_and_calibrate_state_a_fault_alike(self, key, value):
        with pytest.raises(ConfigError) as fig6:
            resolve_config("fig6", {key: value})
        with pytest.raises(ConfigError) as flag:
            _check_config({**calibrate_defaults(), "bins": 1, key: value}, "calibrate flag --{}")
        fig6_rule = str(fig6.value).removeprefix(f"config key '{key}' for scenario fig6 ")
        assert str(flag.value) == f"calibrate flag --{key} {fig6_rule}"

    @pytest.mark.parametrize("key, value, fault", [
        ("n", 2**63, f"must be an integer under 2**63, got {2**63}"),
        ("trials", 0, "must be >= 1, got 0"),
        ("subsample_size", 1, "must be >= 2, got 1"),
        ("subsample_size", 101, "must be <= n (100), got 101"),
        ("snr_db", [0, float("inf")], "must be a list of finite numbers, got [0, inf]"),
        ("mu_diffs", [10**400], f"must be a list of finite numbers, got [{10**400}]"),
        ("n", -2**63, f"must be >= 2, got {-2**63}"),  # under 2**63, so judged by its bound
    ])
    def test_a_fault_names_the_key_and_its_rule(self, key, value, fault):
        with pytest.raises(ConfigError) as exc:
            resolve_config("fig5", {key: value})
        assert str(exc.value) == f"config key '{key}' for scenario fig5 {fault}"


class TestRunScenarioDeterminism:
    def test_outlier_and_noise_scenarios_are_bit_stable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        overrides = {
            "fig3": {"n": 100, "trials": 2, "fractions": [0, 0.2], "outlier_means": [30]},
            "fig4": {"n": 100, "trials": 2, "mu_diffs": [0, 5], "snr_db": [10],
                     "panel_c_sizes": [50]},
        }
        for name, cfg in overrides.items():
            out1, out2 = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
            for out in (out1, out2):
                run_scenario(name, 77, out, cfg)
            for path in sorted(out1.iterdir()):
                assert path.read_bytes() == (out2 / path.name).read_bytes()


def test_write_tidy_csv_formats_rows_of_raw_values(tmp_path):
    """Rows that a caller builds itself, with raw floats, ints and None (the benchmark's
    layer timing writes such rows): floats as ``text12``, ints as they are, None empty."""
    columns = ["scenario", "dist", "n", "metric", "aggregate", "value"]
    rows = [
        {"scenario": "fig6", "dist": "normal", "n": 10, "metric": "abs_gssmd",
         "aggregate": "p999", "value": 0.1 + 0.2},
        {"value": np.float64(-0.0), "aggregate": "mean", "metric": "gssmd", "n": 2**63 - 1,
         "dist": "lognormal", "scenario": "fig6"},  # keys in another order
        {"scenario": "fig6", "dist": None, "n": np.int64(3), "metric": "x,y",
         "aggregate": "min", "value": 1 / 3},
        {"scenario": "fig6", "dist": "normal", "n": 30, "metric": "abs_gssmd",
         "aggregate": "max", "value": None, "unused": 1.5},
    ]
    path = tmp_path / "t.csv"
    write_tidy_csv(path, columns, rows)
    assert path.read_bytes() == (
        b"scenario,dist,n,metric,aggregate,value\n"
        b"fig6,normal,10,abs_gssmd,p999,0.3\n"
        b"fig6,lognormal,9223372036854775807,gssmd,mean,-0\n"
        b'fig6,,3,"x,y",min,0.333333333333\n'
        b"fig6,normal,30,abs_gssmd,max,\n")


def test_write_tidy_csv_of_one_column_writes_one_field_a_row(tmp_path):
    """One column picks a bare value a row, which is written as one field, not iterated."""
    path = tmp_path / "t.csv"
    write_tidy_csv(path, ["metric"], [{"metric": "gssmd", "value": 0.5}, {"metric": "x,y"},
                                      {"metric": 0.1 + 0.2}, {"metric": None}])
    assert path.read_bytes() == b'metric\ngssmd\n"x,y"\n0.3\n""\n'
