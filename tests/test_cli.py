import csv
import json
import warnings

import numpy as np
import pytest

from assayqc.cli import main

PLATE_HEADER = "plate_id,row,col,role,value\n"


def write_group_csv(path, neg, pos):
    lines = ["group,value"]
    lines += [f"neg,{v}" for v in neg]
    lines += [f"pos,{v}" for v in pos]
    path.write_text("\n".join(lines) + "\n")


def write_plate_csv(path, plates):
    """plates: {plate_id: (neg_vals, pos_vals, sample_vals)}"""
    lines = [PLATE_HEADER.strip()]
    for pid, (neg, pos, samples) in plates.items():
        for r, v in enumerate(neg, 1):
            lines.append(f"{pid},{r},1,neg,{v}")
        for r, v in enumerate(pos, 1):
            lines.append(f"{pid},{r},2,pos,{v}")
        for r, v in enumerate(samples, 1):
            lines.append(f"{pid},{r},3,sample,{v}")
    path.write_text("\n".join(lines) + "\n")


def read_tidy(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestMetricsCommand:
    def test_disjoint_two_group_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "groups.csv"
        write_group_csv(path, rng.normal(0, 1, 1000), rng.normal(10, 1, 1000))
        assert main(["metrics", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gssmd"] == 1.0
        assert report["accepted"]["gssmd"] is True

    def test_identical_groups(self, tmp_path, capsys):
        values = np.random.default_rng(1).normal(0, 1, 1000)
        path = tmp_path / "groups.csv"
        write_group_csv(path, values, values)
        assert main(["metrics", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["gssmd"]) <= 0.05

    def test_missing_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5,6\n")
        assert main(["metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert "plate_id,row,col,role,value" in err
        assert "group,value" in err

    def test_plate_csv_emits_one_report_per_plate(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "plates.csv"
        write_plate_csv(path, {
            "p1": (rng.normal(0, 1, 20), rng.normal(8, 1, 20), []),
            "p2": (rng.normal(0, 1, 20), rng.normal(8, 1, 20), []),
        })
        assert main(["metrics", str(path)]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["plate_id"] for r in reports] == ["p1", "p2"]
        assert all(r["n_neg"] == 20 for r in reports)

    def test_out_file_and_csv_format(self, tmp_path):
        rng = np.random.default_rng(3)
        src = tmp_path / "groups.csv"
        write_group_csv(src, rng.normal(0, 1, 100), rng.normal(5, 1, 100))
        out = tmp_path / "report.csv"
        assert main(["metrics", str(src), "--format", "csv", "--out", str(out)]) == 0
        rows = {r["key"]: r["value"] for r in csv.DictReader(out.open())}
        assert "gssmd" in rows and "accepted.gssmd" in rows

    def test_csv_format_multi_plate(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        path = tmp_path / "plates.csv"
        write_plate_csv(path, {
            "p1": (rng.normal(0, 1, 10), rng.normal(8, 1, 10), []),
            "p2": (rng.normal(0, 1, 10), rng.normal(8, 1, 10), []),
        })
        assert main(["metrics", str(path), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.count("plate_id,p") == 2  # one block per plate
        assert out.splitlines()[0] == "key,value"

    def test_nan_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "plate.csv"
        path.write_text(PLATE_HEADER + "p1,1,1,pos,NaN\n")
        assert main(["metrics", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["metrics", "hits"])
    def test_address_beyond_int64_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "plate.csv"
        path.write_text(PLATE_HEADER + f"p1,1,1,pos,1\np1,{2**63},1,neg,2\n")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (f"error: line 3: well address ({2**63}, 1) "
                                           "must be below 2**63\n")

    @pytest.mark.parametrize("command", ["metrics", "hits"])
    def test_header_only_plate_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "plate.csv"
        path.write_text(PLATE_HEADER)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_group_csv(plain, [1.0, 2.0, 3.0], [7.0, 8.0, 9.5])
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["metrics", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["metrics", str(bom)]) == 0
        assert capsys.readouterr().out == expected

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("group,value\nneg,1\nneg,2\npos,5\npos,é\n".encode("latin-1"))
        assert main(["metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable CSV") and err.count("\n") == 1

    def test_overflowing_control_values_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        write_plate_csv(path, {"p": ([1e308, -1e308, 0.0], [1.0, 2.0, 3.0], [])})
        assert main(["metrics", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1


class TestSimulateCommand:
    def test_seed_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "fig1", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_config_with_byte_order_mark_is_read(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(json.dumps({"trials": 1, "n": 20}).encode("utf-8-sig"))
        assert main(["simulate", "fig1", "--seed", "3", "--out-dir", str(tmp_path / "out"),
                     "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["n"] == 20

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"n": "\xe9"}')
        assert main(["simulate", "fig1", "--seed", "3", "--out-dir", str(tmp_path / "out"),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: invalid JSON ('utf-8' codec can't")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_scenario_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "fig9", "--seed", "1", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_fig1_covers_the_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "n": 200}))
        assert main(["simulate", "fig1", "--seed", "3", "--out-dir", str(tmp_path),
                     "--config", str(cfg)]) == 0
        seen = set()
        for sigma in (1, 3, 5):
            for row in read_tidy(tmp_path / f"fig1_sigma{sigma}.csv"):
                seen.add((float(row["sigma"]), float(row["mu_diff"])))
                if (row["sigma"], row["mu_diff"], row["metric"],
                        row["aggregate"]) == ("1", "10", "gssmd", "mean"):
                    assert float(row["value"]) == 1.0  # disjoint at 10 sigma
        assert seen == {(float(s), float(m)) for s in (1, 3, 5)
                        for m in (0, 1, 3, 5, 10, 20, 30)}

    def test_fig3_outlier_convergence(self, tmp_path):
        assert main(["simulate", "fig3", "--seed", "9", "--out-dir", str(tmp_path)]) == 0
        rows = read_tidy(tmp_path / "fig3_outliers.csv")
        cell = [r for r in rows
                if r["metric"] == "gssmd" and r["aggregate"] == "mean"
                and float(r["fraction"]) == 0.2 and float(r["outlier_mean"]) == 30.0]
        assert len(cell) == 1
        assert float(cell[0]["value"]) == pytest.approx(0.20, abs=0.02)

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": [10, 50], "trials": 150,
                                   "dists": ["normal"]}))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert main(["simulate", "fig6", "--seed", "1", "--out-dir", str(out),
                         "--config", str(cfg)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_replaying_a_manifest_reproduces_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "n": 100, "mu_diffs": [0, 5]}))
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["simulate", "fig2", "--seed", "7", "--out-dir", str(out1),
                     "--config", str(cfg)]) == 0
        assert main(["simulate", "fig2", "--seed", "7", "--out-dir", str(out2),
                     "--config", str(out1 / "manifest.json")]) == 0
        assert (out1 / "fig2_lognormal.csv").read_bytes() == \
            (out2 / "fig2_lognormal.csv").read_bytes()

    def test_fig4_panels(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 200, "trials": 2, "mu_diffs": [0, 5],
                                   "snr_db": [0, 20], "panel_c_sizes": [50, 100]}))
        assert main(["simulate", "fig4", "--seed", "2", "--out-dir", str(tmp_path),
                     "--config", str(cfg)]) == 0
        for panel in ("A", "B", "C"):
            assert (tmp_path / f"fig4_panel{panel}.csv").exists()
        scaled = [float(r["value"]) for r in read_tidy(tmp_path / "fig4_panelB.csv")]
        assert all(0.0 <= v <= 1.0 for v in scaled)
        sizes = {int(r["n"]) for r in read_tidy(tmp_path / "fig4_panelC.csv")}
        assert sizes == {50, 100}

    def test_fig5_subsampling_panel(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 60, "trials": 2, "mu_diffs": [0, 5],
                                   "snr_db": [20], "panel_c_sizes": [10, 30],
                                   "subsample_size": 5, "subsample_repeats": 4}))
        assert main(["simulate", "fig5", "--seed", "2", "--out-dir", str(tmp_path),
                     "--config", str(cfg)]) == 0
        rows = read_tidy(tmp_path / "fig5_panelD.csv")
        metrics = {r["metric"] for r in rows}
        assert metrics == {"gssmd_subsampled", "ssmd_subsampled",
                           "gssmd_full", "ssmd_full"}
        strong = [r for r in rows if float(r["mu_diff"]) == 5.0
                  and r["metric"] == "gssmd_subsampled" and r["aggregate"] == "mean"]
        assert float(strong[0]["value"]) >= 0.9

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["simulate", "fig1", "--seed", "1", "--out-dir", str(tmp_path),
                     "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, config", [
        ("fig1", {"n": "abc"}),
        ("fig1", {"mu_diffs": 5}),
        ("fig1", {"trials": 2.5}),
        ("fig1", {"mu_diffs": ["a"]}),
        ("fig1", {"bins": "x"}),
        ("fig6", {"trials": 100, "location": "x"}),
    ])
    def test_wrong_config_type_exits_2(self, tmp_path, capsys, scenario, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", scenario, "--seed", "1", "--out-dir", str(out),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key, config", [
        ("fig6", "sizes", {"sizes": [10.5], "trials": 100, "dists": ["normal"]}),
        ("fig4", "panel_c_sizes", {"panel_c_sizes": [100, 50.5], "trials": 1}),
        ("fig5", "panel_c_sizes", {"panel_c_sizes": [10.0], "trials": 1}),
    ])
    def test_fractional_size_exits_2(self, tmp_path, capsys, scenario, key, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", scenario, "--seed", "1", "--out-dir", str(out),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}' for scenario {scenario} must be "
                              "a list of integers") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key, config", [
        ("fig5", "snr_db", {"snr_db": [], "trials": 1}),
        ("fig1", "sigmas", {"sigmas": []}),
    ])
    def test_empty_grid_exits_2(self, tmp_path, capsys, scenario, key, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", scenario, "--seed", "1", "--out-dir", str(out),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{key}' for scenario {scenario} must be "
                              "a non-empty list") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key, config, repeated", [
        ("fig1", "sigmas", {"sigmas": [1, 1], "trials": 1, "n": 50}, "1"),
        ("fig3", "fractions", {"fractions": [0, 0.1, 0.0], "trials": 1}, "0.0"),
        ("fig6", "dists", {"dists": ["normal", "normal"], "trials": 100}, "'normal'"),
    ])
    def test_repeated_grid_value_exits_2(self, tmp_path, capsys, scenario, key, config,
                                         repeated):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", scenario, "--seed", "1", "--out-dir", str(out),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: config key '{key}' for scenario {scenario} repeats {repeated}; "
                       "each grid value must appear once\n")
        assert not out.exists()

    def test_fig4_overflowing_snr_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr_db": [4000]}))
        assert main(["simulate", "fig4", "--seed", "1", "--out-dir", str(tmp_path),
                     "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1

    def test_fig3_non_finite_outliers_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"outlier_means": [1e308], "outlier_scale": 1e308,
                                   "fractions": [0.5]}))
        assert main(["simulate", "fig3", "--seed", "1", "--out-dir", str(tmp_path),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("config, message", [
        ({"subsample_size": 1000}, "error: subsample size 1000 not in [1, 100]\n"),
        ({"subsample_repeats": 0}, "error: repeats must be >= 1\n"),
    ])
    def test_fig5_subsample_config_fails_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                          config, message):
        from assayqc import scenarios

        def no_trials(*args):
            raise AssertionError("a sweep ran before panel D's config was checked")
        monkeypatch.setattr(scenarios, "run_noise_sweep", no_trials)  # panels A-C
        monkeypatch.setattr(scenarios, "_run_grid", no_trials)  # panel D
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", "fig5", "--seed", "1", "--out-dir", str(out),
                     "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["fig4", "fig5"])
    @pytest.mark.parametrize("snr", [1e6, -1e6])
    def test_out_of_range_snr_names_the_key_and_exits_3(self, tmp_path, capsys, scenario, snr):
        cfg = tmp_path / "cfg.json"
        config = {"snr_db": [snr], "trials": 1, "n": 20, "panel_c_sizes": [10]}
        if scenario == "fig5":
            config["subsample_size"] = 5
        cfg.write_text(json.dumps(config))
        assert main(["simulate", scenario, "--seed", "1", "--out-dir", str(tmp_path / "out"),
                     "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == (f"numeric error: snr_db {snr!r} is out of range: "
                                           "10^(snr_db/10) is not a positive finite float\n")

    def test_manifest_hashes_match_outputs(self, tmp_path):
        import hashlib
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "n": 100}))
        assert main(["simulate", "fig2", "--seed", "5", "--out-dir", str(tmp_path),
                     "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestHitsCommand:
    def make_two_plates(self, tmp_path, d=10.0, n=100, n_samples=20):
        rng = np.random.default_rng(42)
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        planted = rng.normal(d, 1, n_samples)
        write_plate_csv(train, {
            "plate1": (rng.normal(0, 1, n), rng.normal(d, 1, n), planted),
        })
        write_plate_csv(test, {
            "plate2": (rng.normal(0, 1, n), rng.normal(d, 1, n), []),
        })
        return train, test, planted

    def test_disjoint_plate_finds_planted_hits(self, tmp_path, capsys):
        train, _, planted = self.make_two_plates(tmp_path)
        assert main(["hits", str(train), "--rule", "gssmd", "--alpha", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_hits"] == len(planted)
        assert 3.0 < payload["threshold"] < 7.0
        assert payload["direction"] == "higher"
        assert payload["assay_quality"]["accepted"]["gssmd"] is True

    def test_rules_agree_on_well_separated_controls(self, tmp_path, capsys):
        train, _, _ = self.make_two_plates(tmp_path, d=4.0, n=200)
        thresholds = {}
        bins = None
        for rule in ("gssmd", "logistic"):
            assert main(["hits", str(train), "--rule", rule]) == 0
            payload = json.loads(capsys.readouterr().out)
            thresholds[rule] = payload["threshold"]
            bins = payload["assay_quality"]["bins"]
        # both approximate the density crossing: within one shared bin width
        controls = [float(r["value"]) for r in csv.DictReader(train.open())
                    if r["role"] in ("pos", "neg")]
        bin_width = (max(controls) - min(controls)) / bins
        assert abs(thresholds["gssmd"] - thresholds["logistic"]) <= bin_width

    def test_evaluation_block_on_test_plate(self, tmp_path, capsys):
        train, test, _ = self.make_two_plates(tmp_path)
        assert main(["hits", str(train), "--test", str(test), "--rule", "logistic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluation"]["test_plate_id"] == "plate2"
        assert payload["evaluation"]["accuracy"] == 1.0
        assert payload["evaluation"]["type1_error"] == 0.0

    def test_zero_variance_controls_exit_3(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        write_plate_csv(path, {"p": ([1.0, 1.0, 1.0], [5.0, 6.0, 7.0], [2.0])})
        assert main(["hits", str(path), "--rule", "sigma"]) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["hits", str(tmp_path / "nope.csv")]) == 2

    def test_plate_id_selector(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "multi.csv"
        write_plate_csv(path, {
            "a": (rng.normal(0, 1, 30), rng.normal(9, 1, 30), []),
            "b": (rng.normal(0, 1, 30), rng.normal(9, 1, 30), []),
        })
        assert main(["hits", str(path), "--plate-id", "b"]) == 0
        assert json.loads(capsys.readouterr().out)["plate_id"] == "b"
        assert main(["hits", str(path), "--plate-id", "zzz"]) == 2

    def test_log_transform_for_lognormal_readouts(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "ln.csv"
        write_plate_csv(path, {
            "p": (np.exp(rng.normal(0, 0.5, 100)), np.exp(rng.normal(3, 0.5, 100)),
                  np.exp(rng.normal(3, 0.5, 10))),
        })
        assert main(["hits", str(path), "--rule", "logistic", "--log-transform"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # boundary in log units: between 0 and 3
        assert 0.5 < payload["threshold"] < 2.5
        assert payload["n_hits"] == 10

    def test_log_transform_rejects_non_positive_well(self, tmp_path, capsys):
        path = tmp_path / "neg_well.csv"
        write_plate_csv(path, {"p": ([1.0, 2.0, 3.0], [7.0, 8.0, 9.0], [0.5, -1.0])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.log must never see the value
            assert main(["hits", str(path), "--log-transform"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "plate p" in err and "R2C3" in err and "--log-transform" in err

    @pytest.mark.parametrize("flags", [["--alpha", "1.5"], ["--rule", "sigma", "--k", "-1"]])
    def test_out_of_range_rule_parameter_exits_2(self, tmp_path, capsys, flags):
        train, _, _ = self.make_two_plates(tmp_path)
        assert main(["hits", str(train), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCalibrateCommand:
    def test_writes_table_and_manifest(self, tmp_path):
        assert main(["calibrate", "--seed", "4", "--sizes", "10", "50",
                     "--trials", "150", "--out-dir", str(tmp_path)]) == 0
        rows = read_tidy(tmp_path / "null_calibration.csv")
        assert [int(r["n"]) for r in rows] == [10, 50]
        assert float(rows[0]["p999"]) >= float(rows[1]["p999"])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "calibrate"
        assert manifest["seed"] == 4

    def test_bins_override_changes_table(self, tmp_path):
        argv = ["calibrate", "--seed", "4", "--sizes", "10", "100", "--trials", "150"]
        assert main(argv + ["--out-dir", str(tmp_path / "default")]) == 0
        assert main(argv + ["--bins", "2", "--out-dir", str(tmp_path / "bins2")]) == 0
        default = (tmp_path / "default" / "null_calibration.csv").read_bytes()
        bins2 = (tmp_path / "bins2" / "null_calibration.csv").read_bytes()
        assert bins2 != default
        manifest = json.loads((tmp_path / "bins2" / "manifest.json").read_text())
        assert manifest["config"]["bins"] == 2

    def test_infinite_location_exits_3(self, tmp_path, capsys):
        assert main(["calibrate", "--seed", "4", "--sizes", "10", "--trials", "100",
                     "--location", "inf", "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1

    def test_too_few_trials_exits_2(self, tmp_path):
        assert main(["calibrate", "--seed", "4", "--sizes", "10",
                     "--trials", "10", "--out-dir", str(tmp_path)]) == 2

    def test_repeated_size_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", "--seed", "1", "--sizes", "10", "100", "10",
                     "--trials", "100", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: calibration sizes [10, 100, 10] repeat a size; "
                       "each must appear once\n")
        assert not out.exists()


@pytest.mark.parametrize("command, config", [
    (["calibrate", "--sizes", "10", "--trials", "100", "--location", "nan"], None),
    (["simulate", "fig6"], {"location": float("nan"), "trials": 100}),
    (["simulate", "fig1"], {"mu_diffs": [float("nan")], "trials": 1}),
    (["simulate", "fig3"], {"outlier_means": [float("nan")], "trials": 1}),
], ids=["calibrate", "fig6", "fig1", "fig3"])
def test_nan_location_exits_2(tmp_path, capsys, command, config):
    argv = command + ["--seed", "1", "--out-dir", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))  # written as NaN
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: distribution location must not be NaN\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, named", [
    (["simulate", "fig4"], {"snr_db": [float("nan")], "trials": 1, "n": 20},
     "snr_db must not be NaN"),
    (["simulate", "fig5"], {"snr_db": [float("nan")], "trials": 1, "n": 20},
     "snr_db must not be NaN"),
    (["simulate", "fig2"], {"mu_diffs": [0, float("-inf")], "trials": 1, "n": 20},
     "config key 'mu_diffs'"),
    (["simulate", "fig1"], {"n": 2**63}, "config key 'n'"),
    (["simulate", "fig4"], {"panel_c_sizes": [2**63], "trials": 1, "n": 20},
     "config key 'panel_c_sizes'"),
    (["simulate", "fig6"], {"sizes": [10, 2**63], "trials": 100}, "config key 'sizes'"),
    (["calibrate", "--sizes", str(2**63), "--trials", "100"], None, "calibration sizes"),
], ids=["fig4-nan-snr", "fig5-nan-snr", "fig2-infinite-mu", "fig1-n", "fig4-panel-c",
        "fig6-sizes", "calibrate-sizes"])
def test_config_value_that_cannot_run_or_be_recorded_exits_2(tmp_path, capsys, command,
                                                              config, named):
    """A NaN snr_db, a non-finite number the manifest cannot record and a sample size
    no array can hold exit 2 with one line that names the key or flag, and write no
    file (so no CSV without its manifest)."""
    out = tmp_path / "out"
    argv = command + ["--seed", "1", "--out-dir", str(out)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))  # NaN, -Infinity as JSON reads them
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
    assert not out.exists()


def _calibration_argv(tmp_path, command, config):
    """Null calibration at n = 3 from ``command`` (calibrate flags, or fig6 and its config)."""
    argv = command + ["--seed", "1", "--out-dir", str(tmp_path / "out")]
    if command[0] == "calibrate":
        return argv + ["--sizes", "3"] + ([] if "--trials" in command else ["--trials", "100"])
    (tmp_path / "cfg.json").write_text(json.dumps({"trials": 100, "sizes": [3], **config}))
    return argv + ["--config", str(tmp_path / "cfg.json")]


@pytest.mark.parametrize("command, config, named", [
    (["simulate", "fig6"], {"location": 1e308}, "location 1e+308"),
    (["simulate", "fig6"], {"location": float("-inf")}, "location -inf"),
    (["simulate", "fig6"], {"scale": 1e308}, "scale 1e+308"),
    (["simulate", "fig6"], {"scale": float("inf")}, "scale inf"),
    (["calibrate", "--location", "inf"], None, "location inf"),
    (["calibrate", "--scale", "1e308"], None, "scale 1e+308"),
], ids=["fig6-location-1e308", "fig6-location--inf", "fig6-scale-1e308", "fig6-scale-inf",
        "calibrate-location-inf", "calibrate-scale-1e308"])
def test_null_draws_out_of_float_range_name_the_key_and_exit_3(tmp_path, capsys, command,
                                                               config, named):
    assert main(_calibration_argv(tmp_path, command, config)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1 and named in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config", [
    (["simulate", "fig6"], {"trials": 50}),
    (["calibrate", "--trials", "50"], None),
], ids=["fig6", "calibrate"])
def test_too_few_calibration_trials_names_the_key(tmp_path, capsys, command, config):
    assert main(_calibration_argv(tmp_path, command, config)) == 2
    assert capsys.readouterr().err == "error: calibration trials must be >= 100, got 50\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["metrics", "{tmp}/in.csv", "--out-dir", "{tmp}/x"],
    ["hits", "{tmp}/in.csv", "--out-dir", "{tmp}/x"],
    ["simulate", "fig1", "--seed", "1", "--out-dir", "{tmp}/x", "--format", "csv"],
    ["calibrate", "--seed", "1", "--sizes", "10", "--trials", "100", "--out-dir", "{tmp}/x",
     "--format", "json"],
], ids=["metrics-out-dir", "hits-out-dir", "simulate-format", "calibrate-format"])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, argv):
    """Each subcommand accepts only options it reads: --format/--out for the report
    commands, --out-dir for the commands that write files."""
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("scenario, sizes", [("fig5", [-1]), ("fig5", [10, 1]), ("fig4", [0])])
def test_panel_c_size_below_2_names_the_key_before_any_trial(tmp_path, capsys, monkeypatch,
                                                             scenario, sizes):
    from assayqc import scenarios

    def no_trials(*args):
        raise AssertionError("a sweep ran before panel C's sizes were checked")
    monkeypatch.setattr(scenarios, "run_noise_sweep", no_trials)
    monkeypatch.setattr(scenarios, "_run_grid", no_trials)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"panel_c_sizes": sizes}))
    out = tmp_path / "out"
    assert main(["simulate", scenario, "--seed", "1", "--out-dir", str(out),
                 "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: config key 'panel_c_sizes' for scenario {scenario} must hold sizes >= 2, "
        f"got {sizes!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("reason, shown", [
    ("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type "
     "float64", None),
    ("", "an allocation failed"),
], ids=["numpy-reason", "no-reason"])
@pytest.mark.parametrize("argv", [
    ["simulate", "fig1", "--seed", "1"],
    ["calibrate", "--seed", "1", "--sizes", "10", "--trials", "100"],
], ids=["simulate", "calibrate"])
def test_an_input_too_large_for_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch,
                                                             reason, shown, argv):
    from assayqc import simulation

    def no_memory(dist, n, rng):  # stands in for a draw of, say, n = 2**40 values
        raise MemoryError(reason)
    monkeypatch.setattr(simulation, "_sample", no_memory)
    out = tmp_path / "out"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {shown or reason}\n"
    assert not out.exists()
