import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from assayqc.cli import build_parser, main, number

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

    def test_csv_quotes_a_plate_id_with_a_comma_and_a_quote(self, tmp_path, capsys):
        path = tmp_path / "plate.csv"
        write_plate_csv(path, {'"a,""b"': ([0.0, 1.0, 2.0], [8.0, 9.0, 10.0], [])})
        assert main(["metrics", str(path), "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["key", "value"] and ["plate_id", 'a,"b'] in rows
        assert all(len(row) == 2 for row in rows)

    # Line 2,500 of 3,000 lies past the first chunk of plate rows and past the first 8 KiB
    # that the text layer decodes; a bad role before it, in either chunk, is reported first.
    @pytest.mark.parametrize("bogus_line, message", [
        (None, "error: unreadable CSV: 'utf-8' codec can't decode byte 0xff"),
        (100, "error: line 100: role 'bogus' not in ['empty', 'neg', 'pos', 'sample']"),
        (2100, "error: line 2100: role 'bogus' not in ['empty', 'neg', 'pos', 'sample']"),
    ])
    def test_undecodable_line_after_the_first_chunk_exits_2(self, tmp_path, capsys,
                                                            bogus_line, message):
        lines = [b"plate_id,row,col,role,value"]
        for i in range(3000):
            role = "bogus" if i + 2 == bogus_line else ("neg", "pos", "sample")[i % 3]
            lines.append(f"P1,{i // 48 + 1},{i % 48 + 1},{role},{i % 7}.5".encode())
        lines[2499] = b"\xff" + lines[2499]
        path = tmp_path / "plate.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["metrics", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("command, flags", [("metrics", []), ("hits", ["--format", "csv"])])
    def test_closed_stdout_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, command,
                                                 flags):
        path = tmp_path / "plate.csv"
        write_plate_csv(path, {"p": ([0.0, 1.0, 2.0], [10.0, 11.0, 12.0], [5.0])})
        monkeypatch.setattr("sys.stdout", None)  # as Python leaves it when fd 1 is closed
        assert main([command, str(path), *flags]) == 2
        assert capsys.readouterr().err == (
            "error: stdout is closed; write the report with --out FILE\n")

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

    def test_config_integer_too_long_to_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": ' + "9" * 5000 + "}")
        assert main(["simulate", "fig1", "--seed", "3", "--out-dir", str(tmp_path / "out"),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: invalid JSON (Exceeds the limit")
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
        assert err.startswith("error: fig3 fraction 0.5, outlier_mean 1e+308: ")  # its cell

    @pytest.mark.parametrize("config, message", [
        ({"subsample_size": 1000},
         "error: config key 'subsample_size' for scenario fig5 must be <= n (100), got 1000\n"),
        ({"subsample_repeats": 0},
         "error: config key 'subsample_repeats' for scenario fig5 must be >= 1, got 0\n"),
        ({"subsample_repeats": 2**63, "trials": 1, "n": 20},
         "error: config key 'subsample_repeats' for scenario fig5 must be an integer under "
         f"2**63, got {2**63}\n"),
        ({"subsample_size": 1},  # one value has no variance: SSMD could never be formed
         "error: config key 'subsample_size' for scenario fig5 must be >= 2, got 1\n"),
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
        assert capsys.readouterr().err == (
            f"numeric error: {scenario} mu_diff 0, snr_db {snr:.0f}: snr_db {snr!r} is out of "
            "range: 10^(snr_db/10) is not a positive finite float\n")

    @pytest.mark.parametrize("scenario, config, line", [
        ("fig1", {"mu_diffs": [1e308], "sigmas": [1], "trials": 2},
         "fig1 sigma 1, mu_diff 1e+308: overflow encountered in reduce"),
        ("fig1", {"sigmas": [1e-320], "trials": 2},
         "fig1 sigma 9.99988867183e-321, mu_diff 0: SSMD needs at least one positive group "
         "variance"),
        # the fourth cell of a two-axis grid fails, after three that pass
        ("fig3", {"fractions": [0, 0.5], "outlier_means": [1, 1e300], "trials": 1, "n": 20},
         "fig3 fraction 0.5, outlier_mean 1e+300: overflow encountered in square"),
    ], ids=["fig1-overflow", "fig1-subnormal-sigma", "fig3-last-cell"])
    def test_exit_3_names_the_failing_cell(self, tmp_path, capsys, scenario, config, line):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", scenario, "--seed", "1", "--out-dir", str(out),
                     "--config", str(cfg)]) == 3
        assert capsys.readouterr() == ("", f"numeric error: {line}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("flags, rule", [
        (["--rule", "sigma", "--k", "1e308"], "sigma"),
        (["--rule", "ssmd", "--beta", "1e308", "--format", "csv"], "ssmd"),
    ])
    def test_overflowing_threshold_exits_3(self, tmp_path, capsys, flags, rule):
        path = tmp_path / "plate.csv"
        write_plate_csv(path, {"p": ([0.0, 10.0, 20.0], [100.0, 120.0], [50.0])})
        assert main(["hits", str(path), *flags]) == 3
        assert capsys.readouterr() == (
            "", f"numeric error: {rule} threshold is inf, outside the float range\n")

    @pytest.mark.parametrize("flags, fmt, line", [
        (["--rule", "sigma", "--k", "3"], "json", '"parameter": 3.0'),
        (["--rule", "ssmd", "--beta", "2"], "json", '"parameter": 2.0'),
        (["--rule", "sigma", "--k", "3"], "csv", "rule.parameter,3"),  # floats to 12 digits
        (["--rule", "ssmd", "--beta", "2"], "csv", "rule.parameter,2"),
    ])
    def test_an_integer_rule_parameter_is_reported_as_a_float(self, tmp_path, capsys, flags,
                                                              fmt, line):
        train, _, _ = self.make_two_plates(tmp_path)
        assert main(["hits", str(train), *flags, "--format", fmt]) == 0
        assert f"{line}\n" in capsys.readouterr().out

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

    def test_infinite_location_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", "--seed", "4", "--sizes", "10", "--trials", "100",
                     "--location", "inf", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: calibrate flag --location must be a finite number, got inf\n"
        assert not out.exists()

    def test_too_few_trials_exits_2(self, tmp_path):
        assert main(["calibrate", "--seed", "4", "--sizes", "10",
                     "--trials", "10", "--out-dir", str(tmp_path)]) == 2

    def test_repeated_size_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", "--seed", "1", "--sizes", "10", "100", "10",
                     "--trials", "100", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: calibrate flag --sizes repeats 10; "
                       "each grid value must appear once\n")
        assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    (["calibrate", "--sizes", "10", "--trials", "100", "--location", "nan"], None,
     "error: calibrate flag --location must be a finite number, got nan\n"),
    (["simulate", "fig6"], {"location": float("nan"), "trials": 100},
     "error: config key 'location' for scenario fig6 must be a finite number, got nan\n"),
    (["simulate", "fig1"], {"mu_diffs": [float("nan")], "trials": 1},
     "error: config key 'mu_diffs' for scenario fig1 must be a list of finite numbers, "
     "got [nan]\n"),
    (["simulate", "fig3"], {"outlier_means": [float("nan")], "trials": 1},
     "error: config key 'outlier_means' for scenario fig3 must be a list of finite numbers, "
     "got [nan]\n"),
], ids=["calibrate", "fig6", "fig1", "fig3"])
def test_nan_location_exits_2(tmp_path, capsys, command, config, message):
    argv = command + ["--seed", "1", "--out-dir", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))  # written as NaN
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, named", [
    (["simulate", "fig4"], {"snr_db": [float("nan")], "trials": 1, "n": 20},
     "config key 'snr_db'"),
    (["simulate", "fig5"], {"snr_db": [float("nan")], "trials": 1, "n": 20},
     "config key 'snr_db'"),
    (["simulate", "fig2"], {"mu_diffs": [0, float("-inf")], "trials": 1, "n": 20},
     "config key 'mu_diffs'"),
    (["simulate", "fig1"], {"n": 2**63}, "config key 'n'"),
    (["simulate", "fig4"], {"panel_c_sizes": [2**63], "trials": 1, "n": 20},
     "config key 'panel_c_sizes'"),
    (["simulate", "fig6"], {"sizes": [10, 2**63], "trials": 100}, "config key 'sizes'"),
    (["calibrate", "--sizes", str(2**63), "--trials", "100"], None, "calibrate flag --sizes"),
    (["simulate", "fig6"], {"location": float("-inf"), "sizes": [3], "trials": 100},
     "config key 'location'"),
    (["simulate", "fig6"], {"scale": float("inf"), "sizes": [3], "trials": 100},
     "config key 'scale'"),
    (["calibrate", "--sizes", "3", "--trials", "100", "--location", "inf"], None,
     "calibrate flag --location"),
    (["simulate", "fig1"], {"trials": 2**63, "n": 20}, "config key 'trials'"),
    (["calibrate", "--sizes", "3", "--trials", str(2**63)], None, "calibrate flag --trials"),
], ids=["fig4-nan-snr", "fig5-nan-snr", "fig2-infinite-mu", "fig1-n", "fig4-panel-c",
        "fig6-sizes", "calibrate-sizes", "fig6-location--inf", "fig6-scale-inf",
        "calibrate-location-inf", "fig1-trials", "calibrate-trials"])
def test_config_value_that_cannot_run_or_be_recorded_exits_2(tmp_path, capsys, command,
                                                              config, named):
    """A non-finite number (which the manifest could not record either) and a count
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
    (["simulate", "fig6"], {"scale": 1e308}, "scale 1e+308"),
    (["calibrate", "--scale", "1e308"], None, "scale 1e+308"),
], ids=["fig6-location-1e308", "fig6-scale-1e308", "calibrate-scale-1e308"])
def test_null_draws_out_of_float_range_name_the_key_and_exit_3(tmp_path, capsys, command,
                                                               config, named):
    assert main(_calibration_argv(tmp_path, command, config)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and err.count("\n") == 1 and named in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, scenario", [
    (["simulate", "fig6"], {"dists": ["lognormal"], "location": 1e308}, "fig6"),
    (["calibrate", "--dist", "lognormal", "--location", "1e308"], None, "calibrate"),
], ids=["fig6", "calibrate"])
def test_null_draws_out_of_float_range_name_their_cell_as_a_sweep_does(tmp_path, capsys,
                                                                      command, config, scenario):
    """The sweeps' form: the scenario, then each key and value of the failing cell."""
    assert main(_calibration_argv(tmp_path, command, config)) == 3
    assert capsys.readouterr().err == (
        f"numeric error: {scenario} dist lognormal, location 1e+308, scale 1.0, n 3: "
        "overflow encountered in exp\n")


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


_CAP = 2**31 - 1  # the largest --bins


@pytest.mark.parametrize("bins", [2**31, 2**62, 2**63 - 1])
@pytest.mark.parametrize("command", ["simulate", "calibrate", "metrics", "hits"])
def test_bins_over_the_cap_exit_2_before_any_work(tmp_path, capsys, command, bins):
    """A bin count past the cap would size arrays numpy cannot make (exit 1 with a
    traceback), or try to allocate gigabytes; ``main`` refuses it in one line, as it
    does a replayed ``bins``."""
    write_group_csv(tmp_path / "groups.csv", [0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    write_plate_csv(tmp_path / "plate.csv", {"P1": ([0.0, 1.0, 2.0], [5.0, 6.0, 7.0], [3.0])})
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "fig1", "--seed", "1", "--out-dir", str(out)],
        "calibrate": ["calibrate", "--seed", "1", "--sizes", "3", "--trials", "100",
                      "--out-dir", str(out)],
        "metrics": ["metrics", str(tmp_path / "groups.csv"), "--out", str(out)],
        "hits": ["hits", str(tmp_path / "plate.csv"), "--out", str(out)],
    }[command]
    assert main(argv + ["--bins", str(bins)]) == 2
    assert capsys.readouterr() == ("", f"error: {command} flag --bins must be <= {_CAP}, "
                                       f"got {bins}\n")
    assert not out.exists()


@pytest.mark.parametrize("bins", [2**31, 2**62, 2**63 - 1])
def test_replayed_bins_over_the_cap_exit_2(tmp_path, capsys, bins):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tool": "assayqc",
                                    "config": {"scenario": "fig1", "trials": 1, "bins": bins}}))
    out = tmp_path / "out"
    assert main(["simulate", "fig1", "--seed", "1", "--config", str(manifest),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config key 'bins' for scenario fig1 must be <= {_CAP}, got {bins}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, code, line", [
    ("--location", "-1e+308", 3, "numeric error: calibrate dist normal, location -1e+308, scale "
                                 "1.0, n 3: overflow encountered in reduce\n"),
    ("--scale", "-inf", 2, "error: calibrate flag --scale must be a finite number, got -inf\n"),
    ("--sizes", "-1e+308", 2, "error: calibrate flag --sizes must be a list of integers under "
                              "2**63, got [-1e+308]\n"),
], ids=["location", "scale", "sizes"])
def test_negative_number_in_exponent_form_is_a_value(tmp_path, capsys, flag, value, code, line):
    """``--flag -1e+308`` reads the value as ``--flag=-1e+308`` does: one line naming the
    flag or the value, no usage text."""
    for form in ([flag, value], [f"{flag}={value}"]):
        argv = ["calibrate", "--seed", "1", "--out-dir", str(tmp_path / "out"),
                "--sizes", "3", "--trials", "100", *form]
        assert main(argv) == code
        assert capsys.readouterr().err == line
        assert not (tmp_path / "out").exists()


def test_a_value_that_is_no_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--seed", "1", "--trials", "abc"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("argument --trials: invalid number value: 'abc'\n")


@pytest.mark.parametrize("argv, line", [
    (["hits", "plate.csv", "--k", "inf"], "hits flag --k must be a finite number, got inf"),
    (["hits", "plate.csv", "--alpha", "nan"], "hits flag --alpha must be a finite number, got nan"),
    (["hits", "plate.csv", "--alpha", "1"], "hits flag --alpha must be < 1, got 1"),
    (["hits", "plate.csv", "--rule", "ssmd", "--beta", "0"], "hits flag --beta must be > 0, got 0"),
    (["simulate", "fig1", "--seed", "-1"], "simulate flag --seed must be >= 0, got -1"),
    (["calibrate", "--seed", str(2**64)],
     f"calibrate flag --seed must be an integer under 2**64, got {2**64}"),
    (["calibrate", "--seed", "1", "--dist", "gamma"],
     'calibrate flag --dist must be in ["normal", "lognormal"], got \'gamma\''),
    (["metrics", "plate.csv", "--bins", "2.0"],
     "metrics flag --bins must be an integer under 2**63, got 2.0"),
    (["calibrate", f"--seed={-2**64}"], f"calibrate flag --seed must be >= 0, got {-2**64}"),
])
def test_a_flag_is_judged_by_its_rule_before_any_work(tmp_path, monkeypatch, capsys, argv, line):
    monkeypatch.chdir(tmp_path)  # plate.csv does not exist: the flag is judged first
    assert main([*argv, "--out-dir" if argv[0] in ("simulate", "calibrate") else "--out", "o"]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not (tmp_path / "o").exists()


def test_every_flag_has_one_validator():
    """argparse only turns a flag's text into a value; ``main`` judges the value by its
    rule. --location and --scale stay float, so that a manifest keeps ``1.0``."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if a.dest == "subcommand").choices
    for name, sub in subcommands.items():
        for action in sub._actions:
            assert action.type in (number, float, Path, None), (name, action.dest)
            if action.type is float:
                assert action.dest in ("location", "scale"), (name, action.dest)
    assert subcommands["calibrate"]._option_string_actions["--dist"].choices is None


# Subnormal groups: a span of a few units of 5e-324 over 5 bins rounds the last edges out
# of order, which numpy.histogram rejects with a ValueError.
SUBNORMAL_NEG, SUBNORMAL_POS = [0.0, 1e-323, 5e-324], [1.5e-323, 0.0, 1e-323]


def test_subnormal_groups_exit_3_with_one_line(tmp_path, capsys):
    path = tmp_path / "groups.csv"
    write_group_csv(path, SUBNORMAL_NEG, SUBNORMAL_POS)
    assert main(["metrics", str(path), "--bins", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == ("numeric error: 5 equal-width bins over the pooled range "
                                 "[0.0, 1.5e-323] round their last edges out of order\n")


@pytest.mark.parametrize("seed", [0, 2, 3, 5])
def test_subnormal_null_draws_name_the_size_and_exit_3(tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert main(["calibrate", "--seed", str(seed), "--sizes", "8", "--trials", "100",
                 "--scale", "1e-323", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: calibrate dist normal, location 0.0, scale 1e-323, "
                          "n 8: ")
    assert err.count("\n") == 1 and "round their last edges out of order" in err, err
    assert not out.exists()


# Control wells whose Z'-factor overflows to -inf: the mean difference is about 3e-301.
OVERFLOW_NEG, OVERFLOW_POS = [-1e150, 1e150], [-1e150, 1e150, 1e-300]
OVERFLOW_LINE = "numeric error: z_factor of these controls is -inf, outside the float range\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_metric_that_overflows_exits_3_in_either_format(tmp_path, capsys, fmt):
    path = tmp_path / "groups.csv"
    write_group_csv(path, OVERFLOW_NEG, OVERFLOW_POS)
    assert main(["metrics", str(path), "--format", fmt]) == 3
    assert capsys.readouterr() == ("", OVERFLOW_LINE)


@pytest.mark.parametrize("argv", [["metrics"], ["hits", "--rule", "sigma"]],
                         ids=["metrics", "hits-sigma"])
def test_plate_metric_that_overflows_exits_3(tmp_path, capsys, argv):
    path = tmp_path / "plate.csv"
    write_plate_csv(path, {"P1": (OVERFLOW_NEG, OVERFLOW_POS, [0.0])})
    assert main([argv[0], str(path), *argv[1:]]) == 3
    assert capsys.readouterr() == ("", OVERFLOW_LINE)


def test_panel_d_names_its_normal_draw_when_its_noise_leaves_the_float_range(tmp_path, capsys):
    # At -3080 dB the noise variance overflows for some draws and not others; here panel A
    # and panel C pass, and panel D's noised negative group is infinite.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snr_db": [-3080.0], "trials": 1, "n": 2, "mu_diffs": [0],
                               "panel_c_sizes": [2], "subsample_size": 2}))
    out = tmp_path / "out"
    assert main(["simulate", "fig5", "--seed", "1", "--out-dir", str(out),
                 "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == ("error: fig5 subsample_size 2, repeats 10, mu_diff 0, "
                                       "snr_db -3080: sample set 'normal' contains non-finite "
                                       "values\n")
    assert not out.exists()
