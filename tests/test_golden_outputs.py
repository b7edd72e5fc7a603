"""Byte-identity pin: sha256 of every CSV and manifest for fixed seeds.

The hashes were recorded with numpy 2.4 and ``SOURCE_DATE_EPOCH=0``. numpy
does not promise stable ``Generator`` streams across versions (NEP 19), so
the test skips on any other numpy major.minor. A refactor of the simulation
path must keep every hash; a deliberate change of the outputs must re-record
them and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from assayqc.cli import main

RECORDED_NUMPY = "2.4"

GOLDEN = {
    "cal/manifest.json": "954b0f3ed41bec6b675833af71d4c91e86e632b05b191e5d8f45b9bc56495f6b",
    "cal/null_calibration.csv":
        "9e5c6e90623f9788dd023a7adf6151931063093ffa35d3a418d44d576111fd4e",
    "cal_max_seed/manifest.json":
        "03ed66883591492808003ccbadc608f9c7ad9e27733abe67e6226f9e251f6384",
    "cal_max_seed/null_calibration.csv":
        "b29d5343e8c420038d751af95a8e12e5e853781a6f7f36efcbfc45ab82c84505",
    "fig1/fig1_sigma1.csv": "0f0012f119b1be43cf3c34d4f38548e3d9234ed593807ca02353d46db5bbcc50",
    "fig1/fig1_sigma3.csv": "f6be8b2cda15a378839554cfaf93446b9825586db039417e9a78f21f6c1f090b",
    "fig1/fig1_sigma5.csv": "2e665fad727ce980757714fa5479ef1e7119e7f525815fcd9248c1e977530a48",
    "fig1/manifest.json": "2c6f573d5c97d371c79399ad2544ad908b108c9adff65848656fc1b80e683aea",
    "fig2/fig2_lognormal.csv": "e66af3018017b31f86bf1f2a122b4fb14a1ffff94d3927f9db9243dc92f237f7",
    "fig2/manifest.json": "2599ad3fa3e2d89fbefbb6dfc0437d0c3e523417a721e7be8f0914da81a555f2",
    "fig3/fig3_outliers.csv": "ed513637f408966d77447c9feafca3d4ba115cfd79e0c3d4b0b12d333a9b4b51",
    "fig3/manifest.json": "6b44b5233e977f8e9046cfd2697a86fbcbeb29c2241a97cf833d65c9a0410c63",
    "fig4/fig4_panelA.csv": "879ea7c1eb50088c978cf6a20ea0adce1ea9d36d416a9bc7aec6ee9b44228c08",
    "fig4/fig4_panelB.csv": "f3e13c61f31611f4dc1a122972f8598aacc18915bbfa34e59d5fb6b649bf6057",
    "fig4/fig4_panelC.csv": "a856b8243d0b4a4fe9e749266aafdc299c3e75c75aab97b6aea81c49e23228c4",
    "fig4/manifest.json": "8d9bc17de77cc94da4444d2c851428bfc24777c7c053ee0969a3c1e024efdc01",
    "fig5/fig5_panelA.csv": "f350accb7681c3bc865932f9004d4490ab52d4a4fd891e09d58918b2c29fc70e",
    "fig5/fig5_panelB.csv": "2f70261e5206505cbe1b3992e793cc7a0f67486346be4beedab8b01d85bfc8a2",
    "fig5/fig5_panelC.csv": "7f9e1e3dcb5bd5b09b20862be906839c3c5aaaf54974b218201c127931c4d389",
    "fig5/fig5_panelD.csv": "827d12102f4921dd3456198428f982f87b80ad062701da02d8cb9039fcf8326c",
    "fig5/manifest.json": "5a6520dda2c54a20d508d23213242218199ead81dd2bbfa9a86f209742023cbe",
    "fig6/fig6_null_calibration.csv":
        "684ffcda21c5cff5ff9639ba587abf35da0a84161fb423d5bbecb5d77fe4ea2d",
    "fig6/manifest.json": "86caabfae3f063a420707667a4b89fa975636336044736892be5152d017ff37c",
}


def test_outputs_match_recorded_sha256(tmp_path, monkeypatch):
    numpy_minor = ".".join(np.__version__.split(".")[:2])
    if numpy_minor != RECORDED_NUMPY:
        pytest.skip(f"hashes recorded with numpy {RECORDED_NUMPY}, running {numpy_minor}; "
                    "Generator streams may differ across numpy versions (NEP 19)")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    configs = {f"fig{k}": {"trials": 3} for k in range(1, 6)}
    configs["fig6"] = {"trials": 150, "sizes": [3, 10, 100, 1000]}
    for name, config in configs.items():
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config))
        assert main(["simulate", name, "--seed", "11", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out" / name)]) == 0
    assert main(["calibrate", "--seed", "11", "--sizes", "10", "100", "--trials", "120",
                 "--out-dir", str(tmp_path / "out" / "cal")]) == 0
    # The largest seed is two entropy words; n = 5000 is scored pair by pair.
    assert main(["calibrate", "--seed", str(2 ** 64 - 1), "--sizes", "3", "5000",
                 "--trials", "120", "--out-dir", str(tmp_path / "out" / "cal_max_seed")]) == 0

    out = tmp_path / "out"
    actual = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.rglob("*")) if path.is_file()}
    assert actual == GOLDEN


# The benchmark's trial counts, at which a chunk holds many rows of one grid
# point; recorded with the per-trial path before trials were scored as rows.
GOLDEN_BENCH_TRIALS = {
    "fig1/fig1_sigma1.csv": "b6df60cc504bf1d5d4a5c0852d49c5cd383291debb275e09aa0bf57a5391bf9b",
    "fig1/fig1_sigma3.csv": "b53b31c91e9276841ee0a4e92488da51b11f705b7e22cceb1eed26f81748f286",
    "fig1/fig1_sigma5.csv": "300e85c330fee67917205b337e0533d99d2d9dc1a31568c63d26fbaecb24d560",
    "fig1/manifest.json": "1eada67fb055f19b4518eceeafbaa6978da0a821ef5105aa77491298cd595a51",
    "fig2/fig2_lognormal.csv": "29b595aab6de507ba9f61d71a66fbbc9896468ea7d128524b76b2e058b8d0b7a",
    "fig2/manifest.json": "337cbf1ffed956023fb3d8ac973c1353bb2dc334cc996e86619f5a16344225ae",
    "fig3/fig3_outliers.csv": "ed01f2fd71a10a17b9a471ed99874f38616b7f91da543545bae925324bfefb32",
    "fig3/manifest.json": "2ab958b8b2242d8ce4dbf09e1290a65e3ff73adbb51bedbbc557d94080a9fb3a",
    "fig5/fig5_panelA.csv": "f1710a30ae4a284e3bc4ee024d3fcedf004038d5606606cae6925da10c561e6b",
    "fig5/fig5_panelB.csv": "67eaade839e7234daa56eab1e75d5fe21cddb95c42271c13b88f90e155ddd158",
    "fig5/fig5_panelC.csv": "813869bdb98c811c37e3301c9019f8879f6de31d32a890dfad2d045185a3175a",
    "fig5/fig5_panelD.csv": "8edce59a7949256f12921c92fe58e0028ea3e337d086ab29339282aee5fc4338",
    "fig5/manifest.json": "14a483609b7f968da4e57b50dc3c88eca7ee8ac3f157c09b9550e044aef72c13",
}


def test_bench_trial_counts_match_recorded_sha256(tmp_path, monkeypatch):
    numpy_minor = ".".join(np.__version__.split(".")[:2])
    if numpy_minor != RECORDED_NUMPY:
        pytest.skip(f"hashes recorded with numpy {RECORDED_NUMPY}, running {numpy_minor}")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    configs = {"fig1": {"trials": 30}, "fig2": {"trials": 120}, "fig3": {"trials": 10},
               "fig5": {"trials": 1}}
    for name, config in configs.items():
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config))
        assert main(["simulate", name, "--seed", "11", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out" / name)]) == 0
    out = tmp_path / "out"
    actual = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.rglob("*")) if path.is_file()}
    assert actual == GOLDEN_BENCH_TRIALS


# fig5 at a panel D shape that the defaults never reach: subsamples of two values and
# nine repeats (past numpy's 8-value pairwise block in the repeat means), with the bin
# rule and with one bin; recorded with panel D scoring one repeat at a time.
GOLDEN_PANEL_D_SHAPE = {
    "bins1/fig5_panelA.csv": "d346748f1d476282729e5ab22b6854c229110f0a3021d28a622f910ccbf97040",
    "bins1/fig5_panelB.csv": "19d214702b410947c7e696007b761002c895b5a0488519b0c5d4ffe5289a0551",
    "bins1/fig5_panelC.csv": "789704221bc0041d71995acca765bba8cc63a584d7eca60e601aca239fa7c86a",
    "bins1/fig5_panelD.csv": "1a31c55f5edf49bd3ae6ddfc7a1163b5e5ebaca8cfd30231e1ef97f74c1113c5",
    "bins1/manifest.json": "6598d2ef137c74f7633d1d601f3052d26ed789705732cf74091044b05dd0b7ed",
    "default/fig5_panelA.csv": "be391528f8364142bb57720980c5f3a120d0f65743f77e042115ff5f9d7202a3",
    "default/fig5_panelB.csv": "f469e04b3b2f90ef52312ec62ede8f967f72ca19c4176f1428509146623880ad",
    "default/fig5_panelC.csv": "293ac195e6d6a30d1a3dc278bde9bd91e7f8d6509378de75d3ea76ce523ecc54",
    "default/fig5_panelD.csv": "a302304565757b8e8ef28bd62238b47e1286e2431bd94f617f6538f9721f1ef5",
    "default/manifest.json": "149c8b756ba5445726f353ef64a6b46a204f61aa0b0307362933159b0473c3a5",
}


def test_panel_d_shape_matches_recorded_sha256(tmp_path, monkeypatch):
    numpy_minor = ".".join(np.__version__.split(".")[:2])
    if numpy_minor != RECORDED_NUMPY:
        pytest.skip(f"hashes recorded with numpy {RECORDED_NUMPY}, running {numpy_minor}")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    config_path = tmp_path / "fig5.json"
    config_path.write_text(json.dumps({"n": 20, "trials": 2, "subsample_size": 2,
                                       "subsample_repeats": 9}))
    for name, flags in (("default", []), ("bins1", ["--bins", "1"])):
        assert main(["simulate", "fig5", "--seed", "11", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out" / name), *flags]) == 0
    out = tmp_path / "out"
    actual = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.rglob("*")) if path.is_file()}
    assert actual == GOLDEN_PANEL_D_SHAPE
