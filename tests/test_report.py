import json

import numpy as np

from assayqc import (
    DistributionSpec,
    RunManifest,
    SampleSet,
    compute_metric_report,
    derive_seed,
    draw,
    json_dumps,
)


def random_report(seed):
    neg = draw(DistributionSpec.normal(0, 1), 80, derive_seed(seed, 0))
    pos = draw(DistributionSpec.normal(np.random.default_rng(seed).uniform(-4, 4), 1.3),
               120, derive_seed(seed, 1))
    return compute_metric_report(neg, pos)


class TestMetricReport:
    def test_internal_identities(self):
        for seed in range(50):
            r = random_report(seed)
            assert r.gcnr == 1.0 - r.ovl
            assert r.cnr == abs(r.ssmd)
            assert r.accepted["gssmd"] == (abs(r.gssmd) >= r.thresholds["gssmd"])

    def test_json_round_trip_is_idempotent(self):
        # Emission uses fixed 12-significant-digit floats, so one trip
        # through JSON is a fixed point: parse(emit(r)) re-emits to the
        # same bytes.
        r = random_report(3)
        text = r.to_json()
        assert json_dumps(json.loads(text)) == text

    def test_json_key_order_is_stable(self):
        keys = list(json.loads(random_report(4).to_json()))
        assert keys == ["snr", "sbr", "z_factor", "ssmd", "cnr", "ovl", "gcnr", "gssmd",
                        "n_neg", "n_pos", "bins", "thresholds", "accepted"]

    def test_null_metrics_serialize_as_null(self):
        values = draw(DistributionSpec.normal(0, 1), 50, 5).values
        r = compute_metric_report(SampleSet(values), SampleSet(values))
        parsed = json.loads(r.to_json())
        assert parsed["z_factor"] is None
        assert parsed["accepted"]["z_factor"] is False

    def test_float_formatting_is_12_significant_digits(self):
        text = json_dumps({"x": 2.1213203435596424})
        assert '"x": 2.12132034356' in text


class TestRunManifest:
    def test_timestamp_honors_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        a = RunManifest(subcommand="simulate", config={"scenario": "fig1"}, seed=1)
        b = RunManifest(subcommand="simulate", config={"scenario": "fig1"}, seed=1)
        assert a.to_json() == b.to_json()
        assert "2023-11-14" in a.timestamp

    def test_contains_reproduction_inputs(self):
        m = RunManifest(subcommand="simulate", config={"scenario": "fig3", "n": 10},
                        seed=9, outputs={"a.csv": "deadbeef"})
        d = json.loads(m.to_json())
        assert d["seed"] == 9
        assert d["config"]["scenario"] == "fig3"
        assert d["outputs"] == {"a.csv": "deadbeef"}
        assert d["tool"] == "assayqc"
