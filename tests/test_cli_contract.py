"""The CLI's exit-code contract under arbitrary input.

For any small plate or group CSV file, and for any scenario config value
whose JSON type differs from its default's (or that is an empty list, or a
list of sample sizes that are not all integers; the config file written as
UTF-8, UTF-8 with a byte-order mark or latin-1), ``main`` returns 0, 2 or 3,
writes one stderr line on failure and none on success, emits no warning
and never raises. So it does for an extreme value of the right type for any
config key or flag with a rule (the ``calibrate`` flags, ``--seed``, and the
``hits`` flags ``--alpha``, ``--k``, ``--beta`` and ``--bins``), and an exit 2
names the key or flag.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from assayqc import _RULES
from assayqc.cli import main
from assayqc.scenarios import SCENARIO_NAMES, default_config

PLATE_HEADER = "plate_id,row,col,role,value"
GROUP_HEADER = "group,value"
SPECIAL = ["", "nan", "inf", "-inf", "1e308", "-1e308", "x", "é"]
# Mostly finite readouts, so that some bodies are valid and reach a metric.
_values = st.sampled_from(["0", "1", "2", "-2.5", "3e2", "7", "10.5", "-4", "5", "6"] * 6
                          + SPECIAL)


def _row(*fields):
    return st.tuples(*fields).map(lambda f: ",".join(map(str, f)))


def _body(header, rows, bad_rows):
    """An encoding, the header, then the rows with the bad rows mixed in at random places.

    "utf-8-sig" writes a byte-order mark; "latin-1" makes "é" undecodable.
    """
    rows = st.just([]) | rows  # header-only bodies too
    lines = st.tuples(rows, st.lists(bad_rows, max_size=1)).flatmap(
        lambda t: st.permutations(t[0] + t[1]))
    return st.tuples(st.sampled_from(["utf-8", "utf-8-sig", "latin-1"]), st.just(header), lines)


# Blank rows and rows with a wrong field count fit either format.
_odd_rows = st.lists(st.sampled_from(SPECIAL + ["1", "pos"]), max_size=7).map(",".join)
_plate_rows = st.lists(
    st.tuples(st.sampled_from(["p1", "p1", "p1", "p2"]), st.integers(1, 4), st.integers(1, 4),
              st.sampled_from(["pos", "neg", "pos", "NEG", "sample", "empty"]), _values),
    min_size=6, max_size=16, unique_by=lambda w: w[:3],
).map(lambda wells: [f"{p},{r},{c},{role},{'' if role == 'empty' else v}"
                     for p, r, c, role, v in wells])
_bad_plate_rows = _odd_rows | _row(
    st.sampled_from(["p1", ""]), st.sampled_from(["1", "0", "a"]), st.integers(1, 4),
    st.sampled_from(["pos", "empty", "ctl"]), st.sampled_from(SPECIAL + ["3"]))
_group_rows = st.lists(_row(st.sampled_from(["neg", "pos", "POS"]), _values),
                       min_size=2, max_size=12)
_bad_group_rows = _odd_rows | _row(st.sampled_from(["x", "", "neg"]), st.sampled_from(SPECIAL))
csv_bodies = (_body(PLATE_HEADER, _plate_rows, _bad_plate_rows)
              | _body(GROUP_HEADER, _group_rows, _bad_group_rows))

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(-1e3, 1e3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                               max_size=2),
    max_leaves=4,
)


def has_default_type(default, value, key=None) -> bool:
    """The documented config rule: a bool is never a number, a list is never
    empty and a list of sample sizes holds integers."""
    def number(v):
        return type(v) in (int, float)
    if type(default) is list:
        item_ok = (lambda v: type(v) is str) if type(default[0]) is str else number
        if key in ("sizes", "panel_c_sizes"):
            item_ok = (lambda v: type(v) is int)
        return type(value) is list and value != [] and all(item_ok(v) for v in value)
    return type(value) is int if type(default) is int else number(value)


def run_cli(argv) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue().splitlines()


@settings(max_examples=300)
@given(csv_bodies)
def test_any_csv_body_exits_0_2_or_3(body):
    encoding, header, rows = body
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(("\n".join([header, *rows]) + "\n").encode(encoding))
        for command in ("metrics", "hits"):
            code, err = run_cli([command, str(path)])
            assert code in (0, 2, 3), (command, code, err)
            assert len(err) == (0 if code == 0 else 1), (command, err)


@given(st.data())
def test_wrong_typed_config_value_exits_2_before_any_trial(data):
    scenario = data.draw(st.sampled_from(SCENARIO_NAMES))
    defaults = {**default_config(scenario), "bins": 1}
    key = data.draw(st.sampled_from(sorted(defaults)))
    value = data.draw((st.just([]) | _json_values).filter(
        lambda v: not has_default_type(defaults[key], v, key)
        and not (key == "bins" and v is None)
    ))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        code, err = run_cli(["simulate", scenario, "--seed", "1", "--out-dir", str(out),
                             "--config", str(cfg)])
        assert code == 2, (scenario, key, value, err)
        assert len(err) == 1 and err[0].startswith(f"error: config key '{key}'"), err
        assert not out.exists()


@given(st.data())
def test_config_file_encoding_is_utf8_with_optional_bom(data):
    """A wrong-typed config written as UTF-8 with a byte-order mark, or as latin-1,
    still exits 2 with one line: the config-key message when the bytes are UTF-8
    (the mark is skipped), a config-file message when they are not."""
    scenario = data.draw(st.sampled_from(SCENARIO_NAMES))
    defaults = default_config(scenario)
    key = data.draw(st.sampled_from(sorted(defaults)))
    value = data.draw((st.just([]) | _json_values).filter(
        lambda v: not has_default_type(defaults[key], v, key)))
    encoding = data.draw(st.sampled_from(["utf-8-sig", "latin-1"]))
    raw = json.dumps({key: value}, ensure_ascii=False).encode(encoding, errors="replace")
    try:
        raw.decode("utf-8-sig")
        expected = f"error: config key '{key}'"
    except UnicodeDecodeError:
        expected = "error: config file "
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_bytes(raw)
        code, err = run_cli(["simulate", scenario, "--seed", "1", "--out-dir", str(out),
                             "--config", str(cfg)])
        assert code == 2, (scenario, key, value, encoding, err)
        assert len(err) == 1 and err[0].startswith(expected), err
        assert not out.exists()


# Small runs, each well under a second, in which one key at a time takes an extreme.
_TINY = {
    "fig1": {"n": 20, "trials": 2, "mu_diffs": [0, 1], "sigmas": [1]},
    "fig2": {"n": 20, "trials": 2, "mu_diffs": [0, 1], "shape": 0.5},
    "fig3": {"n": 20, "trials": 2, "fractions": [0, 0.1], "outlier_means": [5],
             "outlier_scale": 1.0},
    "fig4": {"n": 20, "trials": 2, "mu_diffs": [0, 1], "snr_db": [10], "panel_c_sizes": [10]},
    "fig5": {"n": 20, "trials": 2, "mu_diffs": [0, 1], "snr_db": [10], "panel_c_sizes": [10],
             "subsample_size": 2, "subsample_repeats": 2},
    "fig6": {"sizes": [3], "trials": 100, "dists": ["normal"], "location": 0.0, "scale": 1.0},
    "calibrate": {"sizes": [3], "trials": 100, "location": 0.0, "scale": 1.0},
}
# The keys each command takes an extreme for: its config keys or flags, --seed, and --bins
# (calibrate's is covered by the other commands).
_KEYS = {command: [*keys, "seed"] if command == "calibrate" else [*keys, "bins", "seed"]
         for command, keys in _TINY.items()}
_KEYS["hits"] = ["alpha", "beta", "bins", "k"]
_PLATE = "\n".join([PLATE_HEADER, "p,1,1,neg,0", "p,2,1,neg,1", "p,3,1,neg,2", "p,1,2,pos,5",
                    "p,2,2,pos,6", "p,3,2,pos,7", "p,1,3,sample,3"]) + "\n"


def rule_extremes(command, key) -> list:
    """In-type extremes of the key's rule: each bound and its neighbours, 0, 2**63 and,
    for a number, +-1e308, +-inf and NaN; for a seed, 2**64 - 1 and 2**64; an allowed
    string and another. Counts stay at 50 or less, or at 2**63 or more (rejected before
    any trial)."""
    kind, *bounds = _RULES[key]
    many = isinstance(kind, list)
    kind = kind[0] if many else kind
    names = [bound.split(" ", 1)[1] for bound in bounds]  # each bound is "op limit"
    if kind is str:
        values = [*json.loads(names[0]), "foo"]
    else:
        tiny = _TINY.get(command, {})
        limits = [tiny[name] if name in tiny else int(name) for name in names]
        values = [0, 2**63, *(limit + d for limit in limits for d in (-1, 0, 1))]
        if kind is float:
            values += [1e308, -1e308, math.inf, -math.inf, math.nan]
        else:
            values = [v for v in values if v <= 50 or v >= 2**63]
        if kind == "u64":
            values += [2**64 - 1, 2**64]
    return [[v] if many else v for v in dict.fromkeys(values)]


@settings(max_examples=200)
@given(st.data())
def test_extreme_config_value_of_the_right_type_exits_0_2_or_3(data):
    command = data.draw(st.sampled_from(sorted(_KEYS)))
    key = data.draw(st.sampled_from(sorted(_KEYS[command])))
    value = data.draw(st.sampled_from(rule_extremes(command, key)))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        config = {**_TINY.get(command, {}), key: value}
        seed = config.pop("seed", 1)
        flags = [f"--{k}={(v[0] if isinstance(v, list) else v)!r}"  # lists hold one size here
                 for k, v in config.items()]
        if command == "hits":  # under the rule that reads the flag
            (Path(tmp) / "plate.csv").write_text(_PLATE, encoding="utf-8")
            rule = {"alpha": "gssmd", "k": "sigma", "beta": "ssmd"}.get(key, "gssmd")
            argv = ["hits", str(Path(tmp) / "plate.csv"), "--rule", rule, *flags]
        elif command == "calibrate":
            argv = ["calibrate", *flags, f"--seed={seed!r}"]
        else:
            cfg.write_text(json.dumps(config), encoding="utf-8")
            argv = ["simulate", command, "--config", str(cfg), f"--seed={seed!r}"]
        subcommand = argv[0]
        named = (f"error: {subcommand} flag --{key} " if subcommand != "simulate" or key == "seed"
                 else f"error: config key '{key}' ")
        code, err = run_cli([*argv, "--out-dir" if subcommand != "hits" else "--out", str(out)])
        assert code in (0, 2, 3), (command, key, value, err)
        assert code == 0 or len(err) == 1, err
        if code == 2:  # calibrate_null keeps its floor of 100 trials, and its message
            floor = f"error: calibration trials must be >= 100, got {value}"
            assert err[0].startswith(named) or (key == "trials" and err[0] == floor), err
        assert not list(out.glob("*.csv")) or (out / "manifest.json").exists()
