"""Named simulation scenarios (fig1..fig6) and their file emission.

Each scenario resolves a default config (overridable from a JSON config
file), runs the matching sweep, and writes one tidy long-format CSV per
panel plus a run manifest. Columns are
``scenario, <grid parameters...>, metric, aggregate, value`` so any
plotting tool can recreate the curves; re-running with the same seed
reproduces every file byte-identically.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import SCENARIO_NAMES
from .errors import ConfigError, UnknownScenario
from .report import RunManifest, json_dumps
from .samples import SampleSet
from .simulation import (
    DistributionSpec,
    GridPoint,
    ScenarioConfig,
    ScenarioResult,
    _check_sample_sizes,
    _check_subsample,
    _run_grid,
    add_awgn,
    calibrate_null,
    derive_seed,
    draw,
    run_mean_difference_sweep,
    run_noise_sweep,
    run_outlier_sweep,
    run_subsampled_estimate,
)

_DEFAULTS: dict[str, dict] = {
    "fig1": {
        "n": 1000,
        "trials": 5,
        "mu_diffs": [0, 1, 3, 5, 10, 20, 30],
        "sigmas": [1, 3, 5],
    },
    "fig2": {
        "n": 1000,
        "trials": 5,
        "mu_diffs": [0, 1, 3, 5, 10, 20, 30],
        "shape": 0.5,
    },
    "fig3": {
        "n": 1000,
        "trials": 20,
        "fractions": [0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
        "outlier_means": [1, 3, 5, 10, 20, 30],
        "outlier_scale": 1.0,
    },
    "fig4": {
        "n": 10000,
        "trials": 3,
        "mu_diffs": [0, 1, 3, 5, 10, 20, 30],
        "snr_db": [-20, -10, 0, 10, 20, 30, 40],
        "panel_c_sizes": [100, 1000, 10000],
    },
    "fig5": {
        "n": 100,
        "trials": 3,
        "mu_diffs": [0, 1, 3, 5, 10, 20, 30],
        "snr_db": [-20, -10, 0, 10, 20, 30, 40],
        "panel_c_sizes": [10, 30, 100],
        "subsample_size": 10,
        "subsample_repeats": 10,
    },
    "fig6": {
        "sizes": [3, 10, 30, 100, 300, 1000, 10000],
        "trials": 2000,
        "dists": ["normal", "lognormal"],
        "location": 0.0,
        "scale": 1.0,
    },
}


def default_config(name: str) -> dict:
    if name not in _DEFAULTS:
        raise UnknownScenario(f"scenario {name!r} not in {SCENARIO_NAMES}")
    return json.loads(json.dumps(_DEFAULTS[name]))


# JSON types a scalar default admits for an override, never counting a bool.
_ADMITS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _expected_type(default, value) -> str | None:
    """None if ``value`` has the JSON type of ``default``, else the name of that type.

    A list default takes a list of numbers, or of strings where its own are.
    """
    if isinstance(default, list):
        item = default[0] if isinstance(default[0], str) else 0.0
        if isinstance(value, list) and not any(_expected_type(item, v) for v in value):
            return None
        return "a list of strings" if isinstance(item, str) else "a list of numbers"
    types, name = _ADMITS[type(default)]
    return None if isinstance(value, types) and not isinstance(value, bool) else name


def resolve_config(name: str, overrides: dict | None = None) -> dict:
    """Merge a user config over the scenario defaults.

    Raises ``ConfigError`` for an unknown key, a value without the JSON type
    of its default, an empty list (it would write empty tables), a list that
    repeats a value (its runs would write one file or row twice), a sample
    size in fig6 ``sizes`` or fig4/fig5 ``panel_c_sizes`` that is not an
    integer (it would be truncated), a sample size of 2**63 or more (no
    array is that long) and a ``panel_c_sizes`` size below 2 (a panel C
    sweep needs two values a group; checked here, before panel A runs). Value
    ranges, such as a NaN location, are checked when the run builds its
    ``ScenarioConfig``/``DistributionSpec``.
    """
    cfg = default_config(name)
    for key, value in (overrides or {}).items():
        if key == "scenario":
            if value != name:
                raise ConfigError(f"config is for scenario {value!r}, not {name!r}")
            continue
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r} for scenario {name}")
        expected = _expected_type(cfg[key], value)
        if expected is None and value == []:
            expected = "a non-empty list"
        elif (expected is None and key in ("sizes", "panel_c_sizes")
              and any(_expected_type(1, v) for v in value)):
            expected = "a list of integers"
        if expected is not None:
            raise ConfigError(f"config key {key!r} for scenario {name} must be {expected}, "
                              f"got {value!r}")
        if isinstance(value, list):
            repeated = [v for i, v in enumerate(value) if v in value[:i]]
            if repeated:
                raise ConfigError(f"config key {key!r} for scenario {name} repeats "
                                  f"{repeated[0]!r}; each grid value must appear once")
        if key in ("n", "sizes", "panel_c_sizes"):
            _check_sample_sizes(f"config key {key!r} for scenario {name}", value)
        if key == "panel_c_sizes" and min(value) < 2:
            raise ConfigError(f"config key {key!r} for scenario {name} must hold sizes >= 2, "
                              f"got {value!r}")
        cfg[key] = value
    return cfg


def load_config_file(path) -> dict:
    """Read a scenario config from UTF-8 JSON, BOM optional; accepts a run manifest as well."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text must be UTF-8
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    if "config" in data and "tool" in data:  # replaying a manifest
        data = data["config"]
    return data


def _panel_seed(master: int, *key: int) -> int:
    """Decorrelated per-panel master seed, pure in (master, key)."""
    return int(derive_seed(master, *key).generate_state(1, np.uint64)[0])


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_tidy_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _result_rows(scenario: str, points: list[GridPoint], extra: dict | None = None) -> list[dict]:
    rows = []
    for point in points:
        for metric, agg in point.metrics.items():
            for agg_name in ("mean", "std", "min", "max"):
                row = {"scenario": scenario}
                row.update(extra or {})
                row.update(point.params)
                row.update(metric=metric, aggregate=agg_name, value=getattr(agg, agg_name))
                rows.append(row)
    return rows


def _scaled_rows(
    scenario: str, result: ScenarioResult, curve_key: str, axis_key: str,
    extra: dict | None = None,
) -> list[dict]:
    """Per-curve min-max scaling of the mean aggregate onto [0, 1]."""
    curves: dict[tuple, list] = {}
    for point in result.points:
        for metric, agg in point.metrics.items():
            curves.setdefault((metric, point.params[curve_key]), []).append(
                (point.params[axis_key], agg.mean)
            )
    rows = []
    for (metric, curve_val), pts in curves.items():
        values = np.array([v for _, v in pts])
        span = values.max() - values.min()
        scaled = (values - values.min()) / span if span > 0 else np.zeros_like(values)
        for (axis_val, _), sv in zip(pts, scaled):
            row = {"scenario": scenario}
            row.update(extra or {})
            row.update({curve_key: curve_val, axis_key: axis_val})
            row.update(metric=metric, aggregate="scaled_mean", value=float(sv))
            rows.append(row)
    return rows


def _mean_difference_panel(
    name: str, cfg: dict, neg: DistributionSpec, param: str, seed: int, bins: int | None,
):
    """One mean-difference sweep from ``neg`` as a table, its scale column named ``param``."""
    sweep = ScenarioConfig(neg=neg, mu_diffs=tuple(cfg["mu_diffs"]), n=cfg["n"],
                           seed=seed, trials=cfg["trials"], bins=bins)
    rows = _result_rows(name, run_mean_difference_sweep(sweep).points, {param: neg.scale})
    return ["scenario", param, "mu_diff", "metric", "aggregate", "value"], rows


def _run_fig1(cfg: dict, seed: int, bins: int | None):
    return {
        f"fig1_sigma{sigma}.csv": _mean_difference_panel(
            "fig1", cfg, DistributionSpec.normal(0.0, float(sigma)), "sigma",
            _panel_seed(seed, k), bins)
        for k, sigma in enumerate(cfg["sigmas"])
    }


def _run_fig2(cfg: dict, seed: int, bins: int | None):
    neg = DistributionSpec.lognormal(0.0, float(cfg["shape"]))
    return {"fig2_lognormal.csv": _mean_difference_panel(
        "fig2", cfg, neg, "shape", _panel_seed(seed, 0), bins)}


def _run_fig3(cfg: dict, seed: int, bins: int | None):
    sweep = ScenarioConfig(
        neg=DistributionSpec.normal(0.0, 1.0),
        n=cfg["n"],
        seed=_panel_seed(seed, 0),
        trials=cfg["trials"],
        outlier_fractions=tuple(cfg["fractions"]),
        outlier_means=tuple(cfg["outlier_means"]),
        outlier_scale=float(cfg["outlier_scale"]),
        bins=bins,
    )
    result = run_outlier_sweep(sweep)
    rows = _result_rows("fig3", result.points)
    return {
        "fig3_outliers.csv": (
            ["scenario", "fraction", "outlier_mean", "metric", "aggregate", "value"],
            rows,
        )
    }


def _noise_config(cfg: dict, n: int, seed: int, bins: int | None) -> ScenarioConfig:
    return ScenarioConfig(
        neg=DistributionSpec.normal(0.0, 1.0),
        mu_diffs=tuple(cfg["mu_diffs"]),
        n=n,
        seed=seed,
        trials=cfg["trials"],
        snr_db=tuple(cfg["snr_db"]),
        bins=bins,
    )


def _run_noise_figure(name: str, cfg: dict, seed: int, bins: int | None):
    base_cols = ["scenario", "mu_diff", "snr_db", "metric", "aggregate", "value"]
    result = run_noise_sweep(_noise_config(cfg, cfg["n"], _panel_seed(seed, 0), bins))
    files = {
        f"{name}_panelA.csv": (base_cols, _result_rows(name, result.points)),
        f"{name}_panelB.csv": (
            base_cols,
            _scaled_rows(name, result, curve_key="mu_diff", axis_key="snr_db"),
        ),
    }
    rows_c = []
    for k, size in enumerate(cfg["panel_c_sizes"]):
        res_k = run_noise_sweep(_noise_config(cfg, int(size), _panel_seed(seed, 1, k), bins))
        rows_c.extend(_result_rows(name, res_k.points, {"n": int(size)}))
    files[f"{name}_panelC.csv"] = (
        ["scenario", "n", "mu_diff", "snr_db", "metric", "aggregate", "value"],
        rows_c,
    )
    return files


def _subsample_panel(cfg: dict, seed: int, bins: int | None) -> list[GridPoint]:
    """fig5 panel D: repeated small subsamples vs the direct full-group estimate."""
    size, repeats, n = cfg["subsample_size"], cfg["subsample_repeats"], cfg["n"]
    names = ("gssmd_subsampled", "ssmd_subsampled", "gssmd_full", "ssmd_full")

    def trial(d, snr, rngs):
        base = draw(DistributionSpec.normal(0.0, 1.0), n, rngs[0])
        neg = add_awgn(base, snr, rngs[1])
        pos = add_awgn(SampleSet(base.values + d), snr, rngs[2])
        sub = run_subsampled_estimate(neg, pos, size, repeats, rngs[3], bins)
        full = run_subsampled_estimate(neg, pos, n, 1, rngs[4], bins)
        return (np.array([*sub, *full]),)

    axes = {"mu_diff": cfg["mu_diffs"], "snr_db": cfg["snr_db"]}
    return _run_grid(seed, axes, cfg["trials"], 5, trial, lambda block: dict(zip(names, block.T)))


def _run_fig5(cfg: dict, seed: int, bins: int | None):
    # Panel D's subsample checks come before any trial, after panel A's config checks.
    _noise_config(cfg, cfg["n"], seed, bins)
    _check_subsample(cfg["subsample_size"], cfg["subsample_repeats"], cfg["n"])
    files = _run_noise_figure("fig5", cfg, seed, bins)
    points = _subsample_panel(cfg, _panel_seed(seed, 2), bins)
    extra = {"subsample_size": cfg["subsample_size"], "repeats": cfg["subsample_repeats"]}
    files["fig5_panelD.csv"] = (
        ["scenario", "mu_diff", "snr_db", "subsample_size", "repeats",
         "metric", "aggregate", "value"],
        _result_rows("fig5", points, extra),
    )
    return files


def _run_fig6(cfg: dict, seed: int, bins: int | None):
    rows = []
    for k, dist_kind in enumerate(cfg["dists"]):
        dist = DistributionSpec(dist_kind, float(cfg["location"]), float(cfg["scale"]))
        table = calibrate_null(cfg["sizes"], cfg["trials"], dist, _panel_seed(seed, k), bins)
        for r in table.rows:
            for agg_name in ("mean", "variance", "min", "max", "p95", "p99", "p999"):
                rows.append({
                    "scenario": "fig6", "dist": dist_kind, "n": r.n,
                    "metric": "abs_gssmd", "aggregate": agg_name,
                    "value": getattr(r, agg_name),
                })
            rows.append({
                "scenario": "fig6", "dist": dist_kind, "n": r.n,
                "metric": "gssmd", "aggregate": "mean", "value": r.mean_signed,
            })
    return {
        "fig6_null_calibration.csv": (
            ["scenario", "dist", "n", "metric", "aggregate", "value"],
            rows,
        )
    }


_RUNNERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": lambda cfg, seed, bins: _run_noise_figure("fig4", cfg, seed, bins),
    "fig5": _run_fig5,
    "fig6": _run_fig6,
}


def emit_run(
    out_dir, files: dict[str, tuple[list[str], list[dict]]], subcommand: str,
    config: dict, seed: int,
) -> list[Path]:
    """Write each ``filename: (columns, rows)`` table as a CSV, then manifest.json.

    The manifest records the sha256 of every CSV; a config value it cannot
    hold (an infinite number) raises ``ConfigError`` before any file is
    written. Returns the written paths (manifest last).
    """
    for key, value in config.items():  # the manifest must be able to record the run
        try:
            json_dumps(value)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be finite, got {value!r}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    hashes = {}
    for filename, (columns, rows) in files.items():
        path = out / filename
        write_tidy_csv(path, columns, rows)
        hashes[filename] = hashlib.sha256(path.read_bytes()).hexdigest()
        written.append(path)

    manifest = RunManifest(subcommand=subcommand, config=config, seed=seed, outputs=hashes)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(manifest.to_json(), encoding="utf-8", newline="\n")
    written.append(manifest_path)
    return written


def run_scenario(
    name: str,
    seed: int,
    out_dir,
    overrides: dict | None = None,
    bins: int | None = None,
) -> list[Path]:
    """Run one named scenario and write its CSVs plus manifest.json.

    Returns the written paths (manifest last).
    """
    overrides = dict(overrides or {})
    # A replayed manifest carries its bins override; an explicit flag wins.
    replayed_bins = overrides.pop("bins", None)
    if replayed_bins is not None and (_expected_type(1, replayed_bins) or replayed_bins < 1):
        raise ConfigError("config key 'bins' must be null or an integer >= 1, "
                          f"got {replayed_bins!r}")
    if bins is None:
        bins = replayed_bins
    cfg = resolve_config(name, overrides)
    files = _RUNNERS[name](cfg, seed, bins)
    return emit_run(out_dir, files, "simulate", {"scenario": name, **cfg, "bins": bins}, seed)
