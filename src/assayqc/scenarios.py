"""Named simulation scenarios (fig1..fig6), the ``calibrate`` table, and their file emission.

Each scenario resolves a default config (overridable from a JSON config
file), runs the matching sweep, and writes one tidy long-format CSV per
panel plus a run manifest; ``run_calibration`` does the same for one null
calibration table. A table is its rows, whose first row's keys are its
CSV's columns: ``scenario, <grid parameters...>, metric, aggregate, value``
for a panel, so any plotting tool can recreate the curves. Re-running with
the same seed reproduces every file byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import operator
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from . import _DIST_NAMES, SCENARIO_NAMES, _check_config
from .errors import ConfigError, NonFiniteValue, NumericError, UnknownScenario
from .report import RunManifest, csv_text, text12
from .samples import SampleSet
from .simulation import (
    DistributionSpec,
    GridPoint,
    ScenarioConfig,
    ScenarioResult,
    _noisy_pair,
    _run_grid,
    calibrate_null,
    derive_seed,
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
        "dists": list(_DIST_NAMES),
        "location": 0.0,
        "scale": 1.0,
    },
}


def default_config(name: str) -> dict:
    if name not in _DEFAULTS:
        raise UnknownScenario(f"scenario {name!r} not in {SCENARIO_NAMES}")
    return json.loads(json.dumps(_DEFAULTS[name]))


def resolve_config(name: str, overrides: dict | None = None) -> dict:
    """Merge a user config over the scenario defaults; check it, before any trial runs.

    Raises ``ConfigError`` for an unknown key, then names the first key, in
    the defaults' order, whose value breaks its rule in ``assayqc._RULES``.
    """
    cfg, overrides = default_config(name), dict(overrides or {})
    scenario = overrides.pop("scenario", name)
    if scenario != name:
        raise ConfigError(f"config is for scenario {scenario!r}, not {name!r}")
    for key in overrides:
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r} for scenario {name}")
    cfg.update(overrides)
    _check_config(cfg, f"config key {{!r}} for scenario {name}")
    return cfg


def load_config_file(path) -> dict:
    """Read a scenario config from UTF-8 JSON, BOM optional; accepts a run manifest as well."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not JSON, not UTF-8, or an integer too long for Python to read
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    if "config" in data and "tool" in data:  # replaying a manifest
        data = data["config"]
    return data


def _panel_seed(master: int, *key: int) -> int:
    """Decorrelated per-panel master seed, pure in (master, key)."""
    return int(derive_seed(master, *key).generate_state(1, np.uint64)[0])


def write_tidy_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    pick = operator.itemgetter(*columns)  # one column picks a bare value; zip makes it a row
    text = csv_text(chain([columns], map(pick, rows) if len(columns) > 1 else zip(map(pick, rows))))
    path.write_text(text, encoding="utf-8", newline="\n")


def _formatted(fields: dict) -> dict:
    """``fields`` with each float as ``csv_text`` writes it (``text12``), to be reused."""
    return {key: text12(v) if isinstance(v, float) else v for key, v in fields.items()}


def _result_rows(scenario: str, points: list[GridPoint], extra: dict | None = None) -> list[dict]:
    """Four aggregate rows a metric of each point, which share the point's fields
    (scenario, ``extra`` and its params), formatted once."""
    rows = []
    for point in points:
        shared = _formatted({"scenario": scenario, **(extra or {}), **point.params})
        for metric, agg in point.metrics.items():
            for agg_name in ("mean", "std", "min", "max"):
                rows.append({**shared, "metric": metric, "aggregate": agg_name,
                             "value": getattr(agg, agg_name)})
    return rows


@contextmanager
def cell_named(scenario: str, extra: dict | None = None):
    """A failing sweep's message, which ``_run_grid`` or ``calibrate_null`` starts with its
    cell, gains the scenario and ``extra`` in front: ``fig1 sigma 1, mu_diff 1e+308: ...``."""
    try:
        yield
    except (NumericError, ArithmeticError, NonFiniteValue) as exc:
        named = "".join(f"{key} {v}, " for key, v in _formatted(extra or {}).items())
        exc.args = (f"{scenario} {named}{exc}",)
        raise


def _scaled_rows(
    scenario: str, result: ScenarioResult, curve_key: str, axis_key: str,
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
            rows.append({"scenario": scenario, curve_key: curve_val, axis_key: axis_val,
                         "metric": metric, "aggregate": "scaled_mean", "value": float(sv)})
    return rows


def _mean_difference_panel(
    name: str, cfg: dict, neg: DistributionSpec, param: str, seed: int, bins: int | None,
):
    """One mean-difference sweep from ``neg`` as a table, its scale column named ``param``."""
    sweep = ScenarioConfig(neg=neg, mu_diffs=tuple(cfg["mu_diffs"]), n=cfg["n"],
                           seed=seed, trials=cfg["trials"], bins=bins)
    with cell_named(name, {param: neg.scale}):
        return _result_rows(name, run_mean_difference_sweep(sweep).points, {param: neg.scale})


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
    with cell_named("fig3"):
        result = run_outlier_sweep(sweep)
    return {"fig3_outliers.csv": _result_rows("fig3", result.points)}


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
    with cell_named(name):
        result = run_noise_sweep(_noise_config(cfg, cfg["n"], _panel_seed(seed, 0), bins))
    files = {
        f"{name}_panelA.csv": _result_rows(name, result.points),
        f"{name}_panelB.csv": _scaled_rows(name, result, curve_key="mu_diff", axis_key="snr_db"),
    }
    rows_c = []
    for k, size in enumerate(cfg["panel_c_sizes"]):
        with cell_named(name, {"n": int(size)}):
            res_k = run_noise_sweep(_noise_config(cfg, int(size), _panel_seed(seed, 1, k), bins))
        rows_c.extend(_result_rows(name, res_k.points, {"n": int(size)}))
    files[f"{name}_panelC.csv"] = rows_c
    return files


def _subsample_panel(cfg: dict, seed: int, bins: int | None) -> list[GridPoint]:
    """fig5 panel D: repeated small subsamples vs the direct full-group estimate."""
    size, repeats, n = cfg["subsample_size"], cfg["subsample_repeats"], cfg["n"]
    names = ("gssmd_subsampled", "ssmd_subsampled", "gssmd_full", "ssmd_full")

    def trial(d, snr, rngs):  # the noise sweep's trial on N(0, 1); its draw keeps draw()'s label
        pair = _noisy_pair(DistributionSpec.normal(0.0, 1.0), n, d, snr, rngs, "normal")
        neg, pos = map(SampleSet, pair)
        sub = run_subsampled_estimate(neg, pos, size, repeats, rngs[3], bins)
        full = run_subsampled_estimate(neg, pos, n, 1, rngs[4], bins)
        return (np.array([*sub, *full]),)

    axes = {"mu_diff": cfg["mu_diffs"], "snr_db": cfg["snr_db"]}
    return _run_grid(seed, axes, cfg["trials"], 5, trial, lambda block: dict(zip(names, block.T)))


def _run_fig5(cfg: dict, seed: int, bins: int | None):
    files = _run_noise_figure("fig5", cfg, seed, bins)
    extra = {"subsample_size": cfg["subsample_size"], "repeats": cfg["subsample_repeats"]}
    with cell_named("fig5", extra):
        points = _subsample_panel(cfg, _panel_seed(seed, 2), bins)
    # The panel's own settings follow its grid's columns.
    files["fig5_panelD.csv"] = _result_rows(
        "fig5", [p._replace(params={**p.params, **extra}) for p in points])
    return files


def _run_fig6(cfg: dict, seed: int, bins: int | None):
    rows = []
    for k, dist_kind in enumerate(cfg["dists"]):
        dist = DistributionSpec(dist_kind, float(cfg["location"]), float(cfg["scale"]))
        with cell_named("fig6"):
            table = calibrate_null(cfg["sizes"], cfg["trials"], dist, _panel_seed(seed, k), bins)
        for r in table.rows:
            cells = [("abs_gssmd", agg_name, getattr(r, agg_name))
                     for agg_name in ("mean", "variance", "min", "max", "p95", "p99", "p999")]
            for metric, agg_name, value in [*cells, ("gssmd", "mean", r.mean_signed)]:
                rows.append({"scenario": "fig6", "dist": dist_kind, "n": r.n,
                             "metric": metric, "aggregate": agg_name, "value": value})
    return {"fig6_null_calibration.csv": rows}


_RUNNERS = {
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": lambda cfg, seed, bins: _run_noise_figure("fig4", cfg, seed, bins),
    "fig5": _run_fig5,
    "fig6": _run_fig6,
}


def emit_run(out_dir, tables: dict[str, list[dict]], manifest: RunManifest) -> list[Path]:
    """Write each ``filename: rows`` table as a CSV whose columns are its first row's keys,
    record its sha256 in ``manifest.outputs``, then write ``manifest`` as manifest.json.

    A runner builds ``manifest`` before its trials, so its timestamp, which a malformed
    ``SOURCE_DATE_EPOCH`` fails, is taken before any work. The manifest's config holds values
    that the runner checked against ``assayqc._RULES``: every number is finite, so the
    manifest can hold it. Returns the written paths (manifest last).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for filename, rows in tables.items():  # the config rules allow no empty grid
        path = out / filename
        write_tidy_csv(path, list(rows[0]), rows)
        manifest.outputs[filename] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8", newline="\n")
    return [out / filename for filename in [*tables, "manifest.json"]]


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
    cfg = resolve_config(name, overrides)
    if replayed_bins is not None:
        _check_config({"bins": replayed_bins}, f"config key {{!r}} for scenario {name}")
    if bins is None:
        bins = replayed_bins
    manifest = RunManifest(subcommand="simulate", config={"scenario": name, **cfg, "bins": bins},
                           seed=seed)
    return emit_run(out_dir, _RUNNERS[name](cfg, seed, bins), manifest)


def run_calibration(seed: int, out_dir, config: dict, bins: int | None = None) -> list[Path]:
    """Run ``calibrate``: the null calibration table for ``config`` (its keys sizes, trials,
    dist, location and scale), written as null_calibration.csv plus manifest.json.

    ``config`` is judged by ``assayqc._RULES`` before any trial, as a scenario's is.
    Returns the written paths (manifest last).
    """
    _check_config(config, "config key {!r} for calibrate")
    manifest = RunManifest(subcommand="calibrate", config={**config, "bins": bins}, seed=seed)
    dist = DistributionSpec(config["dist"], float(config["location"]), float(config["scale"]))
    with cell_named("calibrate"):
        table = calibrate_null(config["sizes"], config["trials"], dist, seed, bins)
    rows = [{"dist": config["dist"], **row._asdict()} for row in table.rows]
    return emit_run(out_dir, {"null_calibration.csv": rows}, manifest)
