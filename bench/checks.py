"""Output correctness: reference sha256s and checks that hold for any RNG stream.

References are per (Python major.minor, numpy version), because numpy's
``Generator`` streams may change between numpy releases. A run on a
recorded seed compares every output with the recorded hashes. A run on any
other seed replays an anchor seed (a recorded one) in-process and compares
that with the recorded hashes, so a change of output bytes is caught on
every seed; its own passes are compared with its first pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np

from workloads import Command, Workload, prepare

REFERENCE_FILE = Path(__file__).with_name("references.json")
GCNR_TOLERANCE = 1e-11  # both fields are rounded to 12 significant digits
BOUNDED_METRICS = {"gssmd", "ovl", "abs_gssmd", "gssmd_subsampled", "gssmd_full"}


def environment_key() -> dict[str, str]:
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_outputs(commands: list[Command]) -> dict[str, str]:
    return {key: sha256(path) for cmd in commands for key, path in cmd.outputs().items()}


def recorded_seeds() -> dict[str, dict[str, dict[str, str]]]:
    """seed -> workload -> output key -> sha256, for this Python and numpy."""
    if not REFERENCE_FILE.is_file():
        return {}
    data = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    for env in data["environments"]:
        if {"python": env["python"], "numpy": env["numpy"]} == environment_key():
            return env["seeds"]
    return {}


def run_in_process(cmd: Command) -> int:
    """Run one command through ``assayqc.cli.main``; stdout goes to ``cmd.stdout``."""
    from assayqc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(cmd.argv))
    if cmd.stdout is not None:
        cmd.stdout.parent.mkdir(parents=True, exist_ok=True)
        cmd.stdout.write_bytes(out.getvalue().encode("utf-8"))
    return code


def replay_reference(wl: Workload, out_root: Path) -> dict[str, str]:
    """Hashes of one in-process pass plus the generated inputs."""
    commands = wl.commands(out_root)
    for cmd in commands:
        code = run_in_process(cmd)
        if code != 0:
            raise RuntimeError(f"reference replay of {cmd.label} exited {code}")
    return {**{k: sha256(p) for k, p in wl.inputs.items()}, **hash_outputs(commands)}


class Reference:
    """The hashes a run compares its outputs with, and where they came from.

    ``hashes`` is the recorded reference of the run's own seed, or None
    until the first pass supplies one. For a seed without a recording,
    ``check_before_timing`` replays an anchor seed and compares it with its
    recording; ``anchor_attempted`` and ``anchor_problems`` count that as
    operations of the run.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.recorded = recorded_seeds()
        self.hashes = self.recorded.get(str(wl.seed), {}).get(wl.name)
        self.anchor: int | None = None
        self.anchor_attempted = 0
        self.anchor_failed = 0
        self.anchor_problems: list[str] = []
        env = f"Python {environment_key()['python']}, numpy {environment_key()['numpy']}"
        if self.hashes is not None:
            self.source = f"recorded sha256s of seed {wl.seed} ({env})"
        elif self.recorded:
            seeds = sorted(self.recorded, key=int)
            self.anchor = int(seeds[wl.seed % len(seeds)])
            self.source = (f"no recording of seed {wl.seed}; anchor seed {self.anchor} "
                           f"replayed against its recording ({env}); passes compared "
                           f"with the first pass")
        else:
            self.source = (f"NO RECORDED REFERENCE for {env}: outputs are compared pass to "
                           f"pass and by the RNG-independent checks only; run "
                           f"make_references.py on a commit known to be right")

    def check_inputs(self, wl: Workload, expected: dict[str, str]) -> None:
        for key, path in wl.inputs.items():
            if sha256(path) != expected.get(key):
                raise RuntimeError(f"generated input {key} of seed {wl.seed} differs from "
                                   "the reference; the input generator is not deterministic")

    def check_before_timing(self, scratch: Path) -> None:
        """Check the generated inputs; without a recording of the seed, replay the
        anchor seed in-process, counting each mismatch as a failed operation."""
        if self.hashes is not None:
            self.check_inputs(self.wl, self.hashes)
            return
        if self.anchor is None:
            return
        expected = self.recorded[str(self.anchor)][self.wl.name]
        anchor_wl = prepare(self.wl.name, self.anchor, scratch / "anchor")
        self.check_inputs(anchor_wl, expected)
        for cmd in anchor_wl.anchor_commands(scratch / "anchor" / "out"):
            code = run_in_process(cmd)
            problems = ([f"anchor seed {self.anchor}: {cmd.label}: exit code {code}"] if code
                        else [f"anchor seed {self.anchor}: {p}"
                              for p in compare_hashes(cmd, expected)])
            self.anchor_attempted += 1
            self.anchor_failed += bool(problems)
            self.anchor_problems += problems

    def compare(self, cmd: Command) -> list[str]:
        """Hash problems of one command's outputs; the first pass fills a missing reference."""
        if self.hashes is None:
            self.hashes = {}
        if not any(k == cmd.label or k.startswith(cmd.label + "/") for k in self.hashes):
            self.hashes.update({key: sha256(path) for key, path in cmd.outputs().items()})
            return []
        return compare_hashes(cmd, self.hashes)


# --- checks that do not depend on the RNG stream ------------------------------


def _tidy_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_simulation_file(key: str, path: Path) -> list[str]:
    if not key.endswith(".csv"):
        return []
    problems = []
    rows = _tidy_rows(path)
    for row in rows:
        if row["metric"] in BOUNDED_METRICS:
            value = float(row["value"])
            low = 0.0 if row["metric"] in ("ovl", "abs_gssmd") else -1.0
            if not low <= value <= 1.0:
                problems.append(f"{key}: {row['metric']} {row['aggregate']} = {value} "
                                f"outside [{low:g}, 1]")
    if key.endswith("fig6_null_calibration.csv"):
        by_dist: dict[str, list[tuple[int, float]]] = {}
        for row in rows:
            if row["metric"] == "abs_gssmd" and row["aggregate"] == "p999":
                by_dist.setdefault(row["dist"], []).append((int(row["n"]), float(row["value"])))
        for dist, points in by_dist.items():
            points.sort()
            for (n0, v0), (n1, v1) in zip(points, points[1:]):
                if v1 > v0:
                    problems.append(f"{key}: {dist} p99.9 rises from {v0} at n={n0} "
                                    f"to {v1} at n={n1}")
    return problems


def _check_report(key: str, report: dict) -> list[str]:
    problems = []
    if not -1.0 <= report["gssmd"] <= 1.0:
        problems.append(f"{key}: gssmd {report['gssmd']} outside [-1, 1]")
    if abs(report["gcnr"] - (1.0 - report["ovl"])) > GCNR_TOLERANCE:
        problems.append(f"{key}: gcnr {report['gcnr']} != 1 - ovl ({report['ovl']})")
    return problems


def check_plate_file(key: str, path: Path, wl: Workload) -> list[str]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if key == "metrics.json":
        reports = data if isinstance(data, list) else [data]
        problems = [p for r in reports for p in _check_report(key, r)]
        if {r["plate_id"] for r in reports} != set(wl.planted):
            problems.append(f"{key}: reports plates {sorted(r['plate_id'] for r in reports)}")
        return problems
    problems = _check_report(key, data["assay_quality"])
    if data["rule"]["kind"] in ("gssmd", "logistic"):
        missed = wl.planted[data["plate_id"]] - set(data["hits"])
        if missed:
            problems.append(f"{key}: planted hits not recovered: {sorted(missed)}")
    return problems


def check_outputs(wl: Workload, cmd: Command) -> list[str]:
    """Problems in one command's outputs that any RNG stream would reveal."""
    problems = []
    for key, path in cmd.outputs().items():
        if wl.is_simulation:
            problems += check_simulation_file(key, path)
        else:
            problems += check_plate_file(key, path, wl)
    return problems


def compare_hashes(cmd: Command, reference: dict[str, str]) -> list[str]:
    produced = {key: sha256(path) for key, path in cmd.outputs().items()}
    expected = {k: v for k, v in reference.items()
                if k == cmd.label or k.startswith(cmd.label + "/")}
    if set(produced) != set(expected):
        return [f"{cmd.label}: files {sorted(produced)} != reference {sorted(expected)}"]
    return [f"{key}: sha256 differs from the reference"
            for key in sorted(produced) if produced[key] != expected[key]]

