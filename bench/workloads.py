"""The four benchmark workloads: their inputs, CLI commands and work counts.

Every workload is a list of ``assayqc`` CLI commands (one "pass"). The
simulation workloads scale their trial counts only through a ``--config``
override of the ``trials`` key; ``plate_screen`` reads two plate files the
benchmark generates from the workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Scenario runs per simulation workload, with their ``trials`` override.
SIMULATIONS = {
    # fig6 defaults to 2000 trials (about 9 s); 400 keeps the default grid
    # and the per-trial cost profile while allowing about ten passes a run.
    "null_calibration": [("fig6", 400)],
    "large_n_sweep": [("fig4", 3)],
    # Trials chosen so that the four commands take about equally long: with
    # one slow command in four, cmd_p50_s or cmd_tail_s would sit on the
    # edge between the fast and the slow group and jump from run to run.
    "figure_sweeps": [("fig1", 30), ("fig2", 120), ("fig3", 10), ("fig5", 1)],
}
WORKLOADS = (*SIMULATIONS, "plate_screen")

# plate_screen layout: 1536-well plates (32 x 48), negative controls in the
# two left edge columns, positive controls in the two right edge columns.
PLATE_ROWS, PLATE_COLS = 32, 48
NEG_COLS, POS_COLS = (1, 2), (47, 48)
# Every hits call parses both whole files, so a call's parsing grows with
# the plate count while interpreter start-up (about 0.3 s) does not. At 12
# plates per file the work inside a hits command (parsing, select_hits,
# report, JSON) is about half of its wall time, measured on a 2-vCPU Xeon
# (KVM): 0.21 at 3 plates, 0.49 at 10, 0.51 at 12, 0.57 at 14. A pass is
# 1 + 4 * 12 = 49 commands, about 30 s.
N_PLATES = 12
PLANTED_HITS = 24
TAIL_FRACTION = 0.1
RULES = ("gssmd", "sigma", "ssmd", "logistic")


@dataclass
class Command:
    """One CLI invocation and the files it produces.

    ``outputs`` maps a reference key to the produced file: every file of
    ``out_dir`` for ``simulate`` and ``calibrate``, the captured stdout for
    ``metrics`` and ``hits``. Commands of one ``kind`` do the same work on
    equally sized inputs: one scenario, ``metrics``, or one hits rule on
    any plate.
    """

    label: str
    argv: list[str]
    out_dir: Path | None = None
    stdout: Path | None = None
    kind: str = ""

    def outputs(self) -> dict[str, Path]:
        if self.out_dir is not None:
            found = sorted(self.out_dir.iterdir()) if self.out_dir.is_dir() else []
            return {f"{self.label}/{p.name}": p for p in found}
        return {self.label: self.stdout}


@dataclass
class Workload:
    name: str
    seed: int
    work_dir: Path
    configs: dict[str, dict] = field(default_factory=dict)  # scenario -> resolved config
    planted: dict[str, set[str]] = field(default_factory=dict)  # plate id -> addresses
    inputs: dict[str, Path] = field(default_factory=dict)

    @property
    def is_simulation(self) -> bool:
        return self.name in SIMULATIONS

    def commands(self, out_root: Path) -> list[Command]:
        """The commands of one pass, writing below ``out_root``."""
        if self.is_simulation:
            return [
                Command(fig, ["simulate", fig, "--seed", str(self.seed),
                              "--config", str(self.work_dir / f"{fig}.json"),
                              "--out-dir", str(out_root / fig)],
                        out_dir=out_root / fig, kind=fig)
                for fig, _ in SIMULATIONS[self.name]
            ]
        train, test = str(self.inputs["inputs/train.csv"]), str(self.inputs["inputs/replicate.csv"])
        cmds = [Command("metrics.json", ["metrics", train], stdout=out_root / "metrics.json",
                        kind="metrics")]
        for pid in self.planted:
            for rule in RULES:
                label = f"hits/{pid}/{rule}.json"
                cmds.append(Command(label, ["hits", train, "--plate-id", pid, "--test", test,
                                            "--rule", rule],
                                    stdout=out_root / label, kind=f"hits/{rule}"))
        return cmds

    def anchor_commands(self, out_root: Path) -> list[Command]:
        """The commands replayed at an anchor seed: the whole pass, or for
        plate_screen ``metrics`` and the four rules on the first plate."""
        commands = self.commands(out_root)
        return commands if self.is_simulation else commands[:1 + len(RULES)]

    def work_units(self) -> int:
        """Throughput numerator of one pass: trials for simulations, plates otherwise."""
        return self.counts()["simulation.trials"] if self.is_simulation else len(self.planted)

    def counts(self) -> dict[str, int]:
        """Trials and per-pair seed sequences of one pass, from the resolved configs."""
        trials = seeds = 0
        for fig, cfg in self.configs.items():
            t, s = _scenario_counts(fig, cfg)
            trials, seeds = trials + t, seeds + s
        return {"simulation.trials": trials, "simulation.seed_sequences": seeds}


def _scenario_counts(fig: str, cfg: dict) -> tuple[int, int]:
    """(neg/pos pairs scored, per-pair seed sequences) of one scenario."""
    t = cfg.get("trials", 0)
    if fig == "fig1":
        pairs = len(cfg["sigmas"]) * len(cfg["mu_diffs"]) * t
        return pairs, 2 * pairs
    if fig == "fig2":
        pairs = len(cfg["mu_diffs"]) * t
        return pairs, 2 * pairs
    if fig == "fig3":
        pairs = len(cfg["fractions"]) * len(cfg["outlier_means"]) * t
        return pairs, 3 * pairs
    if fig in ("fig4", "fig5"):
        grid = len(cfg["mu_diffs"]) * len(cfg["snr_db"]) * t
        pairs = grid * (1 + len(cfg["panel_c_sizes"]))
        if fig == "fig4":
            return pairs, 3 * pairs
        # Panel D: per trial one subsampled estimate and one full-size
        # estimate, from five seed sequences.
        return pairs + grid, 3 * pairs + 5 * grid
    if fig == "fig6":
        pairs = len(cfg["dists"]) * len(cfg["sizes"]) * t
        return pairs, 2 * pairs
    raise ValueError(f"no counts for scenario {fig}")


def _plate_lines(pid: str, rng: np.random.Generator, hit_wells: set[tuple[int, int]]) -> list[str]:
    lines = []
    for col in range(1, PLATE_COLS + 1):
        for row in range(1, PLATE_ROWS + 1):
            if col in NEG_COLS:
                role, value = "neg", rng.normal(0.0, 1.0)
            elif col in POS_COLS:
                role, value = "pos", rng.normal(12.0, 1.0)
            elif (row, col) in hit_wells:
                role, value = "sample", rng.normal(12.0, 1.0)
            elif rng.random() < TAIL_FRACTION:
                role, value = "sample", rng.exponential(2.5)
            else:
                role, value = "sample", rng.normal(0.0, 1.0)
            lines.append(f"{pid},{row},{col},{role},{value!r}")
    return lines


def prepare(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the workload's inputs (configs or plate files) for ``seed``."""
    from assayqc.scenarios import resolve_config  # src/ is on the path only at run time

    work_dir.mkdir(parents=True, exist_ok=True)
    wl = Workload(name, seed, work_dir)
    if wl.is_simulation:
        for fig, trials in SIMULATIONS[name]:
            path = work_dir / f"{fig}.json"
            path.write_text(json.dumps({"trials": trials}), encoding="utf-8")
            wl.configs[fig] = resolve_config(fig, {"trials": trials})
        return wl

    rng = np.random.default_rng(seed)
    sample_wells = [(r, c) for c in range(1, PLATE_COLS + 1) for r in range(1, PLATE_ROWS + 1)
                    if c not in NEG_COLS + POS_COLS]
    header = "plate_id,row,col,role,value"
    train, test = [header], [header]
    for p in range(1, N_PLATES + 1):
        pid = f"plate{p:02d}"
        picks = rng.choice(len(sample_wells), PLANTED_HITS, replace=False)
        hit_wells = {sample_wells[i] for i in picks}
        wl.planted[pid] = {f"R{r}C{c}" for r, c in hit_wells}
        train += _plate_lines(pid, rng, hit_wells)
        test += _plate_lines(pid, rng, hit_wells)
    for key, lines in (("inputs/train.csv", train), ("inputs/replicate.csv", test)):
        path = work_dir / key
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        wl.inputs[key] = path
    return wl
