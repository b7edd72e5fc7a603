"""Self-test of the benchmark: every workload at minimal length, both modes.

    python3 bench/selftest.py

Checks that BENCHMARK.json keeps to its schema, that each run prints as its
last line a JSON result with exactly the keys correct/attempted/failed/
metrics and every declared metric with its declared unit, that the known-red
``--bins`` checks report on null_calibration, and that the benchmark exits
non-zero without a result in a directory that holds only BENCHMARK.json and
bench/. A run on a seed without recorded references must replay an anchor
seed against its recording. Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TIMEOUT_S = 180
RECORDED_SEED, UNRECORDED_SEED = 3, 987654


def check_spec(spec: dict) -> list[str]:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(expected)}")
    if not (isinstance(spec.get("run_seconds"), int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in [1, 60]")
    if not 2 <= len(spec.get("workloads", [])) <= 8:
        problems.append("need 2 to 8 workloads")
    names = []
    for w in spec.get("workloads", []):
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: needs exactly a name and a one-line why")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec.get(section, []):
            names.append(m["name"])
            if set(m) != keys:
                problems.append(f"{section} {m.get('name')}: keys {sorted(m)}")
            if not UNIT.match(m.get("unit", "")) or m.get("better") not in ("higher", "lower"):
                problems.append(f"{section} {m.get('name')}: bad unit or better")
            if section == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append(f"{m['name']}: bound must lie in (0, 0.25]")
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    setup = [m for m in spec.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    return problems


def run(cwd: Path, workload: str, trace: int,
        seed: int = RECORDED_SEED) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: not correct: "
                        + "; ".join(l for l in lines if l.startswith("problem:")))
    if not (type(result.get("attempted")) is int and result["attempted"] >= 1
            and type(result.get("failed")) is int and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{where}: attempted/failed must be whole numbers, attempted >= 1")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{where}: metrics missing {sorted(set(declared) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared.get(name) \
                or type(m["value"]) not in (int, float):
            problems.append(f"{where}: metric {name} = {m}")
    if workload == "null_calibration" and not trace:
        reds = [l for l in lines if l.startswith("known red:")]
        if len(reds) != 2:
            problems.append(f"{where}: expected two known-red lines, got {reds}")
    return problems


def check_anchor(spec: dict) -> list[str]:
    """A seed without a recording is checked through an anchor seed's recording."""
    workload = "large_n_sweep"
    proc = run(ROOT, workload, 0, UNRECORDED_SEED)
    problems = check_result(spec, workload, 0, proc)
    if not problems:
        lines = proc.stdout.splitlines()
        if not any(l.startswith("reference: ") and "anchor seed" in l for l in lines):
            problems.append(f"seed {UNRECORDED_SEED}: no anchor replay reported")
    print(f"{workload} --seed {UNRECORDED_SEED}: {'ok' if not problems else 'FAILED'}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without src/, the benchmark must fail without printing a result."""
    bare = ROOT / "bench" / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: expected a non-zero exit and no result"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec) + check_bare_directory(spec) + check_anchor(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            found = check_result(spec, w["name"], trace, run(ROOT, w["name"], trace))
            print(f"{w['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(f"problem: {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
