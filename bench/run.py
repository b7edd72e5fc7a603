"""Benchmark of the assayqc CLI end to end and of its layers.

Run from the repository root:

    python3 bench/run.py --workload null_calibration --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's CLI commands, each as a fresh
``python -m assayqc.cli`` process, one after another for ``--seconds`` and
reports the end-to-end metrics. ``--trace 1`` replays the workload in-process
and runs the traced layer pass, reporting per-layer metrics. Human-readable
lines come first; the last line of stdout is the JSON result. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import checks
import workloads
from tracing import Tracer
from workloads import Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SOURCE_DATE_EPOCH = "1700000000"  # pins manifest timestamps, so manifests hash stably
SETUP_STARTS = 9
SETUP_CODE = "import assayqc.cli as c; c.build_parser()"
TAIL_BEYOND = 10  # cmd_tail_s: highest percentile with this many commands beyond it
COMMAND_TIMEOUT_S = 120  # a hung command is killed and counts as failed

# Speed probe: a fixed piece of numpy work run just before and just after
# every timed process, on the same CPU. On the shared 2-vCPU Xeon (KVM)
# guest the benchmark was defined on, CPU speed swings by up to 2x within
# seconds (other tenants of the physical core), so each process time is
# scaled to the probe's nominal time: timed / probe * PROBE_NOMINAL_S.
# PROBE_NOMINAL_S is a fixed unit, the same for every commit, close to the
# median probe time on that guest (about 9 ms). Of the probes
# tried (a pure-Python loop, np.histogram, a mix), np.histogram tracked the
# speed of fig4, fig6 and hits commands best.
PROBE_DATA = np.random.default_rng(0).normal(size=10_000)
PROBE_HISTOGRAMS = 40
PROBE_NOMINAL_S = 0.010


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    start = time.perf_counter()
    for _ in range(PROBE_HISTOGRAMS):
        np.histogram(PROBE_DATA, bins=64)
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU.

    The probe only tracks the speed of the CPU it runs on, so the timed
    children must run there too. The program is serial here, so one CPU
    is all it uses."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(threads_before: str | None, cpu: int) -> dict:
    """Machine and toolchain of the run (read-only sysfs for cache sizes)."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": model,
        "l2_per_core": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "assayqc_threads": "unset" if threads_before is None
        else f"unset (was {threads_before!r} in the caller's environment)",
    }


# Commands are started by this small launcher process, not by the benchmark
# itself: a child's ru_maxrss includes the RSS of the process it was forked
# from, and the benchmark holds numpy, the references and maybe assayqc.
LAUNCHER = """
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    argv, stdout, stderr, timeout = json.loads(line)
    with open(stdout or os.devnull, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss, proc.returncode]), flush=True)
"""


class CliRunner:
    """Runs CLI commands one at a time as child processes, ASSAYQC_THREADS unset.

    Use it as a context manager: leaving the block stops the launcher.
    """

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.raw_walls: list[float] = []
        env = dict(os.environ)
        env.pop("ASSAYQC_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
        self.launcher = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER], env=env,
                                         cwd=ROOT, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "CliRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list[str], stdout_path: Path | None) -> tuple[float, float, int, str]:
        """(wall s, max RSS MB, exit code, stderr) of one child process.

        The wall time is scaled to the probe's nominal speed (see probe());
        the raw wall time is appended to ``self.raw_walls``."""
        err_path = self.scratch / "stderr.txt"
        if stdout_path is not None:
            stdout_path.parent.mkdir(parents=True, exist_ok=True)
        request = [[sys.executable, *argv], stdout_path and str(stdout_path), str(err_path),
                   COMMAND_TIMEOUT_S]
        before = probe()
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the command launcher exited")
        after = probe()
        wall, maxrss_kb, code = json.loads(reply)
        self.raw_walls.append(wall)
        scaled = wall * 2 * PROBE_NOMINAL_S / (before + after)
        return scaled, maxrss_kb / 1024, code, err_path.read_text(errors="replace")

    def command(self, cmd) -> tuple[float, float, list[str]]:
        """Run one ``assayqc`` command: (wall s, max RSS MB, problems)."""
        wall, rss, code, err = self.spawn(["-m", "assayqc.cli", *cmd.argv], cmd.stdout)
        problems = []
        if code != 0:
            problems.append(f"{cmd.label}: exit code {code}: {err.strip()[-300:]}")
        if "Traceback" in err:
            problems.append(f"{cmd.label}: wrote a traceback")
        return wall, rss, problems


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it (>= 50)."""
    return max(50, int(100 * (1 - TAIL_BEYOND / count))) if count else 50


def known_red_bins(runner: CliRunner, wl, scratch: Path, fig6_dir: Path) -> list[dict]:
    """Known red: the ``--bins`` override never reaches calibrate_null's binning.

    Runs ``calibrate`` with and without ``--bins 2`` and ``simulate fig6``
    with ``--bins 2`` (the timed passes ran it without), and compares the
    CSVs. Identical CSVs under a manifest that records ``bins: 2`` mean the
    flag was ignored.
    """
    red = scratch / "known_red"
    calibrate = ["calibrate", "--seed", str(wl.seed), "--sizes", "100", "--trials", "200"]
    helper_problems = runner.command(
        Command("calibrate", calibrate + ["--out-dir", str(red / "calibrate")]))[2]
    cases = [
        ("calibrate --bins 2", calibrate, red / "calibrate" / "null_calibration.csv",
         "null_calibration.csv", helper_problems),
        ("simulate fig6 --bins 2", wl.commands(scratch)[0].argv[:-2],  # drop --out-dir
         fig6_dir / "fig6_null_calibration.csv", "fig6_null_calibration.csv", []),
    ]
    results = []
    for name, argv, default_csv, csv_name, problems in cases:
        out = red / f"{name.split()[0]}_bins2"
        problems = problems + runner.command(
            Command(name, argv + ["--bins", "2", "--out-dir", str(out)]))[2]
        entry = {"check": f"{name} is ignored", "status": "error", "problems": problems}
        if not problems:
            recorded = json.loads((out / "manifest.json").read_text())["config"]["bins"]
            identical = checks.sha256(default_csv) == checks.sha256(out / csv_name)
            entry.update(status="known red" if identical and recorded == 2 else "fixed",
                         manifest_bins=recorded, csv_identical_to_default=identical)
        results.append(entry)
    return results


def prepare_reference(wl, scratch: Path, lines: list[str]) -> checks.Reference:
    """The reference of the run, checked before timing. Which one it is goes to
    stdout, and also to stderr when the run's own seed has no recording."""
    reference = checks.Reference(wl)
    reference.check_before_timing(scratch)
    lines.append(f"reference: {reference.source}")
    if reference.hashes is None:
        print(f"bench: reference: {reference.source}", file=sys.stderr)
    return reference


def run_end_to_end(args, wl, scratch: Path, lines: list[str]) -> dict:
    with CliRunner(scratch) as runner:
        return _end_to_end(runner, args, wl, scratch, lines)


def _end_to_end(runner: CliRunner, args, wl, scratch: Path, lines: list[str]) -> dict:
    reference = prepare_reference(wl, scratch, lines)

    # Let the bytecode cache fill before timing start-up; users pay that once.
    runner.spawn(["-c", SETUP_CODE], None)
    setup = []
    for _ in range(SETUP_STARTS):
        wall, _, code, err = runner.spawn(["-c", SETUP_CODE], None)
        if code != 0:
            raise RuntimeError(f"importing assayqc.cli failed: {err.strip()}")
        setup.append(wall)
    raw_setup = runner.raw_walls[-SETUP_STARTS:]
    runner.raw_walls.clear()

    out_root = scratch / "out"
    pass_walls, cmd_walls, rss = [], [], []
    by_kind: dict[str, list[float]] = {}  # command kind -> its scaled times in this run
    problems = list(reference.anchor_problems)
    attempted, failed = reference.anchor_attempted, reference.anchor_failed
    deadline = time.perf_counter() + args.seconds
    # No pass starts that would end more than half a pass after the deadline,
    # so a run takes about --seconds even when one pass is longer than that.
    while not pass_walls or time.perf_counter() + pass_walls[-1] / 2 < deadline:
        shutil.rmtree(out_root, ignore_errors=True)
        commands = wl.commands(out_root)
        results = []
        start = time.perf_counter()
        for cmd in commands:
            results.append(runner.command(cmd))
        pass_walls.append(time.perf_counter() - start)
        for cmd, (wall, mb, cmd_problems) in zip(commands, results):
            cmd_walls.append(wall)
            by_kind.setdefault(cmd.kind, []).append(wall)
            rss.append(mb)
            if not cmd_problems:
                cmd_problems = reference.compare(cmd)
                if len(pass_walls) == 1:
                    cmd_problems += checks.check_outputs(wl, cmd)
            attempted += 1
            failed += bool(cmd_problems)
            problems += cmd_problems
    raw_cmd = runner.raw_walls[:]

    # The known reds are reported, not counted as operations: the workload's
    # operations are its timed commands, and none of those may fail.
    known_reds = known_red_bins(runner, wl, scratch, out_root / "fig6") \
        if wl.name == "null_calibration" else []
    for entry in known_reds:
        lines.append(f"known red: {entry['check']}: {entry['status']} "
                     + json.dumps({k: v for k, v in entry.items()
                                   if k not in ("check", "status")}))
    unexpected = problems + [p for e in known_reds if e["status"] == "error"
                             for p in e["problems"]]

    # A pass at each command kind's median scaled time; commands of one kind
    # do the same work on equally sized inputs.
    typical = [median(by_kind[cmd.kind]) for cmd in commands]
    wall_s = sum(typical)
    tail_p = tail_percentile(len(cmd_walls))
    units = wl.work_units()
    unit_name = "trials_per_s" if wl.is_simulation else "plates_per_s"
    metrics = {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "throughput_per_s": (units / wall_s, "1/s"),
        "cmd_p50_s": (median(cmd_walls), "s"),
        "cmd_tail_s": (float(np.percentile(cmd_walls, tail_p)), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    lines += [
        f"passes: {len(pass_walls)}, commands: {len(cmd_walls)} ({len(by_kind)} kinds), "
        f"{units} {'trials' if wl.is_simulation else 'plates'} per pass",
        "times are scaled to the speed probe's nominal speed; raw medians in brackets",
        f"setup_s: {metrics['setup_s'][0]:.4f} s (median of {SETUP_STARTS} interpreter "
        f"starts; raw {median(raw_setup):.4f} s)",
        f"wall_s: {wall_s:.4f} s (one pass at each command kind's median; "
        f"median pass as run, raw {median(pass_walls):.4f} s)",
        f"throughput_per_s: {units / wall_s:.4f} 1/s (= {unit_name})",
        f"cmd_p50_s: {metrics['cmd_p50_s'][0]:.4f} s (n={len(cmd_walls)}; "
        f"raw {median(raw_cmd):.4f} s)",
        f"cmd_tail_s: {metrics['cmd_tail_s'][0]:.4f} s (p{tail_p}, n={len(cmd_walls)}; "
        f"raw {float(np.percentile(raw_cmd, tail_p)):.4f} s)",
        f"peak_rss_mb: {max(rss):.1f} MB",
        f"fail_ratio: {failed}/{attempted} ({len(unexpected)} unexpected problem(s); "
        f"known reds, not counted: "
        f"{sum(e['status'] == 'known red' for e in known_reds)})",
    ]
    lines += [f"problem: {p}" for p in unexpected]
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(args, wl, scratch: Path, lines: list[str]) -> dict:
    import layers  # imports assayqc, so only after main() has put src/ on the path

    tracer = Tracer(run_id=f"{wl.name}-seed{wl.seed}-{os.getpid()}")
    reference = prepare_reference(wl, scratch, lines)
    out_root = scratch / "replay"
    problems, failed = list(reference.anchor_problems), reference.anchor_failed
    commands = wl.commands(out_root)
    kernel_calls = layers.CallCounter(layers.overlap_kernel())
    with tracer.span("replay"):
        for cmd in commands:
            with tracer.span(f"cli.{cmd.argv[0]}"), kernel_calls:
                code = checks.run_in_process(cmd)
            cmd_problems = [f"{cmd.label}: exit code {code}"] if code else []
            if not cmd_problems:
                cmd_problems += reference.compare(cmd)
                cmd_problems += checks.check_outputs(wl, cmd)
            failed += bool(cmd_problems)
            problems += cmd_problems
    scenario_files = [p for cmd in commands if cmd.out_dir for p in cmd.outputs().values()]
    rows = sum(len(p.read_text().splitlines()) - 1 for p in scenario_files if p.suffix == ".csv")
    written = sum(p.stat().st_size for p in scenario_files)

    plates = wl if not wl.is_simulation else workloads.prepare("plate_screen", wl.seed,
                                                               scratch / "plates")
    layer = layers.LayerPass(wl.seed, plates, scratch, tracer)
    traced_wall, untraced_wall = layers.run_rounds(layer, tracer, args.seconds)
    problems += layer.problems

    metrics = layers.layer_metrics(layer, tracer)
    metrics.update({name: (value, "count") for name, value in wl.counts().items()})
    metrics["overlap.calls"] = (kernel_calls.calls, "count")
    metrics["scenarios.rows_written"] = (rows, "count")
    metrics["scenarios.bytes_written"] = (written, "B")
    overhead = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    metrics["trace.overhead_pct"] = (overhead, "%")

    trace_path = WORK / "traces" / f"{wl.name}-seed{wl.seed}.jsonl"
    tracer.write(trace_path)
    lines.append(f"traced rounds: {layer.rounds // 2} traced + {layer.rounds // 2} untraced; "
                 f"median round {traced_wall * 1e3:.2f} ms traced vs "
                 f"{untraced_wall * 1e3:.2f} ms untraced (overhead {overhead:+.2f}%)")
    lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    lines.append(f"{'span':44} {'calls':>7} {'total ms':>10} {'self ms':>10} {'median us':>10}")
    for name, row in sorted(tracer.by_name().items(), key=lambda kv: -kv[1]["self_ms"]):
        lines.append(f"{name:44} {row['calls']:7d} {row['total_ms']:10.2f} "
                     f"{row['self_ms']:10.2f} {row['median_us']:10.2f}")
    lines += [f"problem: {p}" for p in problems]
    return {"correct": not problems,
            "attempted": reference.anchor_attempted + len(commands) + layer.checks,
            "failed": failed + layer.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "assayqc" / "cli.py").is_file():
        print(f"error: {SRC / 'assayqc'} not found; run from an assayqc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads_before = os.environ.pop("ASSAYQC_THREADS", None)
    cpu = pin_to_one_cpu()
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    scratch = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        wl = workloads.prepare(args.workload, args.seed, scratch)
        lines = [f"workload {wl.name}, seed {wl.seed}, trace {args.trace}, pinned to CPU {cpu}"]
        run = run_traced if args.trace else run_end_to_end
        result = run(args, wl, scratch, lines)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines.append("environment: " + json.dumps(environment(threads_before, cpu)))
    print("\n".join(lines))
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
