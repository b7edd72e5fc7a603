"""The process entry: ``python -m assayqc.cli`` goes through ``cli.run``.

A command run as a process must end as the same command run in-process through ``main``:
the same exit code, stdout and stderr bytes and written files. The process runs without the
cyclic collector, and ``run`` freezes the objects alive at exit so that shutdown skips
collecting them; ``main`` must do neither, since tests call it many times in one process.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from assayqc.cli import main, run

ROOT = Path(__file__).resolve().parent.parent
EPOCH = "1700000000"


def plate_csv(plate_id, shift):
    rows = [f"{plate_id},{r},{c},{role},{base + shift + 0.1 * r}"
            for c, role, base in ((1, "neg", 0.0), (2, "pos", 10.0), (3, "sample", 5.0))
            for r in range(1, 9)]
    return "plate_id,row,col,role,value\n" + "\n".join(rows) + "\n"


def write_inputs(directory):
    (directory / "train.csv").write_text(plate_csv("p", 0.0))
    (directory / "test.csv").write_text(plate_csv("p", 0.3))
    (directory / "overflow.csv").write_text(
        "plate_id,row,col,role,value\n"
        "p,1,1,neg,0\np,2,1,neg,10\np,3,1,neg,20\np,1,2,pos,100\np,2,2,pos,120\n"
        "p,1,3,sample,50\n")
    (directory / "fig1.json").write_text(
        json.dumps({"n": 20, "trials": 2, "mu_diffs": [0.5, 2], "sigmas": [1]}))


COMMANDS = {
    "hits_test": ["hits", "train.csv", "--test", "test.csv", "--rule", "sigma"],
    "metrics": ["metrics", "train.csv"],
    "simulate_fig1": ["simulate", "fig1", "--seed", "3", "--config", "fig1.json",
                      "--out-dir", "out"],
    "calibrate": ["calibrate", "--seed", "1", "--sizes", "3", "--trials", "100",
                  "--out-dir", "out"],
    "version": ["--version"],
    "bad_flag": ["metrics", "train.csv", "--no-such-flag"],
    "numeric_error": ["hits", "overflow.csv", "--rule", "sigma", "--k", "1e308"],
}
CODES = {"version": 0, "bad_flag": 2, "numeric_error": 3}


def child_env():
    env = dict(os.environ, SOURCE_DATE_EPOCH=EPOCH)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_process(argv, cwd, closed_stdout=False, stderr_redirect=None):
    command = [sys.executable, "-m", "assayqc.cli", *argv]
    if closed_stdout:  # the shell's `>&-`: the process starts with no file descriptor 1
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    if stderr_redirect:  # such as `2>&-`, no file descriptor 2
        command = ["sh", "-c", f'exec "$@" {stderr_redirect}', "sh", *command]
    stdout = None if closed_stdout else subprocess.PIPE
    return subprocess.run(command, cwd=cwd, env=child_env(), stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def written(directory):
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((directory / "out").rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_a_process_ends_as_main_does(tmp_path, monkeypatch, capsysbinary, name):
    argv = COMMANDS[name]
    process_dir, main_dir = tmp_path / "process", tmp_path / "main"
    for directory in (process_dir, main_dir):
        directory.mkdir()
        write_inputs(directory)

    proc = run_process(argv, process_dir)

    monkeypatch.setenv("SOURCE_DATE_EPOCH", EPOCH)
    monkeypatch.chdir(main_dir)
    try:
        code = main(argv)
    except SystemExit as exc:  # --version and usage errors leave through argparse
        code = exc.code
    out, err = capsysbinary.readouterr()

    assert code == CODES.get(name, 0)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert written(process_dir) == written(main_dir)
    if name in ("simulate_fig1", "calibrate"):
        assert written(main_dir)
    if name in ("hits_test", "metrics"):
        assert json.loads(out)


def test_main_leaves_the_freeze_count_and_run_raises_it(tmp_path, capsys):
    write_inputs(tmp_path)
    argv = ["metrics", str(tmp_path / "train.csv")]
    before = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == before
    try:
        assert run(argv) == 0
        assert gc.get_freeze_count() > before
        assert not gc.isenabled()
    finally:
        gc.unfreeze()
        gc.enable()
    assert capsys.readouterr().out


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    write_inputs(tmp_path)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["metrics", str(tmp_path / "train.csv")]) == 0
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert capsys.readouterr().out


# The CLI module run as __main__, as `python -m assayqc.cli` runs it, counting the cyclic
# collections from its first line until exit. It is compiled before the count starts: with
# no bytecode cache, compiling it may collect before any of its lines can act.
COUNT_COLLECTIONS = """
import atexit, gc, importlib.util, os, sys
spec = importlib.util.find_spec("assayqc.cli")
code = spec.loader.get_code(spec.name)
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
atexit.register(lambda: os.write(2, f"collections {starts}".encode()))
sys.argv = [spec.origin, *sys.argv[1:]]
exec(code, {"__name__": "__main__", "__spec__": spec, "__file__": spec.origin,
            "__package__": "assayqc", "__builtins__": __builtins__})
"""


@pytest.mark.parametrize("name", ["simulate_fig1", "calibrate", "hits_test"])
def test_a_process_runs_no_cyclic_collection(tmp_path, name):
    write_inputs(tmp_path)
    proc = subprocess.run([sys.executable, "-c", COUNT_COLLECTIONS, *COMMANDS[name]],
                          cwd=tmp_path, env=child_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == b"collections []", proc.stderr


def test_a_closed_stdout_exits_2_with_one_line(tmp_path):
    write_inputs(tmp_path)
    proc = run_process(["metrics", "train.csv"], tmp_path, closed_stdout=True)
    assert proc.returncode == 2
    assert proc.stderr == b"error: stdout is closed; write the report with --out FILE\n"


def test_a_closed_stdout_still_writes_the_report_to_out(tmp_path):
    write_inputs(tmp_path)
    proc = run_process(["metrics", "train.csv", "--out", "report.json"], tmp_path,
                       closed_stdout=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "report.json").read_bytes() == run_process(
        ["metrics", "train.csv"], tmp_path).stdout


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read_only"])
@pytest.mark.parametrize("name, code", [
    ("simulate_fig1", 0), ("missing_input", 2), ("bad_flag", 2), ("numeric_error", 3),
])
def test_a_stderr_that_takes_no_writes_keeps_the_exit_code(tmp_path, redirect, name, code):
    """With fd 2 closed, or open only for reading, the CLI's stderr lines are dropped, as
    argparse drops its own; the exit code, stdout and written files stay as they are."""
    write_inputs(tmp_path)
    argv = {**COMMANDS, "missing_input": ["metrics", "missing.csv"]}[name]
    proc = run_process(argv, tmp_path, stderr_redirect=redirect)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, b"", b"")
    if name == "simulate_fig1":
        assert sorted(written(tmp_path)) == ["out/fig1_sigma1.csv", "out/manifest.json"]
