"""Command-line interface.

Subcommands: ``metrics``, ``simulate <fig1..fig6>``, ``hits``,
``calibrate``. Machine output (JSON/CSV) goes to stdout or files; human
diagnostics go to stderr. Exit codes: 0 success, 2 input/config validation
error, or an input too large for memory (a ``MemoryError``, such as a
sample size that fits in int64 but cannot be allocated), 3 numeric error: a
metric's precondition failed, or a floating-point overflow, invalid
operation or division by zero occurred anywhere in the command.
``simulate`` and ``calibrate`` run ``scenarios.run_scenario`` and
``scenarios.run_calibration``, which write the CSVs and a manifest; a malformed
``SOURCE_DATE_EPOCH`` exits 2 before they write a file. A report bound for a
closed stdout exits 2 with one line, as a broken pipe does. Before any work,
``main`` checks every flag that has a rule in ``assayqc._RULES``, the table that
judges every config key.

``run`` is the process entry (``python -m assayqc.cli``, the ``assayqc``
script). The process runs without the cyclic collector, since a command leaves
little garbage in cycles: run as ``__main__``, this module disables it before it
imports numpy, and ``run`` disables it for the script. Shutdown still collects,
so after ``main`` ``run`` calls ``gc.freeze()``: shutdown then skips what numpy
and the command left tracked. ``main`` does neither: tests call it in-process
many times, and a freeze would keep their cycles alive for good.

A start imports ``numpy``, ``errors`` and the package namespace, which holds
what the parser needs; each subcommand imports the rest of what it uses:
``hits``, and ``metrics`` on a plate file, load ``hits`` (with ``plates``,
``report``, ``overlap``, ``samples`` and ``metrics``); ``metrics`` on a
``group,value`` file loads the same but ``hits``; ``simulate`` and
``calibrate`` load ``scenarios`` (with ``simulation``, ``report``, ``overlap``,
``samples`` and ``metrics``), never ``hits`` or ``plates``.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # a CLI process: no cyclic collection (see the docstring)
    gc.disable()

import argparse
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import (_DIST_NAMES, _RULE_NAMES, _RULES, DEFAULT_CALIBRATION_SIZES, SCENARIO_NAMES,
               __version__, _check_config)
from .errors import DataValidationError, MalformedRow, NonPositiveValue, NumericError

if TYPE_CHECKING:
    from .plates import Plate
    from .samples import SampleSet

GROUP_HEADER = ["group", "value"]


def number(text: str) -> int | float:  # for main to judge by the flag's rule
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assayqc",
        description="Assay quality metrics, simulation studies and hit selection",
    )
    parser.add_argument("--version", action="version", version=f"assayqc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # A subcommand gets only the flags it reads: --bins all four, --format and
    # --out the report commands, --out-dir the commands that write files.
    bins = argparse.ArgumentParser(add_help=False)
    bins.add_argument("--bins", type=number, default=None,
                      help="override the 1+log2(N) histogram bin rule")
    report = argparse.ArgumentParser(add_help=False, parents=[bins])
    report.add_argument("--format", choices=["json", "csv"], default="json",
                        help="report format")
    report.add_argument("--out", type=Path, default=None,
                        help="write the report here instead of stdout")
    files = argparse.ArgumentParser(add_help=False, parents=[bins])
    files.add_argument("--out-dir", type=Path, default=Path("."),
                       help="directory for emitted files")

    p = sub.add_parser("metrics", parents=[report],
                       help="metric report from a plate CSV or a group,value CSV")
    p.add_argument("input", type=Path)

    p = sub.add_parser("simulate", parents=[files], help="run a named simulation scenario")
    p.add_argument("scenario", choices=SCENARIO_NAMES)
    p.add_argument("--seed", type=number, required=True, help="master seed (required)")
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config file (or a previous manifest.json) overriding defaults")

    p = sub.add_parser("hits", parents=[report], help="hit selection on plate controls")
    p.add_argument("train", type=Path, help="plate CSV providing the controls")
    p.add_argument("--test", type=Path, default=None,
                   help="replicate plate CSV for threshold evaluation")
    p.add_argument("--rule", choices=_RULE_NAMES, default=_RULE_NAMES[0])
    p.add_argument("--alpha", type=number, default=0.05, help="overlap-rule allowed overlap")
    p.add_argument("--k", type=number, default=3.0, help="sigma-rule multiplier")
    p.add_argument("--beta", type=number, default=3.0, help="ssmd-rule effect size")
    p.add_argument("--direction", choices=["auto", "higher", "lower"], default="auto")
    p.add_argument("--log-transform", action="store_true",
                   help="analyze log-transformed readouts")
    p.add_argument("--plate-id", default=None, help="select one plate from multi-plate files")

    p = sub.add_parser("calibrate", parents=[files],
                       help="null lower-bound calibration table for GSSMD")
    p.add_argument("--seed", type=number, required=True)
    p.add_argument("--sizes", type=number, nargs="+", default=list(DEFAULT_CALIBRATION_SIZES))
    p.add_argument("--trials", type=number, default=1000)
    p.add_argument("--dist", default=_DIST_NAMES[0], help=" or ".join(_DIST_NAMES))
    p.add_argument("--location", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=1.0)
    # argparse reads "-..." as a flag unless its private _negative_number_matcher (known to
    # work on Python 3.11, which the tests run) matches it: make -1e+308 and -inf values.
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan).*", re.IGNORECASE)
    return parser


def _load_group_csv(rows) -> tuple[SampleSet, SampleSet]:
    """``group,value`` rows as (neg, pos); ``SampleSet`` rejects an empty or non-finite group."""
    from .samples import SampleSet

    groups: dict[str, list[float]] = {"neg": [], "pos": []}
    for line_no, (group, value_s) in rows:
        values = groups.get(group.lower())
        if values is None:
            raise MalformedRow(f"line {line_no}: group must be pos or neg")
        try:
            values.append(float(value_s))
        except ValueError:
            raise MalformedRow(f"line {line_no}: bad value {value_s!r}") from None
    return SampleSet(groups["neg"], label="neg"), SampleSet(groups["pos"], label="pos")


def _key_values(prefix: str, obj):
    """A report's ``key,value`` rows: dotted keys, lists joined by ``;``."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _key_values(f"{prefix}.{k}" if prefix else str(k), v)
    elif isinstance(obj, list):
        yield [prefix, ";".join(str(v) for v in obj)]
    else:
        yield [prefix, obj]


def _emit(payload: dict | list, fmt: str, out: Path | None) -> None:
    from .report import csv_text, json_dumps

    if fmt == "csv":
        reports = payload if isinstance(payload, list) else [payload]
        text = csv_text([["key", "value"], *(row for r in reports for row in _key_values("", r))])
    else:
        text = json_dumps(payload)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8", newline="\n")
    elif sys.stdout is None:
        raise OSError("stdout is closed; write the report with --out FILE")
    else:
        sys.stdout.write(text)


def _cmd_metrics(args) -> int:
    from .plates import EXPECTED_HEADER, plates_from_rows, read_csv_rows
    from .report import compute_metric_report

    with read_csv_rows(args.input, [EXPECTED_HEADER, GROUP_HEADER]) as (header, rows):
        if header == GROUP_HEADER:
            payload = compute_metric_report(*_load_group_csv(rows), bins=args.bins).to_dict()
        else:
            from .hits import assay_quality

            reports = [{"plate_id": p.plate_id, **assay_quality(p, bins=args.bins).to_dict()}
                       for p in plates_from_rows(rows)]
            payload = reports if len(reports) > 1 else reports[0]
    _emit(payload, args.format, args.out)
    return 0


def _cmd_simulate(args) -> int:
    from .scenarios import load_config_file, run_scenario

    overrides = load_config_file(args.config) if args.config else None
    written = run_scenario(args.scenario, args.seed, args.out_dir, overrides, args.bins)
    for path in written:
        print(path, file=sys.stderr)
    return 0


def _load_plate(path: Path, plate_id: str | None, log_transform: bool) -> Plate:
    """The file's first plate, or the one named ``plate_id``; with ``--log-transform``,
    the natural log of every well value, all of which must be > 0."""
    from .plates import WellRole, load_plate_csv

    plates = load_plate_csv(path)
    plate = next((p for p in plates if plate_id in (None, p.plate_id)), None)
    if plate is None:
        raise DataValidationError(f"{path}: no plate with id {plate_id!r}")
    if not log_transform:
        return plate
    non_positive = ~plate.is_role(WellRole.EMPTY) & ~(plate.value > 0)
    if non_positive.any():
        i = int(np.argmax(non_positive))
        raise NonPositiveValue(
            f"plate {plate.plate_id}: well R{plate.row[i]}C{plate.col[i]} has value "
            f"{plate.value[i]:g}; --log-transform needs every well value to be positive"
        )
    return plate.transformed(np.log)


def _cmd_hits(args) -> int:
    from .hits import Direction, RuleKind, ThresholdRule, evaluate_threshold, select_hits

    kind = RuleKind(args.rule)
    parameter = {RuleKind.GSSMD_OVERLAP: args.alpha, RuleKind.SIGMA: args.k,
                 RuleKind.SSMD: args.beta}.get(kind, 1.0)  # the logistic rule takes none
    rule = ThresholdRule(kind, float(parameter))  # float: a report writes --k 3 as 3.0

    plate = _load_plate(args.train, args.plate_id, args.log_transform)
    forced = None if args.direction == "auto" else Direction(args.direction)
    report = select_hits(plate, rule, bins=args.bins, direction=forced)
    if forced is not None and report.direction is not forced:
        print(
            f"note: requested direction {args.direction!r} disagrees with the "
            f"controls ({report.direction.value}); the {rule.kind.value} rule "
            "derives its direction from the controls",
            file=sys.stderr,
        )
    payload = {"plate_id": plate.plate_id, **report.to_dict()}

    if args.test is not None:
        test_plate = _load_plate(args.test, args.plate_id, args.log_transform)
        test_neg, test_pos = test_plate.control_sets()
        evaluation = evaluate_threshold(
            test_neg, test_pos, report.threshold, report.direction
        )
        payload["evaluation"] = {
            "test_plate_id": test_plate.plate_id,
            "accuracy": evaluation.accuracy,
            "type1_error": evaluation.type1_error,
        }
    _emit(payload, args.format, args.out)
    return 0


def _cmd_calibrate(args) -> int:
    from .scenarios import run_calibration

    config = {"sizes": args.sizes, "trials": args.trials, "dist": args.dist,
              "location": args.location, "scale": args.scale}
    written = run_calibration(args.seed, args.out_dir, config, args.bins)
    print(written[0], file=sys.stderr)
    return 0


_COMMANDS = {
    "metrics": _cmd_metrics,
    "simulate": _cmd_simulate,
    "hits": _cmd_hits,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:  # before any work, each flag's value by its rule, in its config key's words
        _check_config({k: v for k, v in vars(args).items() if k in _RULES and v is not None},
                      f"{args.subcommand} flag --{{}}")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.subcommand](args)
    except (DataValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def run(argv: list[str] | None = None) -> int:
    """``main`` as a process: with the cyclic collector disabled, and what is alive at exit
    frozen, so that shutdown skips collecting it. Neither is undone."""
    gc.disable()
    try:
        os.write(2, b"")  # EBADF when fd 2 is closed (2>&-) or open read-only
    except OSError:  # then drop the CLI's stderr lines, as argparse drops its own
        sys.stderr = open(os.devnull, "w")
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
