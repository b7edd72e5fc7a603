"""Metric reports, run manifests and stable machine-readable serialization.

JSON uses insertion-ordered keys; JSON and CSV (``csv_text`` writes every CSV
the CLI emits) use fixed 12-significant-digit float formatting, so outputs are
byte-stable across runs and comparable as golden files. Metrics whose
preconditions fail on a given pair (e.g. Z'-factor with equal means) are
reported as null with their acceptance flag false.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time

import numpy as np

from . import __version__, metrics
from .errors import ConfigError, NumericError
from .overlap import HistogramPair, OverlapResult, build_histogram_pair
from .samples import Record, SampleSet, SummaryStats, summarize

#: Conventional acceptance levels: Z' >= 0.5, |SSMD| >= 3, |GSSMD| >= 0.95.
ACCEPTANCE_THRESHOLDS = {"z_factor": 0.5, "ssmd": 3.0, "gssmd": 0.95}


def text12(x: float) -> str:
    """``x`` as text to 12 significant digits, the precision of every float written."""
    return f"{x:.12g}"


def csv_text(rows) -> str:
    """``rows`` as CSV text: ``\\n`` line ends, floats as ``text12``, ``None`` as an empty field,
    other values as ``str``; a field is quoted only when it holds a comma, quote or line break."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [text12(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _normalize(obj):
    if isinstance(obj, float):  # includes np.float64; rounded to the 12 digits written
        return float(text12(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def json_dumps(obj) -> str:
    """Stable JSON: insertion-ordered keys, 12-sig-digit floats, trailing newline."""
    return json.dumps(_normalize(obj), indent=2, allow_nan=False) + "\n"


class MetricReport(Record):
    """All eight metrics for one negative/positive pair plus acceptance flags.

    Invariants: ``gcnr == 1 - ovl`` and ``cnr == |ssmd|``; a None metric
    means its precondition failed on this pair. ``thresholds`` defaults to a
    copy of ``ACCEPTANCE_THRESHOLDS``, ``accepted`` to an empty dict.
    """

    __slots__ = ("snr", "sbr", "z_factor", "ssmd", "cnr", "ovl", "gcnr", "gssmd", "n_neg",
                 "n_pos", "bins", "thresholds", "accepted")

    def __init__(
        self, snr: float | None, sbr: float | None, z_factor: float | None,
        ssmd: float | None, cnr: float | None, ovl: float, gcnr: float, gssmd: float,
        n_neg: int, n_pos: int, bins: int, thresholds: dict[str, float] | None = None,
        accepted: dict[str, bool] | None = None,
    ):
        super().__init__(snr, sbr, z_factor, ssmd, cnr, ovl, gcnr, gssmd, n_neg, n_pos, bins,
                         dict(ACCEPTANCE_THRESHOLDS) if thresholds is None else thresholds,
                         {} if accepted is None else accepted)

    def to_dict(self) -> dict:
        """The fields in order, each dict copied."""
        return {**self._asdict(), "thresholds": dict(self.thresholds),
                "accepted": dict(self.accepted)}

    def to_json(self) -> str:
        return json_dumps(self.to_dict())


def _acceptance_flags(z: float | None, s: float | None, g: float) -> dict[str, bool]:
    return {
        "z_factor": z is not None and z >= ACCEPTANCE_THRESHOLDS["z_factor"],
        "ssmd": s is not None and abs(s) >= ACCEPTANCE_THRESHOLDS["ssmd"],
        "gssmd": abs(g) >= ACCEPTANCE_THRESHOLDS["gssmd"],
    }


def compute_metric_report(
    neg: SampleSet, pos: SampleSet, bins: int | None = None
) -> MetricReport:
    """Summarize both groups and evaluate every metric on the pair; one that overflows to a
    non-finite value, which no report format holds, raises ``NumericError`` naming it."""
    return measure_controls(neg, pos, bins)[0]


def measure_controls(
    neg: SampleSet, pos: SampleSet, bins: int | None = None
) -> tuple[MetricReport, SummaryStats, HistogramPair, OverlapResult]:
    """``compute_metric_report``'s report, the negative group's summary, the pair's histograms
    and their overlap result: every hit rule's inputs. It summarizes, scores Z' and SSMD, bins,
    then scores S/N and S/B, so an input that breaks two steps raises the first one's error."""
    s_neg, s_pos = summarize(neg), summarize(pos)

    def guarded(name, fn):
        try:
            value = fn(s_pos, s_neg)
        except NumericError:
            return None
        if not math.isfinite(value):
            raise NumericError(f"{name} of these controls is {value}, outside the float range")
        return value

    z = guarded("z_factor", metrics.z_factor)
    s = guarded("ssmd", metrics.ssmd)
    pair = build_histogram_pair(neg, pos, bins)
    ov = OverlapResult.of(pair.counts_neg, pair.counts_pos, neg.values, pos.values)
    report = MetricReport(
        snr=guarded("snr", metrics.snr_assay),
        sbr=guarded("sbr", metrics.sbr),
        z_factor=z,
        ssmd=s,
        cnr=None if s is None else abs(s),
        ovl=ov.ovl,
        gcnr=ov.gcnr,
        gssmd=ov.gssmd,
        n_neg=len(neg),
        n_pos=len(pos),
        bins=ov.bins_used,
        accepted=_acceptance_flags(z, s, ov.gssmd),
    )
    return report, s_neg, pair, ov


def _timestamp() -> str:
    # SOURCE_DATE_EPOCH (reproducible-builds convention) pins the timestamp
    # so replayed runs can be compared byte-for-byte.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(int(epoch) if epoch else None))
    except (ValueError, OverflowError, OSError):  # not an integer, or past the platform's time_t
        raise ConfigError("SOURCE_DATE_EPOCH must be an integer count of seconds within the "
                          f"platform's time range, got {epoch!r}") from None


class RunManifest(Record):
    """Everything needed to reproduce a CLI run's outputs bit-exactly.

    The fields are in the manifest's JSON key order; ``outputs`` maps each
    filename to its sha256, and ``timestamp`` defaults to the time of construction.
    """

    __slots__ = ("tool", "version", "subcommand", "seed", "config", "outputs", "timestamp")

    def __init__(self, *, tool: str = "assayqc", version: str = __version__, subcommand: str,
                 seed: int | None, config: dict, outputs: dict[str, str] | None = None,
                 timestamp: str | None = None):
        super().__init__(tool, version, subcommand, seed, config,
                         {} if outputs is None else outputs,
                         _timestamp() if timestamp is None else timestamp)

    def to_dict(self) -> dict:
        return self._asdict()

    def to_json(self) -> str:
        return json_dumps(self.to_dict())
