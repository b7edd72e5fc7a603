"""Metric reports, run manifests and stable machine-readable serialization.

JSON emission uses insertion-ordered keys and fixed 12-significant-digit
float formatting so reports are byte-stable across runs and comparable as
golden files. Metrics whose preconditions fail on a given pair (e.g.
Z'-factor with equal means) are reported as null with their acceptance
flag false.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, metrics
from .errors import NumericError
from .overlap import gssmd as overlap_gssmd
from .samples import SampleSet, summarize

#: Conventional acceptance levels: Z' >= 0.5, |SSMD| >= 3, |GSSMD| >= 0.95.
ACCEPTANCE_THRESHOLDS = {"z_factor": 0.5, "ssmd": 3.0, "gssmd": 0.95}


def round12(x: float) -> float:
    """Round to 12 significant digits (the serialization precision)."""
    return float(f"{x:.12g}")


def _normalize(obj):
    if isinstance(obj, float):  # includes np.float64
        return round12(obj)
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


@dataclass(frozen=True)
class MetricReport:
    """All eight metrics for one negative/positive pair plus acceptance flags.

    Invariants: ``gcnr == 1 - ovl`` and ``cnr == |ssmd|``; a None metric
    means its precondition failed on this pair.
    """

    snr: float | None
    sbr: float | None
    z_factor: float | None
    ssmd: float | None
    cnr: float | None
    ovl: float
    gcnr: float
    gssmd: float
    n_neg: int
    n_pos: int
    bins: int
    thresholds: dict[str, float] = field(
        default_factory=lambda: dict(ACCEPTANCE_THRESHOLDS)
    )
    accepted: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

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
    """Summarize both groups and evaluate every metric on the pair."""
    s_neg, s_pos = summarize(neg), summarize(pos)

    def guarded(fn):
        try:
            return fn(s_pos, s_neg)
        except NumericError:
            return None

    z = guarded(metrics.z_factor)
    s = guarded(metrics.ssmd)
    ov = overlap_gssmd(neg, pos, bins)
    return MetricReport(
        snr=guarded(metrics.snr_assay),
        sbr=guarded(metrics.sbr),
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


def _timestamp() -> str:
    # SOURCE_DATE_EPOCH (reproducible-builds convention) pins the timestamp
    # so replayed runs can be compared byte-for-byte.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


@dataclass(kw_only=True)
class RunManifest:
    """Everything needed to reproduce a CLI run's outputs bit-exactly.

    The fields are in the manifest's JSON key order.
    """

    tool: str = "assayqc"
    version: str = __version__
    subcommand: str
    seed: int | None
    config: dict
    outputs: dict[str, str] = field(default_factory=dict)  # filename -> sha256
    timestamp: str = field(default_factory=_timestamp)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json_dumps(self.to_dict())
