"""The traced layer pass: each layer's public functions timed from outside.

One round calls every measured entry point a fixed number of times, each
call inside a span named after the layer and the input size. The trial
path of ``calibrate_null`` (two seeded generators, two draws, binning,
OVL) is replayed inside a ``simulation.trial`` span, so that span's self
time is the per-trial glue between the layers. Rounds alternate between
traced and untraced; the difference of their median wall times is the
tracing overhead. Nothing in ``src/`` is patched.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

import assayqc.overlap
from assayqc import (
    DistributionSpec,
    SampleSet,
    ThresholdRule,
    add_awgn,
    build_histogram_pair,
    calibrate_null,
    compute_metric_report,
    derive_seed,
    draw,
    fit_logistic_1d,
    gssmd,
    inject_outliers,
    json_dumps,
    load_plate_csv,
    run_subsampled_estimate,
    select_hits,
    summarize,
)
from assayqc.cli import build_parser
from assayqc.scenarios import write_tidy_csv

from tracing import Tracer
from workloads import RULES, Workload

#: The binning kernel behind every overlap computation; overlap.calls counts
#: its calls. A rewrite that renames it must rename it here too.
OVERLAP_KERNEL = "_histogram_counts"
SIZES = (10, 1000, 10000)
TRIALS_PER_ROUND = {10: 8, 1000: 4, 10000: 2}
CALIBRATE_TRIALS = 100  # the smallest count calibrate_null accepts
SUBSAMPLE_SIZE, SUBSAMPLE_REPEATS = 10, 10  # fig5 panel D defaults
CSV_ROWS = 1000
NORMAL = DistributionSpec.normal(0.0, 1.0)
RULE_OBJECTS = {"gssmd": ThresholdRule.gssmd(), "sigma": ThresholdRule.sigma(),
                "ssmd": ThresholdRule.ssmd(), "logistic": ThresholdRule.logistic()}


def ovl_oracle(neg: np.ndarray, pos: np.ndarray) -> tuple[float, int]:
    """OVL from ``np.linspace`` edges, ``np.histogram`` and the integer minimum."""
    lo, hi = min(neg.min(), pos.min()), max(neg.max(), pos.max())
    if lo == hi:
        return 1.0, 1
    k = max(1, math.ceil(1.0 + math.log2(neg.size + pos.size)))
    edges = np.linspace(lo, hi, k + 1)
    c_neg = np.histogram(neg, bins=edges)[0].astype(np.int64)
    c_pos = np.histogram(pos, bins=edges)[0].astype(np.int64)
    num = np.minimum(c_neg * pos.size, c_pos * neg.size).sum()
    return float(num / (np.int64(neg.size) * np.int64(pos.size))), k


def oracle_problems(label: str, neg: np.ndarray, pos: np.ndarray, result) -> list[str]:
    """Bit equality of ``overlap.gssmd`` with the oracle, plus its invariants."""
    expected, bins = ovl_oracle(neg, pos)
    problems = []
    if result.ovl != expected or result.bins_used != bins:
        problems.append(f"{label}: ovl {result.ovl!r} over {result.bins_used} bins, "
                        f"oracle {expected!r} over {bins}")
    if result.gcnr != 1.0 - result.ovl:
        problems.append(f"{label}: gcnr != 1 - ovl")
    if not -1.0 <= result.gssmd <= 1.0:
        problems.append(f"{label}: gssmd {result.gssmd} outside [-1, 1]")
    return problems


def edge_case_inputs(n: int, rng: np.random.Generator) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Integer data whose pooled range makes every bin edge an integer, and all-equal data."""
    k = max(1, math.ceil(1.0 + math.log2(2 * n)))
    neg = rng.integers(0, k + 1, n).astype(np.float64)
    pos = rng.integers(0, k + 1, n).astype(np.float64)
    neg[0], pos[0] = 0.0, float(k)  # pin the range to [0, k]: edges 0, 1, ..., k
    const = np.full(n, 3.25)
    return {f"ties_on_edges.n{n}": (neg, pos), f"all_equal.n{n}": (const, const.copy())}


def overlap_kernel():
    kernel = getattr(assayqc.overlap, OVERLAP_KERNEL, None)
    if kernel is None:
        raise RuntimeError(f"assayqc.overlap has no {OVERLAP_KERNEL}; point "
                           "layers.OVERLAP_KERNEL at the binning kernel")
    return kernel


class CallCounter:
    """Counts calls of one Python function while the block runs.

    It uses the profiling hook (``sys.setprofile``), so nothing is patched;
    the hook slows every call inside the block, so only counts are taken
    from such a block, never times.
    """

    def __init__(self, function):
        self.code = function.__code__
        self.calls = 0

    def _profile(self, frame, event, arg) -> None:
        if event == "call" and frame.f_code is self.code:
            self.calls += 1

    def __enter__(self) -> "CallCounter":
        threading.setprofile(self._profile)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        threading.setprofile(None)


class LayerPass:
    """Rounds over every layer entry point; spans go to ``tracer``."""

    def __init__(self, seed: int, plates: Workload, scratch: Path, tracer: Tracer):
        self.seed = seed
        self.plates = plates
        self.plate_file = plates.inputs["inputs/train.csv"]
        self.csv_path = scratch / "tidy.csv"
        self.tracer = tracer
        self.rounds = 0
        self.checks = self.failed = 0
        self.problems: list[str] = []
        rng = np.random.default_rng(derive_seed(seed, 1))
        self.train = load_plate_csv(self.plate_file)
        self.plate = self.train[0]
        self.neg64, self.pos64 = self.plate.control_sets()
        self.base = {n: SampleSet(rng.normal(0.0, 1.0, n)) for n in SIZES}
        self.raw10000 = rng.normal(0.0, 1.0, 10000)
        self.sub_neg = SampleSet(rng.normal(0.0, 1.0, 100))
        self.sub_pos = SampleSet(rng.normal(1.0, 1.0, 100))
        self.outlier = DistributionSpec.normal(10.0, 1.0)
        self.columns = ["scenario", "dist", "n", "metric", "aggregate", "value"]
        self.rows = [{"scenario": "fig6", "dist": "normal", "n": 10 * (i % 7 + 1),
                      "metric": "abs_gssmd", "aggregate": "p999", "value": float(v)}
                     for i, v in enumerate(rng.random(CSV_ROWS))]
        self.payload = select_hits(self.plate, RULE_OBJECTS["gssmd"]).to_dict()
        self.argv = ["hits", str(self.plate_file), "--plate-id", self.plate.plate_id,
                     "--rule", "logistic"]
        for n in SIZES:
            for label, (neg, pos) in edge_case_inputs(n, rng).items():
                self._check(oracle_problems(label, neg, pos,
                                            gssmd(SampleSet(neg), SampleSet(pos))))
        for rule in ("gssmd", "logistic"):
            missed = (self.plates.planted[self.plate.plate_id]
                      - set(select_hits(self.plate, RULE_OBJECTS[rule]).hits))
            self._check([f"select_hits {rule}: missed {sorted(missed)}"] if missed else [])

    def _check(self, problems: list[str]) -> None:
        self.checks += 1
        self.failed += bool(problems)
        self.problems += problems

    def round(self) -> None:
        """One round of calls; every random input is derived from (seed, round)."""
        span, r, seed = self.tracer.span, self.rounds, self.seed
        self.rounds += 1
        for i, n in enumerate(SIZES):
            for t in range(TRIALS_PER_ROUND[n]):
                with span("simulation.trial"):
                    with span("simulation.seed"):
                        rng_neg = np.random.default_rng(derive_seed(seed, r, i, t, 0))
                    with span("simulation.seed"):
                        rng_pos = np.random.default_rng(derive_seed(seed, r, i, t, 1))
                    with span(f"simulation.draw.n{n}"):
                        neg = draw(NORMAL, n, rng_neg)
                    with span(f"simulation.draw.n{n}"):
                        pos = draw(NORMAL, n, rng_pos)
                    with span(f"overlap.histogram_pair.n{n}"):
                        build_histogram_pair(neg, pos)
                    with span(f"overlap.gssmd.n{n}"):
                        result = gssmd(neg, pos)
                self._check(oracle_problems(f"trial n={n}", neg.values, pos.values, result))
            with span(f"simulation.calibrate_null.n{n}"):
                calibrate_null([n], CALIBRATE_TRIALS, NORMAL, seed + r)
        rng = np.random.default_rng(derive_seed(seed, r, 7))
        for _ in range(2):
            with span("simulation.add_awgn.n10000"):
                add_awgn(self.base[10000], 10.0, rng)
            with span("simulation.inject_outliers.n1000"):
                inject_outliers(self.base[1000], 0.1, self.outlier, rng)
            with span("samples.sampleset.n10000"):
                SampleSet(self.raw10000)
            with span("samples.summarize.n1000"):
                summarize(self.base[1000])
        with span("simulation.subsampled_estimate"):
            run_subsampled_estimate(self.sub_neg, self.sub_pos, SUBSAMPLE_SIZE,
                                    SUBSAMPLE_REPEATS, rng)
        with span("scenarios.write_tidy_csv"):
            write_tidy_csv(self.csv_path, self.columns, self.rows)
        with span("plates.load_plate_csv"):
            load_plate_csv(self.plate_file)
        for rule in RULES:
            with span(f"hits.select_hits.{rule}"):
                select_hits(self.plate, RULE_OBJECTS[rule])
        with span("report.metric_report.n64"):
            compute_metric_report(self.neg64, self.pos64)
        with span("report.json_dumps"):
            json_dumps(self.payload)
        with span("cli.parse"):
            build_parser().parse_args(self.argv)

    def wells_used_ratio(self) -> float:
        """Wells a hits call uses (one plate of each file) over the wells it parses."""
        test = load_plate_csv(self.plates.inputs["inputs/replicate.csv"])
        parsed = sum(len(p.wells) for p in self.train + test)
        return (len(self.plate.wells) + len(test[0].wells)) / parsed

    def logistic_iterations(self) -> int:
        """IRLS iterations of the logistic fits in one plate_screen pass."""
        return sum(fit_logistic_1d(*p.control_sets()).iterations for p in self.train)


def run_rounds(layer: LayerPass, traced: Tracer, seconds: float) -> tuple[float, float]:
    """Alternate traced and untraced rounds for ``seconds``; median round walls.

    Each pair of rounds swaps which one goes first, so neither side always
    runs in the other's wake.
    """
    walls: dict[bool, list[float]] = {True: [], False: []}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not walls[False]:
        for enabled in (True, False) if len(walls[True]) % 2 == 0 else (False, True):
            traced.enabled = enabled
            start = time.perf_counter()
            layer.round()
            walls[enabled].append(time.perf_counter() - start)
    traced.enabled = True
    return median(walls[True]), median(walls[False])


def layer_metrics(layer: LayerPass, tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans' median durations."""
    table = tracer.by_name()

    def us(name: str) -> float:
        return table[name]["median_us"]

    m: dict[str, tuple[float, str]] = {"simulation.seed_us": (us("simulation.seed"), "us")}
    for n in SIZES:
        m[f"simulation.calibrate_null_us_per_trial.n{n}"] = (
            us(f"simulation.calibrate_null.n{n}") / CALIBRATE_TRIALS, "us")
        m[f"simulation.draw_us.n{n}"] = (us(f"simulation.draw.n{n}"), "us")
    m["simulation.add_awgn_us.n10000"] = (us("simulation.add_awgn.n10000"), "us")
    m["simulation.inject_outliers_us.n1000"] = (us("simulation.inject_outliers.n1000"), "us")
    m["simulation.subsampled_estimate_us_per_repeat"] = (
        us("simulation.subsampled_estimate") / SUBSAMPLE_REPEATS, "us")
    for n in SIZES:
        m[f"overlap.gssmd_us.n{n}"] = (us(f"overlap.gssmd.n{n}"), "us")
        m[f"overlap.histogram_pair_us.n{n}"] = (us(f"overlap.histogram_pair.n{n}"), "us")
    # Computed bytes: two float64 inputs of 10^4 values read per call.
    m["overlap.input_gbps.n10000"] = (16 * 10000 / (us("overlap.gssmd.n10000") * 1e3), "GB/s")
    m["samples.sampleset_us.n10000"] = (us("samples.sampleset.n10000"), "us")
    m["samples.summarize_us.n1000"] = (us("samples.summarize.n1000"), "us")
    m["scenarios.write_tidy_csv_us_per_row"] = (us("scenarios.write_tidy_csv") / CSV_ROWS, "us")
    wells = sum(len(p.wells) for p in layer.train)
    m["plates.load_us_per_well"] = (us("plates.load_plate_csv") / wells, "us")
    m["plates.wells_used_ratio"] = (layer.wells_used_ratio(), "ratio")
    for rule in RULES:
        m[f"hits.select_hits_ms.{rule}"] = (us(f"hits.select_hits.{rule}") / 1e3, "ms")
    m["hits.logistic_iterations"] = (layer.logistic_iterations(), "count")
    m["report.metric_report_us.n64"] = (us("report.metric_report.n64"), "us")
    m["report.json_dumps_us"] = (us("report.json_dumps"), "us")
    m["cli.parse_us"] = (us("cli.parse"), "us")
    m["simulation.trial_self_us"] = (table["simulation.trial"]["median_self_us"], "us")
    return m
