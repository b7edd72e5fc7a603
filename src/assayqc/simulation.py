"""Seeded generators and scenario runners for the simulation studies.

Determinism contract: every runner's output is a pure function of its
config and master seed. Trials run serially; each draws from its own
generator, derived from the master seed and the (grid index..., trial
index, stream) tuple via ``derive_seed``, so a trial can be recomputed on
its own from that key.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import metrics
from .errors import ConfigError, InvalidSubsampleSize, NumericError, ZeroPowerSignal
from .overlap import _gssmd_from_arrays, _gssmd_rows
from .samples import SampleSet, SummaryStats

NORMAL = "normal"
LOGNORMAL = "lognormal"


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling distribution: normal or lognormal.

    For the lognormal kind, ``location``/``scale`` are the log-scale
    parameters; draws are exp of normal draws.
    """

    kind: str
    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (NORMAL, LOGNORMAL):
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if not self.scale > 0:
            raise ConfigError("distribution scale must be positive")
        if math.isnan(self.location):
            raise ConfigError("distribution location must not be NaN")

    @classmethod
    def normal(cls, location: float = 0.0, scale: float = 1.0) -> "DistributionSpec":
        return cls(NORMAL, location, scale)

    @classmethod
    def lognormal(cls, location: float = 0.0, scale: float = 1.0) -> "DistributionSpec":
        return cls(LOGNORMAL, location, scale)

    def shifted(self, delta: float) -> "DistributionSpec":
        """Same family with the location parameter moved by ``delta``."""
        return DistributionSpec(self.kind, self.location + delta, self.scale)


def derive_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    """Child seed as a pure function of the master seed and an index tuple."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))


def _sample(dist: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(dist.location, dist.scale, n)
    if dist.kind == LOGNORMAL:
        x = np.exp(x)
    return x


def draw(dist: DistributionSpec, n: int, seed) -> SampleSet:
    """Deterministic sample of size ``n``: same (dist, n, seed) -> same bits."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return SampleSet(_sample(dist, n, rng), label=dist.kind)


def inject_outliers(
    samples: SampleSet, fraction: float, outlier: DistributionSpec, seed
) -> SampleSet:
    """Replace round(fraction * n) positions with draws from ``outlier``.

    Positions are chosen uniformly without replacement; the replacement
    count uses round-half-even. ``fraction`` 0 returns the input unchanged.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("outlier fraction must lie in [0, 1]")
    n = len(samples)
    k = int(round(fraction * n))
    if k == 0:
        return samples
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=k, replace=False)
    values = samples.values.copy()
    values[idx] = _sample(outlier, k, rng)
    return SampleSet(values, label=samples.label)


def add_awgn(signal: SampleSet, snr_db: float, seed) -> SampleSet:
    """Add white Gaussian noise at the given measured signal-to-noise ratio.

    Signal power is measured as mean(x^2) over the input; the noise variance
    is P_signal / 10^(snr_db/10) and the noise is zero-mean, elementwise
    independent.
    """
    v = signal.values
    power = float(np.mean(v * v))
    if power == 0.0:
        raise ZeroPowerSignal("cannot scale noise against a zero-power signal")
    try:
        noise_var = power / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        raise NumericError(f"snr_db {snr_db!r} is out of range: 10^(snr_db/10) is not a "
                           "positive finite float") from None
    rng = np.random.default_rng(seed)
    return SampleSet(v + rng.normal(0.0, np.sqrt(noise_var), v.size), label=signal.label)


# --- sweeps -----------------------------------------------------------------


@dataclass(frozen=True)
class TrialAggregate:
    """Mean/std/min/max of one metric across a point's trials (std is ddof=0)."""

    mean: float
    std: float
    min: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "TrialAggregate":
        a = np.asarray(values, dtype=np.float64)
        return cls(float(a.mean()), float(a.std()), float(a.min()), float(a.max()))


@dataclass
class GridPoint:
    """One sweep configuration point with its per-metric trial aggregates."""

    params: dict[str, float]
    metrics: dict[str, TrialAggregate]

    @classmethod
    def of(cls, params: dict[str, float], columns: dict[str, np.ndarray]) -> "GridPoint":
        """Aggregate each metric's column of trial values, keeping metric order."""
        return cls(params, {name: TrialAggregate.of(values) for name, values in columns.items()})


@dataclass
class ScenarioResult:
    kind: str
    points: list[GridPoint]
    n: int
    trials: int
    seed: int
    bins: int | None = None


@dataclass
class ScenarioConfig:
    """Parameter grids for the sweep runners.

    ``neg`` describes the negative-control (background) distribution; the
    sweeps derive the positive group from it per their own contracts.
    """

    neg: DistributionSpec
    mu_diffs: tuple[float, ...] = ()
    n: int = 1000
    seed: int = 0
    trials: int = 1
    outlier_fractions: tuple[float, ...] | None = None
    outlier_means: tuple[float, ...] | None = None
    outlier_scale: float = 1.0
    snr_db: tuple[float, ...] | None = None
    bins: int | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.outlier_fractions is not None:
            if any(not 0.0 <= f <= 1.0 for f in self.outlier_fractions):
                raise ConfigError("outlier fractions must lie in [0, 1]")
        if any(math.isnan(s) for s in self.snr_db or ()):
            raise ConfigError(f"snr_db must not be NaN, got {list(self.snr_db)}")
        if self.bins is not None and self.bins < 1:
            raise ConfigError("bins override must be >= 1")


# --- batched seeding ----------------------------------------------------------


#: Trials whose generator states are computed in one batch; it bounds their memory.
_SEED_BLOCK = 1024

_M32, _M128 = 2 ** 32 - 1, 2 ** 128 - 1


def _uint32_words(x: int) -> int:
    """Length of numpy's ``_coerce_to_uint32_array(x)`` for an int ``x >= 0``."""
    return max(1, -(-int(x).bit_length() // 32))


def _pcg64_states(master: int, prefix: tuple[int, ...], *words) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(derive_seed(master, *prefix, *key))`` per key.

    The key words after ``prefix`` are ints or arrays of ints, each below
    ``2**32``; they broadcast together, and the states come in C order of
    their shape. Same bits, computed in one numpy pass. Mirrors numpy's
    ``bit_generator.pyx``: ``SeedSequence`` hashes the prefix into its pool,
    with the run entropy padded to the 4-word pool as a spawn key makes numpy
    do (without a spawn key the pool comes out the same, but the hash count
    below assumes the padding); then ``mix_entropy`` mixes in each later word
    with ``hashmix``/``mix``, ``generate_state(4, uint64)`` gives the seed
    words, and ``pcg64.h``'s ``pcg64_set_seed`` (``pcg_setseq_128_srandom_r``)
    takes two 128-bit LCG steps. uint32 arithmetic runs on uint64 arrays
    masked to 32 bits, 128-bit arithmetic on Python ints: no numpy scalar,
    which could raise on overflow.
    """
    pool = np.random.SeedSequence(master, spawn_key=prefix).pool.tolist()
    n_words = max(4, _uint32_words(master)) + sum(_uint32_words(p) for p in prefix)
    # hashmix calls so far: 4 to fill the pool, 12 to cross-mix it, 4 per later word.
    hash_const = 0x43B0D7E5 * pow(0x931E8875, 16 + 4 * (n_words - 4), 2 ** 32) & _M32
    words = [np.atleast_1d(np.asarray(word, dtype=np.uint64)) for word in words]
    shape = np.broadcast_shapes(*(word.shape for word in words))
    pool = [np.full(shape, w, dtype=np.uint64) for w in pool]
    for word in words:
        for d in range(4):
            value = (word ^ hash_const) & _M32  # hashmix, on the word's own shape
            hash_const = hash_const * 0x931E8875 & _M32
            value = value * hash_const & _M32
            value ^= value >> 16
            mixed = (pool[d] * 0xCA01F9DD - value * 0x4973F715) & _M32  # mix
            pool[d] = mixed ^ (mixed >> 16)
    hash_const, words = 0x8B51F9DD, []
    for j in range(8):  # generate_state
        value = pool[j % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ (value >> 16))
    # uint32 words pair up little-endian into (seed high, seed low, inc high, inc low).
    seed_hi, seed_lo, inc_hi, inc_lo = ((words[j] | words[j + 1] << 32).ravel().tolist()
                                        for j in (0, 2, 4, 6))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = (((s_hi << 64 | s_lo) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & _M128
        states.append((state, inc))
    return states


@functools.cache
def _batched_seeding_agrees() -> bool:
    """Whether this numpy's ``default_rng(derive_seed(...))`` matches ``_pcg64_states``.

    Checked for a hashed two-word prefix and for a sweep's key layout: two grid
    indices, ``t`` and ``k``, all given as words.
    """
    master = 2 ** 63 + 12345
    for prefix, key in (((1, 2 ** 32 + 5), (2 ** 32 - 1, 1)), ((), (3, 0, 2 ** 32 - 1, 2))):
        state = np.random.default_rng(derive_seed(master, *prefix, *key)).bit_generator.state
        if _pcg64_states(master, prefix, *key) != [(state["state"]["state"],
                                                    state["state"]["inc"])]:
            return False
    return True


def _trial_generators(
    seed: int, indices: list[tuple[int, ...]], trials: int, streams: int
) -> Iterator[list[np.random.Generator]]:
    """``streams`` generators for each trial of each grid cell, cell by cell.

    Stream ``k`` of trial ``t`` at the cell with grid indices ``ix`` is seeded
    as ``derive_seed(seed, *ix, t, k)``. One generator a stream is reseeded
    with the states of ``_pcg64_states``, computed for ``_SEED_BLOCK`` trials
    at a time; ``default_rng`` is the fallback when those would not match: a
    key word of ``2**32`` or more, or a numpy whose seeding differs.
    """
    if (trials > 2 ** 32 or any(w >= 2 ** 32 for ix in indices for w in ix)
            or not _batched_seeding_agrees()):
        for ix in indices:
            for t in range(trials):
                yield [np.random.default_rng(derive_seed(seed, *ix, t, k)) for k in range(streams)]
        return
    rngs = [np.random.Generator(np.random.PCG64(0)) for _ in range(streams)]
    cells = np.array(indices, dtype=np.uint64, ndmin=2)
    total = len(indices) * trials
    for start in range(0, total, _SEED_BLOCK):
        cell, t = np.divmod(np.arange(start, min(start + _SEED_BLOCK, total), dtype=np.uint64),
                            trials)
        states = iter(_pcg64_states(seed, (), *cells[cell].T[:, :, None], t[:, None],
                                    np.arange(streams, dtype=np.uint64)))
        for _ in range(t.size):
            for rng, (state, inc) in zip(rngs, states):
                rng.bit_generator.state = {"bit_generator": "PCG64",
                                           "state": {"state": state, "inc": inc},
                                           "has_uint32": 0, "uinteger": 0}
            yield rngs


# --- trials as rows -------------------------------------------------------------


#: Pooled values (every group, all rows) per chunk of trials scored together.
_CALIBRATION_CHUNK_VALUES = 2 ** 14


def _trial_chunks(
    seed: int, cells: list[tuple[tuple[int, ...], tuple]], trials: int, streams: int,
    trial: Callable[..., tuple[np.ndarray, ...]],
) -> Iterator[list[np.ndarray]]:
    """The rows of every trial of every ``(indices, values)`` cell, in chunks.

    Trial ``t`` of a cell returns its row ``trial(*values, rngs)``, a tuple of
    1-D arrays, with ``rngs`` from ``_trial_generators``. A chunk holds about
    ``_CALIBRATION_CHUNK_VALUES`` values of consecutive trials, and at least
    one row; it is yielded as one C-ordered ``(rows, size)`` block per part.
    If a trial raises, the rows before it are yielded first.
    """
    generators = _trial_generators(seed, [indices for indices, _ in cells], trials, streams)
    rows, chunk = [], 0
    for _, values in cells:
        for _ in range(trials):
            try:
                row = trial(*values, next(generators))
            except Exception:
                if rows:
                    yield _blocks(rows)
                raise
            rows.append(row)
            chunk = chunk or max(1, _CALIBRATION_CHUNK_VALUES // sum(part.size for part in row))
            if len(rows) == chunk:
                yield _blocks(rows)
                rows = []
    if rows:
        yield _blocks(rows)


def _blocks(rows: list[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """One (rows, size) block per part of the rows; a lone row's parts become views."""
    return [parts[0][None] if len(parts) == 1 else np.array(parts) for parts in zip(*rows)]


def _grid_scores(
    seed: int, cells: list[tuple[tuple[int, ...], tuple]], trials: int, streams: int,
    trial: Callable[..., tuple[np.ndarray, ...]], score: Callable[..., dict[str, np.ndarray]],
) -> Iterator[tuple[tuple, dict[str, np.ndarray]]]:
    """Each cell's values with its trials' metric columns ``{name: values}``, cell by cell.

    ``score(*blocks)`` gives the metric columns of the rows of a chunk from
    ``_trial_chunks``. As trial by trial, a failing trial raises only after
    every cell before it has been yielded, and raises what it raises scored on
    its own: a chunk that fails to score is scored again row by row.
    """
    values = (v for _, v in cells)
    pending, rows = [], 0  # scored columns not yet yielded, and their row count
    for blocks in _trial_chunks(seed, cells, trials, streams, trial):
        try:
            scored = [score(*blocks)]
        except Exception:
            if len(blocks[0]) == 1:
                raise
            scored = (score(*(block[r:r + 1] for block in blocks)) for r in range(len(blocks[0])))
        for columns in scored:
            pending.append(columns)
            rows += len(next(iter(columns.values())))
            if rows < trials:
                continue
            merged = {name: np.concatenate([p[name] for p in pending]) for name in columns}
            start = 0
            while rows - start >= trials:
                yield next(values), {name: col[start:start + trials] for name, col in merged.items()}
                start += trials
            pending, rows = [{name: col[start:] for name, col in merged.items()}], rows - start


def _overlap_rows(
    neg: np.ndarray, pos: np.ndarray, bins: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """GSSMD and OVL of every row pair, with the bits of ``_gssmd_from_arrays``.

    Rows go through ``_gssmd_rows``; a lone row, and every row where fewer
    than two fit a chunk, goes pair by pair, where the per-pair kernel is
    faster (and raises as the per-trial path does).
    """
    if len(neg) > 1 and _CALIBRATION_CHUNK_VALUES // (neg.shape[1] + pos.shape[1]) > 1:
        ovl = np.empty(len(neg))
        return _gssmd_rows(neg, pos, bins, ovl), ovl
    pairs = [_gssmd_from_arrays(a, b, bins) for a, b in zip(neg, pos)]
    return np.array([p.gssmd for p in pairs]), np.array([p.ovl for p in pairs])


def _score_rows(neg: np.ndarray, pos: np.ndarray, bins: int | None) -> dict[str, np.ndarray]:
    """z_factor, ssmd, gssmd and ovl of every row pair of two C-ordered (T, n) blocks.

    Row ``t`` has the bits of ``metrics.z_factor``/``ssmd`` on the pair's
    ``SummaryStats`` and of ``_gssmd_from_arrays``: row means and
    ``var(ddof=1)`` of C-ordered rows sum like the 1-D ones, and z_factor and
    ssmd use the float operations of ``metrics``, which overflow to inf
    without raising. The first row with equal means or two zero variances
    raises what ``metrics`` raises for it, before the division it guards.
    """
    mean_neg, var_neg = neg.mean(axis=1), neg.var(axis=1, ddof=1)
    mean_pos, var_pos = pos.mean(axis=1), pos.var(axis=1, ddof=1)
    gssmd, ovl = _overlap_rows(neg, pos, bins)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diff, pooled = mean_pos - mean_neg, var_pos + var_neg
        degenerate = np.flatnonzero((diff == 0) | (pooled == 0))
        if degenerate.size:
            r = degenerate[0]
            s_neg = SummaryStats(float(mean_neg[r]), float(var_neg[r]))
            s_pos = SummaryStats(float(mean_pos[r]), float(var_pos[r]))
            metrics.z_factor(s_pos, s_neg)
            metrics.ssmd(s_pos, s_neg)
        z_factor = 1.0 - 3.0 * (np.sqrt(var_pos) + np.sqrt(var_neg)) / np.abs(diff)
        ssmd = diff / np.sqrt(pooled)
    return {"z_factor": z_factor, "ssmd": ssmd, "gssmd": gssmd, "ovl": ovl}


def _run_grid(
    seed: int, axes: dict[str, Sequence], trials: int, streams: int,
    trial: Callable[..., tuple[np.ndarray, ...]], score: Callable[..., dict[str, np.ndarray]],
) -> list[GridPoint]:
    """Aggregate ``trials`` trials at every point of the grid over ``axes``, row-major.

    The key layout of every sweep: ``trial(*axis_values, rngs)`` draws stream
    ``k`` from ``derive_seed(seed, *axis_indices, t, k)`` and returns its row,
    which ``score`` turns into metrics (see ``_grid_scores``). A point's params
    are its float axis values.
    """
    grid = itertools.product(*(enumerate(values) for values in axes.values()))
    cells = [tuple(zip(*cell)) for cell in grid]  # (axis indices, axis values)
    return [GridPoint.of(dict(zip(axes, map(float, values))), columns)
            for values, columns in _grid_scores(seed, cells, trials, streams, trial, score)]


def run_mean_difference_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    """All metrics vs location shift: neg from cfg.neg, pos shifted by mu_diff.

    For the lognormal family the shift applies to the log-scale location.
    """
    if not cfg.mu_diffs:
        raise ConfigError("mean-difference sweep needs a mu_diffs grid")

    def trial(d, rngs):
        return _sample(cfg.neg, cfg.n, rngs[0]), _sample(cfg.neg.shifted(d), cfg.n, rngs[1])

    points = _run_grid(cfg.seed, {"mu_diff": cfg.mu_diffs}, cfg.trials, 2, trial,
                       functools.partial(_score_rows, bins=cfg.bins))
    return ScenarioResult("mean_difference", points, cfg.n, cfg.trials, cfg.seed, cfg.bins)


def run_outlier_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    """Metrics on (clean neg, contaminated pos) over a fraction x outlier-mean grid.

    Both base groups are drawn from cfg.neg; the positive group then has
    round(fraction * n) values replaced by draws from
    Normal(outlier_mean, cfg.outlier_scale).
    """
    if cfg.outlier_fractions is None or cfg.outlier_means is None:
        raise ConfigError("outlier sweep needs outlier_fractions and outlier_means grids")

    def trial(frac, om, rngs):
        neg = draw(cfg.neg, cfg.n, rngs[0])
        pos = draw(cfg.neg, cfg.n, rngs[1])
        outlier = DistributionSpec.normal(om, cfg.outlier_scale)
        return neg.values, inject_outliers(pos, frac, outlier, rngs[2]).values

    axes = {"fraction": cfg.outlier_fractions, "outlier_mean": cfg.outlier_means}
    points = _run_grid(cfg.seed, axes, cfg.trials, 3, trial,
                       functools.partial(_score_rows, bins=cfg.bins))
    return ScenarioResult("outliers", points, cfg.n, cfg.trials, cfg.seed, cfg.bins)


def run_noise_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    """Metrics vs measurement SNR over a mu_diff x snr_db grid.

    Per trial one background draw is taken; the positive signal is that same
    draw shifted by mu_diff, and white Gaussian noise is added independently
    to each group at the grid's SNR.
    """
    if cfg.snr_db is None:
        raise ConfigError("noise sweep needs an snr_db grid")
    if not cfg.mu_diffs:
        raise ConfigError("noise sweep needs a mu_diffs grid")

    def trial(d, snr, rngs):
        base = _sample(cfg.neg, cfg.n, rngs[0])
        return (add_awgn(SampleSet(base), snr, rngs[1]).values,
                add_awgn(SampleSet(base + d), snr, rngs[2]).values)

    points = _run_grid(cfg.seed, {"mu_diff": cfg.mu_diffs, "snr_db": cfg.snr_db},
                       cfg.trials, 3, trial, functools.partial(_score_rows, bins=cfg.bins))
    return ScenarioResult("noise", points, cfg.n, cfg.trials, cfg.seed, cfg.bins)


class SubsampleEstimate(NamedTuple):
    mean_gssmd: float
    mean_ssmd: float


def _check_sample_sizes(name: str, value: int | list[int]) -> None:
    """Reject a sample size that cannot be a numpy array length, naming ``name``."""
    if max(value if isinstance(value, list) else [value]) >= 2**63:
        raise ConfigError(f"{name} must be under 2**63, got {value!r}")


def _check_subsample(subsample_size: int, repeats: int, n: int) -> None:
    """Reject a subsample size outside ``[1, n]`` and fewer than one repeat."""
    if subsample_size < 1 or subsample_size > n:
        raise InvalidSubsampleSize(f"subsample size {subsample_size} not in [1, {n}]")
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")


def run_subsampled_estimate(
    neg: SampleSet,
    pos: SampleSet,
    subsample_size: int,
    repeats: int,
    seed,
    bins: int | None = None,
) -> SubsampleEstimate:
    """Average metrics over repeated without-replacement subsamples.

    Each repeat draws ``subsample_size`` values from each group
    independently; taking the full size with one repeat reproduces the
    direct metrics (both are permutation invariant).
    """
    _check_subsample(subsample_size, repeats, min(len(neg), len(pos)))
    rng = np.random.default_rng(seed)
    gs, ss = [], []
    for _ in range(repeats):
        a = neg.values[rng.choice(len(neg), subsample_size, replace=False)]
        b = pos.values[rng.choice(len(pos), subsample_size, replace=False)]
        gs.append(_gssmd_from_arrays(a, b, bins).gssmd)
        ss.append(metrics.ssmd(SummaryStats.of(b), SummaryStats.of(a)))
    return SubsampleEstimate(float(np.mean(gs)), float(np.mean(ss)))


# --- null calibration --------------------------------------------------------


@dataclass(frozen=True)
class NullCalibrationRow:
    """Moments and upper percentiles of |GSSMD| at one sample size.

    ``mean``/``variance``/``min``/``max`` and the percentiles describe
    |GSSMD| (all in [0, 1]); ``mean_signed`` keeps the signed average for
    bias checks. Variance is ddof=1; percentiles use linear interpolation.
    """

    n: int
    mean: float
    variance: float
    min: float
    max: float
    p95: float
    p99: float
    p999: float
    mean_signed: float


@dataclass
class NullCalibrationTable:
    rows: list[NullCalibrationRow]
    trials: int
    seed: int
    dist: DistributionSpec


def _null_gssmd(
    dist: DistributionSpec, n: int, trials: int, seed: int, i: int, bins: int | None
) -> np.ndarray:
    """Signed GSSMD of ``trials`` null pairs of size ``n``, the ``i``-th size.

    Trial ``t`` draws its groups from ``derive_seed(seed, i, t, 0|1)``. The
    trials are rows of one grid cell, scored by the overlap part of
    ``_score_rows`` (its gssmd column): a null pair of one value, or of equal
    means, has no z_factor or ssmd, but it has a GSSMD.
    """
    def trial(rngs):
        return _sample(dist, n, rngs[0]), _sample(dist, n, rngs[1])

    def score(neg, pos):
        return {"gssmd": _overlap_rows(neg, pos, bins)[0]}

    [(_, columns)] = _grid_scores(seed, [((i,), ())], trials, 2, trial, score)
    return columns["gssmd"]


def calibrate_null(
    sizes: Iterable[int],
    trials: int,
    dist: DistributionSpec,
    seed: int,
    bins: int | None = None,
) -> NullCalibrationTable:
    """Null distribution of GSSMD when both groups share one distribution.

    For each size, ``trials`` independent pairs are drawn i.i.d. from
    ``dist`` and GSSMD recorded; the table holds per-size moments and the
    95th/99th/99.9th percentiles of |GSSMD|. ``bins`` overrides the bin
    rule as in ``gssmd``. Deterministic given the seed: trial ``t`` at the
    ``i``-th size draws its groups from ``derive_seed(seed, i, t, 0|1)``.
    """
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ConfigError("calibration needs at least one sample size")
    if any(s < 1 for s in sizes):
        raise ConfigError("calibration sizes must be >= 1")
    _check_sample_sizes("calibration sizes", list(sizes))
    if len(set(sizes)) < len(sizes):
        raise ConfigError(f"calibration sizes {list(sizes)} repeat a size; each must appear once")
    if trials < 100:
        raise ConfigError(f"calibration trials must be >= 100, got {trials!r}")

    rows = []
    for i, n in enumerate(sizes):
        try:
            signed = _null_gssmd(dist, n, trials, seed, i, bins)
        except FloatingPointError as exc:  # under np.errstate(..., "raise"), as in the CLI
            raise NumericError(f"location {dist.location!r} and scale {dist.scale!r}: null "
                               f"draws at n = {n} leave the float range ({exc})") from None
        abs_vals = np.abs(signed)
        p95, p99, p999 = np.percentile(abs_vals, [95.0, 99.0, 99.9])
        rows.append(NullCalibrationRow(
            n=n,
            mean=float(abs_vals.mean()),
            variance=float(abs_vals.var(ddof=1)),
            min=float(abs_vals.min()),
            max=float(abs_vals.max()),
            p95=float(p95),
            p99=float(p99),
            p999=float(p999),
            mean_signed=float(signed.mean()),
        ))
    return NullCalibrationTable(rows, trials, seed, dist)
