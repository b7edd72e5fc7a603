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
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import metrics
from .errors import ConfigError, InvalidSubsampleSize, ZeroPowerSignal
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
    noise_var = power / 10.0 ** (snr_db / 10.0)
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
    def of(cls, params: dict[str, float], trials: list[dict[str, float]]) -> "GridPoint":
        """Aggregate per-trial ``{metric: value}`` dicts, keeping metric order."""
        return cls(params, {name: TrialAggregate.of([t[name] for t in trials])
                            for name in trials[0]})


@dataclass
class ScenarioResult:
    kind: str
    points: list[GridPoint]
    n: int
    trials: int
    seed: int
    bins: int | None = None


def _pair_metrics(neg: np.ndarray, pos: np.ndarray, bins: int | None) -> dict[str, float]:
    s_neg, s_pos = SummaryStats.of(neg), SummaryStats.of(pos)
    ov = _gssmd_from_arrays(neg, pos, bins)
    return {
        "z_factor": metrics.z_factor(s_pos, s_neg),
        "ssmd": metrics.ssmd(s_pos, s_neg),
        "gssmd": ov.gssmd,
        "ovl": ov.ovl,
    }


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
        if self.bins is not None and self.bins < 1:
            raise ConfigError("bins override must be >= 1")


def _run_grid(
    seed: int, axes: dict[str, Sequence], trials: int,
    trial: Callable[..., dict[str, float]],
) -> list[GridPoint]:
    """Run ``trials`` trials at every point of the grid over ``axes``, row-major.

    ``trial(*axis_values, seeds)`` returns one trial's ``{metric: value}``,
    where ``seeds(k)`` is ``derive_seed(seed, *axis_indices, t, k)``: the
    key layout of every sweep. A point's params are its float axis values.
    """
    points = []
    for cell in itertools.product(*(enumerate(values) for values in axes.values())):
        index, values = zip(*cell)
        results = [trial(*values, functools.partial(derive_seed, seed, *index, t))
                   for t in range(trials)]
        points.append(GridPoint.of(dict(zip(axes, map(float, values))), results))
    return points


def run_mean_difference_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    """All metrics vs location shift: neg from cfg.neg, pos shifted by mu_diff.

    For the lognormal family the shift applies to the log-scale location.
    """
    if not cfg.mu_diffs:
        raise ConfigError("mean-difference sweep needs a mu_diffs grid")

    def trial(d, seeds):
        neg = _sample(cfg.neg, cfg.n, np.random.default_rng(seeds(0)))
        pos = _sample(cfg.neg.shifted(d), cfg.n, np.random.default_rng(seeds(1)))
        return _pair_metrics(neg, pos, cfg.bins)

    points = _run_grid(cfg.seed, {"mu_diff": cfg.mu_diffs}, cfg.trials, trial)
    return ScenarioResult("mean_difference", points, cfg.n, cfg.trials, cfg.seed, cfg.bins)


def run_outlier_sweep(cfg: ScenarioConfig) -> ScenarioResult:
    """Metrics on (clean neg, contaminated pos) over a fraction x outlier-mean grid.

    Both base groups are drawn from cfg.neg; the positive group then has
    round(fraction * n) values replaced by draws from
    Normal(outlier_mean, cfg.outlier_scale).
    """
    if cfg.outlier_fractions is None or cfg.outlier_means is None:
        raise ConfigError("outlier sweep needs outlier_fractions and outlier_means grids")

    def trial(frac, om, seeds):
        neg = draw(cfg.neg, cfg.n, seeds(0))
        pos = draw(cfg.neg, cfg.n, seeds(1))
        outlier = DistributionSpec.normal(om, cfg.outlier_scale)
        pos = inject_outliers(pos, frac, outlier, seeds(2))
        return _pair_metrics(neg.values, pos.values, cfg.bins)

    axes = {"fraction": cfg.outlier_fractions, "outlier_mean": cfg.outlier_means}
    points = _run_grid(cfg.seed, axes, cfg.trials, trial)
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

    def trial(d, snr, seeds):
        base = _sample(cfg.neg, cfg.n, np.random.default_rng(seeds(0)))
        neg = add_awgn(SampleSet(base), snr, seeds(1))
        pos = add_awgn(SampleSet(base + d), snr, seeds(2))
        return _pair_metrics(neg.values, pos.values, cfg.bins)

    points = _run_grid(cfg.seed, {"mu_diff": cfg.mu_diffs, "snr_db": cfg.snr_db},
                       cfg.trials, trial)
    return ScenarioResult("noise", points, cfg.n, cfg.trials, cfg.seed, cfg.bins)


class SubsampleEstimate(NamedTuple):
    mean_gssmd: float
    mean_ssmd: float


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
    if subsample_size < 1 or subsample_size > min(len(neg), len(pos)):
        raise InvalidSubsampleSize(
            f"subsample size {subsample_size} not in [1, {min(len(neg), len(pos))}]"
        )
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    rng = np.random.default_rng(seed)
    gs, ss = [], []
    for _ in range(repeats):
        a = neg.values[rng.choice(len(neg), subsample_size, replace=False)]
        b = pos.values[rng.choice(len(pos), subsample_size, replace=False)]
        gs.append(_gssmd_from_arrays(a, b, bins).gssmd)
        ss.append(metrics.ssmd(SummaryStats.of(b), SummaryStats.of(a)))
    return SubsampleEstimate(float(np.mean(gs)), float(np.mean(ss)))


# --- null calibration --------------------------------------------------------


#: Pooled values (both groups, all rows) per chunk of calibration trials.
_CALIBRATION_CHUNK_VALUES = 2 ** 14

#: Documented default size grid for null-lower-bound calibration.
DEFAULT_CALIBRATION_SIZES = (3, 10, 30, 100, 300, 1_000, 10_000, 100_000, 1_000_000)


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


#: Trials whose generator states are computed in one batch; it bounds their memory.
_SEED_BLOCK = 1024

_M32, _M128 = 2 ** 32 - 1, 2 ** 128 - 1


def _uint32_words(x: int) -> int:
    """Length of numpy's ``_coerce_to_uint32_array(x)`` for an int ``x >= 0``."""
    return max(1, -(-int(x).bit_length() // 32))


def _pcg64_states(
    master: int, prefix: tuple[int, ...], trials: range, k: int
) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(derive_seed(master, *prefix, t, k))`` per ``t``.

    Same bits, computed for all of ``trials`` (each ``t < 2**32``) in one
    numpy pass. Mirrors numpy's ``bit_generator.pyx``: ``SeedSequence``
    hashes the key prefix into its pool, with the run entropy padded to the
    4-word pool as a spawn key makes numpy do (without a spawn key the pool
    comes out the same, but the hash count below assumes the padding); then
    ``mix_entropy`` mixes in the words ``t`` and ``k`` with ``hashmix``/``mix``,
    ``generate_state(4, uint64)`` gives the seed words, and ``pcg64.h``'s
    ``pcg64_set_seed`` (``pcg_setseq_128_srandom_r``) takes two 128-bit LCG
    steps. uint32 arithmetic runs on uint64 arrays masked to 32 bits, 128-bit
    arithmetic on Python ints: no numpy scalar, which could raise on overflow.
    """
    pool = np.random.SeedSequence(master, spawn_key=prefix).pool.tolist()
    n_words = max(4, _uint32_words(master)) + sum(_uint32_words(p) for p in prefix)
    # hashmix calls so far: 4 to fill the pool, 12 to cross-mix it, 4 per later word.
    hash_const = 0x43B0D7E5 * pow(0x931E8875, 16 + 4 * (n_words - 4), 2 ** 32) & _M32
    pool = [np.full(len(trials), w, dtype=np.uint64) for w in pool]
    for word in (np.arange(trials.start, trials.stop, dtype=np.uint64), k):
        for d in range(4):
            value = (word ^ hash_const) & _M32  # hashmix
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
    seed_hi, seed_lo, inc_hi, inc_lo = ((words[j] | words[j + 1] << 32).tolist()
                                        for j in (0, 2, 4, 6))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = (((s_hi << 64 | s_lo) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & _M128
        states.append((state, inc))
    return states


@functools.cache
def _batched_seeding_agrees() -> bool:
    """Whether this numpy's ``default_rng(derive_seed(...))`` matches ``_pcg64_states``."""
    master, prefix, t, k = 2 ** 63 + 12345, (1, 2 ** 32 + 5), 2 ** 32 - 1, 1
    expected = np.random.default_rng(derive_seed(master, *prefix, t, k)).bit_generator.state
    state = (expected["state"]["state"], expected["state"]["inc"])
    return _pcg64_states(master, prefix, range(t, t + 1), k) == [state]


def _null_pairs(dist: DistributionSpec, n: int, trials: int, seed: int, i: int):
    """Yield each trial's null pair, drawn from ``derive_seed(seed, i, t, 0|1)``.

    One generator is reseeded with the batched states of ``_pcg64_states``;
    ``default_rng`` is the fallback when those would not match.
    """
    if trials > 2 ** 32 or not _batched_seeding_agrees():
        for t in range(trials):
            neg, pos = (np.random.default_rng(derive_seed(seed, i, t, k)) for k in (0, 1))
            yield _sample(dist, n, neg), _sample(dist, n, pos)
        return
    rng = np.random.Generator(np.random.PCG64(0))

    def sample(state: int, inc: int) -> np.ndarray:
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        return _sample(dist, n, rng)

    for start in range(0, trials, _SEED_BLOCK):
        block = range(start, min(start + _SEED_BLOCK, trials))
        for neg, pos in zip(_pcg64_states(seed, (i,), block, 0),
                            _pcg64_states(seed, (i,), block, 1)):
            yield sample(*neg), sample(*pos)


def _null_gssmd(
    dist: DistributionSpec, n: int, trials: int, seed: int, i: int, bins: int | None
) -> np.ndarray:
    """Signed GSSMD of ``trials`` null pairs of size ``n``, the ``i``-th size.

    Trial ``t`` draws its groups from ``derive_seed(seed, i, t, 0|1)``. The
    trials are scored in chunks of rows by ``_gssmd_rows``, which gives the
    same bits as scoring each pair on its own; a size too large for two rows
    per chunk is scored pair by pair, where the per-pair kernel is faster.
    """
    signed = np.empty(trials)
    pairs = _null_pairs(dist, n, trials, seed, i)
    chunk = _CALIBRATION_CHUNK_VALUES // (2 * n)
    if chunk < 2:
        for t, (neg, pos) in enumerate(pairs):
            signed[t] = _gssmd_from_arrays(neg, pos, bins).gssmd
        return signed
    neg, pos = np.empty((chunk, n)), np.empty((chunk, n))
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        # range first: zip stops there without taking a pair of the next chunk.
        for r, (a, b) in zip(range(rows), pairs):
            neg[r], pos[r] = a, b
        signed[start:start + rows] = _gssmd_rows(neg[:rows], pos[:rows], bins)
    return signed


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
    if len(set(sizes)) < len(sizes):
        raise ConfigError(f"calibration sizes {list(sizes)} repeat a size; each must appear once")
    if trials < 100:
        raise ConfigError("calibration needs at least 100 trials")

    rows = []
    for i, n in enumerate(sizes):
        signed = _null_gssmd(dist, n, trials, seed, i, bins)
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
