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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _DIST_NAMES, metrics
from .errors import (ConfigError, InvalidSubsampleSize, NonFiniteValue, NumericError,
                     ZeroPowerSignal)
from .overlap import _gssmd_rows
from .report import text12
from .samples import Record, SampleSet, SummaryStats, _finite, _row_variances

NORMAL, LOGNORMAL = _DIST_NAMES


class DistributionSpec(Record):
    """A sampling distribution: normal or lognormal.

    For the lognormal kind, ``location``/``scale`` are the log-scale
    parameters; draws are exp of normal draws.
    """

    __slots__ = ("kind", "location", "scale")

    def __init__(self, kind: str, location: float = 0.0, scale: float = 1.0):
        if kind not in _DIST_NAMES:
            raise ConfigError(f"unknown distribution kind {kind!r}")
        if not scale > 0:
            raise ConfigError("distribution scale must be positive")
        if math.isnan(location):
            raise ConfigError("distribution location must not be NaN")
        super().__init__(kind, location, scale)

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
    """``rng.normal(location, scale, n)``, and its ``exp`` (in place) for a lognormal.

    Location 0 and scale 1 draw ``rng.standard_normal(n)``, the ``z`` of ``location + scale * z``:
    the same bits, but for a ``z`` of -0.0 (52 zero bits), which location 0.0 makes 0.0. Other
    specs keep ``normal``: it overflows to inf in C, which the checks downstream name with its
    cell, where a shift in numpy would raise under the CLI's errstate first.
    """
    if dist.location == 0 and dist.scale == 1:
        x = rng.standard_normal(n)
    else:
        x = rng.normal(dist.location, dist.scale, n)
    if dist.kind == LOGNORMAL:
        np.exp(x, out=x)
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
    values = _with_outliers(samples.values, fraction, outlier, seed)
    return samples if values is samples.values else SampleSet(values, label=samples.label)


def _with_outliers(values: np.ndarray, fraction: float, outlier: DistributionSpec, seed):
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError("outlier fraction must lie in [0, 1]")
    k = int(round(fraction * values.size))
    if k == 0:
        return values
    rng = np.random.default_rng(seed)
    idx = rng.choice(values.size, size=k, replace=False)
    values = values.copy()
    values[idx] = _sample(outlier, k, rng)
    return values


def add_awgn(signal: SampleSet, snr_db: float, seed) -> SampleSet:
    """Add white Gaussian noise at the given measured signal-to-noise ratio.

    Signal power is measured as mean(x^2) over the input; the noise variance
    is P_signal / 10^(snr_db/10) and the noise is zero-mean, elementwise
    independent.
    """
    return SampleSet(_noised(signal.values, snr_db, seed), label=signal.label)


def _noised(v: np.ndarray, snr_db: float, seed) -> np.ndarray:
    power = float(np.mean(v * v))
    if power == 0.0:
        raise ZeroPowerSignal("cannot scale noise against a zero-power signal")
    try:
        noise_var = power / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        raise NumericError(f"snr_db {snr_db!r} is out of range: 10^(snr_db/10) is not a "
                           "positive finite float") from None
    rng = np.random.default_rng(seed)
    return v + rng.normal(0.0, np.sqrt(noise_var), v.size)


# --- sweeps -----------------------------------------------------------------


class TrialAggregate(NamedTuple):
    """Mean/std/min/max of one metric across a point's trials (std is ddof=0)."""

    mean: float
    std: float
    min: float
    max: float


class GridPoint(NamedTuple):
    """One sweep configuration point with its per-metric trial aggregates."""

    params: dict[str, float]
    metrics: dict[str, TrialAggregate]

    @classmethod
    def of(cls, params: dict[str, float], columns: dict[str, np.ndarray]) -> "GridPoint":
        """Aggregate each metric's column of trial values, keeping metric order.

        The columns stack into one C-ordered (metrics, trials) block, reduced once an
        aggregate: rows sum like 1-D arrays, so each has the bits of its column's own. The
        std takes numpy's steps from the means already taken, as ``SummaryStats.of`` does.
        """
        block = np.array(list(columns.values()), dtype=np.float64)
        mean = block.mean(axis=1)
        std = np.sqrt(_row_variances(block, mean, 0))
        aggregates = zip(*(a.tolist() for a in (mean, std, block.min(axis=1), block.max(axis=1))))
        return cls(params, {name: TrialAggregate(*a) for name, a in zip(columns, aggregates)})


class ScenarioResult(NamedTuple):
    kind: str
    points: list[GridPoint]
    n: int
    trials: int
    seed: int
    bins: int | None = None


class ScenarioConfig(Record):
    """Parameter grids for the sweep runners.

    ``neg`` describes the negative-control (background) distribution; the
    sweeps derive the positive group from it per their own contracts.
    """

    __slots__ = ("neg", "mu_diffs", "n", "seed", "trials", "outlier_fractions", "outlier_means",
                 "outlier_scale", "snr_db", "bins")

    def __init__(
        self, neg: DistributionSpec, mu_diffs: tuple[float, ...] = (), n: int = 1000,
        seed: int = 0, trials: int = 1, outlier_fractions: tuple[float, ...] | None = None,
        outlier_means: tuple[float, ...] | None = None, outlier_scale: float = 1.0,
        snr_db: tuple[float, ...] | None = None, bins: int | None = None,
    ):
        if n < 2:
            raise ConfigError("n must be >= 2")
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        if any(not 0.0 <= f <= 1.0 for f in outlier_fractions or ()):
            raise ConfigError("outlier fractions must lie in [0, 1]")
        if any(math.isnan(s) for s in snr_db or ()):
            raise ConfigError(f"snr_db must not be NaN, got {list(snr_db)}")
        if bins is not None and bins < 1:
            raise ConfigError("bins override must be >= 1")
        super().__init__(neg, mu_diffs, n, seed, trials, outlier_fractions, outlier_means,
                         outlier_scale, snr_db, bins)


# --- batched seeding ----------------------------------------------------------


#: Trials whose generator states are computed in one batch; it bounds their memory.
_SEED_BLOCK = 1024

_M32, _M128 = 2 ** 32 - 1, 2 ** 128 - 1


def _pcg64_states(master: int, *words) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(derive_seed(master, *key))`` per key.

    The key words are ints or arrays of ints, each below ``2**32``; they
    broadcast together, and the states come in C order of their shape. Same
    bits, computed in one numpy pass. Mirrors numpy's ``bit_generator.pyx``:
    ``SeedSequence(master)`` fills and cross-mixes the pool, which comes out
    as with the 4-word padding that a spawn key makes numpy apply to the run
    entropy; then ``mix_entropy`` mixes in each key word with
    ``hashmix``/``mix``, ``generate_state(4, uint64)`` gives the seed words,
    and ``pcg64.h``'s ``pcg64_set_seed`` (``pcg_setseq_128_srandom_r``) takes
    two 128-bit LCG steps. uint32 arithmetic runs on uint64 arrays masked to
    32 bits, 128-bit arithmetic on Python ints: no numpy scalar, which could
    raise on overflow.
    """
    pool = np.random.SeedSequence(master).pool.tolist()
    n_words = max(4, -(-int(master).bit_length() // 32))  # the master's uint32 words, padded
    # hashmix calls so far: 4 to fill the pool, 12 to cross-mix it, 4 per master word past 4.
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

    Checked for a sweep's key layout: two grid indices, ``t`` and ``k``, all given as words.
    """
    master, key = 2 ** 63 + 12345, (3, 0, 2 ** 32 - 1, 2)
    state = np.random.default_rng(derive_seed(master, *key)).bit_generator.state["state"]
    return _pcg64_states(master, *key) == [(state["state"], state["inc"])]


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
        states = iter(_pcg64_states(seed, *cells[cell].T[:, :, None], t[:, None],
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


def _chunks_scored(score: Callable, drawn: Iterator[tuple[np.ndarray, ...]]) -> Iterator:
    """``score`` of the ``drawn`` rows stacked into C-ordered blocks, about
    ``_CALIBRATION_CHUNK_VALUES`` values (at least one row) a chunk, or of each row alone if
    its chunk fails; a failing draw raises once the rows drawn before it are scored."""
    chunk, failure = 0, None
    while failure is None:
        rows = []
        try:
            for row in drawn:
                rows.append(row)
                chunk = chunk or max(1, _CALIBRATION_CHUNK_VALUES // sum(p.size for p in row))
                if len(rows) == chunk:
                    break
        except Exception as exc:  # the rows drawn before it are scored first
            failure = exc
        if not rows:
            break
        blocks = [parts[0][None] if len(parts) == 1 else np.array(parts) for parts in zip(*rows)]
        try:
            scored = [score(*blocks)]
        except Exception:
            if len(rows) == 1:
                raise
            scored = (score(*(block[r:r + 1] for block in blocks)) for r in range(len(rows)))
        yield from scored
    if failure is not None:
        raise failure


def _grid_scores(
    seed: int, cells: list[tuple[tuple[int, ...], tuple]], trials: int, streams: int,
    trial: Callable[..., tuple[np.ndarray, ...]], score: Callable[..., dict[str, np.ndarray]],
) -> Iterator[tuple[tuple, dict[str, np.ndarray]]]:
    """Each ``(indices, values)`` cell's values with its trials' metric columns, cell by cell.

    Trial ``t`` of a cell returns its row ``trial(*values, rngs)``, a tuple of
    1-D arrays, with ``rngs`` from ``_trial_generators``. ``_chunks_scored``
    gives the metric columns ``{name: values}`` of consecutive trials, which
    fill the current cell's ``trials`` values a metric. As trial by trial, a
    failing trial raises only after every cell before it has been yielded,
    and raises what it raises on its own.
    """
    generators = _trial_generators(seed, [indices for indices, _ in cells], trials, streams)
    drawn = (trial(*values, next(generators)) for _, values in cells for _ in range(trials))
    full = (values for _, values in cells)  # each cell's values, yielded once its columns fill
    columns, filled = {}, 0
    for part in _chunks_scored(score, drawn):
        size, done = len(next(iter(part.values()))), 0
        while done < size:
            columns = columns or {name: np.empty(trials) for name in part}
            take = min(size - done, trials - filled)
            for name, col in part.items():
                columns[name][filled:filled + take] = col[done:done + take]
            filled, done = filled + take, done + take
            if filled == trials:
                yield next(full), columns
                columns, filled = {}, 0


def _score_rows(neg: np.ndarray, pos: np.ndarray, bins: int | None) -> dict[str, np.ndarray]:
    """z_factor, ssmd, gssmd and ovl of every row pair of two C-ordered (T, n) blocks.

    Row ``t`` has the bits of ``metrics`` and ``_gssmd_from_arrays`` on its pair. A
    degenerate row fails the block, which ``_chunks_scored`` then scores row by row.
    """
    s_neg, s_pos = SummaryStats.of(neg), SummaryStats.of(pos)
    ovl = np.empty(len(neg))
    gssmd = _gssmd_rows(neg, pos, bins, ovl)
    return {"z_factor": metrics.z_factor(s_pos, s_neg), "ssmd": metrics.ssmd(s_pos, s_neg),
            "gssmd": gssmd, "ovl": ovl}


def _run_grid(
    seed: int, axes: dict[str, Sequence], trials: int, streams: int,
    trial: Callable[..., tuple[np.ndarray, ...]], score: Callable[..., dict[str, np.ndarray]],
) -> list[GridPoint]:
    """Aggregate ``trials`` trials at every point of the grid over ``axes``, row-major.

    The key layout of every sweep: ``trial(*axis_values, rngs)`` draws stream
    ``k`` from ``derive_seed(seed, *axis_indices, t, k)`` and returns its row,
    which ``score`` turns into metrics (see ``_grid_scores``). A point's params
    are its float axis values. A failing cell's error keeps its class, and its message
    gains the cell's values in front, as ``mu_diff 1e+308: ...``.
    """
    grid = itertools.product(*(enumerate(values) for values in axes.values()))
    cells = [tuple(zip(*cell)) for cell in grid]  # (axis indices, axis values)
    points = []
    try:
        for values, columns in _grid_scores(seed, cells, trials, streams, trial, score):
            points.append(GridPoint.of(dict(zip(axes, map(float, values))), columns))
    except (NumericError, ArithmeticError, NonFiniteValue) as exc:  # first cell not yielded
        failing = zip(axes, map(float, cells[len(points)][1]))
        exc.args = (", ".join(f"{axis} {text12(v)}" for axis, v in failing) + f": {exc}",)
        raise
    return points


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

    def trial(frac, om, rngs):  # each array checked where a SampleSet would check it
        neg, pos = (_finite(_sample(cfg.neg, cfg.n, rng), cfg.neg.kind) for rng in rngs[:2])
        outlier = DistributionSpec.normal(om, cfg.outlier_scale)
        return neg, _finite(_with_outliers(pos, frac, outlier, rngs[2]), cfg.neg.kind)

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

    trial = functools.partial(_noisy_pair, cfg.neg, cfg.n)
    points = _run_grid(cfg.seed, {"mu_diff": cfg.mu_diffs, "snr_db": cfg.snr_db},
                       cfg.trials, 3, trial, functools.partial(_score_rows, bins=cfg.bins))
    return ScenarioResult("noise", points, cfg.n, cfg.trials, cfg.seed, cfg.bins)


def _noisy_pair(dist: DistributionSpec, n: int, d: float, snr: float, rngs, label=""):
    """A noise trial: a draw (stream 0) noised (stream 1), and the draw shifted by ``d`` noised
    (stream 2), each array checked; ``label`` names the draw and its noised copy."""
    base = _finite(_sample(dist, n, rngs[0]), label)
    return (_finite(_noised(base, snr, rngs[1]), label),
            _finite(_noised(_finite(base + d), snr, rngs[2])))


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

    Each repeat draws ``subsample_size`` values from each group, neg then pos,
    independently, and the repeats are scored as rows (``_chunks_scored``); the
    full size with one repeat gives the direct metrics (both are permutation invariant).
    """
    n = min(len(neg), len(pos))
    if subsample_size < 1 or subsample_size > n:
        raise InvalidSubsampleSize(f"subsample size {subsample_size} not in [1, {n}]")
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    rng = np.random.default_rng(seed)
    drawn = ((neg.values[rng.choice(len(neg), subsample_size, replace=False)],
              pos.values[rng.choice(len(pos), subsample_size, replace=False)])
             for _ in range(repeats))
    parts = _chunks_scored(lambda a, b: (_gssmd_rows(a, b, bins),
                                         metrics.ssmd(SummaryStats.of(b), SummaryStats.of(a))),
                           drawn)
    gssmd, ssmd = (np.concatenate(column) for column in zip(*parts))
    return SubsampleEstimate(float(gssmd.mean()), float(ssmd.mean()))


# --- null calibration --------------------------------------------------------


#: The quantiles of p95, p99 and p99.9, as ``np.percentile`` divides them.
_QUANTILES = np.array([95.0, 99.0, 99.9]) / 100


def _percentiles(values: np.ndarray) -> np.ndarray:
    """``np.percentile(values, [95, 99, 99.9])`` bit for bit from one sorted copy, without the
    ``numpy.ma`` import that ``np.percentile`` makes through ``np.unique``.

    numpy's linear method: quantile ``q`` sits at index ``(n - 1) * q``, between the values ``a``
    at its floor and ``b`` after it (both the last once it reaches it); with ``g`` its distance
    from ``a``'s index, it is ``a + (b - a) * g``, or ``b - (b - a) * (1 - g)`` where
    ``g >= 0.5``. A NaN sorts last and makes every quantile NaN.
    """
    x = np.sort(values)
    virtual = (x.size - 1) * _QUANTILES
    below = np.floor(virtual)
    above = below + 1
    last = virtual >= x.size - 1
    below[last] = above[last] = -1
    g = virtual - below
    a, b = x[below.astype(np.intp)], x[above.astype(np.intp)]
    result = a + (b - a) * g
    np.subtract(b, (b - a) * (1 - g), out=result, where=g >= 0.5)
    if np.isnan(x[-1]):
        result[:] = x[-1]
    return result


class NullCalibrationRow(NamedTuple):
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


class NullCalibrationTable(NamedTuple):
    rows: list[NullCalibrationRow]
    trials: int
    seed: int
    dist: DistributionSpec


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
    95th/99th/99.9th percentiles of |GSSMD|, by ``np.percentile``'s linear
    method (``_percentiles``, which spares a start ``numpy.ma``). ``bins``
    overrides the bin rule as in ``gssmd``. Deterministic given the seed:
    trial ``t`` at the ``i``-th size draws its groups from
    ``derive_seed(seed, i, t, 0|1)``; a standard normal or lognormal ``dist``
    (location 0, scale 1, as fig6's default) draws by ``standard_normal``
    (see ``_sample``).
    """
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ConfigError("calibration needs at least one sample size")
    if any(s < 1 for s in sizes):
        raise ConfigError("calibration sizes must be >= 1")
    if max(sizes) >= 2**63:  # no array is that long
        raise ConfigError(f"calibration sizes must be under 2**63, got {list(sizes)!r}")
    if len(set(sizes)) < len(sizes):
        raise ConfigError(f"calibration sizes {list(sizes)} repeat a size; each must appear once")
    if trials < 100:
        raise ConfigError(f"calibration trials must be >= 100, got {trials!r}")

    def trial(n, rngs):
        return _sample(dist, n, rngs[0]), _sample(dist, n, rngs[1])

    def score(neg, pos):  # a null pair of one value has a GSSMD but no SSMD
        return {"gssmd": _gssmd_rows(neg, pos, bins)}

    rows = []
    for i, n in enumerate(sizes):
        try:
            [(_, columns)] = _grid_scores(seed, [((i,), (n,))], trials, 2, trial, score)
        except (FloatingPointError, NumericError) as exc:  # CLI errstate; tiny or infinite draws
            raise NumericError(f"dist {dist.kind}, location {dist.location!r}, scale "
                               f"{dist.scale!r}, n {n}: {exc}") from None
        signed = columns["gssmd"]
        abs_vals = np.abs(signed)
        p95, p99, p999 = _percentiles(abs_vals)
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
