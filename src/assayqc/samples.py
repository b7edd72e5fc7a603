"""Sample containers and summary statistics.

A ``SampleSet`` is one labeled group of scalar readouts (e.g. the negative
controls of a plate); ``summarize`` reduces it to the moments every
parametric metric consumes, for one group or for each row of a block.
``_finite`` checks a group, for ``SampleSet`` and for the simulation trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySampleSet, NonFiniteValue


def _finite(values, label: str = "") -> np.ndarray:
    """``values`` as a flat float64 array, not copied if it is one; raises ``EmptySampleSet``
    if it is empty, ``NonFiniteValue`` if a value is NaN or infinite, naming it by ``label``."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise EmptySampleSet(f"sample set {label!r} is empty")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"sample set {label!r} contains non-finite values")
    return arr


@dataclass(frozen=True)
class SampleSet:
    """An immutable copy of a non-empty vector of finite measurements, checked by ``_finite``."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = _finite(self.values, self.label).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def _row_variances(rows: np.ndarray, means: np.ndarray, ddof: int) -> np.ndarray:
    """``rows.var(axis=1, ddof=ddof)`` of a C-ordered 2-D block, by numpy's own steps, from
    the row ``means`` already taken (``rows.mean(axis=1)``): subtract, square in place, row
    sums, divide."""
    deviations = rows - means[:, None]
    return np.square(deviations, out=deviations).sum(axis=1) / (rows.shape[1] - ddof)


@dataclass(frozen=True)
class SummaryStats:
    """Mean, unbiased variance and derived standard deviation of one group, or of each row.

    ``degenerate`` marks single-observation groups, whose variance is fixed
    at 0; metrics that need positive spread raise on such input instead of
    returning infinities. Row summaries (``of`` a block) hold one array a moment.
    """

    mean: float | np.ndarray
    variance: float | np.ndarray
    std_dev: float | np.ndarray = field(init=False)
    count: int = 1
    degenerate: bool = False

    def __post_init__(self):
        if np.less(self.variance, 0).any():
            raise ValueError("variance must be non-negative")
        if self.count < 1:
            raise ValueError("count must be positive")
        std_dev = np.sqrt(self.variance)  # a float's stays a float
        object.__setattr__(self, "std_dev", std_dev if np.ndim(std_dev) else float(std_dev))

    @classmethod
    def of(cls, values: np.ndarray) -> "SummaryStats":
        """Moments of a 1-D float array, as floats, or of each row of a C-ordered 2-D block.

        A 1-D array is a one-row block: rows sum like 1-D arrays, so row ``t`` has the bits
        of ``of(values[t])``. A lone value is its own mean, with variance 0 (degenerate).
        The variance takes numpy's ``var(ddof=1)`` steps (``_row_variances``) from the means.
        """
        rows = values[None] if values.ndim == 1 else values
        lone = rows.shape[1] == 1
        if lone:
            mean, variance = rows[:, 0], np.zeros(len(rows))  # a lone -0.0 keeps its sign
        else:
            mean = rows.mean(axis=1)
            variance = _row_variances(rows, mean, 1)
        if values.ndim == 1:
            mean, variance = float(mean[0]), float(variance[0])
        return cls(mean, variance, rows.shape[1], lone)


def summarize(samples: SampleSet) -> SummaryStats:
    """Arithmetic mean and unbiased (n-1) sample variance of a group."""
    return SummaryStats.of(samples.values)
