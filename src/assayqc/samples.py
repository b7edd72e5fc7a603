"""Sample containers and summary statistics.

A ``SampleSet`` is one labeled group of scalar readouts (e.g. the negative
controls of a plate); ``summarize`` reduces it to the moments every
parametric metric consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySampleSet, NonFiniteValue


@dataclass(frozen=True)
class SampleSet:
    """An immutable, validated vector of finite measurements.

    Raises ``EmptySampleSet`` for zero-length input and ``NonFiniteValue``
    (also a ``ValueError``) if any value is NaN or infinite.
    """

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size == 0:
            raise EmptySampleSet(f"sample set {self.label!r} is empty")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(f"sample set {self.label!r} contains non-finite values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SummaryStats:
    """Mean, unbiased variance and derived standard deviation of one group.

    ``degenerate`` marks single-observation groups, whose variance is fixed
    at 0; metrics that need positive spread raise on such input instead of
    returning infinities.
    """

    mean: float
    variance: float
    std_dev: float = field(init=False)
    count: int = 1
    degenerate: bool = False

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be non-negative")
        if self.count < 1:
            raise ValueError("count must be positive")
        object.__setattr__(self, "std_dev", float(np.sqrt(self.variance)))

    @classmethod
    def of(cls, values: np.ndarray) -> "SummaryStats":
        """Moments of a 1-D float array; a single value is degenerate (variance 0)."""
        if values.size == 1:
            return cls(mean=float(values[0]), variance=0.0, count=1, degenerate=True)
        return cls(mean=float(values.mean()), variance=float(values.var(ddof=1)),
                   count=int(values.size))


def summarize(samples: SampleSet) -> SummaryStats:
    """Arithmetic mean and unbiased (n-1) sample variance of a group."""
    return SummaryStats.of(samples.values)
