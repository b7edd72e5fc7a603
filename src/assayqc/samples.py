"""Sample containers and summary statistics.

A ``SampleSet`` is one labeled group of scalar readouts (e.g. the negative
controls of a plate); ``summarize`` reduces it to the moments every
parametric metric consumes, for one group or for each row of a block.
``_finite`` checks a group, for ``SampleSet`` and for the simulation trials.
``Record`` is the base of the package's classes that check, derive or default a field.
"""

from __future__ import annotations

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


class Record:
    """Base of a class that a ``NamedTuple`` cannot be, as its ``__init__`` checks a field,
    derives one or builds a fresh default: the fields are the subclass's ``__slots__``, in
    order, which its ``__init__`` sets once through ``Record.__init__``. As on a frozen
    dataclass, assigning or deleting a field raises ``AttributeError``, instances of one class
    compare and hash by their fields, and the repr names each field. ``_asdict`` is a
    ``NamedTuple``'s; a copy or an unpickled instance restores the fields without ``__init__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple):
        Record.__init__(self, *state)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self.__getstate__()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class SampleSet(Record):
    """An immutable copy of a non-empty vector of finite measurements, checked by ``_finite``."""

    __slots__ = ("values", "label")

    def __init__(self, values, label: str = ""):
        arr = _finite(values, label).copy()
        arr.flags.writeable = False
        super().__init__(arr, label)

    def __len__(self) -> int:
        return int(self.values.size)


def _row_variances(rows: np.ndarray, means: np.ndarray, ddof: int) -> np.ndarray:
    """``rows.var(axis=1, ddof=ddof)`` of a C-ordered 2-D block, by numpy's own steps, from
    the row ``means`` already taken (``rows.mean(axis=1)``): subtract, square in place, row
    sums, divide."""
    deviations = rows - means[:, None]
    return np.square(deviations, out=deviations).sum(axis=1) / (rows.shape[1] - ddof)


class SummaryStats(Record):
    """Mean, unbiased variance and derived standard deviation of one group, or of each row.

    ``degenerate`` marks single-observation groups, whose variance is fixed
    at 0; metrics that need positive spread raise on such input instead of
    returning infinities. Row summaries (``of`` a block) hold one array a moment.
    """

    __slots__ = ("mean", "variance", "std_dev", "count", "degenerate")

    def __init__(self, mean: float | np.ndarray, variance: float | np.ndarray, count: int = 1,
                 degenerate: bool = False):
        if np.less(variance, 0).any():
            raise ValueError("variance must be non-negative")
        if count < 1:
            raise ValueError("count must be positive")
        std_dev = np.sqrt(variance)  # a float's stays a float
        super().__init__(mean, variance, std_dev if np.ndim(std_dev) else float(std_dev), count,
                         degenerate)

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
