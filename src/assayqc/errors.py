"""Exception hierarchy.

Two branches matter for the CLI exit-code contract: input/config problems
(``DataValidationError``, exit code 2) and degenerate numeric conditions
discovered during computation (``NumericError``, exit code 3).
"""


class AssayQCError(Exception):
    """Base class for all errors raised by this package."""


class DataValidationError(AssayQCError):
    """Invalid input data or configuration (CLI exit code 2)."""


class NumericError(AssayQCError):
    """A metric's precondition failed on otherwise valid data (CLI exit code 3)."""


# --- sample / metric errors -------------------------------------------------

class EmptySampleSet(DataValidationError):
    """A sample group contained no values."""


class DegenerateVariance(NumericError):
    """A variance required to be positive was zero."""


class DivisionByZeroMean(NumericError):
    """Signal-to-background is undefined for a zero negative-control mean."""


class DegenerateMeanDifference(NumericError):
    """Z'-factor is undefined when the two group means coincide."""


class EdgesOutOfOrder(NumericError, ValueError):
    """Equal-width bins over a few subnormal units round their last edges out of order."""


class NonFiniteRange(NumericError, ValueError):
    """Two groups' pooled range holds a NaN or an infinity, or its width overflows."""


# --- simulation errors ------------------------------------------------------

class ZeroPowerSignal(NumericError):
    """AWGN cannot be scaled against a signal with zero mean-square power."""


class InvalidSubsampleSize(DataValidationError):
    """Requested subsample size exceeds a group size (or is < 1)."""


# --- plate ingestion errors -------------------------------------------------

class MalformedRow(DataValidationError):
    """A CSV row did not match the documented plate schema."""


class UnknownRole(DataValidationError):
    """A well role outside {pos, neg, sample, empty}."""


class DuplicateWell(DataValidationError):
    """Two rows addressed the same (plate, row, col)."""


class NonFiniteValue(DataValidationError, ValueError):
    """A well or sample value is NaN or infinite."""


class NonPositiveValue(DataValidationError):
    """A well value is zero or negative where its logarithm is needed."""


# --- hit-selection errors ---------------------------------------------------

class InsufficientControls(DataValidationError):
    """A plate lacks the minimum number of control wells."""


class ZeroSign(NumericError):
    """No hit direction can be derived when control means are exactly equal."""


class SingleClassInput(NumericError):
    """Logistic fitting needs at least one sample of each label."""


# --- CLI / config errors ----------------------------------------------------

class ConfigError(DataValidationError):
    """A scenario/config file failed validation."""


class InvalidRuleParameter(ConfigError, ValueError):
    """A threshold rule's parameter lies outside its valid range."""


class UnknownScenario(DataValidationError):
    """Scenario name outside the supported set."""
