"""Exception types shared across the package, and its integer check."""

import operator


class MmlbnError(Exception):
    """Base class for all library-specific errors."""


class DataFormatError(MmlbnError):
    """Malformed input data: ragged rows, empty files, unknown tokens."""


class MissingValueError(DataFormatError):
    """A missing-value token was encountered under the reject policy."""


class DegenerateVariableError(DataFormatError):
    """A column with fewer than two distinct observed values."""


class CycleError(MmlbnError):
    """A structural edit would introduce a directed cycle."""


class ParentCapError(MmlbnError):
    """A structural edit would exceed the per-node parent limit."""


class NoArcError(MmlbnError):
    """An arc reversal was requested where no such arc exists."""


class CapacityError(MmlbnError):
    """Input exceeds a hard implementation limit (node count, table size)."""


class ParameterCapError(MmlbnError):
    """A full conditional table would need too many free parameters."""


class ConvergenceError(MmlbnError):
    """A logit fit failed: out of Newton iterations, no decrease found, or an
    information that is not positive definite. Carries only its message."""


def as_index(value, what: str, error: type[Exception] = ValueError) -> int:
    """`value` as a Python int, through `operator.index`: ints, bools and
    numpy integers pass, and anything else (1.5, 2.0, "3") raises `error`
    naming `what`, where `int` would truncate it or a later step fail."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer; got {value!r}") from None
