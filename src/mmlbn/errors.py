"""Exception types shared across the package."""


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
