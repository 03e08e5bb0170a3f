"""Exception hierarchy for the arclift package.

Every domain failure raises a subclass of ArcliftError so callers can
separate mathematical outcomes (NotStrictError, OutOfFamilyError, ...)
from programming mistakes, which surface as ordinary Python exceptions.
Each class carries the exit code the command line reports for it.
"""


class ArcliftError(Exception):
    """Base class for all arclift domain errors."""

    exit_code = 1


class FieldMismatchError(ArcliftError):
    """Operands live over different scalar fields or series rings."""


class NotAUnitError(ArcliftError):
    """Inversion of a non-unit (positive order, or zero residue)."""


class NotDivisibleError(ArcliftError):
    """Exact series division impossible; usually a violated construction identity."""


class PrecisionExhaustedError(ArcliftError):
    """A result would carry no certified coefficients at the requested depth."""


class ParseError(ArcliftError):
    exit_code = 4

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class UnknownVariableError(ParseError):
    """Variable token outside the declared namespace."""


class MissingVariableError(ArcliftError):
    """Evaluation or substitution map does not cover a used variable."""


class StructureError(ArcliftError):
    """Structurally invalid problem data or operation arguments."""


class ValidationError(ArcliftError):
    """A mathematical validation check failed; carries the full report."""

    exit_code = 2

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class OrderTooHighError(ArcliftError):
    """Certificate normalization requested with order defect e >= c."""

    exit_code = 2


class OrderViolationError(ArcliftError):
    """A remainder term has visible order 0 where order >= 1 is required."""

    exit_code = 2


class IdentityFailedError(ArcliftError):
    """An internal construction identity failed to re-verify."""

    exit_code = 2


class ArcDeviationError(ArcliftError):
    """An arc departs from what it must match; .index and .order say where, when known."""

    def __init__(self, message, index=None, order=None):
        super().__init__(message)
        self.index = index
        self.order = order


class NotStrictError(ArcDeviationError):
    """Arc does not agree with the jet to the required congruence depth."""


class OutOfFamilyError(ArcDeviationError):
    """Strict arc falls outside the offset family anchored at the reference."""


class NoProgressError(ArcliftError):
    """Newton iteration failed to strictly increase the residual order."""


class NoReferenceError(ArcliftError):
    """No strict reference lift was found within the search depth."""

    exit_code = 3


class BudgetExceededError(ArcliftError):
    """Jet enumeration would exceed its candidate budget."""
