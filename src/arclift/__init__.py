"""Exact arc lifting through smooth models over k[x] localized at (x).

The package takes a polynomial system, a Jacobian-minor certificate, and a
truncated solution, validates them, builds a smooth model g = a + T + Q,
and moves arcs through it in both directions: free parameters to certified
arcs, strict arcs back to parameters.  A brute force enumerator over finite
coefficient fields provides an independent cross-check.

Everything is exact.  Truncated series carry an effective precision, and
every claim an operation makes is certified at the precision it reports.
"""

from .arcs import (
    HenselResult,
    LiftResult,
    default_target,
    extract_params,
    extract_t,
    find_strict_reference,
    hensel_solve,
    make_lift,
    offset_lift,
)
from .desing import (
    Certificate,
    CheckResult,
    Problem,
    SmoothModel,
    ValidationReport,
    build_model,
    identity_certificate,
    make_problem,
    validate_problem,
    verify_model,
)
from .errors import (
    ArcliftError,
    BudgetExceededError,
    FieldMismatchError,
    IdentityFailedError,
    MissingVariableError,
    NoProgressError,
    NoReferenceError,
    NotAUnitError,
    NotDivisibleError,
    NotStrictError,
    OrderTooHighError,
    OrderViolationError,
    OutOfFamilyError,
    ParseError,
    PrecisionExhaustedError,
    StructureError,
    UnknownVariableError,
    ValidationError,
)
from .oracle import JetSet, oracle_enumerate
from .polyring import Poly, PolyMatrix, VarSpace, jacobian, parse_poly, parse_series
from .prng import SplitMix64, draw_scalar, draw_series
from .ring import DEFAULT_PRECISION, PrimeField, QQ, RationalField, Series, SeriesRing

__version__ = "0.1.0"

__all__ = [
    "ArcliftError",
    "BudgetExceededError",
    "Certificate",
    "CheckResult",
    "DEFAULT_PRECISION",
    "FieldMismatchError",
    "HenselResult",
    "IdentityFailedError",
    "JetSet",
    "LiftResult",
    "MissingVariableError",
    "NoProgressError",
    "NoReferenceError",
    "NotAUnitError",
    "NotDivisibleError",
    "NotStrictError",
    "OrderTooHighError",
    "OrderViolationError",
    "OutOfFamilyError",
    "ParseError",
    "Poly",
    "PolyMatrix",
    "PrecisionExhaustedError",
    "PrimeField",
    "Problem",
    "QQ",
    "RationalField",
    "Series",
    "SeriesRing",
    "SmoothModel",
    "SplitMix64",
    "StructureError",
    "UnknownVariableError",
    "ValidationError",
    "ValidationReport",
    "VarSpace",
    "build_model",
    "default_target",
    "draw_scalar",
    "draw_series",
    "extract_params",
    "extract_t",
    "find_strict_reference",
    "hensel_solve",
    "identity_certificate",
    "jacobian",
    "make_lift",
    "make_problem",
    "offset_lift",
    "oracle_enumerate",
    "parse_poly",
    "parse_series",
    "validate_problem",
    "verify_model",
]
