"""Polynomials in model variables with truncated series coefficients.

A Poly represents an element of k[x]_(x)[Y1, ..., Yn] (or of the tangent
variables T1, ..., Tn) as a finite map from exponent vectors to Series
coefficients.  A coefficient that is certified zero at the full working
precision is dropped from the map; a certified-zero coefficient at lower
precision is kept, because it records how far a cancellation was actually
checked and must keep capping downstream claims.

Text input follows a small grammar shared by polynomials and series:

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := var ('^' nat)?
    coeff  := int | int '/' int

where var is 'x' or one of the declared variable names, int and nat are
digit strings of any length (read exactly, without Python's int/str digit
limit), whitespace is ignored, and juxtaposition is not multiplication
('2x' is rejected, write '2*x').  Series text uses the same grammar
restricted to the variable x and may end with a '+ O(x^k)' marker fixing
the effective precision; 'O(x^k)' alone denotes the zero series at
precision k.  Terms at or beyond a stated precision are truncated away.

Rendering is canonical: terms are ordered by ascending lexicographic
comparison of the reversed exponent vector, then by ascending x power, and
printed by `ring.render_terms`, so printed polynomials are stable across
runs and read back as valid input for the same grammar.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from decimal import Decimal
from operator import add, mul

from .errors import (
    FieldMismatchError,
    MissingVariableError,
    NotAUnitError,
    ParseError,
    StructureError,
    UnknownVariableError,
)
from .record import Record
from .ring import Series, SeriesRing, product_precision, render_terms, x_power
from . import linalg

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^()])")

_NAME_RE = re.compile(r"[A-Za-z]\w*")


def _tokenize(text: str):
    tokens = []
    pos = 0
    end = len(text)
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the shared poly/series grammar.

    Scalars are read as plain ints, or as field elements for a/b, and are
    coerced into the field once, by `SeriesRing.monomial`.
    """

    def __init__(self, text: str, ring: SeriesRing, names, series_mode: bool):
        self.ring = ring
        self.names = tuple(names)
        self.series_mode = series_mode
        self.tokens = _tokenize(text)
        self.i = 0
        self.end_pos = len(text)
        self.o_prec = None

    def _peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, None, self.end_pos)

    def _take(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _accept(self, op: str) -> bool:
        """Consume the next token if it is the operator op."""
        if self._peek()[:2] != ("op", op):
            return False
        self.i += 1
        return True

    def _nat(self, message: str) -> int:
        """The next token as a non-negative integer, read exactly at any length."""
        kind, val, pos = self._take()
        if kind != "int":
            raise ParseError(message, pos)
        # Decimal, unlike int(str), has no digit limit
        return int(Decimal(val))

    def _exponent(self, message: str) -> int:
        """The optional '^' nat after a variable; 1 when absent."""
        return self._nat(message) if self._accept("^") else 1

    def _sign(self):
        """-1 or 1 for a '-' or '+' consumed here; None when neither is next."""
        return -1 if self._accept("-") else 1 if self._accept("+") else None

    def _expect_op(self, op: str):
        if not self._accept(op):
            raise ParseError(f"expected {op!r}", self._peek()[2])

    def parse(self) -> dict:
        if not self.tokens:
            raise ParseError("empty input", 0)
        terms = {}
        self._term(terms, self._sign() or 1)
        while self.i < len(self.tokens):
            pos = self._peek()[2]
            sign = self._sign()
            if sign is None:
                raise ParseError("expected '+' or '-' between terms", pos)
            if self.o_prec is not None:
                raise ParseError("O(...) must be the final term", pos)
            self._term(terms, sign)
        return terms

    def _term(self, terms: dict, sign: int):
        kind, val, pos = self._peek()
        if kind == "int":
            scalar = self._coeff()
            more = self._accept("*")
        elif kind == "name" and self.series_mode and val == "O":
            if sign < 0:
                raise ParseError("O(...) cannot be subtracted", pos)
            self._take()
            self._o_tail(pos)
            return
        elif kind == "name":
            scalar, more = 1, True
        else:
            raise ParseError("expected a coefficient or a variable", pos)
        exps = [0] * (len(self.names) + 1)  # the last slot, index -1, counts x
        while more:
            idx, e = self._factor()
            exps[idx] += e
            more = self._accept("*")
        mono = self.ring.monomial(exps.pop(), sign * scalar)
        key = tuple(exps)
        prev = terms.get(key)
        terms[key] = mono if prev is None else prev + mono

    def _coeff(self):
        pos = self._peek()[2]
        num = self._nat("expected a coefficient or a variable")
        if not self._accept("/"):
            return num
        den = self._nat("expected an integer denominator")
        try:
            return self.ring.field.from_pair(num, den)
        except NotAUnitError as exc:
            raise ParseError(str(exc), pos) from None

    def _factor(self):
        """(variable index, exponent) of the next factor; x has index -1."""
        kind, val, pos = self._take()
        if kind != "name":
            raise ParseError("expected a variable after '*'", pos)
        if val == "x":
            idx = -1
        elif val in self.names:
            idx = self.names.index(val)
        else:
            raise UnknownVariableError(f"unknown variable {val!r}", pos)
        return idx, self._exponent("expected a nonnegative integer exponent")

    def _o_tail(self, pos: int):
        self._expect_op("(")
        kind, val, p = self._take()
        if kind != "name" or val != "x":
            raise ParseError("expected x inside O(...)", p)
        k = self._exponent("expected an integer exponent in O(...)")
        self._expect_op(")")
        if k < 1:
            raise ParseError("precision in O(...) must be at least 1", pos)
        self.o_prec = k


def parse_series(text: str, ring: SeriesRing) -> Series:
    parser = _Parser(text, ring, (), True)
    terms = parser.parse()
    body = terms.get((), ring.zero())
    if parser.o_prec is None:
        return body
    return body.truncate(parser.o_prec)


def parse_poly(text: str, ring: SeriesRing, space: VarSpace) -> Poly:
    parser = _Parser(text, ring, space.names, False)
    return Poly._make(ring, space, parser.parse())


class VarSpace(Record):
    """An ordered tuple of polynomial variable names (x is always implicit)."""

    names: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        seen = set()
        for nm in self.names:
            if not isinstance(nm, str) or not _NAME_RE.fullmatch(nm) or nm in ("x", "O"):
                raise StructureError(f"bad variable name {nm!r}")
            if nm in seen:
                raise StructureError(f"duplicate variable name {nm!r}")
            seen.add(nm)

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MissingVariableError(f"variable {name!r} is not in this space") from None

    @staticmethod
    def ys(n: int) -> VarSpace:
        return VarSpace(tuple(f"Y{i + 1}" for i in range(n)))

    @staticmethod
    def ts(n: int) -> VarSpace:
        return VarSpace(tuple(f"T{i + 1}" for i in range(n)))


class Poly:
    """A polynomial with Series coefficients, immutable after construction."""

    __slots__ = ("ring", "space", "terms")

    def __init__(self, *args):
        raise TypeError("use Poly.zero/constant/variable or parse_poly")

    @classmethod
    def _make(cls, ring: SeriesRing, space: VarSpace, terms: dict) -> Poly:
        kept = {}
        width = space.dim
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise StructureError("exponent vector width does not match the variable space")
            if coeff.is_zero() and coeff.prec >= ring.n_work:
                continue
            kept[exps] = coeff
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "space", space)
        object.__setattr__(obj, "terms", kept)
        return obj

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(ring: SeriesRing, space: VarSpace) -> Poly:
        return Poly._make(ring, space, {})

    @staticmethod
    def constant(ring: SeriesRing, space: VarSpace, value) -> Poly:
        coeff = value if isinstance(value, Series) else ring.scalar(value)
        return Poly._make(ring, space, {(0,) * space.dim: coeff})

    @staticmethod
    def variable(ring: SeriesRing, space: VarSpace, name: str) -> Poly:
        exps = [0] * space.dim
        exps[space.index(name)] = 1
        return Poly._make(ring, space, {tuple(exps): ring.one()})

    # -- inspection -----------------------------------------------------

    def is_zero(self) -> bool:
        """True when every kept coefficient is invisible at its precision."""
        return all(c.is_zero() for c in self.terms.values())

    def coeff(self, exps) -> Series:
        """Coefficient series of a monomial, exact zero when absent."""
        return self.terms.get(tuple(exps), self.ring.zero())

    def constant_term(self) -> Series:
        return self.coeff((0,) * self.space.dim)

    # -- arithmetic -----------------------------------------------------

    def _compat(self, other: Poly):
        if self.ring is not other.ring and self.ring != other.ring:
            raise FieldMismatchError("mixed series rings in Poly arithmetic")
        if self.space is not other.space and self.space != other.space:
            raise StructureError("mixed variable spaces in Poly arithmetic")

    def _plus(self, other, negate: bool):
        """self + other, or self - other when negate, in one pass."""
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        # Poly is immutable, so a side with no terms gives back the other
        if not other.terms:
            return self
        if not self.terms:
            return -other if negate else other
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            prev = out.get(exps)
            if prev is None:
                out[exps] = -coeff if negate else coeff
            else:
                out[exps] = prev - coeff if negate else prev + coeff
        return Poly._make(self.ring, self.space, out)

    def __add__(self, other):
        return self._plus(other, False)

    def __neg__(self):
        return Poly._make(self.ring, self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, True)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._compat(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                prev = out.get(key)
                out[key] = prod if prev is None else prev + prod
        return Poly._make(self.ring, self.space, out)

    def scale(self, s: Series) -> Poly:
        """Multiply every coefficient by a series."""
        return Poly._make(self.ring, self.space, {e: c * s for e, c in self.terms.items()})

    def diff(self, name: str) -> Poly:
        """Partial derivative; exponent factors are reduced in the scalar field."""
        idx = self.space.index(name)
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            key = exps[:idx] + (e - 1,) + exps[idx + 1 :]
            scaled = coeff * self.ring.scalar(e)
            prev = out.get(key)
            out[key] = scaled if prev is None else prev + scaled
        return Poly._make(self.ring, self.space, out)

    # -- evaluation and substitution -------------------------------------

    def _values(self, values: dict) -> list:
        """The point's series in variable order, checked against this ring."""
        vals = []
        for nm in self.space.names:
            if nm not in values:
                raise MissingVariableError(f"no value supplied for {nm!r}")
            v = values[nm]
            if not isinstance(v, Series) or v.ring != self.ring:
                raise FieldMismatchError(f"value for {nm!r} is not a series of this ring")
            vals.append(v)
        return vals

    def _walk(self, lift, points: list, times, acc, plus, powers: dict):
        """Fold plus over the terms: each term is lift(coeff) times its variables' powers.

        points holds one entry per variable, and every power of one is built
        by times, through _power, in the table powers.  eval, subst and
        PolyMatrix.eval hand it the open shared_powers block's table, so
        every walk in the block shares the powers of each point it meets,
        or with no block open a table for that call alone.
        """
        for exps, coeff in self.terms.items():
            prod = lift(coeff)
            for j, e in enumerate(exps):
                if e:
                    prod = times(prod, _power(powers, points[j], e, times))
            acc = plus(acc, prod)
        return acc

    def eval(self, values: dict) -> Series:
        """Evaluate at a point given as {name: Series}; extra keys are ignored.

        Inside a shared_powers block, evaluations at one point build each
        power of its coordinates once (see _walk).
        """
        return self._eval_checked(self._values(values), _table())

    def _eval_checked(self, vals: list, powers: dict) -> Series:
        """Evaluate at a point already checked by _values, in variable order."""
        return self._walk(lambda c: c, vals, mul, self.ring.zero(), add, powers)

    def eval_prec(self, values: dict) -> int:
        """The eff_prec of eval(values), from the point's precisions and orders alone.

        eval's term walk, run on (eff_prec, order floor) marks with the rule
        Series multiplication uses; the sum's precision is the least of its
        terms'.  The marks get a power table of their own, dropped on return.
        """
        n_work = self.ring.n_work

        def times(a, b):
            return product_precision(*a, *b, n_work)

        def lift(c):
            return (c.prec, c.order_floor())

        marks = [lift(v) for v in self._values(values)]
        return self._walk(lift, marks, times, n_work, lambda prec, mark: min(prec, mark[0]), {})

    def subst(self, images: dict, space_out: VarSpace) -> Poly:
        """Substitute every variable by a polynomial over space_out.

        Inside a shared_powers block, substitutions of one set of image
        objects build each power of an image once, as in eval.
        """
        imgs = []
        for nm in self.space.names:
            if nm not in images:
                raise MissingVariableError(f"no image supplied for {nm!r}")
            img = images[nm]
            if not isinstance(img, Poly) or img.ring != self.ring or img.space != space_out:
                raise StructureError(f"image of {nm!r} is not a polynomial over the target space")
            imgs.append(img)
        ring = self.ring
        return self._walk(
            lambda c: Poly.constant(ring, space_out, c), imgs, mul, Poly.zero(ring, space_out), add,
            _table(),
        )

    # -- comparison and display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.ring.field != other.ring.field or self.space != other.space:
            return False
        for exps in set(self.terms) | set(other.terms):
            a = self.terms.get(exps)
            b = other.terms.get(exps)
            if a is None:
                a = self.ring.zero()
            if b is None:
                b = other.ring.zero()
            if a != b:
                return False
        return True

    __hash__ = None

    def render(self) -> str:
        items = sorted(
            (exps[::-1], k, exps, v, coeff.den)
            for exps, coeff in self.terms.items()
            for k, v in enumerate(coeff.nums)
            if v
        )
        names = self.space.names
        return render_terms(
            (v, den, ((x_power(k),) if k else ())
             + tuple(x_power(e, nm) for nm, e in zip(names, exps) if e))
            for _, k, exps, v, den in items
        )

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()!r})"


class _Active(threading.local):
    """The power table of this thread's open shared_powers block; None when none is open."""

    powers = None


_active = _Active()


@contextmanager
def shared_powers():
    """Share powers across every eval and subst inside the block, then drop them.

    The block installs a fresh table, so nothing built outside it is read,
    and restores the outer block's table (or none) on exit.  The table is
    per thread: a threading.local, since threading is loaded anyway while
    contextvars would add its own import to every CLI run.
    """
    outer = _active.powers
    _active.powers = {}
    try:
        yield
    finally:
        _active.powers = outer


def _table() -> dict:
    """The open block's power table, or a fresh one for a single call."""
    powers = _active.powers
    return {} if powers is None else powers


def _power(powers: dict, base, e: int, times):
    """base^e, built as base^(e-1) times base.

    powers[id(base)] lists base, base^2, ... as built so far.  The list
    holds base itself, so no other object can take its id while the table
    lives: a point of equal value but another object gets a list of its own.
    """
    got = powers.get(id(base))
    if got is None:
        got = powers[id(base)] = [base]
    while len(got) < e:
        got.append(times(got[-1], base))
    return got[e - 1]


def jacobian(polys, names=None) -> PolyMatrix:
    """Matrix of partial derivatives, one row per polynomial."""
    polys = list(polys)
    if not polys:
        raise StructureError("jacobian of an empty family")
    space = polys[0].space
    names = tuple(names) if names is not None else space.names
    return PolyMatrix([[p.diff(nm) for nm in names] for p in polys])


class PolyMatrix:
    """A rectangular matrix of Poly entries sharing one ring and space."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise StructureError("matrix must be nonempty")
        width = len(rows[0])
        first = rows[0][0]
        for r in rows:
            if len(r) != width:
                raise StructureError("ragged matrix")
            for p in r:
                if not isinstance(p, Poly) or p.ring != first.ring or p.space != first.space:
                    raise StructureError("matrix entries must share one ring and space")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]))

    @property
    def ring(self):
        return self.rows[0][0].ring

    @property
    def space(self):
        return self.rows[0][0].space

    @staticmethod
    def identity(ring: SeriesRing, space: VarSpace, n: int) -> PolyMatrix:
        one = Poly.constant(ring, space, 1)
        zero = Poly.zero(ring, space)
        return PolyMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    def mul(self, other: PolyMatrix) -> PolyMatrix:
        return PolyMatrix(linalg.mat_mul(self.rows, other.rows))

    def scale(self, poly: Poly) -> PolyMatrix:
        return PolyMatrix([[poly * p for p in r] for r in self.rows])

    def det(self) -> Poly:
        m, n = self.shape
        if m != n:
            raise StructureError("determinant of a non-square matrix")
        return linalg.det(self.rows, Poly.constant(self.ring, self.space, 1))

    def eval(self, values: dict):
        """Entrywise evaluation, returning a list of lists of Series.

        The entries share one ring and space, so the point is checked once
        and every entry is walked with one power table: the open block's,
        as in Poly.eval, or a fresh one dropped on return.
        """
        vals = self.rows[0][0]._values(values)
        powers = _table()
        return [[p._eval_checked(vals, powers) for p in r] for r in self.rows]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    __hash__ = None

    def render(self) -> str:
        return "[" + ", ".join("[" + ", ".join(p.render() for p in r) + "]" for r in self.rows) + "]"

    def __repr__(self):
        return f"PolyMatrix({self.render()})"
