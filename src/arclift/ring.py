"""Exact scalars and truncated power series over the local ring k[x]_(x).

Elements of the valuation ring and of its completion k[[x]] are represented
by finite coefficient vectors together with an effective precision: a Series
with eff_prec = q certifies its coefficients below x^q and says nothing
beyond.  All arithmetic is exact over the chosen scalar field (rationals, or
a prime residue field) and propagates precision with the sharp valuation
rules:

    add/sub:  eff_prec = min(eff_prec(a), eff_prec(b))
    mul:      eff_prec = min(eff_prec(a) + ord(b), eff_prec(b) + ord(a), N_work)
    div:      eff_prec = min(eff_prec(a) - ord(b),
                             eff_prec(b) - 2*ord(b) + ord(a), N_work)

so multiplying by x^k gains k certified digits while dividing by x^k loses
them.  A series that is zero at its precision has no visible order; its
order is only known to be >= eff_prec, and `order_floor` returns that bound.

The working precision N_work caps every eff_prec and lives on the
SeriesRing, the only shared context object.  Series are immutable after
construction and safe to share.

Products, inverses and quotients run on integer vectors, the same way for
both fields: a coefficient vector becomes integer numerators over one common
denominator (the lcm of the denominators over Q, 1 over F_p).  A product is
one big-integer multiplication by Kronecker substitution (D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J. Symbolic
Comput. 2009).  The inverse of a unit is Newton doubling g <- g*(2 - a*g) on
top of that product, and an exact quotient is a/x^oa times the inverse of
b/x^ob (R. P. Brent and H. T. Kung, "Fast algorithms for manipulating formal
power series", J. ACM 1978).  The results are exact, so they agree
coefficient for coefficient with the schoolbook recurrences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    FieldMismatchError,
    NotAUnitError,
    NotDivisibleError,
    PrecisionExhaustedError,
    StructureError,
)

DEFAULT_PRECISION = 40

_MAX_PRIME = 2**31


def _is_prime(p: int) -> bool:
    # deterministic Miller-Rabin; bases 2,3,5,7 suffice below 3.2e9
    if p < 2:
        return False
    for q in (2, 3, 5, 7):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        v = pow(a, d, p)
        if v in (1, p - 1):
            continue
        for _ in range(s - 1):
            v = v * v % p
            if v == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of exact rationals; scalars are fractions.Fraction."""

    p = None
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise StructureError(f"cannot coerce {v!r} into Q")

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def from_pair(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise NotAUnitError("zero denominator")
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise NotAUnitError("division by zero in Q")
        return 1 / a

    def is_zero(self, a) -> bool:
        return not a

    def split_sign(self, a):
        return (a < 0, -a if a < 0 else a)

    def render(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Residue field F_p for a prime p < 2^31; scalars are ints in [0, p)."""

    name = "Fp"

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p < _MAX_PRIME):
            raise StructureError(f"modulus must be an integer in [2, 2^31), got {p!r}")
        if not _is_prime(p):
            raise StructureError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v):
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            return self.from_pair(v.numerator, v.denominator)
        raise StructureError(f"cannot coerce {v!r} into F_{self.p}")

    def from_int(self, k: int) -> int:
        return k % self.p

    def from_pair(self, num: int, den: int) -> int:
        return num % self.p * self.inv(den % self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise NotAUnitError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def split_sign(self, a):
        # residues are printed canonically, never with a sign
        return (False, a)

    def render(self, a) -> str:
        return str(a)

    def __repr__(self):
        return f"Fp({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


@dataclass(frozen=True)
class SeriesRing:
    """Truncated power series ring over a scalar field at working precision n_work."""

    field: object
    n_work: int = DEFAULT_PRECISION

    def __post_init__(self):
        if not isinstance(self.n_work, int) or self.n_work < 1:
            raise StructureError(f"working precision must be a positive integer, got {self.n_work!r}")

    def series(self, coeffs, prec: int | None = None) -> Series:
        """Build a series from an iterable of scalars indexed from x^0."""
        if prec is None:
            prec = self.n_work
        return Series._make(self, [self.field.coerce(v) for v in coeffs], prec)

    def zero(self, prec: int | None = None) -> Series:
        return Series._make(self, [], self.n_work if prec is None else prec)

    def one(self) -> Series:
        return self.scalar(1)

    def scalar(self, v) -> Series:
        return self.series([v])

    def monomial(self, k: int, coeff=1) -> Series:
        """The series coeff * x^k at full working precision."""
        if k < 0:
            raise StructureError("negative exponent")
        return self.series([0] * k + [coeff])

    def x(self, k: int = 1) -> Series:
        return self.monomial(k)

    def parse(self, text: str) -> Series:
        from .polyring import parse_series

        return parse_series(text, self)


class Series:
    """A truncated power series: coefficients below x^prec, nothing beyond."""

    __slots__ = ("ring", "coeffs", "prec")

    def __init__(self, *args):
        raise TypeError("use SeriesRing.series/zero/monomial or Series arithmetic")

    @classmethod
    def _make(cls, ring: SeriesRing, coeffs, prec: int) -> Series:
        prec = min(prec, ring.n_work)
        if prec < 1:
            raise PrecisionExhaustedError("series would carry no certified coefficients")
        if len(coeffs) > prec:
            coeffs = coeffs[:prec]
        n = len(coeffs)
        while n and ring.field.is_zero(coeffs[n - 1]):
            n -= 1
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "coeffs", tuple(coeffs[:n]))
        object.__setattr__(obj, "prec", prec)
        return obj

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    # -- inspection ---------------------------------------------------

    def order(self) -> int | None:
        """Valuation, or None when the series is zero at its precision."""
        for k, v in enumerate(self.coeffs):
            if not self.ring.field.is_zero(v):
                return k
        return None

    def order_floor(self) -> int:
        """The certified lower bound for the valuation."""
        o = self.order()
        return self.prec if o is None else o

    def is_zero(self) -> bool:
        return self.order() is None

    def coeff_at(self, k: int):
        """Raw coefficient of x^k, zero beyond the stored support (k may exceed prec)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.field.zero

    def coefficient(self, k: int):
        """Certified coefficient of x^k; raises beyond the effective precision."""
        if k >= self.prec:
            raise PrecisionExhaustedError(f"coefficient of x^{k} is beyond eff_prec {self.prec}")
        return self.coeff_at(k)

    def __len__(self):
        return len(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def _compat(self, other: Series):
        if self.ring != other.ring:
            raise FieldMismatchError(f"mixed series rings {self.ring} and {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._compat(other)
        prec = min(self.prec, other.prec)
        field = self.ring.field
        a, b = self.coeffs[:prec], other.coeffs[:prec]
        if len(a) < len(b):
            a, b = b, a
        # products leave many zero slots; adding a zero only copies
        out = [field.add(x, y) if y else x for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return Series._make(self.ring, out, prec)

    def __neg__(self):
        field = self.ring.field
        return Series._make(self.ring, [field.neg(v) for v in self.coeffs], self.prec)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._compat(other)
        ring = self.ring
        oa, ob = self.order(), other.order()
        fa = self.prec if oa is None else oa
        fb = other.prec if ob is None else ob
        prec = min(self.prec + fb, other.prec + fa, ring.n_work)
        if oa is None or ob is None:
            return Series._make(ring, [], prec)
        field = ring.field
        shift = oa + ob
        m = min(prec, len(self.coeffs) + len(other.coeffs) - 1) - shift
        if m < 1:
            return Series._make(ring, [], prec)
        a, da = _ints(field, self.coeffs[oa:oa + m])
        b, db = _ints(field, other.coeffs[ob:ob + m])
        out = _scalars(field, _kmul(a, b, m), da * db)
        return Series._make(ring, [field.zero] * shift + out, prec)

    def inv_unit(self) -> Series:
        """Inverse of a unit (order exactly 0); precision is preserved."""
        if self.order() != 0:
            raise NotAUnitError("series has positive order, cannot invert")
        field = self.ring.field
        a, da = _ints(field, self.coeffs)
        g, dg = _inverse(a, self.prec, field.p)
        return Series._make(self.ring, _scalars(field, [v * da for v in g], dg), self.prec)

    def div_exact(self, other: Series) -> Series:
        """Exact quotient self / other; dividing by x^k costs k digits of precision."""
        if not isinstance(other, Series):
            raise TypeError("div_exact expects a Series")
        self._compat(other)
        ring = self.ring
        field = ring.field
        ob = other.order()
        if ob is None:
            raise NotDivisibleError("divisor vanishes at its precision")
        oa = self.order()
        if oa is None:
            qprec = min(self.prec - ob, ring.n_work)
            if qprec < 1:
                raise PrecisionExhaustedError("quotient would carry no certified coefficients")
            return Series._make(ring, [], qprec)
        if oa < ob:
            raise NotDivisibleError(f"dividend order {oa} below divisor order {ob}")
        qprec = min(self.prec - ob, other.prec - 2 * ob + oa, ring.n_work)
        if qprec < 1:
            raise PrecisionExhaustedError("quotient would carry no certified coefficients")
        shift = oa - ob
        m = qprec - shift
        a, da = _ints(field, self.coeffs[oa:oa + m])
        b, db = _ints(field, other.coeffs[ob:ob + m])
        g, dg = _inverse(b, m, field.p)
        q = _scalars(field, [v * db for v in _kmul(a, g, m)], da * dg)
        return Series._make(ring, [field.zero] * shift + q, qprec)

    def truncate(self, prec: int) -> Series:
        """View of the series at lower precision (display / congruence checks)."""
        if prec >= self.prec:
            return self
        return Series._make(self.ring, list(self.coeffs[:prec]), prec)

    # -- comparison and display ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring.field != other.ring.field:
            return False
        m = min(self.prec, other.prec)
        f = self.ring.field
        for k in range(min(m, max(len(self.coeffs), len(other.coeffs)))):
            if self.coeff_at(k) != other.coeff_at(k) and not (
                f.is_zero(self.coeff_at(k)) and f.is_zero(other.coeff_at(k))
            ):
                return False
        return True

    __hash__ = None

    def render(self, show_prec: bool = False) -> str:
        field = self.ring.field
        parts = []
        for k, v in enumerate(self.coeffs):
            if field.is_zero(v):
                continue
            neg, mag = field.split_sign(v)
            if k == 0:
                body = field.render(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if mag == field.one else f"{field.render(mag)}*{xs}"
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        if not parts:
            return f"O(x^{self.prec})" if show_prec else "0"
        text = "".join(parts)
        if show_prec:
            text += f" + O(x^{self.prec})"
        return text

    def __str__(self):
        return self.render(show_prec=True)

    def __repr__(self):
        return f"Series({self.render(show_prec=True)!r})"


# -- the integer-vector kernel -------------------------------------------


def _ints(field, coeffs) -> tuple[list, int]:
    """Integer numerators and one positive common denominator of field scalars."""
    if field.p is not None:
        return list(coeffs), 1
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _scalars(field, ints, den: int) -> list:
    """The field scalars v/den for the integers v; den must be a unit of the field."""
    if field.p is None:
        zero = field.zero
        return [Fraction(v, den) if v else zero for v in ints]
    p = field.p
    inv = field.inv(den)
    return [v * inv % p for v in ints]


def _kmul(a, b, m: int) -> list:
    """The first m coefficients of the product of two integer vectors.

    Kronecker substitution: each vector becomes one integer, with a slot wide
    enough for any product coefficient plus a sign bit, and one big-integer
    product does all the work.  Every slot carries an offset of half its
    range, so signed digits pack and unpack through bytes without borrows.
    """
    a, b = a[:m], b[:m]
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)
    slot = bytes(width - 1) + b"\x80"

    def pack(v):
        raw = b"".join((c + half).to_bytes(width, "little") for c in v)
        return int.from_bytes(raw, "little") - int.from_bytes(slot * len(v), "little")

    low = pack(a) * pack(b) + int.from_bytes(slot * m, "little")
    raw = (low & ((1 << (8 * width * m)) - 1)).to_bytes(width * m, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, width * m, width)]


def _inverse(b, n: int, p) -> tuple[list, int]:
    """(g, den) with g/den = 1/b mod x^n for an integer vector b with b[0] a unit.

    Newton doubling: from b*g = den + x^h*r (mod x^2h), the next iterate
    g*(2 - b*g/den) is (den*g - x^h*g*r) / den^2.  Over Q the content is
    divided out at every step, or den would square the denominators of all
    of b's coefficients at each doubling; over F_p (p not None) every vector
    is reduced mod p, so den stays a residue.
    """
    g, den, h = [1], b[0], 1
    while h < n:
        k = min(2 * h, n)
        r = _kmul(b, g, k)[h:]
        g = [v * den for v in g] + [-v for v in _kmul(g, r, k - h)]
        den *= den
        if p is None:
            c = gcd(den, *g)
            g, den = [v // c for v in g], den // c
        else:
            g, den = [v % p for v in g], den % p
        h = k
    return g, den
