"""Exact scalars and truncated power series over the local ring k[x]_(x).

Elements of the valuation ring and of its completion k[[x]] are represented
by finite coefficient vectors together with an effective precision: a Series
with eff_prec = q certifies its coefficients below x^q and says nothing
beyond.  All arithmetic is exact over the chosen scalar field (rationals, or
a prime residue field) and propagates precision with the sharp valuation
rules:

    add/sub:  eff_prec = min(eff_prec(a), eff_prec(b))
    mul:      eff_prec = min(eff_prec(a) + ord(b), eff_prec(b) + ord(a), N_work)

and one fact: 1/u is known to eff_prec(u) for a unit u.  So a / b with
b = x^k * u is a / x^k, known to eff_prec(a) - k, times 1/u, known to
eff_prec(b) - k, and the mul rule certifies it to min(eff_prec(a) - k,
eff_prec(b) - 2k + ord(a), N_work): dividing by x^k loses the k digits that
multiplying by it gains.  A series that is zero at its precision has no
visible order; its order is only known to be >= eff_prec, and `order_floor`
returns that bound.  Two of these results are an operand, and are returned
as that very object with no work: a + 0 when the zero is certified at least
to eff_prec(a), and a * 1 when the 1 is certified to N_work, whose eff_prec
is then min(eff_prec(a), N_work + ord(a), N_work) = eff_prec(a).  A
difference is one pass over both operands, never a sum with a negated copy.

The working precision N_work caps every eff_prec and lives on the
SeriesRing, the only shared context object.  Series are immutable after
construction and safe to share.

A Series stores integer numerators over one positive denominator: the
coefficient of x^k is nums[k] / den.  Over Q the pair is reduced,
gcd(den, *nums) = 1; over F_p the numerators are residues in [0, p) and den
is 1.  Neither keeps trailing zeros.  A sum rescales only the side whose
denominator grows to the lcm, and a product multiplies the denominators once
a one-term factor has cancelled its numerator against the other factor's
denominator; so arithmetic never builds a field scalar, nor scales a value
up for `_make` to divide back.  Fractions appear only when coefficients are
read out, and `render_terms` prints Series and Poly text from nums / den.

A residue of a prime p < 128 fits a byte, and so does the sum of two, so
over such a field no pass reduces coefficient by coefficient with `% p`:
each prime has one cached set of 256-entry byte tables (b -> c*b mod p),
and a sum is one integer sum of the two byte strings reduced by a table, a
difference that sum with the subtrahend negated by its table, a negation or
a scaling by c one `bytes.translate`, and a product packs residues as bytes
and reads its cells through tables, as `_kmul` describes.  Q and larger
primes keep the per-coefficient passes; the results are the same residues
either way.

A product is one big-integer multiplication by Kronecker substitution (D.
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 2009), in the slot layout that `_kmul`
describes.  On top of it runs one Newton step, `_quotient`'s: an inverse
doubles by it on a = 1, and an exact quotient is a/x^oa times the inverse
of b/x^ob (R. P. Brent and H. T. Kung, "Fast algorithms for manipulating
formal power series", J. ACM 1978).  A divisor keeps the longest inverse
that a quotient has asked of it, and Newton goes on from there:
`div_exact` asks for eff_prec(b) - ord(b) digits, the most any quotient by
b can use, and `div_unit` for half the quotient's, which one more step
finishes; a unit with none kept may start from a nearby unit's (det(J) of
the previous Newton step).  A quotient mod x^m is unique and the stored
form canonical, so the results agree coefficient for coefficient with the
schoolbook recurrences.
"""

from __future__ import annotations

import sys
from array import array
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import compress, count
from math import gcd, lcm
from operator import add, sub

from .errors import (
    FieldMismatchError,
    IdentityFailedError,
    NotAUnitError,
    NotDivisibleError,
    PrecisionExhaustedError,
    StructureError,
)
from .record import Record

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

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise StructureError(f"cannot coerce {v!r} into Q")

    def from_pair(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise NotAUnitError("zero denominator")
        return Fraction(num, den)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Residue field F_p for a prime p < 2^31; scalars are ints in [0, p)."""

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

    def from_pair(self, num: int, den: int) -> int:
        den %= self.p
        if den == 0:
            raise NotAUnitError(f"division by zero in F_{self.p}")
        return num % self.p * pow(den, self.p - 2, self.p) % self.p

    def __repr__(self):
        return f"Fp({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


class SeriesRing(Record):
    """Truncated power series ring over a scalar field at working precision n_work."""

    field: object
    n_work: int = DEFAULT_PRECISION

    def __post_init__(self):
        if not isinstance(self.n_work, int) or self.n_work < 1:
            raise StructureError(f"working precision must be a positive integer, got {self.n_work!r}")

    def series(self, coeffs, prec: int | None = None) -> Series:
        """Build a series from an iterable of scalars indexed from x^0."""
        field = self.field
        vals = [field.coerce(v) for v in coeffs]
        den = 1
        if field.p is None:
            den = lcm(*[v.denominator for v in vals])
            vals = [v.numerator * (den // v.denominator) for v in vals]
        return Series._make(self, vals, self.n_work if prec is None else prec, den)

    def zero(self, prec: int | None = None) -> Series:
        return Series._make(self, (), self.n_work if prec is None else prec)

    def one(self) -> Series:
        return self.scalar(1)

    def scalar(self, v) -> Series:
        return self.series([v])

    def monomial(self, k: int, coeff=1) -> Series:
        """The series coeff * x^k at full working precision (zero when k >= n_work)."""
        if k < 0:
            raise StructureError("negative exponent")
        if k >= self.n_work:
            return self.zero()
        c = self.scalar(coeff)
        return Series._make(self, (0,) * k + c.nums, self.n_work, c.den)

    def x(self, k: int = 1) -> Series:
        return self.monomial(k)

    def parse(self, text: str) -> Series:
        from .polyring import parse_series

        return parse_series(text, self)


class Series:
    """A truncated power series: coefficients below x^prec, nothing beyond.

    The stored form is nums / den (see the module docstring); `coeffs` and
    `coeff_at` read it out as field scalars.
    """

    __slots__ = ("ring", "nums", "den", "prec", "_inv")

    def __init__(self, *args):
        raise TypeError("use SeriesRing.series/zero/monomial or Series arithmetic")

    @classmethod
    def _make(cls, ring: SeriesRing, nums, prec: int, den: int = 1) -> Series:
        """The canonical form of nums / den mod x^prec; den > 0, residues reduced over F_p."""
        prec = min(prec, ring.n_work)
        if prec < 1:
            raise PrecisionExhaustedError("series would carry no certified coefficients")
        nums = tuple(nums[:prec] if len(nums) > prec else nums)
        if nums and not nums[-1]:
            nums = _trimmed(nums)
        if den != 1:
            c = gcd(den, *nums)
            if c != 1:
                nums, den = tuple([v // c for v in nums]), den // c
        return cls._new(ring, nums, prec, den)

    @classmethod
    def _new(cls, ring: SeriesRing, nums: tuple, prec: int, den: int) -> Series:
        """The series of a stored form that is already canonical (what _make returns)."""
        obj = object.__new__(cls)
        cls.ring.__set__(obj, ring)
        cls.nums.__set__(obj, nums)
        cls.den.__set__(obj, den)
        cls.prec.__set__(obj, prec)
        return obj

    def __setattr__(self, *a):
        raise AttributeError("Series is immutable")

    # -- inspection ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients as field scalars: Fractions over Q, residues over F_p."""
        if self.ring.field.p is not None:
            return self.nums
        den = self.den
        return tuple([Fraction(v, den) for v in self.nums])

    def order(self) -> int | None:
        """Valuation, or None when the series is zero at its precision."""
        return next(compress(count(), self.nums), None)

    def order_floor(self) -> int:
        """The certified lower bound for the valuation."""
        return next(compress(count(), self.nums), self.prec)

    def is_zero(self) -> bool:
        return not self.nums

    def coeff_at(self, k: int):
        """Raw coefficient of x^k, zero beyond the stored support (k may exceed prec)."""
        v = self.nums[k] if 0 <= k < len(self.nums) else 0
        return v if self.ring.field.p is not None else Fraction(v, self.den)

    def coefficient(self, k: int):
        """Certified coefficient of x^k; raises beyond the effective precision."""
        if k >= self.prec:
            raise PrecisionExhaustedError(f"coefficient of x^{k} is beyond eff_prec {self.prec}")
        return self.coeff_at(k)

    def __len__(self):
        return len(self.nums)

    # -- arithmetic ---------------------------------------------------

    def _compat(self, other: Series):
        if self.ring is not other.ring and self.ring != other.ring:
            raise FieldMismatchError(f"mixed series rings {self.ring} and {other.ring}")

    def _plus(self, other, op):
        """self + other (op add) or self - other (op sub), in one pass.

        A zero that is certified at least as far as the other side adds
        nothing, so that side is the exact result.
        """
        if not isinstance(other, Series):
            return NotImplemented
        self._compat(other)
        if not other.nums and other.prec >= self.prec:
            return self
        if op is add and not self.nums and self.prec >= other.prec:
            return other
        prec = min(self.prec, other.prec)
        a, b = self.nums[:prec], other.nums[:prec]
        den = da = self.den
        db = other.den
        if da != db:
            den = lcm(da, db)
            if den != da:
                a = [v * (den // da) for v in a]
            if den != db:
                b = [v * (den // db) for v in b]
        return Series._make(self.ring, _combined(a, b, op, self.ring.field.p), prec, den)

    def __add__(self, other):
        return self._plus(other, add)

    def __sub__(self, other):
        return self._plus(other, sub)

    def __neg__(self):
        # -v is 0 exactly where v is, and gcd(den, *nums) is the same: the pair stays canonical
        return Series._new(self.ring, tuple(_negated(self.nums, self.ring.field.p)), self.prec, self.den)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._compat(other)
        ring = self.ring
        # 1 certified to n_work: the product is the other factor (module docstring)
        n = ring.n_work
        if other.nums == (1,) and other.den == 1 and other.prec == n:
            return self
        if self.nums == (1,) and self.den == 1 and self.prec == n:
            return other
        fa, fb = self.order_floor(), other.order_floor()
        prec, shift = product_precision(self.prec, fa, other.prec, fb, ring.n_work)
        if shift >= prec:
            return Series._make(ring, (), prec)
        m = min(prec, len(self.nums) + len(other.nums) - 1) - shift
        a = self.nums[fa:fa + m]
        b = a if other is self else other.nums[fb:fb + m]
        da, db = self.den, other.den
        # c * b/db over da: cancel gcd(c, db) first, so nothing is scaled up to come back out
        if len(b) == 1 and da != 1:
            a, b, da, db = b, a, db, da
        if len(a) == 1 and db != 1:
            c = gcd(a[0], db)
            if c != 1:
                a, db = (a[0] // c,), db // c
        out = _kmul(a, b, m, ring.field.p)
        out[:0] = [0] * shift
        return Series._make(ring, out, prec, da * db)

    def inv_unit(self) -> Series:
        """Inverse of a unit (order exactly 0), to its precision; never kept on self."""
        if self.order() != 0:
            raise NotAUnitError("series has positive order, cannot invert")
        # 1 / (a/da) = da * g/dg with g/dg = 1/a
        g, dg = _inverse(self.nums, self.prec, self.ring.field.p)
        if self.den != 1:
            g = [v * self.den for v in g]
        return Series._make(self.ring, g, self.prec, dg)

    def _kept_inverse(self, n: int, ob: int = 0, near: Series | None = None) -> tuple[list, int]:
        """(g, den) with g/den = 1/nums[ob:] mod x^n, ob = ord(self).

        self keeps the longest inverse asked of it, as (g, den, length), and
        Newton goes on from it.  With none kept, the unit near lends its own,
        cut to h0 = ord(self - near); a cut that covers n is not kept, so
        every kept inverse was built by _inverse, which checks its start.
        """
        p = self.ring.field.p
        start = getattr(self, "_inv", None)
        if start is not None and start[2] >= n:
            return start[:2]
        if start is None and getattr(near, "_inv", None) is not None:
            g, den, length = near._inv
            h0 = min((self - near).order_floor(), length, n)
            if h0:
                g = _trimmed(g[:h0])
                if p is None:
                    # 1/(U/du) = 1/(N/dn) mod x^h0, so 1/U = dn * (g/den) / du there
                    if near.den != 1:
                        g = [v * near.den for v in g]
                    den *= self.den
                    c = gcd(den, *g)
                    if c != 1:
                        g, den = [v // c for v in g], den // c
                if h0 == n:
                    return g, den
                start = (g, den, h0)
        g, den = _inverse(_trimmed(self.nums[ob:ob + n]), n, p, start)
        object.__setattr__(self, "_inv", (g, den, n))
        return g, den

    def div_unit(self, unit: Series, near: Series | None = None) -> Series:
        """self / unit, stored as self * unit.inv_unit() stores it.

        The m digits past ord(self) need 1/unit mod x^ceil(m/2) and one
        correction (_quotient).  near, a unit that has served as a divisor,
        lends its inverse as a start (see _kept_inverse).
        """
        for u in (unit,) if near is None else (unit, near):
            if not isinstance(u, Series):
                raise TypeError("div_unit expects a Series unit and near")
            self._compat(u)
            if u.order() != 0:
                raise NotAUnitError("a divisor or near of positive order is not a unit")
        ring = self.ring
        fa = self.order_floor()
        prec, shift = product_precision(self.prec, fa, unit.prec, 0, ring.n_work)
        if shift >= prec:
            return Series._make(ring, (), prec)
        m = prec - shift
        h, p = (m + 1) // 2, ring.field.p
        g, den = unit._kept_inverse(h, near=near)
        a = self.nums[fa:fa + m]
        q, dq = _quotient(a, unit.nums, _kmul(a, g, h, p), g, den, m, p)
        if unit.den != 1:
            q = [v * unit.den for v in q]
        return Series._make(ring, [0] * shift + q, prec, self.den * dq)

    def div_exact(self, other: Series) -> Series:
        """Exact quotient self / other = (self / x^ob) * (1/u) for other = x^ob * u, by the mul rule."""
        if not isinstance(other, Series):
            raise TypeError("div_exact expects a Series")
        self._compat(other)
        ring = self.ring
        ob = other.order()
        if ob is None:
            raise NotDivisibleError("divisor vanishes at its precision")
        fa = self.order_floor()
        if self.nums and fa < ob:
            raise NotDivisibleError(f"dividend order {fa} below divisor order {ob}")
        prec, shift = product_precision(self.prec - ob, fa - ob, other.prec - ob, 0, ring.n_work)
        if prec < 1:
            raise PrecisionExhaustedError("quotient would carry no certified coefficients")
        if shift >= prec:
            return Series._make(ring, (), prec)
        m = prec - shift
        # (a/da) / (b/db) = a * g * db / (da * dg) with g/dg = 1/u
        g, dg = other._kept_inverse(other.prec - ob, ob)
        q = _kmul(self.nums[fa:fa + m], g, m, ring.field.p)
        if other.den != 1:
            q = [v * other.den for v in q]
        return Series._make(ring, [0] * shift + q, prec, self.den * dg)

    def truncate(self, prec: int) -> Series:
        """View of the series at lower precision (display / congruence checks)."""
        if prec >= self.prec:
            return self
        return Series._make(self.ring, self.nums[:prec], prec, self.den)

    # -- comparison and display ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring.field != other.ring.field:
            return False
        m = min(self.prec, other.prec)
        a, b = _trimmed(self.nums[:m]), _trimmed(other.nums[:m])
        if len(a) != len(b):
            return False
        da, db = self.den, other.den
        if da == db:
            return a == b
        return all(x * db == y * da for x, y in zip(a, b))

    __hash__ = None

    def render(self, show_prec: bool = False) -> str:
        den = self.den
        text = render_terms(
            (v, den, (x_power(k),) if k else ()) for k, v in enumerate(self.nums) if v
        )
        if not show_prec:
            return text
        return f"{text} + O(x^{self.prec})" if self.nums else f"O(x^{self.prec})"

    def __str__(self):
        return self.render(show_prec=True)

    def __repr__(self):
        return f"Series({self.render(show_prec=True)!r})"


def x_power(k: int, name: str = "x") -> str:
    """The factor name^k of a printed term, for k >= 1."""
    return name if k == 1 else f"{name}^{k}"


def digits(k: int) -> str:
    """k in decimal, exactly at any length; str(k) stops at Python's int/str digit limit."""
    return str(Decimal(k))


def render_terms(terms) -> str:
    """The canonical text of a sum of (num, den, factors) terms, num != 0 < den.

    Coefficients print as reduced fractions, with no "1*" before a factor;
    the first term carries a bare "-", later ones join by " + " or " - ", and
    no terms print as "0".  Residues (den 1) print as they are, never signed.
    """
    parts = []
    for num, den, factors in terms:
        if den != 1:
            c = gcd(num, den)
            num, den = num // c, den // c
        mag = -num if num < 0 else num
        coeff = digits(mag) if den == 1 else f"{digits(mag)}/{digits(den)}"
        body = "*".join(factors if factors and coeff == "1" else (coeff, *factors))
        if parts:
            parts.append((" - " if num < 0 else " + ") + body)
        else:
            parts.append("-" + body if num < 0 else body)
    return "".join(parts) if parts else "0"


def product_precision(pa: int, fa: int, pb: int, fb: int, n_work: int) -> tuple[int, int]:
    """(eff_prec, order floor) of a product, from each factor's eff_prec and order floor.

    The mul rule of the module docstring.  The product of two series visible
    at their precisions has order fa + fb, since the field has no zero
    divisors; it is zero at its precision when fa + fb reaches that precision.
    The floor needs no clamp at prec: pa >= fa and pb >= fb, so fa + fb > prec
    only when prec = n_work.  Series.__mul__ then returns zero (shift >= prec
    either way), and in Poly.eval_prec a mark with floor >= n_work, clamped or
    not, gives each product it enters precision n_work and such a floor again.
    """
    prec = min(pa + fb, pb + fa, n_work)
    return prec, fa + fb


def _negated(nums, p):
    """-v for each v; over F_p (p not None) residues stay in [0, p), as bytes when p < 128."""
    if p is not None and p < _TABLE_PRIMES:
        return bytes(nums).translate(_tables(p)[p - 1])
    return [-v for v in nums] if p is None else [v and p - v for v in nums]


def _scaled(nums, c, p) -> list:
    """c*v for each v; over F_p c is a residue, and so is each result (by c's table when p < 128)."""
    if p is None:
        return [c * v for v in nums]
    if p < _TABLE_PRIMES:
        return list(bytes(nums).translate(_tables(p)[c]))
    return [c * v % p for v in nums]


def _combined(a, b, op, p):
    """a + b (op add) or a - b (op sub) coefficientwise, as long as the longer vector.

    Over F_p with p < 128 both are residue bytes, and so is the result: b is
    negated by its table for a difference, and as 2(p - 1) < 256 no byte of
    the sum of the two byte strings, read as integers, carries into the
    next; one table then reduces each byte.
    """
    if p is not None and p < _TABLE_PRIMES:
        if op is sub:
            b = _negated(b, p)
        total = int.from_bytes(bytes(a), "little") + int.from_bytes(bytes(b), "little")
        return total.to_bytes(max(len(a), len(b)), "little").translate(_tables(p)[1])
    out = list(map(op, a, b)) if p is None else [v % p for v in map(op, a, b)]
    n = len(out)
    if len(a) > n:
        out += a[n:]
    else:
        out += b[n:] if op is add else _negated(b[n:], p)
    return out


def _trimmed(nums: tuple) -> tuple:
    """nums without its trailing zeros."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    return nums[:n]


# -- residue bytes --------------------------------------------------------

# residues of a prime below this fit a byte, and so does the sum of two
_TABLE_PRIMES = 128


@cache
def _tables(p: int) -> tuple:
    """The byte tables of a prime p < 128: entry c maps each byte b to c*b mod p.

    Entry 1 reduces a byte mod p and entry p - 1 negates a residue; each is
    the row c*i mod p, i < p, repeated to 256 bytes, as bytes.translate
    reads a table.
    """
    return tuple([(bytes([c * i % p for i in range(p)]) * (256 // p + 1))[:256] for c in range(p)])


def _residues(raw: bytes, w: int, p: int) -> bytes:
    """Each w-byte little-endian cell of raw mod p, for w*(p - 1) < 256.

    Byte j of a cell is worth b*256^j, which its table takes to
    b*(256^j mod p) mod p; the w results of a cell sum to at most
    w*(p - 1) < 256, so the w strided byte strings add as integers with no
    carry between cells, and one more table reduces each sum.
    """
    t = _tables(p)
    if w == 1:
        return raw.translate(t[1])
    total = 0
    for j in range(w):
        total += int.from_bytes(raw[j::w].translate(t[pow(256, j, p)]), "little")
    return total.to_bytes(len(raw) // w, "little").translate(t[1])


# -- the integer-vector kernel -------------------------------------------

# array type codes by item size; upper case is the unsigned twin
_CODES = {array(c).itemsize: c for c in "bhilq"}


def _little(cells: array) -> array:
    """The cells in little-endian byte order, which the slot layout assumes."""
    if sys.byteorder == "big":
        cells.byteswap()
    return cells


def _pack(v, w: int, p, ones: int) -> int:
    """sum(v[i] << 8*w*i) for integers that fit a w-byte slot of `_kmul`'s layout.

    Q numerators (p None) are signed: a negative value leaves 2^(8*w) in its
    slot; its sign bit, gathered by ones (1 at the bottom of every slot),
    takes that back in one subtraction.  A residue of p < 128 is a byte, and
    is written to the bottom byte of its slot.
    """
    signed = p is None
    if not signed and p < _TABLE_PRIMES:
        buf = cells = bytes(v)
        if w > 1:
            buf = bytearray(w * len(v))
            buf[::w] = cells
    elif w <= 8:
        buf = _little(array(_CODES[w] if signed else _CODES[w].upper(), v)).tobytes()
    elif signed:
        buf = b"".join([x.to_bytes(w, "little", signed=True) for x in v])
    else:
        cells = _little(array(_CODES[4].upper(), v)).tobytes()
        buf = bytearray(w * len(v))
        for j in range(4):
            buf[j::w] = cells[j::4]
    total = int.from_bytes(buf, "little")
    if signed:
        total -= (total >> (8 * w - 1) & ones) << 8 * w
    return total


def _kmul(a, b, m: int, p) -> list:
    """The first m coefficients of the product of two integer vectors.

    Kronecker substitution: each vector becomes one integer, with a slot per
    coefficient wide enough for any product coefficient (plus a sign bit
    over Q, when p is None), and one big-integer product does all the work.
    A slot is one of three kinds.  One of at most 8 bytes is rounded up to
    1, 2, 4 or 8 bytes and is one array cell, or, for a residue of p < 128,
    its bottom byte.  A wider F_p slot is exactly
    as many bytes as it needs and is moved by strided copies with no call
    per coefficient: residues (p < 2^31) go in as 4-byte cells spread to the
    slot width, and each product slot comes out as two 8-byte cells, bytes
    0..7 and 8..w-1, and lo + hi * (2^64 mod p) is reduced mod p; w <= 16
    holds for any length below 2^66.  A wider Q slot is plain bytes,
    written by int.to_bytes and read by int.from_bytes.  Q numerators are
    signed, so they go in as two's complement digits, and each product slot
    is offset by half its range, so the slots separate without borrows; the
    offset is then flipped away.  F_p residues are non-negative and need
    neither, and the result holds residues too: a cell of w <= 8 bytes is
    reduced through p's byte tables when w*(p - 1) < 256, which holds only
    for p < 128 (`_residues`), and by `% p` otherwise.  A factor with one
    coefficient just scales the other, with no packing, so a packed vector
    always has at least two coefficients; a factor of 1 is a copy.
    """
    same = a is b
    a = a[:m]
    b = a if same else b[:m]
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        out = list(b) if a[0] == 1 else _scaled(b, a[0], p)
        out += [0] * (m - len(out))
        return out
    signed = p is None
    # residues lie in [0, p), so p - 1 bounds them with no scan
    ta, tb = (max(map(abs, a)), max(map(abs, b))) if signed else (p - 1, p - 1)
    bits = ta.bit_length() + tb.bit_length() + min(len(a), len(b)).bit_length() + signed
    w = (bits + 7) // 8
    if w <= 8:
        w = 1 << (w - 1).bit_length()
    ones = int.from_bytes((b"\x01" + bytes(w - 1)) * m, "little") if signed else 0
    packed = _pack(a, w, p, ones)
    low = packed * (packed if same else _pack(b, w, p, ones))
    mask = (1 << 8 * w * m) - 1
    if signed:
        half = ones << 8 * w - 1
        low = (low + half) & mask ^ half
    else:
        low &= mask
    raw = low.to_bytes(w * m, "little")
    if w <= 8:
        if not signed and p < _TABLE_PRIMES and w * (p - 1) < 256:
            return list(_residues(raw, w, p))
        out = _little(array(_CODES[w] if signed else _CODES[w].upper(), raw)).tolist()
        return out if signed else [v % p for v in out]
    if signed:
        read = int.from_bytes
        return [read(raw[i:i + w], "little", signed=True) for i in range(0, w * m, w)]
    # bytes 0..7 and 8..w-1 of every slot, as two arrays of 8-byte cells:
    # hi gathers the top bytes, lo deletes them (each del narrows every slot)
    lo, hi = bytearray(raw), bytearray(8 * m)
    for j in range(8, w):
        hi[j - 8::8] = raw[j::w]
    for s in range(w, 8, -1):
        del lo[8::s]
    c = (1 << 64) % p
    code = _CODES[8].upper()
    return [(x + y * c) % p for x, y in zip(_little(array(code, lo)), _little(array(code, hi)))]


def _inverse(b, n: int, p, start=None) -> tuple[list, int]:
    """(g, den) with g/den = 1/b mod x^n for an integer vector b with b[0] a unit.

    Newton doubling: each step is _quotient's on a = 1, whose q0 is g, so
    every step checks b*g = den mod x^h.  start = (g, den, h), 0 < h < n, is
    an inverse mod x^h (g may stop short of h): a shorter inverse of b, or
    that of a unit agreeing with b that far; without one, g/den = 1/b[0].
    The precisions run top-down: the targets n, ceil(n/2), ceil(n/4), ...
    that exceed the start's length are taken in rising order, so each step
    at most doubles and the last lands on n (never 128 -> 132 after
    64 -> 128).  The inverse mod x^n is unique, so start and schedule change
    no result, and g comes back without trailing zeros.  Over Q (p None)
    den > 0 and the content is divided out at every step, or den would
    square the denominators of all of b's coefficients at each doubling.
    Over F_p den is 1 from the start and every vector holds residues.  A
    one-term b with no start is inverted by its first iterate, which stays
    one term, so a product by it is a scaling.
    """
    h = n if len(b) == 1 else 1
    if start is not None:
        g, den, h = start
    elif p is not None:
        g, den = [pow(b[0], -1, p)], 1
    else:
        g, den = ([1], b[0]) if b[0] > 0 else ([-1], -b[0])
    targets = []
    k = n
    while k > h:
        targets.append(k)
        k = (k + 1) // 2
    for k in reversed(targets):
        g, den = _quotient((1,), b, g + [0] * (h - len(g)), g, den, k, p)
        if p is None:
            c = gcd(den, *g)
            if c != 1:
                g, den = [v // c for v in g], den // c
        h = k
    return _trimmed(g), den


def _quotient(a, b, q0, g, den: int, m: int, p) -> tuple[list, int]:
    """(q, dq) with q/dq = a/b mod x^m, from q0/den = a/b and g/den = 1/b mod x^h.

    h = len(q0), m - h <= h, and a[0] and b[0] are nonzero.  This is the
    one Newton step of the module, written as a Karp-Markstein correction
    (A. H. Karp and P. Markstein, "High-precision division and square
    root", ACM TOMS 23(4), 1997): the remainder e/den = a - b*q0/den
    vanishes mod x^h, and a/b = q0/den + x^h * (g/den) * (e/den)/x^h mod
    x^m needs g only mod x^(m-h).  Past a's own digits the remainder is
    -b*q0, so a = 1 is padded to h digits, not m, and residues already in
    range are not reduced.  Callers form q0 = a*g mod x^h, so as a is a
    unit, b*q0 = a*den holds mod x^h exactly when b*g = den does there;
    otherwise IdentityFailedError.  On a = 1, with q0 = g, the step is
    Newton doubling g <- g*(2 - b*g/den) for 1/b (Brent and Kung).  Over
    F_p den is 1.
    """
    h = len(q0)
    bq = _kmul(b, q0, m, p)
    a = list(a[:m]) if den == 1 else [den * v for v in a[:m]]
    a += [0] * (h - len(a))
    if a[:h] != bq[:h]:
        raise IdentityFailedError(f"the inverse of a quotient's divisor is not exact mod x^{h}")
    if m == h:
        return q0, den
    t = _kmul(g, _combined(a[h:], bq[h:], sub, p), m - h, p)
    if den != 1:
        q0 = [v * den for v in q0]
    return q0 + t, den * den
