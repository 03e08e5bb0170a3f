"""Series arithmetic by the full pipeline, kept as a test reference.

This is the arithmetic the package used before a sum with a covering zero
and a product by 1 returned the other operand, and before a difference
stopped building the negated subtrahend: every result is sliced, scaled to
one denominator, combined and put through Series._make.  Residues are
reduced by `% p`, one coefficient at a time, and products and quotients
use none of the package's kernel, so nothing here runs through the byte
tables that the package reduces small residues with.  Tests compare the
package's results with these in stored form (nums, den, prec).
"""

from math import lcm
from operator import add

from arclift.ring import Series, product_precision


def plus(a, b):
    """a + b, scaled to the lcm of the denominators and canonicalised."""
    prec = min(a.prec, b.prec)
    x, y = a.nums[:prec], b.nums[:prec]
    den = da = a.den
    db = b.den
    if da != db:
        den = lcm(da, db)
        x = [v * (den // da) for v in x]
        y = [v * (den // db) for v in y]
    if len(x) < len(y):
        x, y = y, x
    p = a.ring.field.p
    out = list(map(add, x, y)) if p is None else [v % p for v in map(add, x, y)]
    out += x[len(y):]
    return Series._make(a.ring, out, prec, den)


def negate(a):
    """-a, canonicalised."""
    p = a.ring.field.p
    return Series._make(a.ring, [-v if p is None else -v % p for v in a.nums], a.prec, a.den)


def minus(a, b):
    """a - b as a + (-b)."""
    return plus(a, negate(b))


def _convolve(x, y, m, p):
    """The first m coefficients of the product of two integer vectors.

    Over Q (p None) by the schoolbook sum; over F_p by one product of the
    vectors packed in slots of s bytes, where 8s bits hold any sum of m
    products of two residues, each slot read and reduced on its own.
    """
    if p is None:
        out = [0] * m
        for i, u in enumerate(x[:m]):
            for j, v in enumerate(y[:m - i]):
                out[i + j] += u * v
        return out
    s = (2 * (p - 1).bit_length() + m.bit_length() + 7) // 8

    def packed(v):
        return int.from_bytes(b"".join([c.to_bytes(s, "little") for c in v[:m]]), "little")

    raw = (packed(x) * packed(y)).to_bytes(2 * s * m, "little")
    return [int.from_bytes(raw[s * k:s * k + s], "little") % p for k in range(m)]


def times(a, b):
    """a * b by the mul rule and one convolution, whatever the factors."""
    ring = a.ring
    oa, ob = a.order(), b.order()
    fa = a.prec if oa is None else oa
    fb = b.prec if ob is None else ob
    prec, shift = product_precision(a.prec, fa, b.prec, fb, ring.n_work)
    if shift >= prec:
        return Series._make(ring, (), prec)
    m = min(prec, len(a.nums) + len(b.nums) - 1) - shift
    out = _convolve(a.nums[fa:], b.nums[fb:], m, ring.field.p)
    return Series._make(ring, [0] * shift + out, prec, a.den * b.den)


def quotient(a, b):
    """a / b for b = x^ob * u, by the schoolbook recurrence q_k = (a_k - sum_(i<k) q_i u_(k-i)) / u_0.

    At the mul rule's precision on a/x^ob and 1/u, as `div_exact` takes it
    and `div_unit` (ob = 0) too.
    """
    ring = a.ring
    field = ring.field
    ob = b.order()
    fa = a.order_floor()
    prec, shift = product_precision(a.prec - ob, fa - ob, b.prec - ob, 0, ring.n_work)
    if shift >= prec:
        return Series._make(ring, (), prec)
    num, den = a.coeffs[fa:], b.coeffs[ob:]
    inv0 = 1 / den[0] if field.p is None else pow(den[0], -1, field.p)
    q = []
    for k in range(prec - shift):
        s = num[k] if k < len(num) else field.zero
        for i in range(max(0, k - len(den) + 1), k):
            s -= q[i] * den[k - i]
        q.append(field.coerce(s * inv0))
    return ring.series([0] * shift + q, prec)
