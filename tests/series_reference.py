"""Series sum, difference and product by the full pipeline, kept as a test reference.

This is the arithmetic the package used before a sum with a covering zero
and a product by 1 returned the other operand, and before a difference
stopped building the negated subtrahend: every result is sliced, scaled to
one denominator, combined and put through Series._make.  Tests compare the
package's results with these in stored form (nums, den, prec).
"""

from math import lcm
from operator import add

from arclift.ring import Series, _kmul, product_precision


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


def minus(a, b):
    """a - b as a + (-b)."""
    return plus(a, -b)


def times(a, b):
    """a * b by the mul rule and one Kronecker product, whatever the factors."""
    ring = a.ring
    oa, ob = a.order(), b.order()
    fa = a.prec if oa is None else oa
    fb = b.prec if ob is None else ob
    prec, shift = product_precision(a.prec, fa, b.prec, fb, ring.n_work)
    if shift >= prec:
        return Series._make(ring, (), prec)
    m = min(prec, len(a.nums) + len(b.nums) - 1) - shift
    out = _kmul(a.nums[fa:fa + m], b.nums[fb:fb + m], m, ring.field.p)
    return Series._make(ring, [0] * shift + out, prec, a.den * b.den)
