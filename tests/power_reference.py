"""Term walks with a fresh power table per walk, kept as a test reference.

This is how the package evaluated and substituted before the walks at one
point shared a power table: each walk built the powers of the point's
coordinates again, in a cache of its own.  `walk` has the signature
of `Poly._walk` and ignores the table it is handed, so a test can patch it
in and compare every result with the shared-table run.  `stored` gives any
result in stored form, for a field-by-field comparison.
"""

from arclift import Poly, PolyMatrix, Series
from arclift.record import Record


def walk(self, lift, points, times, acc, plus, powers):
    """Poly._walk with a fresh (j, e) power cache; powers is not read."""
    cache = {}
    for exps, coeff in self.terms.items():
        prod = lift(coeff)
        for j, e in enumerate(exps):
            if e:
                prod = times(prod, _power(cache, j, e, points[j], times))
        acc = plus(acc, prod)
    return acc


def _power(cache, j, e, base, times):
    """base^e, climbing from the highest power of variable j the cache holds."""
    top = e
    while top > 1 and (j, top) not in cache:
        top -= 1
    got = cache[j, top] if top > 1 else base
    for i in range(top + 1, e + 1):
        got = times(got, base)
        cache[j, i] = got
    return got


def stored(obj):
    """obj with every Series as (nums, den, prec) and every Poly as its term set, recursively."""
    if isinstance(obj, Series):
        return ("series", tuple(obj.nums), obj.den, obj.prec)
    if isinstance(obj, Poly):
        return ("poly", obj.space.names, tuple(sorted((e, stored(c)) for e, c in obj.terms.items())))
    if isinstance(obj, PolyMatrix):
        return ("matrix", stored(obj.rows))
    if isinstance(obj, (list, tuple)):
        return tuple(stored(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, stored(v)) for k, v in obj.items()))
    if isinstance(obj, Record):
        return (type(obj).__name__,) + tuple(stored(getattr(obj, f)) for f in obj._fields)
    return obj
