"""The jet oracle: every arc mod x^m over F_p that extends the jet and kills the ideal.

It cross-checks the lifting machinery from below, so it uses none of it:
it imports only the standard library, `.errors` and `.record`, and reads
a series as data, its stored residues `nums` and its `prec` (den is 1
over F_p).
"""

from bisect import bisect_left
from itertools import product
from math import prod
from operator import mul

from .errors import BudgetExceededError, FieldMismatchError, PrecisionExhaustedError, StructureError
from .record import Record


class JetSet(Record):
    """All coefficient vectors mod x^m that extend the jet and kill the ideal.

    keys holds them sorted, each as one integer: its n*m residues written
    as base-p digits, component by component, the coefficient of x^0 most
    significant, so integer order is the order of the coefficient tuples.
    ordered decodes every key and member(i) one, as n tuples of m ints.
    candidates counts the vectors mod x^m that extend the jet mod
    x^(2c+1), p^(n*(m-2c-1)), all of which were tried.
    """

    p: int
    n: int
    m: int
    keys: tuple
    candidates: int

    @property
    def count(self) -> int:
        return len(self.keys)

    @property
    def ordered(self) -> tuple:
        return tuple(self.member(i) for i in range(len(self.keys)))

    def member(self, i: int) -> tuple:
        """The i-th member in order, as n tuples of m coefficients."""
        digits = _digits(self.keys[i], self.p, self.n * self.m)
        return tuple(tuple(digits[at : at + self.m]) for at in range(0, len(digits), self.m))

    def contains(self, arc) -> bool:
        arc = tuple(arc)
        if len(arc) != self.n:
            raise StructureError(f"expected {self.n} components, got {len(arc)}")
        digits = []
        for i, s in enumerate(arc, start=1):
            if s.ring.field.p != self.p:
                raise FieldMismatchError(
                    f"arc component {i} is not over the field of {self.p} elements"
                )
            if s.prec < self.m:
                raise PrecisionExhaustedError(
                    f"arc component {i} is known only through x^{s.prec - 1}; "
                    f"membership mod x^{self.m} is undecidable"
                )
            digits += _residues(s, self.m)
        key = _key(digits, self.p)
        at = bisect_left(self.keys, key)
        return at < len(self.keys) and self.keys[at] == key


def _residues(s, m: int) -> list:
    """The coefficients of x^0..x^(m-1) of a series over F_p, zero past its stored residues."""
    return [*s.nums[:m], *[0] * (m - len(s.nums))]


def _key(digits, p: int) -> int:
    """The integer whose base-p digits, most significant first, are digits."""
    key = 0
    for d in digits:
        key = key * p + d
    return key


def _digits(key: int, p: int, count: int) -> list:
    """The count base-p digits of key, most significant first."""
    out = [0] * count
    for at in range(count - 1, -1, -1):
        key, out[at] = divmod(key, p)
    return out


def _times(a, b, p):
    """Product of two coefficient lists of one length, truncated to it, mod p."""
    size = len(a)
    out = [0] * size
    nonzero = [(j, v) for j, v in enumerate(b) if v]
    for i, x in enumerate(a):
        if x:
            for j, v in nonzero:
                if i + j >= size:
                    break
                out[i + j] += x * v
    return [v % p for v in out]


def _tops(gens, u, p):
    """[x^k] of every generator at the coefficient lists u, each k + 1 long, mod p.

    A term is its coefficient times the coordinates its index list names.
    All factors but the last are multiplied through x^k; the last enters
    only the coefficient of x^k, as the sum of part[j] * last[k - j].
    """
    k = len(u[0]) - 1
    out = []
    for terms in gens:
        acc = 0
        for coeff, idx in terms:
            part = coeff[: k + 1]
            if not idx:
                acc += part[k]
                continue
            for l in idx[:-1]:
                part = _times(part, u[l], p)
            acc += sum(map(mul, part, reversed(u[idx[-1]])))
        out.append(acc % p)
    return out


def _row_reduce(rows, width: int, p: int):
    """Row-reduce rows over F_p once, for every right-hand side to come.

    Returns (pivots, ops, basis).  ops is the product of the row operations:
    row r of ops * rows has its leading 1 in column pivots[r], the only
    nonzero entry of that column, and the rows from len(pivots) on are zero.
    So rows * x = b is solvable iff ops * b vanishes from row len(pivots)
    on, and then x with x[pivots[r]] = (ops * b)[r] and zero free
    coordinates solves it.  basis spans the solutions of rows * x = 0, one
    vector per free column.
    """
    a = [[v % p for v in row] + [int(r == s) for s in range(len(rows))] for r, row in enumerate(rows)]
    pivots = []
    for col in range(width):
        rank = len(pivots)
        sel = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for r, row in enumerate(a):
            if r != rank and row[col]:
                a[r] = [(v - row[col] * w) % p for v, w in zip(row, a[rank])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(width) if col not in pivots):
        v = [0] * width
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -a[r][free] % p
        basis.append(v)
    return pivots, [row[width:] for row in a], basis


_ENUM_BUDGET_BITS = 24


def oracle_enumerate(problem, m: int) -> JetSet:
    """Every arc mod x^m over F_p that extends the jet mod x^(2c+1) and kills the ideal.

    Exhaustive, one x-power at a time: as g(u + delta*x^k) = g(u) +
    x^k*J0*delta mod x^(k+1) for k >= 1, with J0 the Jacobian at x = 0 and
    the jet's constant terms, a member u mod x^k extends by exactly the
    delta with J0*delta = -[x^k] g(u).  J0 is row-reduced once, mod p; each
    parent evaluates only [x^k] of every generator and extends its key by
    delta_i * p^weight at each component's x^k digit.  The candidate count
    p^(n*(m-2c-1)) must stay within 2^24; it bounds the kernel of J0 too,
    which is built only once a layer exists.
    """
    field = problem.ring.field
    if field.p is None:
        raise StructureError("brute force enumeration needs a finite coefficient field")
    p, n = field.p, problem.n
    need = problem.window
    if m < need:
        raise StructureError(
            f"window x^{m} is shorter than the congruence window x^{need}"
        )
    slots = n * (m - need)
    # p >= 2, so more than 24 slots is over budget without computing p^slots
    if slots > _ENUM_BUDGET_BITS or (candidates := p**slots) > 1 << _ENUM_BUDGET_BITS:
        raise BudgetExceededError(
            f"enumerating {p}^{slots} candidates exceeds the budget of 2^{_ENUM_BUDGET_BITS}"
        )
    gens = []
    for j, gen in enumerate(problem.ideal_gens, start=1):
        terms = []
        for exps, coeff in gen.terms.items():
            if coeff.prec < m:
                raise PrecisionExhaustedError(
                    f"a coefficient of generator {j} is known only through "
                    f"x^{coeff.prec - 1}, short of the window x^{m}"
                )
            idx = tuple(l for l, e in enumerate(exps) for _ in range(e))
            terms.append((_residues(coeff, m), idx))
        gens.append(terms)

    base = [_residues(y, need) for y in problem.jet]
    if any(any(_tops(gens, [y[: k + 1] for y in base], p)) for k in range(need)):
        return JetSet(p, n, m, (), candidates)
    members = [_key([d for y in base for d in y + [0] * (m - need)], p)]
    if m == need:
        return JetSet(p, n, m, tuple(members), candidates)
    j0 = [[0] * n for _ in gens]
    for row, terms in zip(j0, gens):
        for coeff, idx in terms:
            for t, i in enumerate(idx):
                row[i] += coeff[0] * prod(base[l][0] for l in idx[:t] + idx[t + 1 :])
    pivots, ops, basis = _row_reduce(j0, n, p)
    rank = len(pivots)
    kernel = [
        [sum(s * v[i] for s, v in zip(scales, basis)) for i in range(n)]
        for scales in product(range(p), repeat=len(basis))
    ]
    for k in range(need, m):
        weights = [p ** ((n - i) * m - 1 - k) for i in range(n)]
        # the key offsets of sol + kernel, per particular solution sol
        offsets = {}
        grown = []
        for key in members:
            digits = _digits(key, p, n * m)
            top = _tops(gens, [digits[at : at + k + 1] for at in range(0, n * m, m)], p)
            rhs = [-sum(map(mul, row, top)) % p for row in ops]
            if any(rhs[rank:]):
                continue
            sol = tuple(rhs[:rank])
            got = offsets.get(sol)
            if got is None:
                x = [0] * n
                for r, col in enumerate(pivots):
                    x[col] = sol[r]
                got = offsets[sol] = [
                    sum((d + w) % p * weight for d, w, weight in zip(x, v, weights))
                    for v in kernel
                ]
            grown.extend([key + o for o in got])
        members = grown
    members.sort()
    return JetSet(p, n, m, tuple(members), candidates)
