"""The tuple-based jet enumerator, kept as a test reference.

This is how the package enumerated jets before members became integer
keys: every member is a tuple of n tuples of m ints, every layer solves
J0*delta = -[x^k] g(u) with `linalg.solve_linear` once per parent, and
each parent evaluates g in full from its coefficient lists.  `enumerate_jets`
takes the arguments of `oracle_enumerate` and returns the sorted members
with their count and the candidate count, for a field-by-field comparison,
and dead_ends, the parents whose system had no solution, so a test can
show that its windows reach that case.
It assumes a problem the package already accepts: no budget or precision
checks are repeated here.
"""

from itertools import product
from math import prod

from arclift import linalg
from arclift.record import Record


class ReferenceJets(Record):
    ordered: tuple
    candidates: int
    dead_ends: int

    @property
    def count(self):
        return len(self.ordered)


def _conv(a, b, p):
    """Cauchy product of two coefficient lists, truncated to len(a), mod p."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: len(a) - i]):
                out[i + j] += ai * bj
    return [v % p for v in out]


def _evaluate(terms, u, p):
    """A generator at the coefficient lists u, mod x^len(u[0]) and mod p."""
    acc = [0] * len(u[0])
    for exps, coeff in terms:
        term = coeff[: len(u[0])]
        for y, e in zip(u, exps):
            for _ in range(e):
                term = _conv(term, y, p)
        acc = [a + t for a, t in zip(acc, term)]
    return [a % p for a in acc]


def enumerate_jets(problem, m):
    field = problem.ring.field
    p = field.p
    need = problem.window
    candidates = p ** (problem.n * (m - need))
    gens = [
        [(exps, [int(coeff.coeff_at(k)) for k in range(m)]) for exps, coeff in gen.terms.items()]
        for gen in problem.ideal_gens
    ]
    base = tuple(tuple(int(y.coeff_at(k)) for k in range(need)) for y in problem.jet)
    members = [] if any(any(_evaluate(t, base, p)) for t in gens) else [base]
    j0 = [[0] * problem.n for _ in gens]
    for row, terms in zip(j0, gens):
        for exps, coeff in terms:
            for i, e in enumerate(exps):
                if e:
                    row[i] += e * coeff[0] * prod(
                        y[0] ** (el - (l == i)) for l, (y, el) in enumerate(zip(base, exps))
                    )
    _, basis = linalg.solve_linear(field, j0, [0] * len(gens))
    kernel = [
        [sum(s * v[i] for s, v in zip(scales, basis)) for i in range(problem.n)]
        for scales in product(range(p), repeat=len(basis))
    ]
    dead_ends = 0
    for k in range(need, m):
        grown = []
        for u in members:
            top = [_evaluate(t, [y + (0,) for y in u], p)[k] for t in gens]
            sol = linalg.solve_linear(field, j0, [-v for v in top])
            if sol is None:
                dead_ends += 1
                continue
            for v in kernel:
                grown.append(tuple(y + ((d + w) % p,) for y, d, w in zip(u, sol[0], v)))
        members = grown
    return ReferenceJets(tuple(sorted(members)), candidates, dead_ends)
