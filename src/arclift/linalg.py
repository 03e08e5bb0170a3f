"""Small exact linear algebra helpers.

The matrix routines are generic over any commutative coefficient type that
supports +, *, and unary -, so the same code serves matrices of Series and
of Poly entries.  det and adjugate share one division-free cofactor
expansion along the first row, memoised on its blocks and built bottom-up,
so Series entries keep the precisions of cofactor expansion at n * 2^n
products, not n!; the package takes them of r x r blocks only.  Every sum
starts from its first term, so the two take no zero, only the one that the
empty determinant and the 1 x 1 adjugate are, and a Series product by that
one returns the other factor with no work.  The first entry of
rows * adjugate(rows), mat_vec of the first row with the adjugate's first
column, is the first-row expansion of det(rows) with the same products,
signs and order, so a caller that needs both builds one table.

solve_linear is the one routine specialised to scalar fields.  It reads
every entry, product and difference through the field's coerce and inverts
each pivot with its from_pair; those two readers are the only code that
knows how a scalar is reduced, so one Gaussian elimination serves Q and
F_p.  It returns a particular solution with a basis of the homogeneous
solutions, and reports unsolvable systems by returning None.
"""

from __future__ import annotations

from itertools import combinations


def _dot(u, v):
    """u . v over the length of v, with no zero to start the sum."""
    return sum((x * y for x, y in zip(u[1:], v[1:])), u[0] * v[0])


def mat_mul(a, b):
    """Product of two matrices given as lists of rows."""
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def mat_vec(a, v):
    """Matrix times column vector."""
    return [_dot(row, v) for row in a]


def _block_dets(rows, tops, one):
    """{(rows, columns): determinant} for each block that expanding the top row tuples reaches.

    A block expands along its first row into blocks on its other rows, built smallest
    first, with the products, signs and left-to-right sums of the recursive expansion
    and a 1 x 1 block its entry; each top is taken with every column set of its size.
    """
    dets = {((), ()): one}
    for size in range(1, max(map(len, tops), default=0) + 1):
        for part in dict.fromkeys(top[len(top) - size:] for top in tops):
            lead, below = rows[part[0]], part[1:]
            for cols in combinations(range(len(rows)), size):
                acc = lead[cols[0]] * dets[below, cols[1:]] if below else lead[cols[0]]
                for i in range(1, size):
                    term = lead[cols[i]] * dets[below, cols[:i] + cols[i + 1:]]
                    acc = acc + (-term if i % 2 else term)
                dets[part, cols] = acc
    return dets


def det(rows, one):
    """Determinant by cofactor expansion along the first row; the empty one is one."""
    top = tuple(range(len(rows)))
    return _block_dets(rows, [top], one)[top, top]


def adjugate(rows, one):
    """Transposed signed-minor matrix; rows * adjugate = det * identity.

    Minor (i, j) is the block on the rows other than i and the columns other than j.
    """
    others = [tuple(k for k in range(len(rows)) if k != i) for i in range(len(rows))]
    dets = _block_dets(rows, others, one)
    return [
        [dets[top, cols] if (i + j) % 2 == 0 else -dets[top, cols] for i, top in enumerate(others)]
        for j, cols in enumerate(others)
    ]


def solve_linear(field, rows, rhs):
    """Solve rows * x = rhs over a scalar field; None when inconsistent.

    Returns (x, basis).  Free variables are pinned to zero in x, so the
    particular solution is deterministic; basis holds one vector per free
    variable and spans the solutions of rows * x = 0.
    """
    coerce = field.coerce
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[coerce(v) for v in r] + [coerce(b)] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if a[r][col]), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = field.from_pair(1, a[row][col])
        a[row] = [coerce(inv * v) for v in a[row]]
        for r in range(m):
            f = a[r][col]
            if r != row and f:
                a[r] = [coerce(v - f * w) for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if any(a[r][n] for r in range(row, m)):
        return None
    x = [field.zero] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    basis = []
    for free in (col for col in range(n) if col not in pivots):
        v = [field.zero] * n
        v[free] = field.one
        for r, col in enumerate(pivots):
            v[col] = coerce(-a[r][free])
        basis.append(v)
    return x, basis
