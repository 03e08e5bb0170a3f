"""Small exact linear algebra helpers.

The matrix routines are generic over any commutative coefficient type that
supports +, *, and unary -, so the same code serves matrices of Series and
of Poly entries.  Sizes here are tiny (the number of equations in a model),
so cofactor expansion is the right tool: it is division-free, exact, and
propagates effective precision through ordinary arithmetic.

solve_linear is the one routine specialised to scalar fields; it performs
plain Gaussian elimination with exact division, returns a particular
solution with a basis of the homogeneous solutions, and reports
unsolvable systems by returning None.
"""

from __future__ import annotations


def mat_mul(a, b, zero):
    """Product of two matrices given as lists of rows."""
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("inner dimensions do not match")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = zero
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v, zero):
    """Matrix times column vector."""
    out = []
    for row in a:
        acc = zero
        for t, x in zip(row, v):
            acc = acc + t * x
        out.append(acc)
    return out


def _minor(rows, i, j):
    return [[e for c, e in enumerate(r) if c != j] for k, r in enumerate(rows) if k != i]


def det(rows, zero, one):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] + (-(rows[0][1] * rows[1][0]))
    acc = zero
    for j in range(n):
        term = rows[0][j] * det(_minor(rows, 0, j), zero, one)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def adjugate(rows, zero, one):
    """Transposed cofactor matrix; rows * adjugate = det * identity."""
    n = len(rows)
    if n == 1:
        return [[one]]
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = det(_minor(rows, i, j), zero, one)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


def solve_linear(field, rows, rhs):
    """Solve rows * x = rhs over a scalar field; None when inconsistent.

    Returns (x, basis).  Free variables are pinned to zero in x, so the
    particular solution is deterministic; basis holds one vector per free
    variable and spans the solutions of rows * x = 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, m):
            if not field.is_zero(a[r][col]):
                sel = r
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = field.inv(a[row][col])
        a[row] = [field.mul(inv, v) for v in a[row]]
        for r in range(m):
            if r != row and not field.is_zero(a[r][col]):
                f = a[r][col]
                a[r] = [field.add(v, field.neg(field.mul(f, w))) for v, w in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if not field.is_zero(a[r][n]):
            return None
    x = [field.zero] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    basis = []
    for free in (col for col in range(n) if col not in pivots):
        v = [field.zero] * n
        v[free] = field.one
        for r, col in enumerate(pivots):
            v[col] = field.neg(a[r][free])
        basis.append(v)
    return x, basis
