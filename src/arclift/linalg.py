"""Small exact linear algebra helpers.

The matrix routines are generic over any commutative coefficient type that
supports +, *, and unary -, so the same code serves matrices of Series and
of Poly entries.  det is Berkowitz's division-free loop; adjugate takes
signed minors, which keeps Series precisions those of cofactor expansion (an
adjugate by Cayley-Hamilton certifies fewer digits on Series entries), and
expand_first_row reads the determinant off such an adjugate.

solve_linear is the one routine specialised to scalar fields; it performs
plain Gaussian elimination with exact division, returns a particular
solution with a basis of the homogeneous solutions, and reports
unsolvable systems by returning None.
"""

from __future__ import annotations


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


def det(rows, zero, one):
    """Determinant by Berkowitz's division-free loop (S. J. Berkowitz, IPL 18, 1984).

    poly is det(lambda * Id + M) = [1, c_1, ..., c_k] for the leading k x k
    block M, so c_n is the determinant.  On Series it is the cofactor value
    bit for bit up to 2 x 2; from 3 x 3 on it agrees through the shared
    precision, which may differ (mostly fewer digits), so Newton takes det(J)
    from its adjugate by expand_first_row instead.
    """
    poly = [one]
    for k, row in enumerate(rows):
        col = [r[k] for r in rows[:k]]
        toeplitz = [row[k]]  # a, -RC, RMC, -RM^2C, ... for row R, column C, corner a
        for i in range(k):
            if i:
                col = [_dot(r, col) for r in rows[:k]]
            rc = _dot(row, col)
            toeplitz.append(rc if i % 2 else -rc)
        nxt = [one]
        for i, t in enumerate(toeplitz, start=1):
            for j in range(1, i):
                t = t + toeplitz[i - j - 1] * poly[j]
            nxt.append(poly[i] + t if i <= k else t)
        poly = nxt
    return poly[-1]


def adjugate(rows, zero, one):
    """Transposed signed-minor matrix; rows * adjugate = det * identity."""
    n = len(rows)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[e for c, e in enumerate(r) if c != j] for k, r in enumerate(rows) if k != i]
            cof = det(minor, zero, one)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


def expand_first_row(rows, adj):
    """det(rows) as sum_j rows[0][j] * adj[j][0], for adj the adjugate of rows.

    Cofactor expansion along the first row; adj holds the signed minors, so
    on Series this is the cofactor determinant bit for bit up to 3 x 3.
    """
    return _dot(rows[0], [r[0] for r in adj])


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
