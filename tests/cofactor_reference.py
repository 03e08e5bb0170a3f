"""The recursive cofactor determinant and adjugate, kept as a test reference.

The package's determinant performs these operations in this order, memoised
and bottom-up; tests compare the two on Poly and Series matrices, and take
Newton's reference det(J) and adj(J) from here.
"""


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
