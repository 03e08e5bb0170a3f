"""Memoised cofactor determinants and adjugates against the recursive cofactor reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cofactor_reference as reference
import helpers
from arclift import Poly, PrimeField, QQ, Series, SeriesRing, VarSpace, build_model, linalg
from arclift.cli import load_problem

YS = VarSpace.ys(2)
RINGS = (SeriesRing(QQ, 30), SeriesRing(PrimeField(5), 30))


def _exact(value):
    """A Series, Poly or matrix of them as exact (nums, den, prec) data."""
    if isinstance(value, Poly):
        return sorted((e, _exact(c)) for e, c in value.terms.items())
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return (value.nums, value.den, value.prec)


@st.composite
def _poly_matrix(draw, ring, n):
    """An n x n matrix of sparse polynomials in Y1, Y2 with small coefficients."""
    exps = st.tuples(st.integers(0, 1), st.integers(0, 1))
    scalar = st.integers(-3, 3).map(lambda c: ring.scalar(ring.field.coerce(c)))
    entry = st.dictionaries(exps, scalar, max_size=2).map(lambda t: Poly._make(ring, YS, t))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@st.composite
def _series_matrix(draw, ring, n):
    """An n x n matrix of series at mixed precisions, zero, unit or of positive order."""
    def entry():
        prec = draw(st.integers(1, ring.n_work))
        order = draw(st.integers(0, min(prec, 5)))
        return ring.series([0] * order + draw(st.lists(st.integers(-3, 3), max_size=4)), prec)

    return [[entry() for _ in range(n)] for _ in range(n)]


def _poly_units(ring, space=YS):
    return Poly.zero(ring, space), Poly.constant(ring, space, 1)


def _series_units(ring):
    return ring.zero(ring.n_work), ring.one()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_poly_det_and_adjugate_equal_the_cofactor_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    n = data.draw(st.integers(0, 6))
    rows = data.draw(_poly_matrix(ring, n))
    zero, one = _poly_units(ring)
    assert _exact(linalg.det(rows, one)) == _exact(reference.det(rows, zero, one))
    if n:
        got = linalg.adjugate(rows, one)
        assert _exact(got) == _exact(reference.adjugate(rows, zero, one))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_series_det_and_adjugate_up_to_6x6_are_bit_identical(data):
    """Newton's det(J) and adj(J) certify the cofactor digits and precisions at every r.

    Newton reads det(J) off adj(J)'s table, as J's first row times adj(J)'s first column.
    """
    ring = data.draw(st.sampled_from(RINGS))
    n = data.draw(st.integers(1, 6))
    rows = data.draw(_series_matrix(ring, n))
    zero, one = _series_units(ring)
    det = _exact(reference.det(rows, zero, one))
    assert _exact(linalg.det(rows, one)) == det
    got = linalg.adjugate(rows, one)
    assert _exact(got) == _exact(reference.adjugate(rows, zero, one))
    assert _exact(linalg.mat_vec([rows[0]], [row[0] for row in got])) == [det]


def test_det_off_the_adjugate_table_takes_816_products_at_6x6(monkeypatch):
    """adj(J) and det(J) of a 6 x 6 Series matrix: 810 products for the table and 6 for
    the first row, against 186 more for a table of det alone."""
    ring = RINGS[0]
    rows = [[ring.series([i + 1, j - 2, i * j]) for j in range(6)] for i in range(6)]
    one = ring.one()
    products = []
    plain = Series.__mul__

    def counting(a, b):
        products.append(1)
        return plain(a, b)

    monkeypatch.setattr(Series, "__mul__", counting)
    adj = linalg.adjugate(rows, one)
    linalg.mat_vec([rows[0]], [row[0] for row in adj])
    assert len(products) == 816
    products.clear()
    linalg.det(rows, one)
    assert len(products) == 186


def _zero_started(a, b, zero):
    """a * b with every entry summed from zero, as mat_mul did before it used _dot."""
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_mat_mul_and_mat_vec_equal_zero_started_sums(data):
    ring = data.draw(st.sampled_from(RINGS))
    n = data.draw(st.integers(1, 3))
    a, b = data.draw(_series_matrix(ring, n)), data.draw(_series_matrix(ring, n))
    zero = ring.zero(ring.n_work)
    assert _exact(linalg.mat_mul(a, b)) == _exact(_zero_started(a, b, zero))
    col = [[row[0]] for row in b]
    assert _exact(linalg.mat_vec(a, [row[0] for row in b])) == _exact(
        [e for (e,) in _zero_started(a, col, zero)]
    )
    p, q = data.draw(_poly_matrix(ring, n)), data.draw(_poly_matrix(ring, n))
    assert linalg.mat_mul(p, q) == _zero_started(p, q, Poly.zero(ring, YS))


def test_mat_mul_refuses_mismatched_inner_dimensions():
    one = RINGS[0].one()
    with pytest.raises(ValueError, match="inner dimensions do not match"):
        linalg.mat_mul([[one, one]], [[one, one]])


def test_the_empty_determinant_is_one():
    zero, one = _series_units(RINGS[0])
    assert linalg.det([], one) is one
    assert linalg.adjugate([[zero]], one) == [[one]]


def test_block_g_is_n_times_the_reference_adjugate_of_h_on_every_shipped_problem():
    for path in helpers.shipped_problems():
        model = build_model(load_problem(str(path)))
        h_mat, g_mat = helpers.bordered(model)
        zero, one = _poly_units(model.ring, h_mat.space)
        adj = reference.adjugate(h_mat.rows, zero, one)
        expected = [[model.n_norm * p for p in row] for row in adj]
        assert _exact(g_mat.rows) == _exact(expected), path.name
