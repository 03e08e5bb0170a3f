"""Multivariate polynomials over the series ring: parsing, calculus, matrices."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclift import (
    FieldMismatchError,
    MissingVariableError,
    ParseError,
    Poly,
    PolyMatrix,
    PrimeField,
    QQ,
    SeriesRing,
    StructureError,
    VarSpace,
    jacobian,
    parse_poly,
)
from arclift import linalg, polyring
from arclift.polyring import shared_powers
from power_reference import stored

R = SeriesRing(QQ)
R5 = SeriesRing(PrimeField(5))
YS = VarSpace.ys(2)
TS = VarSpace.ts(2)


def P(text, ring=R, space=YS):
    return parse_poly(text, ring, space)


# -- variable spaces ----------------------------------------------------


def test_varspace_constructors():
    assert VarSpace.ys(3).names == ("Y1", "Y2", "Y3")
    assert VarSpace.ts(2).names == ("T1", "T2")
    assert YS.index("Y2") == 1


def test_varspace_rejects_reserved_and_duplicate_names():
    with pytest.raises(StructureError):
        VarSpace(("x",))
    with pytest.raises(StructureError):
        VarSpace(("O",))
    with pytest.raises(StructureError):
        VarSpace(("A", "A"))
    with pytest.raises(MissingVariableError):
        YS.index("Y9")


# -- parsing and rendering ---------------------------------------------


def test_parse_render_roundtrip_golden():
    p = P("Y1^2 - Y2^3")
    assert p.render() == "Y1^2 - Y2^3"
    assert P("Y2^3 - Y1^2") == -p


def test_term_order_is_stable():
    p = parse_poly("T1 + 6*x^6*T1*T2 + x^2*T1^2 - 16*x^16*T2^3 - 3*x^10*T2^2", R, TS)
    assert p.render() == "T1 + x^2*T1^2 + 6*x^6*T1*T2 - 3*x^10*T2^2 - 16*x^16*T2^3"


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        P("Y1 + Z")


def test_series_coefficients_inside_polynomials():
    p = P("Y1 + x*Y1")
    assert p.coeff((1, 0)) == R.parse("1 + x")


def test_make_refuses_an_exponent_vector_of_the_wrong_width():
    for exps in ((1,), (1, 0, 0)):
        with pytest.raises(StructureError, match="exponent vector width does not match the variable space"):
            Poly._make(R, YS, {exps: R.one()})


def test_zero_retention_in_equality():
    explicit = P("Y1 - Y1 + Y2")
    assert explicit == P("Y2")
    assert explicit.is_zero() is False
    assert P("Y1 - Y1").is_zero()


# -- calculus -----------------------------------------------------------


def test_diff_golden():
    p = P("Y1^2 - Y2^3")
    assert p.diff("Y1") == P("2*Y1")
    assert p.diff("Y2") == P("-3*Y2^2")


def test_diff_drops_multiples_of_the_characteristic():
    p = parse_poly("Y1^5", R5, YS)
    assert p.diff("Y1").is_zero()


def test_jacobian_golden():
    jac = jacobian([P("Y1^2 - Y2^3")])
    assert jac.shape == (1, 2)
    assert jac.rows[0][0] == P("2*Y1")
    assert jac.rows[0][1] == P("-3*Y2^2")


def test_eval_golden():
    p = P("Y1^2 - Y2^3")
    val = p.eval({"Y1": R.parse("x^3"), "Y2": R.parse("x^2")})
    assert val.is_zero()
    assert val.prec == 40


def test_eval_requires_every_variable():
    with pytest.raises(MissingVariableError):
        P("Y1 + Y2").eval({"Y1": R.x()})


def test_subst_composes_with_eval():
    p = P("Y1*Y2 + Y2^2")
    images = {"Y1": parse_poly("T1 + T2", R, TS), "Y2": parse_poly("x*T1", R, TS)}
    point = {"T1": R.parse("x + x^2"), "T2": R.parse("x^3")}
    q = p.subst(images, TS)
    direct = p.eval({nm: images[nm].eval(point) for nm in ("Y1", "Y2")})
    assert q.eval(point) == direct


def test_subst_refuses_a_missing_image_and_an_image_over_another_space():
    p = P("Y1*Y2")
    t1 = parse_poly("T1", R, TS)
    with pytest.raises(MissingVariableError, match="no image supplied for 'Y2'"):
        p.subst({"Y1": t1}, TS)
    for other in (P("Y1"), parse_poly("T1", R5, TS)):
        with pytest.raises(StructureError, match="image of 'Y2' is not a polynomial over the target space"):
            p.subst({"Y1": t1, "Y2": other}, TS)


def test_a_zero_side_gives_the_other_side_or_zero():
    p = P("Y1^2 - x*Y2 + 3")
    low_zero = Poly.constant(R, YS, R.zero(7))
    zero = Poly.zero(R, YS)
    for q in (p, low_zero, zero):
        assert q + zero is q
        assert zero + q is q
        assert (q * zero).terms == {} and (zero * q).terms == {}
    # a zero coefficient at reduced precision is a term and is kept
    assert (p + low_zero).terms[(0, 0)].prec == 7
    assert (p * low_zero).terms != {}


def test_a_zero_side_still_refuses_mixed_rings_and_spaces():
    p = P("Y1 + 1")
    for zero in (Poly.zero(R5, YS), Poly.zero(SeriesRing(QQ, 41), YS)):
        for op in ("__add__", "__mul__"):
            with pytest.raises(FieldMismatchError):
                getattr(p, op)(zero)
            with pytest.raises(FieldMismatchError):
                getattr(zero, op)(p)
    for op in ("__add__", "__mul__"):
        with pytest.raises(StructureError):
            getattr(p, op)(Poly.zero(R, TS))
        with pytest.raises(StructureError):
            getattr(Poly.zero(R, TS), op)(p)


# -- matrices -----------------------------------------------------------


def test_matrix_identity_and_mul():
    ident = PolyMatrix.identity(R, YS, 2)
    m = PolyMatrix([[P("Y1"), P("Y2")], [P("0"), P("1")]])
    assert m.mul(ident) == m
    assert ident.mul(m) == m


def test_matrix_eval_checks_the_point_once_with_entry_eval_errors():
    m = PolyMatrix([[P("Y1*Y2"), P("x + Y2^2")], [P("Y1 - 3"), P("0")]])
    good = {"Y1": R.parse("x^3"), "Y2": R.parse("1 + x"), "Z": 0}
    assert m.eval(good) == [[p.eval(good) for p in row] for row in m.rows]
    bad_points = (
        ({"Y1": R.x()}, MissingVariableError, "no value supplied for 'Y2'"),
        ({"Y1": R.x(), "Y2": R5.x()}, FieldMismatchError, "value for 'Y2' is not a series of this ring"),
        ({"Y1": 1, "Y2": R.x()}, FieldMismatchError, "value for 'Y1' is not a series of this ring"),
    )
    for point, error, text in bad_points:
        for call in (m.eval, m.rows[1][0].eval):
            with pytest.raises(error) as info:
                call(point)
            assert str(info.value) == text


def test_det_and_adjugate_golden():
    m = PolyMatrix([[P("Y1"), P("Y2")], [P("Y2"), P("Y1")]])
    assert m.det() == P("Y1^2 - Y2^2")
    adj = PolyMatrix(linalg.adjugate(m.rows, P("1")))
    assert adj.rows[0][0] == P("Y1")
    assert adj.rows[0][1] == P("-Y2")
    prod = m.mul(adj)
    assert prod.rows[0][0] == m.det()
    assert prod.rows[0][1].is_zero()


def test_matrix_constructors_refuse_empty_ragged_and_mixed_entries():
    with pytest.raises(StructureError, match="jacobian of an empty family"):
        jacobian([])
    for rows in ([], [[]]):
        with pytest.raises(StructureError, match="matrix must be nonempty"):
            PolyMatrix(rows)
    with pytest.raises(StructureError, match="ragged matrix"):
        PolyMatrix([[P("Y1"), P("Y2")], [P("1")]])
    for other in (P("Y1", R5), parse_poly("T1", R, TS), R.x()):
        with pytest.raises(StructureError, match="matrix entries must share one ring and space"):
            PolyMatrix([[P("Y1"), other]])


def test_det_rejects_non_square():
    with pytest.raises(StructureError):
        PolyMatrix([[P("Y1"), P("Y2")]]).det()


# -- properties ---------------------------------------------------------


def _polys(space=YS, ring=R):
    coeff = st.integers(min_value=-3, max_value=3)
    exps = st.tuples(
        st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
    )
    def build(pairs):
        acc = Poly.zero(ring, space)
        for (e, c) in pairs:
            mono = Poly._make(ring, space, {e: ring.scalar(ring.field.coerce(c))})
            acc = acc + mono
        return acc
    return st.builds(build, st.lists(st.tuples(exps, coeff), max_size=5))


_POINT = {
    "Y1": R.parse("x - x^2"),
    "Y2": R.parse("2*x"),
}


@settings(max_examples=80)
@given(_polys(), _polys())
def test_evaluation_is_additive_and_multiplicative(p, q):
    assert (p + q).eval(_POINT) == p.eval(_POINT) + q.eval(_POINT)
    assert (p * q).eval(_POINT) == p.eval(_POINT) * q.eval(_POINT)


@settings(max_examples=40)
@given(_polys(), _polys(), _polys(), _polys())
def test_adjugate_identity_on_random_matrices(a, b, c, d):
    m = PolyMatrix([[a, b], [c, d]])
    det = m.det()
    prod = m.mul(PolyMatrix(linalg.adjugate(m.rows, Poly.constant(R, YS, 1))))
    ident = PolyMatrix.identity(R, YS, 2)
    assert prod == ident.scale(det)


@st.composite
def _marked_series(draw, ring):
    """Zero, unit or positive-order series at any precision up to n_work."""
    prec = draw(st.integers(1, ring.n_work))
    order = draw(st.integers(0, prec))
    coeffs = [0] * order + draw(st.lists(st.integers(-3, 3), max_size=4))
    return ring.series(coeffs, prec)


@settings(derandomize=True, max_examples=200)
@given(st.data())
def test_eval_prec_is_the_precision_eval_certifies(data):
    ring = data.draw(st.sampled_from((SeriesRing(QQ, 12), SeriesRing(PrimeField(5), 12))))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
    terms = data.draw(st.dictionaries(exps, _marked_series(ring), max_size=4))
    poly = Poly._make(ring, YS, terms)
    point = {"Y1": data.draw(_marked_series(ring)), "Y2": data.draw(_marked_series(ring))}
    assert poly.eval_prec(point) == poly.eval(point).prec


_SUB_RINGS = (SeriesRing(QQ, 12), SeriesRing(PrimeField(5), 12), SeriesRing(PrimeField(2**31 - 1), 12))


@st.composite
def _scaled_series(draw, ring):
    """A series at any precision up to n_work, its coefficients num/den with den in 1..3."""
    prec = draw(st.integers(1, ring.n_work))
    pairs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=5))
    return ring.series([ring.field.from_pair(num, den) for num, den in pairs], prec)


@st.composite
def _sub_operand(draw, ring, avoid=()):
    """Zero, a constant, or terms in Y1, Y2 of degree <= 3 off the exponents in avoid."""
    kind = draw(st.sampled_from(("zero", "constant", "terms")))
    if kind == "zero":
        return Poly.zero(ring, YS)
    if kind == "constant":
        return Poly.constant(ring, YS, draw(_scaled_series(ring)))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: e not in avoid)
    return Poly._make(ring, YS, draw(st.dictionaries(exps, _scaled_series(ring), max_size=5)))


@settings(derandomize=True, max_examples=300)
@given(st.data())
def test_difference_is_the_sum_with_the_negation_bit_for_bit(data):
    """a - b in one pass has the terms, nums, den and prec of a + (-b), over Q, F5 and
    F_(2^31-1), with zero, constant and disjoint-support operands on either side."""
    ring = data.draw(st.sampled_from(_SUB_RINGS))
    a = data.draw(_sub_operand(ring))
    disjoint = data.draw(st.booleans())
    b = data.draw(_sub_operand(ring, tuple(a.terms) if disjoint else ()))
    assert stored(a - b) == stored(a + (-b))
    assert stored(b - a) == stored(b + (-a))


def test_a_shared_powers_block_keeps_one_power_list_per_object():
    """Inside a block each base object gets a list of its own, even beside an equal-valued
    one, and a point walked again reuses its lists; a nested block starts empty and gives
    the outer table back on exit, also on an exception; outside any block none is active."""
    p = P("Y1^3 + Y1*Y2^2 + Y2^3")
    a = {"Y1": R.parse("x - x^2"), "Y2": R.parse("2*x")}
    b = {"Y1": R.parse("3*x + x^4"), "Y2": R.parse("2*x")}
    images = {"Y1": P("T1 + x*T2", space=TS), "Y2": P("T2^2", space=TS)}
    other = {"Y1": P("T1 - T2", space=TS), "Y2": P("T2^2", space=TS)}
    fresh = [stored(p.eval(pt)) for pt in (a, b)] + [stored(p.subst(im, TS)) for im in (images, other)]
    assert polyring._active.powers is None
    with shared_powers():
        table = polyring._active.powers
        assert [stored(p.eval(pt)) for pt in (a, b)] == fresh[:2]
        assert [stored(p.subst(im, TS)) for im in (images, other)] == fresh[2:]
        bases = [v for pt in (a, b, images, other) for v in pt.values()]
        assert sorted(table) == sorted(map(id, bases))
        assert all(table[id(v)][0] is v for v in bases)
        kept = dict(table)
        assert stored(p.eval(b)) == fresh[1]
        assert table == kept and all(table[k] is kept[k] for k in kept)
        y1 = b["Y1"]
        assert [stored(v) for v in table[id(y1)]] == [stored(y1), stored(y1 * y1), stored(y1 * y1 * y1)]
        with shared_powers():
            assert polyring._active.powers == {}
            assert stored(p.eval(a)) == fresh[0]
            assert sorted(polyring._active.powers) == sorted(map(id, a.values()))
        assert polyring._active.powers is table and table == kept
        with pytest.raises(ZeroDivisionError), shared_powers():
            1 / 0
        assert polyring._active.powers is table
    assert polyring._active.powers is None


@settings(derandomize=True, max_examples=60)
@given(st.data())
def test_solve_linear_returns_every_solution(data):
    """Over F3, x + span(basis) is exactly the brute-force solution set.

    Entries may be negative or unreduced, as the reference oracle's J0 rows
    are (tests/oracle_reference.py); the answer holds residues in [0, 3).
    """
    n = data.draw(st.integers(1, 3))
    entry = st.integers(0, 2) | st.integers(-10**20, 10**20)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3))
    rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    solutions = {
        v for v in product(range(3), repeat=n)
        if all(sum(a * b for a, b in zip(row, v)) % 3 == r % 3 for row, r in zip(rows, rhs))
    }
    got = linalg.solve_linear(PrimeField(3), rows, rhs)
    if got is None:
        assert not solutions
        return
    x, basis = got
    assert all(v in range(3) for v in x + [w for b in basis for w in b])
    span = {
        tuple((xi + sum(s * v[i] for s, v in zip(scales, basis))) % 3 for i, xi in enumerate(x))
        for scales in product(range(3), repeat=len(basis))
    }
    assert len(span) == 3 ** len(basis)
    assert span == solutions


def _rank(rows) -> int:
    """The size of the largest nonzero minor of rows."""
    sizes = range(1, min(len(rows), len(rows[0])) + 1) if rows else ()
    return max((
        k for k in sizes
        for rs in combinations(range(len(rows)), k)
        for cs in combinations(range(len(rows[0])), k)
        if linalg.det([[rows[i][j] for j in cs] for i in rs], 1)
    ), default=0)


@settings(derandomize=True, max_examples=60)
@given(st.data())
def test_solve_linear_over_q_is_exact_on_integer_input(data):
    """Over Q, integer rows give Fractions, never floats, and len(basis) = n - rank."""
    n = data.draw(st.integers(1, 4))
    entry = st.integers(-9, 9)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4))
    rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    got = linalg.solve_linear(QQ, rows, rhs)
    if got is None:
        assert _rank([row + [b] for row, b in zip(rows, rhs)]) > _rank(rows)
        return
    x, basis = got
    assert all(type(v) is Fraction for v in x + [w for b in basis for w in b])
    assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs
    assert all(sum(a * w for a, w in zip(row, b)) == 0 for row in rows for b in basis)
    assert len(basis) == n - _rank(rows) == _rank(basis)
