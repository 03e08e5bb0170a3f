"""Series and Poly text through ring.render_terms against the per-class reference."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import render_reference as reference
from arclift import Poly, PrimeField, QQ, SeriesRing, VarSpace

N_WORK = 12
RINGS = tuple(SeriesRing(f, N_WORK) for f in (QQ, PrimeField(2), PrimeField(5), PrimeField(2**31 - 1)))
SPACE = VarSpace.ts(3)


def _scalar(ring):
    """Zero, units, large and (over Q) fractional coefficients, of either sign."""
    special = st.sampled_from((0, 0, 1, -1, 2, -2))
    ints = st.integers(-(2**40), 2**40)
    if ring.field.p is None:
        fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
        return st.one_of(special, ints, fracs)
    return st.one_of(special, ints, st.just(ring.field.p - 1))


@st.composite
def _series(draw, ring):
    """Empty, zero, unit or positive-order series at any precision."""
    prec = draw(st.integers(1, N_WORK))
    order = draw(st.integers(0, prec))
    tail = draw(st.lists(_scalar(ring), max_size=6))
    return ring.series([ring.field.coerce(0)] * order + tail, prec)


@st.composite
def _poly(draw, ring):
    exps = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
    return Poly._make(ring, SPACE, draw(st.dictionaries(exps, _series(ring), max_size=5)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_series_and_poly_text_equal_the_reference_renderers(data):
    ring = data.draw(st.sampled_from(RINGS))
    s = data.draw(_series(ring))
    assert str(s) == reference.render_series(s, show_prec=True)
    assert s.render() == reference.render_series(s)
    assert s.render(show_prec=True) == str(s)
    p = data.draw(_poly(ring))
    assert str(p) == p.render() == reference.render_poly(p)


def test_reference_edge_cases_on_every_field():
    for ring in RINGS:
        p = ring.field.p
        cases = [ring.zero(), ring.zero(3), ring.one(), ring.series([0, 1]),
                 ring.series([-1, 0, -1], 5), ring.series([0, 0, 2**31, -7])]
        if p is None:
            cases.append(ring.series([Fraction(-1, 2), 0, Fraction(4, 6), Fraction(-3)]))
        for s in cases:
            assert str(s) == reference.render_series(s, show_prec=True)
            assert s.render() == reference.render_series(s)
        empty = Poly.zero(ring, SPACE)
        zero_low = Poly._make(ring, SPACE, {(1, 0, 0): ring.zero(4)})
        mixed = Poly._make(ring, SPACE, {
            (0, 0, 0): cases[4], (1, 0, 2): cases[3], (0, 1, 0): ring.one(), (2, 0, 0): cases[-1],
        })
        for q in (empty, zero_low, mixed):
            assert q.render() == reference.render_poly(q)
        assert empty.render() == zero_low.render() == "0"
