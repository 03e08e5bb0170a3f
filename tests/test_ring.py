"""Series arithmetic: precision rules, exact division, parsing, rendering."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclift import (
    DEFAULT_PRECISION,
    FieldMismatchError,
    IdentityFailedError,
    NotAUnitError,
    NotDivisibleError,
    ParseError,
    PrecisionExhaustedError,
    PrimeField,
    QQ,
    SeriesRing,
    SplitMix64,
    StructureError,
    UnknownVariableError,
    draw_series,
)
from arclift import ring as ring_module
from arclift.ring import _kmul

import series_reference as reference

R = SeriesRing(QQ)
R5 = SeriesRing(PrimeField(5))


# -- construction and basic queries ------------------------------------


def test_series_normalization():
    s = R.series([0, 1, 0, 0], prec=10)
    assert s.coeffs == (Fraction(0), Fraction(1))
    assert s.prec == 10
    assert s.order() == 1
    assert s.order_floor() == 1


def test_prec_is_capped_at_working_precision():
    s = R.series([1], prec=1000)
    assert s.prec == R.n_work


def test_zero_series_has_no_order():
    z = R.zero(12)
    assert z.order() is None
    assert z.order_floor() == 12
    assert z.is_zero()


def test_nonpositive_precision_is_rejected():
    with pytest.raises(PrecisionExhaustedError):
        R.series([1], prec=0)


def test_coefficient_is_strict_about_precision():
    s = R.series([1, 2], prec=5)
    assert s.coefficient(4) == 0
    with pytest.raises(PrecisionExhaustedError):
        s.coefficient(5)
    assert s.coeff_at(5) == 0


def test_series_is_unhashable():
    with pytest.raises(TypeError):
        hash(R.parse("x"))


def test_prime_field_validation():
    with pytest.raises(StructureError):
        PrimeField(4)
    with pytest.raises(StructureError):
        PrimeField(1)
    with pytest.raises(StructureError):
        PrimeField(2**31)
    assert PrimeField(2147483647).p == 2147483647


def _sieve(limit: int) -> list:
    """The primes below limit, by the sieve of Eratosthenes."""
    marks = bytearray([1]) * limit
    marks[:2] = b"\0\0"
    for i in range(2, int(limit ** 0.5) + 1):
        if marks[i]:
            marks[i * i::i] = bytes(len(range(i * i, limit, i)))
    return [p for p in range(limit) if marks[p]]


def test_is_prime_agrees_with_a_sieve():
    limit = 2 * 10**5
    assert [p for p in range(limit) if ring_module._is_prime(p)] == _sieve(limit)


@pytest.mark.parametrize("p", [2047, 1373653, 25326001])
def test_strong_pseudoprimes_to_the_first_bases_are_refused(p):
    """2047 passes base 2, 1373653 bases 2 and 3, 25326001 bases 2, 3 and 5; base 7 or
    an earlier one refuses each."""
    assert not ring_module._is_prime(p)
    with pytest.raises(StructureError, match=f"modulus {p} is not prime"):
        PrimeField(p)


def test_fields_coerce_only_integers_and_fractions():
    f5 = PrimeField(5)
    assert f5.coerce(Fraction(1, 2)) == 3
    with pytest.raises(NotAUnitError, match="division by zero in F_5"):
        f5.coerce(Fraction(1, 5))
    for field, name in ((QQ, "Q"), (f5, "F_5")):
        with pytest.raises(StructureError, match=f"cannot coerce 1.5 into {name}"):
            field.coerce(1.5)


def test_ring_monomial_and_div_exact_refuse_bad_arguments():
    with pytest.raises(StructureError, match="working precision must be a positive integer, got 0"):
        SeriesRing(QQ, 0)
    with pytest.raises(StructureError, match="negative exponent"):
        R.monomial(-1)
    with pytest.raises(TypeError, match="div_exact expects a Series"):
        R.parse("x").div_exact(2)


def test_random_draws_refuse_empty_ranges():
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match=r"below\(\) needs a positive bound"):
        rng.below(0)
    for low, high in ((-1, 3), (4, 3)):
        with pytest.raises(ValueError, match="bad degree window"):
            draw_series(rng, R, low, high)


def test_field_mismatch_is_refused():
    with pytest.raises(FieldMismatchError):
        R.parse("x") + R5.parse("x")


# -- precision rules ----------------------------------------------------


def test_add_takes_minimum_precision():
    a = R.series([1], prec=7)
    b = R.series([0, 1], prec=23)
    assert (a + b).prec == 7


def test_mul_gains_precision_from_the_order():
    """A product is certified beyond its factors' precision by their orders.

    With a known mod x^37 and of order 3, the unknown tail contributes to
    a*a only from degree 37 + 3 = 40 on.
    """
    a = R.series([0, 0, 0, 1], prec=37)
    assert (a * a).prec == 40
    assert (a * a).order() == 6


def test_mul_with_certified_zero():
    z = R.zero(10)
    x = R.x()
    prod = z * x
    assert prod.is_zero()
    assert prod.prec == min(10 + 1, 40 + 10, 40)


def test_div_exact_golden():
    num = R.parse("x^3 + x^4")
    q = num.div_exact(R.x())
    assert q == R.parse("x^2 + x^3")
    assert q.prec == 39


def test_div_exact_refuses_insufficient_order():
    with pytest.raises(NotDivisibleError):
        R.x().div_exact(R.parse("x^2"))


def test_div_exact_refuses_invisible_divisor():
    with pytest.raises(NotDivisibleError):
        R.x().div_exact(R.zero(10))


def test_div_exact_of_a_zero_known_only_below_the_divisor_order():
    with pytest.raises(PrecisionExhaustedError, match="quotient would carry no certified coefficients"):
        R.zero(2).div_exact(R.parse("x^2"))


def test_div_exact_of_certified_zero():
    q = R.zero(10).div_exact(R.parse("x^2"))
    assert q.is_zero()
    assert q.prec == 8


@pytest.mark.parametrize(
    "a, b, prec",
    [
        # eff_prec(a) - ord(b) = 12 - 2 binds; the divisor's term is 40 - 4 + 3
        ("x^3 + x^5 + O(x^12)", "x^2 + x^3", 10),
        # eff_prec(b) - 2*ord(b) + ord(a) = 10 - 4 + 3 binds; eff_prec(a) - ord(b)
        # and the over-claim eff_prec(b) - ord(b) + ord(a) are both 11
        ("x^3 + O(x^13)", "x^2 + x^3 + O(x^10)", 9),
        # N_work binds, tied with eff_prec(a) - ord(b), which never exceeds it
        ("x^5 + x^7", "1 + x", 40),
    ],
    ids=["dividend", "divisor", "n_work"],
)
def test_div_precision_rule_examples(a, b, prec):
    q = R.parse(a).div_exact(R.parse(b))
    assert q.prec == prec


@pytest.mark.parametrize("ring", [R, R5], ids=["Q", "F5"])
@pytest.mark.parametrize(
    "a, b, prec",
    [
        # eff_prec(a) binds: m = 9 - 2, odd
        ("x^2 + x^3 + O(x^9)", "1 + 2*x", 9),
        # eff_prec(b) + ord(a) = 10 + 2 binds: m = 10, even
        ("x^2 + 3*x^4", "1 + 2*x + O(x^10)", 12),
        # N_work binds, tied with eff_prec(a), which never exceeds it
        ("x^3 + x^4", "1 + 2*x", 40),
        # m = 1
        ("x^3 + O(x^4)", "1 + 2*x", 4),
    ],
    ids=["dividend", "divisor", "n_work", "m1"],
)
def test_div_unit_precision_rule_examples(ring, a, b, prec):
    """The mul rule of a * b.inv_unit(), from a kept inverse of exactly ceil(m/2) digits."""
    a, b = ring.parse(a), ring.parse(b)
    q = a.div_unit(b)
    want = a * b.inv_unit()
    assert q.prec == prec
    assert (q.nums, q.den, q.prec) == (want.nums, want.den, want.prec)
    assert b._inv[2] == (prec - a.order() + 1) // 2


@pytest.mark.parametrize("ring", [R, R5], ids=["Q", "F5"])
def test_div_unit_refuses_bad_arguments(ring):
    """As div_exact does; a kept inverse of a non-unit inverts nums[ord:], so it seeds nothing."""
    a, u = ring.parse("1 + x"), ring.parse("2 + x")
    for args in ((3,), (u, 3)):
        with pytest.raises(TypeError, match="div_unit expects a Series"):
            a.div_unit(*args)
    with pytest.raises(FieldMismatchError):
        a.div_unit(u, (R5 if ring is R else R).parse("1 + x"))
    near = ring.parse("x + x^2")
    ring.parse("x^2").div_exact(near)
    assert near._inv is not None
    with pytest.raises(NotAUnitError):
        a.div_unit(u, near)
    assert getattr(u, "_inv", None) is None


def test_inv_unit_golden():
    u = R.parse("1 + x")
    v = u.inv_unit()
    assert v.prec == 40
    assert all(v.coeff_at(k) == (-1) ** k for k in range(40))
    with pytest.raises(NotAUnitError):
        R.x().inv_unit()


def test_equality_compares_up_to_shared_precision():
    assert R.series([0, 1], prec=40) == R.series([0, 1], prec=10)
    assert R.parse("x") != R.parse("x + x^15")
    assert R.zero(5) == R.zero(30)


def test_truncate_views():
    s = R.parse("x + x^8")
    t = s.truncate(5)
    assert t.prec == 5
    assert t == R.parse("x + O(x^5)")
    assert s.truncate(100) is s


# -- parsing and rendering ---------------------------------------------


def test_parse_golden():
    s = R.parse("1/2*x - x^2")
    assert s.coeff_at(1) == Fraction(1, 2)
    assert s.coeff_at(2) == -1
    assert s.prec == 40


def test_parse_o_tail_sets_precision():
    assert R.parse("x + O(x^5)").prec == 5
    z = R.parse("O(x^7)")
    assert z.is_zero() and z.prec == 7


def test_parse_discards_terms_beyond_the_tail():
    assert R.parse("x + x^10 + O(x^5)") == R.parse("x + O(x^5)")


def test_parse_rejects_misplaced_o():
    with pytest.raises(ParseError):
        R.parse("O(x^3) + x")
    with pytest.raises(ParseError):
        R.parse("x - O(x^3)")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        R.parse("2x")


def test_parse_rejects_poly_variables_in_series():
    with pytest.raises(UnknownVariableError):
        R.parse("Y1")


def test_str_shows_precision_render_does_not():
    s = R.parse("x^3 + 6*x^18 + O(x^37)")
    assert str(s) == "x^3 + 6*x^18 + O(x^37)"
    assert s.render() == "x^3 + 6*x^18"
    assert str(R.zero(40)) == "O(x^40)"
    assert R.zero(40).render() == "0"


def test_render_signs_and_fractions():
    assert R.parse("1 - x").render() == "1 - x"
    assert R.parse("-1/2 + 3/4*x").render() == "-1/2 + 3/4*x"


def test_f5_arithmetic_reduces():
    s = R5.parse("3*x + 4*x^2")
    assert (s + s).coeff_at(1) == 1
    assert R5.parse("1/2").coeff_at(0) == 3
    with pytest.raises(NotAUnitError):
        R5.field.from_pair(1, 5)
    with pytest.raises(ParseError):
        R5.parse("1/5")


# -- properties ---------------------------------------------------------


def _series(ring, max_len=8):
    if ring.field.p is None:
        scalars = st.fractions(
            min_value=-4, max_value=4, max_denominator=4
        )
    else:
        scalars = st.integers(min_value=0, max_value=ring.field.p - 1)
    return st.builds(
        lambda coeffs, prec: ring.series(coeffs, prec),
        st.lists(scalars, min_size=0, max_size=max_len),
        st.integers(min_value=1, max_value=ring.n_work),
    )


@settings(max_examples=120)
@given(_series(R), _series(R))
def test_add_precision_rule(a, b):
    assert (a + b).prec == min(a.prec, b.prec)


@settings(max_examples=120)
@given(_series(R), _series(R))
def test_mul_precision_rule(a, b):
    got = a * b
    want = min(a.prec + b.order_floor(), b.prec + a.order_floor(), R.n_work)
    assert got.prec == want


@settings(max_examples=120)
@given(_series(R), _series(R), _series(R))
def test_ring_laws_hold_at_shared_precision(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=120)
@given(_series(R5), _series(R5))
def test_product_division_roundtrip(a, b):
    if b.is_zero():
        return
    prod = a * b
    q = prod.div_exact(b)
    assert q == a


@settings(max_examples=100)
@given(_series(R))
def test_parse_of_str_is_identity(s):
    back = R.parse(str(s))
    assert back == s
    assert back.prec == s.prec


@settings(max_examples=80)
@given(_series(R5))
def test_unit_inverse_property(u):
    if u.order() != 0:
        return
    assert u * u.inv_unit() == R5.one()


# -- the product, inverse and quotient against a schoolbook reference ------

RINGS = (SeriesRing(QQ, 24), SeriesRing(PrimeField(5), 24), SeriesRing(PrimeField(2**31 - 1), 24))


def _scalar(field):
    if field.p is None:
        small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
        tall = st.builds(Fraction, st.integers(-(2**260), 2**260), st.integers(1, 2**80))
        return st.one_of(small, tall)
    return st.integers(min_value=0, max_value=field.p - 1)


@st.composite
def _wide_series(draw, ring, min_order=0, max_order=None, exact_order=False):
    """Series with negative, tall or zero coefficients, leading zeros and any precision.

    With exact_order the order is known and at least min_order; otherwise
    the series may also be zero.
    """
    field = ring.field
    if max_order is None:
        max_order = min_order + 3
    order = draw(st.integers(min_value=min_order, max_value=max_order))
    head = _scalar(field).filter(bool) if exact_order else _scalar(field)
    coeffs = [0] * order + [draw(head)] + draw(st.lists(_scalar(field), max_size=ring.n_work))
    prec = draw(st.integers(min_value=order + 1, max_value=ring.n_work))
    return ring.series(coeffs, prec)


def _canonical(field, v):
    return v if field.p is None else v % field.p


def _stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _school_mul(a, b):
    field = a.ring.field
    prec = min(a.prec + b.order_floor(), b.prec + a.order_floor(), a.ring.n_work)
    out = [field.zero] * prec
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < prec:
                out[i + j] = _canonical(field, out[i + j] + x * y)
    return _stripped(out), prec


def _school_div(a, b):
    """a / b by the recurrence q_k = (a_k - sum_{i<k} q_i b_{k-i}) / b_0, after removing orders."""
    field = a.ring.field
    oa, ob = a.order(), b.order()
    qprec = min(a.prec - ob, b.prec - 2 * ob + oa, a.ring.n_work)
    shift = oa - ob
    num, den = a.coeffs[oa:], b.coeffs[ob:]
    inv0 = 1 / den[0] if field.p is None else pow(den[0], -1, field.p)
    q = []
    for k in range(qprec - shift):
        s = num[k] if k < len(num) else field.zero
        for i in range(max(0, k - len(den) + 1), k):
            s -= q[i] * den[k - i]
        q.append(_canonical(field, s * inv0))
    return _stripped([field.zero] * shift + q), qprec


def _assert_same(got, want):
    coeffs, prec = want
    assert got.coeffs == coeffs
    assert got.prec == prec
    field = got.ring.field
    if field.p is None:
        assert all(type(v) is Fraction for v in got.coeffs)
    else:
        assert all(type(v) is int and 0 <= v < field.p for v in got.coeffs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mul_matches_schoolbook(data):
    ring = data.draw(st.sampled_from(RINGS))
    a = data.draw(_wide_series(ring))
    b = data.draw(_wide_series(ring))
    _assert_same(a * b, _school_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inv_unit_matches_schoolbook(data):
    ring = data.draw(st.sampled_from(RINGS))
    u = data.draw(_wide_series(ring, max_order=0, exact_order=True))
    _assert_same(u.inv_unit(), _school_div(ring.series([1], u.prec), u))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_div_exact_matches_schoolbook(data):
    ring = data.draw(st.sampled_from(RINGS))
    b = data.draw(_wide_series(ring, exact_order=True))
    a = data.draw(_wide_series(ring, min_order=b.order(), exact_order=True))
    _assert_same(a.div_exact(b), _school_div(a, b))


@pytest.mark.parametrize("ring", RINGS, ids=("Q", "F5", "Fbig"))
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_divisor_serves_every_dividend(ring, data):
    """Dividing many series by one divisor object gives what a fresh divisor gives each time.

    The divisor keeps its inverse after the first division, and the first
    dividend is cut short, so an inverse kept at that call's length would be
    too short for the dividends after it.
    """
    b = data.draw(_wide_series(ring, exact_order=True))
    ob = b.order()
    first = data.draw(_wide_series(ring, min_order=ob, exact_order=True))
    first = first.truncate(data.draw(st.integers(first.order() + 1, first.order() + 2)))
    rest = data.draw(st.lists(_wide_series(ring, min_order=ob, exact_order=True), min_size=1, max_size=5))
    for a in [first] + rest:
        got = a.div_exact(b)
        fresh = a.div_exact(ring.series(b.coeffs, b.prec))
        assert (got.nums, got.den, got.prec) == (fresh.nums, fresh.den, fresh.prec)
        _assert_same(got, _school_div(a, b))


# -- the stored form and its packing --------------------------------------

SMALL_RINGS = (SeriesRing(PrimeField(2), 24), SeriesRing(PrimeField(3), 24))


def _reference_str(field, coeffs, prec):
    """str() of a series as the Fraction form renders it."""
    out = ""
    for k, v in enumerate(coeffs):
        if not v:
            continue
        neg = field.p is None and v < 0
        mag = -v if neg else v
        xs = "" if k == 0 else "x" if k == 1 else f"x^{k}"
        body = str(mag) if not xs else xs if mag == 1 else f"{mag}*{xs}"
        out += ("-" if neg else "") + body if not out else (" - " if neg else " + ") + body
    return f"{out} + O(x^{prec})" if out else f"O(x^{prec})"


def _check_stored(s, want):
    """s is in canonical stored form and reads out as the Fraction form `want` would."""
    coeffs, prec = want
    field = s.ring.field
    nums, den = s.nums, s.den
    assert s.prec == prec
    assert type(nums) is tuple and all(type(v) is int for v in nums) and type(den) is int
    assert not nums or nums[-1] != 0
    if field.p is None:
        assert den > 0 and gcd(den, *nums) == 1
    else:
        assert den == 1 and all(0 <= v < field.p for v in nums)
    assert s.coeffs == coeffs
    assert all(type(v) is type(field.zero) for v in s.coeffs)
    for k in range(prec + 2):
        got = s.coeff_at(k)
        assert got == (coeffs[k] if k < len(coeffs) else 0) and type(got) is type(field.zero)
    assert str(s) == _reference_str(field, coeffs, prec)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stored_form_is_canonical_after_every_operation(data):
    ring = data.draw(st.sampled_from(RINGS + SMALL_RINGS))
    field = ring.field

    def drawn(unit=False):
        head = [data.draw(_scalar(field).filter(bool))] if unit else []
        coeffs = head + data.draw(st.lists(_scalar(field), max_size=ring.n_work))
        prec = data.draw(st.integers(min_value=1, max_value=ring.n_work))
        s = ring.series(coeffs, prec)
        want = (_stripped(coeffs[:prec]), prec)
        _check_stored(s, want)
        return s, want

    def padded(want, n):
        return list(want[0][:n]) + [0] * (n - len(want[0][:n]))

    (a, wa), (b, wb), (u, wu) = drawn(), drawn(), drawn(unit=True)
    prec = min(a.prec, b.prec)
    pa, pb = padded(wa, prec), padded(wb, prec)
    _check_stored(a + b, (_stripped(_canonical(field, x + y) for x, y in zip(pa, pb)), prec))
    _check_stored(a - b, (_stripped(_canonical(field, x - y) for x, y in zip(pa, pb)), prec))
    _check_stored(-a, (_stripped(_canonical(field, -x) for x in wa[0]), a.prec))
    _check_stored(a * b, _school_mul(a, b))
    _check_stored(u.inv_unit(), _school_div(ring.series([1], u.prec), u))
    if not a.is_zero():
        _check_stored(a.div_exact(u), _school_div(a, u))
    k = data.draw(st.integers(min_value=1, max_value=ring.n_work))
    _check_stored(a.truncate(k), (_stripped(wa[0][:k]), min(k, a.prec)))
    _check_stored(ring.parse(str(a)), wa)


def _stored(s):
    return s.nums, s.den, s.prec


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sums_and_unit_products_match_the_full_pipeline(data):
    """Covering zeros, units at every precision, and differences either way round.

    A zero certified at least to a.prec and 1 at full precision give a
    itself; every other case must still give what the full pipeline gives.
    Over Q also sums of a series s and s/k, whose denominators divide one
    another, and products of a one-term factor c*x^j with s/k, whose
    denominator shares a factor with c, on either side and squared.
    """
    ring = data.draw(st.sampled_from(RINGS))
    n = ring.n_work
    a = data.draw(_wide_series(ring))
    b = data.draw(_wide_series(ring))
    for s, t in ((a, b), (b, a), (a, a), (a, b.truncate(max(1, b.prec // 2)))):
        assert _stored(s - t) == _stored(reference.minus(s, t))
        assert _stored(s + t) == _stored(reference.plus(s, t))
    qs = {a.prec - 1, a.prec, a.prec + 1, data.draw(st.integers(1, n))}
    for z in [ring.zero(q) for q in qs if q >= 1]:
        want = _stored(reference.plus(a, z))
        assert _stored(a + z) == _stored(z + a) == want
        assert (a + z is a) == (z.prec >= a.prec)
    c = data.draw(_scalar(ring.field))
    third = ring.scalar(ring.field.from_pair(1, 3))
    units = [ring.one(), third, ring.scalar(c), ring.series([1], data.draw(st.integers(1, n - 1)))]
    for u in units:
        want = _stored(reference.times(a, u))
        assert _stored(a * u) == _stored(u * a) == want
    q = RINGS[0]
    s = data.draw(_wide_series(q))
    j = data.draw(st.integers(0, 3))
    monomials = [q.monomial(j, c) for c in (1, -1, 2, -2, 6, 12, 3 * 2**70)]
    terms = monomials + [t.truncate(j + 1) for t in monomials]
    for t in terms:
        assert _stored(t * t) == _stored(reference.times(t, t))
    for k in (2, 3, 4, 6, 12, 2**80):
        sk = s * q.scalar(Fraction(1, k))
        for x, y in ((s, sk), (sk, s)):
            assert _stored(x + y) == _stored(reference.plus(x, y))
            assert _stored(x - y) == _stored(reference.minus(x, y))
        for t in terms:
            want = _stored(reference.times(t, sk))
            assert _stored(t * sk) == _stored(sk * t) == want


@pytest.mark.parametrize("ring", RINGS, ids=("Q", "F5", "Fbig"))
def test_a_covering_zero_and_one_return_the_operand(ring):
    a = ring.series([3, 0, 2, 1], 20)
    assert a + ring.zero() is a and ring.zero() + a is a
    assert a - ring.zero(a.prec) is a
    assert ring.one() * a is a and a * ring.one() is a
    cut = a + ring.zero(7)
    assert cut is not a
    assert _stored(cut) == _stored(a.truncate(7)) == (a.nums, a.den, 7)


def test_a_monomial_beyond_the_working_precision_allocates_nothing():
    ring = SeriesRing(QQ, 40)
    start = time.perf_counter()
    s = ring.parse("x^999999999 + x")
    big = ring.monomial(10**18, Fraction(1, 3))
    assert time.perf_counter() - start < 0.5
    assert str(s) == "x + O(x^40)"
    assert big.is_zero() and big.prec == 40


# Slot widths in the Kronecker product: residues of F2 and F3 and short
# vectors give 1-byte slots; F_(2^31-1) gives exactly 8 bytes up to length 3
# and 9 bytes beyond; Q integers near 2^27 fill 8 bytes at length 80, and near
# 2^63 or 2^128 need slots of 17 to 33 plain bytes.
BOUNDARY_RINGS = (
    SeriesRing(PrimeField(2), 80),
    SeriesRing(PrimeField(3), 80),
    SeriesRing(PrimeField(2**31 - 1), 80),
    SeriesRing(QQ, 80),
)


@st.composite
def _boundary_series(draw, ring, unit=False):
    field = ring.field
    if field.p is None:
        bits = draw(st.sampled_from((7, 8, 27, 28, 31, 32, 62, 63, 64, 65, 127, 128, 129)))
        top = 2**bits - 1
        scalar = st.one_of(st.integers(-top, top), st.sampled_from((top, -top, 2 ** (bits - 1), -(2 ** (bits - 1)))))
    else:
        scalar = st.one_of(st.integers(0, field.p - 1), st.just(field.p - 1))
    n = draw(st.sampled_from((1, 2, 3, 4, 8, 9, 63, 64, 65, 80)))
    coeffs = draw(st.lists(scalar, min_size=n, max_size=n))
    if unit:
        coeffs[0] = draw(scalar.filter(bool))
    prec = draw(st.integers(min_value=n if unit else 1, max_value=ring.n_work))
    return ring.series(coeffs, prec)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mul_matches_schoolbook_at_slot_boundaries(data):
    ring = data.draw(st.sampled_from(BOUNDARY_RINGS))
    a = data.draw(_boundary_series(ring))
    b = data.draw(_boundary_series(ring))
    _assert_same(a * b, _school_mul(a, b))
    _assert_same(a * a, _school_mul(a, a))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inv_unit_matches_schoolbook_at_slot_boundaries(data):
    ring = data.draw(st.sampled_from(BOUNDARY_RINGS))
    u = data.draw(_boundary_series(ring, unit=True))
    _assert_same(u.inv_unit(), _school_div(ring.series([1], u.prec), u))


WARM_RINGS = (
    SeriesRing(QQ, 80),
    SeriesRing(PrimeField(5), 80),
    SeriesRing(PrimeField(2**31 - 1), 80),
)


def _fresh(s):
    """A series equal to s that keeps no inverse."""
    return s.ring.series(s.coeffs, s.prec)


def _tampered(s, k):
    """A series equal to s that keeps s's inverse, made wrong at x^k."""
    g, den, length = s._inv
    g = list(g) + [0] * (k + 1 - len(g))
    p = s.ring.field.p
    g[k] = g[k] + 1 if p is None else (g[k] + 1) % p
    out = _fresh(s)
    object.__setattr__(out, "_inv", (g, den, length))
    return out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_a_warm_inverse_is_the_cold_one(data):
    """An inverse started from near's kept one stores what inv_unit() stores.

    near agrees with u through x^(j-1), from any j, and keeps its inverse:
    what Newton hands from one step to the next.  Over Q, u also gets a
    denominator.
    """
    ring = data.draw(st.sampled_from(WARM_RINGS))
    u = data.draw(_boundary_series(ring, unit=True))
    if ring.field.p is None:
        u = u * ring.scalar(Fraction(1, data.draw(st.integers(1, 12))))
    j = data.draw(st.integers(1, u.prec))
    tail = data.draw(_boundary_series(ring))
    near = ring.series(u.coeffs[:j]) + ring.monomial(j) * tail
    near._kept_inverse(near.prec)
    cold = u.inv_unit()
    g, den = _fresh(u)._kept_inverse(u.prec, near=near)
    warm = ring_module.Series._make(ring, [v * u.den for v in g], u.prec, den)
    assert _stored(warm) == _stored(cold)
    one = ring.series([1], u.prec)
    assert _stored(one.div_unit(_fresh(u), near)) == _stored(cold)


@pytest.mark.parametrize("ring", [R, R5], ids=["Q", "F5"])
def test_a_tampered_warm_inverse_fails_the_identity(ring):
    """Also a start that already covers the half length, from which Newton takes no step."""
    u = ring.series([2, 1, 3, 1, 4, 1, 3, 2, 2])
    one = ring.series([1], u.prec)
    one.div_exact(u)
    for n in (6, 20, u.prec):
        for k in (0, 3, 5):
            near = _tampered(u, k)
            g, den, _ = near._inv
            object.__setattr__(near, "_inv", (g[:n], den, n))
            with pytest.raises(IdentityFailedError):
                one.div_unit(_fresh(u), near)


@pytest.mark.parametrize("ring", WARM_RINGS, ids=["Q", "F5", "Fbig"])
def test_an_inverse_from_a_start_wrong_at_any_digit_fails_the_identity(ring):
    """Every Newton step of _inverse checks b*g = den below its start's length h.

    From an exact start of length h, Newton lands on the cold inverse; with
    the start made wrong at digit j, for every j < h, it raises, whether one
    step follows or several.
    """
    p = ring.field.p
    rng = random.Random(7)
    b = ring.series([3] + [rng.randint(-9, 9) for _ in range(63)]).nums
    for h in (1, 2, 5, 8, 21):
        g, den = ring_module._inverse(b, h, p)
        g = g + [0] * (h - len(g))
        for n in sorted({h + 1, 2 * h, 3 * h + 1}):
            assert ring_module._inverse(b, n, p, (g, den, h)) == ring_module._inverse(b, n, p)
            for j in range(h):
                bad = list(g)
                bad[j] = bad[j] + 1 if p is None else (bad[j] + 1) % p
                with pytest.raises(IdentityFailedError):
                    ring_module._inverse(b, n, p, (bad, den, h))


@pytest.mark.parametrize("ring", WARM_RINGS, ids=["Q", "F5", "Fbig"])
def test_a_quotient_matches_schoolbook_on_every_remainder_segment(ring):
    """_quotient against _school_div, from q0 = a*g and g = 1/b mod x^h, for m from h to 2h.

    The remainder is checked zero below h, is a - b*q0 over a's own digits
    and -b*q0 past them, so the dividends have fewer than h digits, exactly
    h, more, and more than m; a = 1 is the inverse step of _inverse.
    """
    p = ring.field.p
    rng = random.Random(2029)

    def digits(n):
        return [rng.randrange(p) if p else rng.randint(-(2**70), 2**70) for _ in range(n)]

    b = [3] + digits(40)
    divisor = ring.series(b)
    for h in (1, 2, 5, 8, 13):
        g, den = ring_module._inverse(b, h, p)
        for m in range(h, 2 * h + 1):
            q, dq = ring_module._quotient((1,), b, g + [0] * (h - len(g)), g, den, m, p)
            _assert_same(ring_module.Series._make(ring, q, m, dq), _school_div(ring.series([1], m), divisor))
            for n in sorted({1, max(1, h - 1), h, h + 1, m, m + 3}):
                a = [rng.randrange(1, p) if p else rng.choice((-5, 7, 2**65 + 1))] + digits(n - 1)
                q, dq = ring_module._quotient(a, b, _kmul(a, g, h, p), g, den, m, p)
                got = ring_module.Series._make(ring, q, m, dq)
                _assert_same(got, _school_div(ring.series(a, m), divisor))


@pytest.mark.parametrize("p", [None, 5], ids=["Q", "F5"])
def test_a_cold_inverse_makes_two_products_per_doubling_step(monkeypatch, p):
    """To n = 320 from 1/b[0], through the targets 2, 3, 5, 10, ..., 160, 320.

    Each step is one _quotient: b*g to the target k, and the inverse times
    the remainder's k - h digits past the previous length h.
    """
    rng = random.Random(11)
    b = [rng.randint(1, 4)] + [rng.randint(-9, 9) if p is None else rng.randrange(p) for _ in range(319)]
    plain, sizes = ring_module._kmul, []

    def kmul(a, c, m, p):
        sizes.append(m)
        return plain(a, c, m, p)

    monkeypatch.setattr(ring_module, "_kmul", kmul)
    g, den = ring_module._inverse(b, 320, p)
    targets = [1, 2, 3, 5, 10, 20, 40, 80, 160, 320]
    assert sizes == [m for h, k in zip(targets, targets[1:]) for m in (k, k - h)]
    assert plain(b, g, 320, p) == [den] + [0] * 319


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_div_unit_stores_the_product_by_the_inverse(data):
    """a.div_unit(b) against _school_div and a * b.inv_unit(), from half an inverse.

    b keeps its inverse to h = ceil(m/2) digits, or already keeps a few more
    from an earlier request.  The draws cover odd and even m and m = 1,
    dividends shorter than h and zero, divisors with fewer stored
    coefficients than m, and over Q denominators on both sides.  A kept
    inverse tampered below x^h fails the identity.
    """
    ring = data.draw(st.sampled_from(BOUNDARY_RINGS + WARM_RINGS))
    n = ring.n_work
    b = data.draw(_boundary_series(ring, unit=True))
    oa = data.draw(st.integers(0, 3))
    prec = data.draw(st.integers(oa + 1, n))
    if data.draw(st.booleans()):
        a = (ring.monomial(oa) * data.draw(_boundary_series(ring, unit=True))).truncate(prec)
    else:
        a = ring.zero(prec)
    if ring.field.p is None:
        a = a * ring.scalar(Fraction(1, data.draw(st.integers(1, 12))))
        b = b * ring.scalar(Fraction(1, data.draw(st.integers(1, 12))))
    want = a * b.inv_unit()
    h = max(1, (want.prec - a.order_floor() + 1) // 2)
    length = min(b.prec, h + data.draw(st.integers(0, 2)))
    b._kept_inverse(length)
    got = a.div_unit(b)
    assert (got.nums, got.den, got.prec) == (want.nums, want.den, want.prec)
    if a.is_zero():
        return
    assert b._inv[2] == max(h, length)
    _assert_same(got, _school_div(a, b))
    k = data.draw(st.integers(0, h - 1))
    with pytest.raises(IdentityFailedError):
        a.div_unit(_tampered(b, k))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_kept_and_seeded_inverses_store_the_product_by_the_inverse(data):
    """Quotients by a unit u that keeps its inverse or starts it from near's.

    near agrees with u through x^(j-1), j = 0, below or past the half length
    h, and keeps an inverse from a div_unit, from a div_exact, or none; over
    Q it has a denominator of its own.  A second, longer quotient by u goes
    on from u's kept inverse, as on an r = 2 Newton step, and a div_exact
    after div_unit, or a div_unit after div_exact, stores what it stores by
    a fresh equal divisor.  A tampered kept inverse on near fails the
    identity, whether its cut is shorter than h or covers it, and u keeps
    nothing from it.
    """
    ring = data.draw(st.sampled_from(BOUNDARY_RINGS + WARM_RINGS))
    p = ring.field.p

    def scaled(s):
        return s if p is not None else s * ring.scalar(Fraction(1, data.draw(st.integers(1, 12))))

    u = scaled(data.draw(_boundary_series(ring, unit=True)))
    j = data.draw(st.integers(0, u.prec))
    tail = scaled(data.draw(_boundary_series(ring, unit=j == 0)))
    near = ring.series(u.coeffs[:j]) + ring.monomial(j) * tail
    keep = data.draw(st.sampled_from(("div_unit", "div_exact", None)))
    if keep == "div_unit":
        ring.one().truncate(data.draw(st.integers(1, ring.n_work))).div_unit(near)
    elif keep == "div_exact":
        ring.one().div_exact(near)
    oa = data.draw(st.integers(0, 3))
    unit = data.draw(_boundary_series(ring, unit=True))
    a = scaled((ring.monomial(oa) * unit).truncate(data.draw(st.integers(oa + 1, ring.n_work))))
    first = a.truncate(data.draw(st.integers(oa + 1, a.prec)))
    h = ((first * u.inv_unit()).prec - oa + 1) // 2
    h0 = (u - near).order_floor()
    if keep and h0:
        k = data.draw(st.integers(0, min(h0, near._inv[2], h) - 1))
        v = _fresh(u)
        with pytest.raises(IdentityFailedError):
            first.div_unit(v, _tampered(near, k))
        assert getattr(v, "_inv", None) is None
    for b in (first, a):
        got = b.div_unit(u, near)
        assert _stored(got) == _stored(b * u.inv_unit())
        _assert_same(got, _school_div(b, u))
    assert _stored(a.div_exact(u)) == _stored(a.div_exact(_fresh(u)))
    v = _fresh(u)
    a.div_exact(v)
    for b in (first, a):
        assert _stored(b.div_unit(v, near)) == _stored(b.div_unit(_fresh(u), near))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_div_exact_matches_schoolbook_at_slot_boundaries(data):
    ring = data.draw(st.sampled_from(BOUNDARY_RINGS))
    b = data.draw(_boundary_series(ring, unit=True))
    a = data.draw(_boundary_series(ring, unit=True))
    _assert_same(a.div_exact(b), _school_div(a, b))


def _school_ints(a, b, m):
    out = [0] * m
    for i, x in enumerate(a[:m]):
        for j, y in enumerate(b[: m - i]):
            out[i + j] += x * y
    return out


def test_kmul_matches_schoolbook_at_every_slot_width():
    """Product slots of 1 to about 80 bytes, signed (Q) and residues (F_p)."""
    rng = random.Random(2024)
    p = 2**31 - 1
    for n in (1, 2, 3, 5, 16, 33):
        for bits in (*range(0, 150, 3), *range(150, 320, 13)):
            top = 2**bits
            a = [rng.randrange(-top, top + 1) for _ in range(n)]
            b = [rng.randrange(-top, top + 1) for _ in range(n)]
            a[rng.randrange(n)] = rng.choice((top, -top))
            for m in (n, 2 * n - 1):
                assert _kmul(a, b, m, None) == _school_ints(a, b, m)
                assert _kmul(a, a, m, None) == _school_ints(a, a, m)
            r = [v % min(top, p) for v in a]
            s = [v % min(top, p) for v in b]
            assert _kmul(r, s, n, p) == [v % p for v in _school_ints(r, s, n)]


def test_kmul_scales_by_a_one_term_factor():
    """A one-coefficient operand on either side, 1 and -1 among them, with m beyond the longer operand."""
    rng = random.Random(2025)
    p = 2**31 - 1
    for n in (1, 2, 5, 33):
        for bits in (0, 3, 63, 64, 200):
            top = 2**bits
            a = [rng.randrange(-top, top + 1) for _ in range(n)]
            for c in ([rng.randrange(-top, top + 1)], [1], [-1]):
                for m in (1, n, n + 1, 2 * n + 5):
                    assert _kmul(c, a, m, None) == _school_ints(c, a, m)
                    assert _kmul(a, c, m, None) == _school_ints(a, c, m)
                    assert _kmul(c, c, m, None) == _school_ints(c, c, m)
                    r, s = [v % p for v in a], [c[0] % p]
                    assert _kmul(s, r, m, p) == [v % p for v in _school_ints(s, r, m)]
                    assert _kmul(r, s, m, p) == [v % p for v in _school_ints(r, s, m)]


def test_kmul_matches_schoolbook_in_ten_byte_residue_slots(monkeypatch):
    """F_(2^31-1) product slots are 9 bytes below length 1024 and 10 bytes from it on."""
    rng = random.Random(2026)
    p = 2**31 - 1
    widths = []
    plain = ring_module._pack

    def recording(v, w, p, ones):
        widths.append(w)
        return plain(v, w, p, ones)

    monkeypatch.setattr(ring_module, "_pack", recording)
    for n, w in ((1023, 9), (1024, 10)):
        a = [rng.randrange(p) for _ in range(2 * n)]
        b = [rng.randrange(p) for _ in range(n)]
        a[0] = b[-1] = p - 1
        for x, y, m in ((a[:n], b, n), (b, b, n), (a, b, 2 * n), (b, a, 2 * n - 1)):
            widths.clear()
            assert _kmul(x, y, m, p) == [v % p for v in _school_ints(x, y, m)]
            assert set(widths) == {w}, (n, m, widths)
    # 1100 products of (p-1)^2 pass 2^72, so the top slot byte is used
    top = [p - 1] * 1100
    assert _kmul(top, top[:], 1100, p) == [v % p for v in _school_ints(top, top, 1100)]


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(2**31 - 1)], ids=str)
def test_div_exact_by_a_monomial_or_a_constant_packs_nothing(field, monkeypatch):
    """A one-term divisor has a one-term inverse, so the quotient is a scaling."""
    ring = SeriesRing(field, 160)
    rng = random.Random(2027)
    packs = []
    plain = ring_module._pack

    def counting(*args):
        packs.append(args[1])
        return plain(*args)

    monkeypatch.setattr(ring_module, "_pack", counting)
    for k in (0, 1, 9):
        a = ring.series([0] * k + [rng.randrange(1, 10**12) for _ in range(150)])
        for coeff in (1, 3, -7) if field.p is None else (1, 3, field.p - 1):
            for divisor in (ring.monomial(k, coeff), ring.monomial(k, coeff) + ring.zero(120)):
                packs.clear()
                q = a.div_exact(divisor)
                assert packs == [], (k, coeff)
                _assert_same(q, _school_div(a, divisor))


def test_kmul_matches_schoolbook_on_wide_residue_slots():
    """Wide residue slots move by strided copies at every length, short vectors included.

    Two 31-bit residues need a slot wider than 8 bytes once the shorter factor has four
    coefficients, so lengths 2..20 on both sides cover each side of that.
    """
    rng = random.Random(2028)
    p = 2**31 - 1

    def check(la, lb, ms):
        a = [rng.randrange(p) for _ in range(la)]
        b = [rng.randrange(p) for _ in range(lb)]
        a[-1] = b[0] = p - 1
        for m in ms:
            assert _kmul(a, b, m, p) == [v % p for v in _school_ints(a, b, m)], (la, lb, m)

    for la in (4, 15, 16, 17, 48):
        for lb in (4, 15, 16, 32):
            check(la, lb, {min(la, lb), max(la, lb), 15, 16, la + lb - 1})
    for la in range(2, 21):
        for lb in range(2, 21):
            check(la, lb, {2, min(la, lb), max(la, lb), la + lb - 1})


# -- residues of small primes through byte tables -------------------------

# Residues of every prime below 128 are reduced through byte tables; 131 is
# the least prime whose residues are not.
TABLE_PRIMES = [p for p in range(2, 128) if ring_module._is_prime(p)]


def _width_steps(p):
    """Factor lengths on both sides of each step of a residue product's cell width.

    A cell holds two residues' bits and those of the shorter factor's
    length, so the width steps where 2*bitlen(p - 1) + bitlen(n) passes 8
    and 16 bits; length 2 is the shortest that is packed at all.
    """
    lengths = {2}
    for bits in (8, 16):
        k = bits - 2 * (p - 1).bit_length()
        if k >= 1:
            lengths |= {max(2, 2**k - 1), 2**k}
    return sorted(lengths)


def _residue_series(ring, rng, n, order=0, prec=None):
    """A unit times x^order with n coefficients: zeros, 1, p - 1 and any residue, its last one nonzero.

    With prec None the precision is drawn, and may cut the coefficients short.
    """
    p = ring.field.p
    coeffs = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(n)]
    coeffs[0] = rng.randrange(1, p)
    coeffs[-1] = rng.randrange(1, p)
    return ring.series([0] * order + coeffs, rng.randint(order + 1, ring.n_work) if prec is None else prec)


def _check_residue_arithmetic(p, rng):
    """Every residue pass of F_p against the reference, in stored form."""
    ring = SeriesRing(PrimeField(p), 80)
    a = _residue_series(ring, rng, 60)
    b = _residue_series(ring, rng, 70)
    u = _residue_series(ring, rng, 40)
    tail = ring.series(list(a.nums[:20]) + [1, 0, 0], a.prec)
    zero = ring.zero(50)
    pairs = ((a, b), (b, a), (a, a), (a, -a), (a, a + ring.one()), (a, tail), (tail, a),
             (a, zero), (zero, a), (a, b.truncate(7)))
    for x, y in pairs:
        assert _stored(x + y) == _stored(reference.plus(x, y)), (p, "sum")
        assert _stored(x - y) == _stored(reference.minus(x, y)), (p, "difference")
    for x in (a, b, tail, zero, ring.series([p - 1] * 80)):
        assert _stored(-x) == _stored(reference.negate(x)), (p, "negation")
    for c in sorted({1, 2 % p, p - 1, rng.randrange(p)}):
        for t in (ring.scalar(c), ring.monomial(3, c), ring.monomial(5, c) + ring.zero(40)):
            assert _stored(t * a) == _stored(a * t) == _stored(reference.times(a, t)), (p, c, "scaling")
    assert _stored(a.div_unit(u)) == _stored(reference.quotient(a, u)), (p, "div_unit")
    near = u + ring.monomial(9, 1)
    b.div_unit(near)
    assert _stored(a.div_unit(u, near)) == _stored(reference.quotient(a, u)), (p, "div_unit near")
    d = _residue_series(ring, rng, 30, order=4)
    for x in (a * d, a * d + ring.monomial(4, 1), ring.zero(70)):
        assert _stored(x.div_exact(d)) == _stored(reference.quotient(x, d)), (p, "div_exact")
    for n in _width_steps(p):
        big = SeriesRing(PrimeField(p), 2 * n)
        x, y = _residue_series(big, rng, n, prec=2 * n), _residue_series(big, rng, n, prec=2 * n)
        for s, t in ((x, y), (x, x), (x, y.truncate(n + 1))):
            assert _stored(s * t) == _stored(reference.times(s, t)), (p, n, "product")


@pytest.mark.parametrize("p", TABLE_PRIMES + [131])
def test_residue_arithmetic_of_small_primes_matches_the_reference(p, monkeypatch):
    """Sums, differences, negation, scaling, quotients and products at cell widths 1, 2 and 4.

    Products read through tables exactly where a cell's bytes, each reduced,
    sum inside one byte: w*(p - 1) < 256.  So p = 127 reads its 2-byte cells
    through them and its 4-byte cells not, and 131 never uses a table.
    """
    widths, tabled = set(), set()
    pack, residues = ring_module._pack, ring_module._residues

    def recording_pack(v, w, q, ones):
        widths.add(w)
        return pack(v, w, q, ones)

    def recording_residues(raw, w, q):
        tabled.add(w)
        return residues(raw, w, q)

    def refused(q):
        raise AssertionError(f"F_{q} asked for byte tables")

    monkeypatch.setattr(ring_module, "_pack", recording_pack)
    monkeypatch.setattr(ring_module, "_residues", recording_residues)
    if p > 127:
        monkeypatch.setattr(ring_module, "_tables", refused)
    _check_residue_arithmetic(p, random.Random(p))
    assert widths == ({1, 2, 4} if p < 8 else {2, 4} if p < 128 else {4}), widths
    assert tabled == {w for w in widths if w * (p - 1) < 256}, tabled
    if p == 127:
        assert tabled == {2}


def test_a_broken_byte_table_fails_the_residue_reference(monkeypatch):
    """One wrong byte in the reduction, negation or scaling table of F_5 fails the check."""
    tables = ring_module._tables

    for c in (1, 4, 2):
        def broken(q, c=c):
            t = list(tables(q))
            if q == 5:
                row = bytearray(t[c])
                row[3] = (row[3] + 1) % 5
                t[c] = bytes(row)
            return tuple(t)

        monkeypatch.setattr(ring_module, "_tables", broken)
        with pytest.raises(AssertionError):
            _check_residue_arithmetic(5, random.Random(5))
    monkeypatch.undo()
    _check_residue_arithmetic(5, random.Random(5))


def test_negation_keeps_the_stored_pair_reduced():
    """-a over Q is built without a content gcd; it must still be what the pipeline gives."""
    rng = random.Random(2029)
    for _ in range(50):
        n = rng.randint(0, 12)
        coeffs = [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**6)) for _ in range(n)]
        a = R.series(coeffs + [0] * rng.randint(0, 3), rng.randint(1, R.n_work))
        assert _stored(-a) == _stored(reference.negate(a))
        assert _stored(-(-a)) == _stored(a)
