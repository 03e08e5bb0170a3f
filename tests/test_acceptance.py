"""The acceptance gate: one test per criterion, timed, summarized after the run.

Each criterion records a PASS or FAIL verdict into the shared table that
conftest prints at the end of the session, then enforces its time budget.
"""

import contextlib
import time

import pytest

import check_corpus
import conftest
import helpers
from arclift import (
    OutOfFamilyError,
    Poly,
    PolyMatrix,
    QQ,
    SeriesRing,
    SplitMix64,
    build_model,
    draw_series,
    extract_params,
    extract_t,
    make_lift,
    offset_lift,
    oracle_enumerate,
)
from arclift.cli import main


@contextlib.contextmanager
def criterion(n, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS[n] = ("FAIL", label)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        conftest.ACCEPTANCE_RESULTS[n] = (
            "FAIL",
            f"{label} [took {elapsed:.2f}s, budget {budget:.0f}s]",
        )
        raise AssertionError(f"criterion {n} exceeded its {budget:.0f}s budget")
    conftest.ACCEPTANCE_RESULTS[n] = ("PASS", label)


def _monomial_models():
    rng = SplitMix64(2026)
    ring = SeriesRing(QQ)
    out = []
    for q in (2, 3):
        for p in range(2, 7):
            arc = ring.x() + draw_series(rng, ring, 2, 6)
            out.append(build_model(helpers.monomial_curve_problem(ring, q, p, arc)))
    return out


def _matrix_identity_is_exact(model):
    h_mat, g_mat = helpers.bordered(model)
    p_id = PolyMatrix.identity(model.ring, model.problem.space, model.n).scale(model.p_poly)
    assert g_mat.mul(h_mat) == p_id
    assert h_mat.mul(g_mat) == p_id


def test_criterion_1(cusp_q, node):
    with criterion(1, "matrix identity G*H = H*G = P*Id on 12 models", budget=1.0):
        _matrix_identity_is_exact(cusp_q)
        _matrix_identity_is_exact(node)
        for model in _monomial_models():
            _matrix_identity_is_exact(model)


def _taylor_identity_is_exact(model):
    prob = model.problem
    tvars = {
        nm: Poly.variable(model.ring, model.tspace, nm) for nm in model.tspace.names
    }
    for i, f in enumerate(prob.f_polys):
        lhs = f.subst(model.images, model.tspace)
        inner = (
            Poly.constant(model.ring, model.tspace, model.a[i])
            + tvars[model.tspace.names[i]]
            + model.q[i]
        )
        rhs = Poly.constant(model.ring, model.tspace, f.eval(prob.jet_point()))
        rhs = rhs + inner.scale(model.d2)
        assert lhs == rhs


def test_criterion_2(cusp_q, node):
    with criterion(2, "Taylor split identity and exact Q remainders", budget=1.0):
        _taylor_identity_is_exact(cusp_q)
        _taylor_identity_is_exact(node)
        assert cusp_q.q[0].render() == (
            "x^2*T1^2 + 6*x^6*T1*T2 - 3*x^10*T2^2 - 16*x^16*T2^3"
        )
        assert node.q[0].render() == "x^6*T1*T2 - x^8*T2^2"


def test_criterion_3(cusp_q, cusp_f5):
    with criterion(3, "random lifts meet residual contracts; golden lift", budget=5.0):
        for model, seed in ((cusp_q, 11), (cusp_f5, 12)):
            rng = SplitMix64(seed)
            for _ in range(100):
                tf = (draw_series(rng, model.ring, 1, 6),)
                lift = make_lift(model, tf)
                assert lift.residual_f >= lift.eff_prec
                assert lift.residual_i >= lift.eff_prec - model.c

        ring = cusp_q.ring
        ref = make_lift(cusp_q)
        lift = offset_lift(cusp_q, ref, (ring.one(),))
        want = (ring.parse("x^3 + 6*x^18 + 6*x^33"), ring.parse("x^2 + 4*x^17"))
        for got, expected in zip(lift.y2, want):
            assert got == expected
        assert lift.y2[0].prec >= 37
        ypoint = dict(zip(cusp_q.problem.space.names, lift.y2))
        for f in cusp_q.problem.f_polys:
            assert f.eval(ypoint).order_floor() >= 37


def test_criterion_4(cusp_q):
    with criterion(4, "offset/extract roundtrip exact through x^22, 50 draws", budget=5.0):
        ring = cusp_q.ring
        ref = make_lift(cusp_q)
        rng = SplitMix64(2024)
        window = ring.n_work - 4 * cusp_q.c - 1
        assert window == 23
        for _ in range(50):
            z = (draw_series(rng, ring, 0, 6),)
            shifted = offset_lift(cusp_q, ref, z)
            back = extract_params(cusp_q, shifted.y2, ref)
            assert back[0].prec == window
            diff = back[0] - z[0]
            assert diff.is_zero() and diff.prec >= window


def test_criterion_5(cusp_q):
    with criterion(5, "distinct offsets give distinct arcs and coordinates", budget=2.0):
        ring = cusp_q.ring
        ref = make_lift(cusp_q)
        rng = SplitMix64(555)
        for _ in range(20):
            z1 = (draw_series(rng, ring, 0, 6),)
            z2 = (draw_series(rng, ring, 0, 6),)
            if z1[0] == z2[0]:
                z2 = (z2[0] + ring.one(),)
            a = offset_lift(cusp_q, ref, z1)
            b = offset_lift(cusp_q, ref, z2)
            assert any(p != q for p, q in zip(a.y2, b.y2))
            assert any(p != q for p, q in zip(a.t, b.t))


def test_criterion_6(cusp_q):
    with criterion(6, "exact arc inverts, relifts, and is out of family", budget=1.0):
        ring = cusp_q.ring
        s = ring.parse("x + x^8")
        arc = (s * s * s, s * s)
        t = extract_t(cusp_q, arc)
        assert t[1] == ring.parse("1/2*x + 1/4*x^8")
        relift = make_lift(cusp_q, (ring.parse("1/2*x + 1/4*x^8"),))
        for got, expected in zip(relift.y2, arc):
            assert got == expected
        ref = make_lift(cusp_q)
        with pytest.raises(OutOfFamilyError):
            extract_params(cusp_q, arc, ref)


def test_criterion_7(cusp_f5):
    with criterion(7, "every sampled lift lands in the enumerated jet set", budget=30.0):
        prob = helpers.problem("cusp_f5")
        first = oracle_enumerate(prob, 13)
        second = oracle_enumerate(prob, 13)
        assert first == second
        rng = SplitMix64(777)
        ring = cusp_f5.ring
        for _ in range(30):
            tf = (draw_series(rng, ring, 1, 6),)
            lift = make_lift(cusp_f5, tf)
            assert lift.strict
            assert first.contains(lift.y2)


def test_criterion_8(cusp_q, cusp_f5, node, shifted_node, offjet, tcurve, smooth):
    with criterion(8, "Newton reaches the default target within 7 iterations"):
        rng = SplitMix64(88)
        for model in (cusp_q, cusp_f5, node, shifted_node, offjet, tcurve, smooth):
            zero = make_lift(model)
            assert zero.newton_iterations <= 7
            tf = tuple(
                draw_series(rng, model.ring, 1, 6) for _ in range(model.param_count)
            )
            other = make_lift(model, tf)
            assert other.newton_iterations <= 7


def test_criterion_9(capsys, tmp_path):
    with criterion(9, "bad depth, bad jet, and tampered models are rejected", budget=1.0):
        code = main(["desingularize", helpers.problem_file(tmp_path, "cusp", c=3)])
        capsys.readouterr()
        assert code == 2

        off_variety, _ = check_corpus.case("validate cusp jet off the variety")
        failed = [c.name for c in off_variety().checks if not c.ok]
        assert failed == ["jet-kills-ideal"]

        x_t1_squared, _ = check_corpus.case("verify cusp x*T1^2 in q")
        assert not x_t1_squared().ok
