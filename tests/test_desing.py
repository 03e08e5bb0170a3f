"""Certificate validation, model construction, and the verification battery."""

import json
import sys
import threading
import time

import pytest

import check_corpus
import helpers
from arclift import (
    IdentityFailedError,
    OrderTooHighError,
    OrderViolationError,
    Poly,
    PolyMatrix,
    QQ,
    SeriesRing,
    SplitMix64,
    StructureError,
    ValidationError,
    VarSpace,
    build_model,
    draw_series,
    identity_certificate,
    linalg,
    make_lift,
    make_problem,
    parse_poly,
    validate_problem,
    verify_model,
)
from arclift import desing, polyring
from arclift import ring as ring_module
from arclift.cli import load_problem
from arclift.desing import normalize_certificate
from arclift.polyring import shared_powers


# -- validation ---------------------------------------------------------


def test_validation_passes_on_the_cusp():
    report = validate_problem(helpers.problem("cusp"))
    assert report.ok
    assert report.e == 3
    assert [c.name for c in report.checks] == [
        "certificate-cofactors",
        "jet-kills-ideal",
        "minor-order",
    ]


def test_build_model_raises_with_the_report_attached():
    with pytest.raises(ValidationError) as exc:
        helpers.model("cusp", c=3)
    assert exc.value.report is not None
    assert not exc.value.report.ok
    assert "minor-order" in str(exc.value)


# -- certificates -------------------------------------------------------


def test_identity_certificate_requires_full_coverage():
    ring = SeriesRing(QQ)
    space = VarSpace.ys(2)
    gens = [
        parse_poly("Y1^2 - Y2^3", ring, space),
        parse_poly("Y1^2 - Y2^3", ring, space),
    ]
    with pytest.raises(StructureError, match="a certificate is required"):
        make_problem(
            ring, n=2, ideal_gens=gens, f_idx=[1], minor_cols=[1],
            jet=(ring.parse("x^3"), ring.parse("x^2")),
        )


def test_identity_certificate_shape():
    cert = identity_certificate(SeriesRing(QQ), VarSpace.ys(2), 1)
    assert cert.n_poly == Poly.constant(SeriesRing(QQ), VarSpace.ys(2), 1)
    assert len(cert.cofactors) == 1 and len(cert.cofactors[0]) == 1


def test_automatic_depth_choice():
    prob = helpers.problem("cusp", c=None)
    assert prob.c == 4


def test_normalization_golden():
    prob = helpers.problem("cusp")
    norm = normalize_certificate(prob, e=3)
    ring = prob.ring
    assert norm.d == ring.parse("2*x^4")
    assert norm.p_poly == parse_poly("2*x*Y1", ring, prob.space)


def test_normalization_rejects_an_overdeep_minor():
    prob = helpers.problem("cusp")
    with pytest.raises(OrderTooHighError):
        normalize_certificate(prob, e=4)


def test_normalization_refuses_an_e_that_is_not_the_minor_order():
    """e = 2 scales by x^2, so d = 2*x^5 misses c = 4."""
    with pytest.raises(IdentityFailedError, match="normalized denominator has order 5, expected c = 4"):
        normalize_certificate(helpers.problem("cusp"), e=2)


def test_compute_g_refuses_a_p_that_g_does_not_invert_up_to(cusp_q):
    p_twice = cusp_q.p_poly + cusp_q.p_poly
    with pytest.raises(IdentityFailedError, match="GH = HG = P \\* Id failed"):
        desing.compute_g(cusp_q.h_mat, cusp_q.n_norm, p_twice)


def test_taylor_decompose_refuses_a_jet_that_leaves_a_unit(cusp_q):
    """f(x^3, x^2 + x^4) = -3*x^8 + ... has the order of d^2, so a_1 is a unit."""
    shallow = helpers.problem("cusp", jet=["x^3", "x^2 + x^4"])
    with pytest.raises(OrderViolationError, match="f component 1 gives a unit after division by d\\^2"):
        desing.taylor_decompose(shallow, cusp_q.d2, cusp_q.dgy, cusp_q.perm, cusp_q.tspace)


def test_taylor_decompose_refuses_a_linear_remainder(cusp_q):
    """d*G(y') doubled makes f's linear part 2 * d^2 * T_1, so Q_1 keeps a T_1."""
    doubled = tuple(tuple(v + v for v in row) for row in cusp_q.dgy)
    with pytest.raises(IdentityFailedError, match="f component 1 has a visible term of T-degree 1"):
        desing.taylor_decompose(cusp_q.problem, cusp_q.d2, doubled, cusp_q.perm, cusp_q.tspace)


def _build_with_taylor(monkeypatch, change):
    """build_model on the cusp, with taylor_decompose's (a, q, images) passed through change."""
    real = desing.taylor_decompose
    monkeypatch.setattr(desing, "taylor_decompose", lambda *args: change(*real(*args)))
    return build_model(helpers.problem("cusp"))


def test_build_model_refuses_a_bound_jacobian_without_constant_term_1(monkeypatch):
    """No input reaches this: Q of T-degree >= 2 leaves det(Id + dQ/dT) = 1 at T = 0."""
    def linear_q(a, q, images):
        return a, (q[0] + Poly.variable(q[0].ring, q[0].space, "T1"),), images

    with pytest.raises(IdentityFailedError, match="from the bound Jacobian lacks constant term 1"):
        _build_with_taylor(monkeypatch, linear_q)


def test_build_model_refuses_a_p_unit_without_constant_term_1(monkeypatch):
    """No input reaches this: P's image has constant term P(y') = d.  Y1 -> 2*x^3 + ... makes it 2*d."""
    def moved(a, q, images):
        y1 = images["Y1"]
        return a, q, {**images, "Y1": y1 + Poly.constant(y1.ring, y1.space, y1.ring.parse("x^3"))}

    with pytest.raises(IdentityFailedError, match="localization unit from P lacks constant term 1"):
        _build_with_taylor(monkeypatch, moved)


# -- construction goldens ------------------------------------------------


def test_cusp_model_golden(cusp_q):
    m = cusp_q
    ring = m.ring
    assert m.e == 3
    assert m.perm == (0, 1)
    assert m.param_count == 1
    assert m.d == ring.parse("2*x^4")
    assert m.g[0].render() == (
        "T1 + x^2*T1^2 + 6*x^6*T1*T2 - 3*x^10*T2^2 - 16*x^16*T2^3"
    )
    assert m.loc_s.render() == "1 + 2*x^2*T1 + 6*x^6*T2"
    assert m.loc_s_prime == m.loc_s
    assert m.a[0].order() is None or m.a[0].order() >= 1
    assert m.dgy[0][0] == ring.parse("2*x^5")
    assert m.dgy[0][1] == ring.parse("6*x^9")
    assert m.images["Y2"].render() == "x^2 + 4*x^8*T2"


def test_cusp_images_golden(cusp_q):
    ring = cusp_q.ring
    imgs = cusp_q.images
    t_point = {"T1": ring.parse("x^2"), "T2": ring.zero()}
    assert imgs["Y1"].eval(t_point) == ring.parse("x^3 + 2*x^7")
    assert imgs["Y2"].eval(t_point) == ring.parse("x^2")
    t_full = {"T1": ring.zero(), "T2": ring.parse("x")}
    assert imgs["Y2"].eval(t_full) == ring.parse("x^2 + 4*x^9")


def test_node_model_golden(node):
    m = node
    ring = m.ring
    assert m.e == 4
    assert m.d == ring.parse("x^5")
    assert m.g[0].render() == "T1 + x^6*T1*T2 - x^8*T2^2"
    assert m.loc_s.render() == "1 + x^6*T2"
    assert m.images["Y1"].render() == "x^2 + x^6*T1 - x^8*T2"
    assert m.images["Y2"].render() == "x^4 + x^10*T2"


def test_space_curve_model(tcurve):
    m = tcurve
    assert m.e == 14
    assert m.d == m.ring.parse("3*x^15")
    assert m.perm == (1, 2, 0)
    assert m.param_count == 1
    report = verify_model(m)
    assert report.ok, report.failures()


def test_smooth_point_model(smooth):
    m = smooth
    assert m.e == 0
    assert m.param_count == 0
    assert m.d == m.ring.parse("x")
    assert m.g[0].render() == "T1"
    assert m.loc_s.render() == "1"


def test_minor_poly_golden():
    prob = helpers.problem("cusp")
    assert prob.minor == parse_poly("2*Y1", prob.ring, prob.space)


def test_q_has_no_linear_part(cusp_q, node):
    for m in (cusp_q, node):
        for qp in m.q:
            for exps, coeff in qp.terms.items():
                if coeff.is_zero():
                    continue
                assert sum(exps) >= 2


def test_f5_model_matches_the_rational_one_mod_5(cusp_f5):
    m = cusp_f5
    assert m.e == 3
    assert m.g[0].render() == "T1 + x^2*T1^2 + x^6*T1*T2 + 2*x^10*T2^2 + 4*x^16*T2^3"


# -- structural rejection -----------------------------------------------


def test_problem_rejects_short_jets():
    ring = SeriesRing(QQ)
    space = VarSpace.ys(2)
    with pytest.raises(StructureError, match="jet component 1 has precision 5"):
        make_problem(
            ring, n=2,
            ideal_gens=[parse_poly("Y1^2 - Y2^3", ring, space)],
            f_idx=[1], minor_cols=[1],
            jet=(ring.parse("x^3 + O(x^5)"), ring.parse("x^2")),
            c=4,
        )


def test_problem_rejects_bad_minor_columns():
    """A valid f, so the refusal is the minor columns': their count, then their range."""
    base = helpers.problem("cusp")
    for cols, message in [((0, 1), "need exactly 1 minor columns, got 2"),
                          ((0,), r"minor columns must be distinct members of 1\.\.2"),
                          ((3,), r"minor columns must be distinct members of 1\.\.2")]:
        with pytest.raises(StructureError, match=message):
            base.replace(minor_cols=cols)


def test_variety_mode_requires_constant_generators():
    ring = SeriesRing(QQ)
    space = VarSpace.ys(2)
    with pytest.raises(StructureError, match="variety mode forbids x in the system"):
        make_problem(
            ring, n=2,
            ideal_gens=[parse_poly("Y1*Y2 - x^6", ring, space)],
            f_idx=[1], minor_cols=[1],
            jet=(ring.parse("x^2"), ring.parse("x^4")),
            c=5, mode="variety",
        )


def _cusp_fields(**changes):
    """The cusp problem's constructor arguments, c = 4, with the given ones replaced."""
    base = helpers.problem("cusp")
    fields = {name: getattr(base, name) for name in base._fields}
    return dict(fields, **changes)


OTHER_RING = SeriesRing(QQ, 20)
CUSP_SPACE = VarSpace.ys(2)
# every refusal that precedes the certificate, as (changes, message)
SHAPE_REFUSALS = {
    "ring": ({"ring": QQ}, "problem needs a SeriesRing"),
    "n-zero": ({"n": 0}, "variable count must be a positive integer, got 0"),
    "n-text": ({"n": "2"}, "variable count must be a positive integer, got '2'"),
    "no-generators": ({"ideal_gens": ()}, "no ideal generators"),
    "generator-text": ({"ideal_gens": ("Y1",)}, "generator 1 is not a polynomial over"),
    "generator-ring": (
        {"ideal_gens": (parse_poly("Y1 - Y2", OTHER_RING, CUSP_SPACE),)},
        "generator 1 is not a polynomial over",
    ),
    "no-f": ({"f_idx": ()}, "subsystem size must be between 1 and n=2, got 0"),
    "f-wider-than-n": ({"f_idx": (1, 1, 1)}, "subsystem size must be between 1 and n=2, got 3"),
    "f-past-m": ({"f_idx": (2,)}, r"f indices must be distinct members of 1\.\.1"),
    "f-repeated": ({"f_idx": (1, 1)}, r"f indices must be distinct members of 1\.\.1"),
    "minor-count": ({"minor_cols": (1, 2)}, "need exactly 1 minor columns, got 2"),
    "minor-range": ({"minor_cols": (3,)}, r"minor columns must be distinct members of 1\.\.2"),
    "c-zero": ({"c": 0}, "congruence level c must be a positive integer, got 0"),
    "c-text": ({"c": "4"}, "congruence level c must be a positive integer, got '4'"),
    "jet-length": ({"jet": ()}, "jet must have 2 components, got 0"),
    "jet-ring": (
        {"jet": (OTHER_RING.parse("x^3"), OTHER_RING.parse("x^2"))},
        "jet component 1 is not a series of this ring",
    ),
    "mode": ({"mode": "arc"}, "mode must be 'dvr' or 'variety', got 'arc'"),
}


@pytest.mark.parametrize("certified", [False, True], ids=["defaulted", "given"])
@pytest.mark.parametrize("case", sorted(SHAPE_REFUSALS))
def test_every_shape_refusal_precedes_the_certificate(case, certified):
    """A bad ring, n, generator, f, minor column, c, jet or mode is refused with its own
    message whether the certificate is given or defaulted, before the certificate is read."""
    changes, message = SHAPE_REFUSALS[case]
    fields = _cusp_fields(**changes)
    if not certified:
        fields["certificate"] = None
    with pytest.raises(StructureError, match=message):
        make_problem(**fields)


def _poly(text, ring=SeriesRing(QQ)):
    return parse_poly(text, ring, CUSP_SPACE)


@pytest.mark.parametrize(
    "certificate, message",
    [
        (desing.Certificate(_poly("1", OTHER_RING), [[_poly("1")]]),
         "certificate multiplier is not a polynomial over this ring"),
        (desing.Certificate(_poly("1"), [[_poly("1"), _poly("1")]]), "cofactor matrix must be 1x1"),
        (desing.Certificate(_poly("1"), []), "cofactor matrix must be 1x1"),
        (desing.Certificate(_poly("1"), [["1"]]),
         "cofactor entries must be polynomials over this ring"),
    ],
    ids=["multiplier", "wide-row", "no-rows", "entry"],
)
def test_problem_rejects_a_certificate_of_the_wrong_shape(certificate, message):
    with pytest.raises(StructureError, match=message):
        make_problem(**_cusp_fields(certificate=certificate))


def test_an_inferred_c_checks_the_jet_precision_against_itself():
    """x^3 + O(x^7) gives e = 3, so c is inferred as 4 and the jet must reach x^9."""
    ring = helpers.problem("cusp").ring
    jet = (ring.parse("x^3 + O(x^7)"), ring.parse("x^2"))
    with pytest.raises(StructureError, match=r"jet component 1 has precision 7, need at least 2c\+1 = 9"):
        make_problem(**_cusp_fields(jet=jet, c=None))


# -- verification battery ------------------------------------------------


def test_verify_passes_on_every_fixture(cusp_q, cusp_f5, node, shifted_node, smooth):
    for m in (cusp_q, cusp_f5, node, shifted_node, smooth):
        report = verify_model(m)
        assert report.ok, report.failures()
        assert [c.name for c in report.checks] == [
            "certificate-normalized",
            "matrix-identity",
            "border-determinant",
            "d-order",
            "evaluation-consistency",
            "taylor-identity",
            "q-degree",
            "a-order",
            "localization-units",
        ]


def test_verify_reads_det_h_off_the_block_form(cusp_q):
    """det(H) = M is read off H's r top rows [A | B]: an H handed in with a lower row fails,
    even one that keeps det(H)."""
    ((a, b),) = cusp_q.h_mat.rows
    w = parse_poly("x*Y2", cusp_q.ring, cusp_q.problem.space)
    tampered = PolyMatrix([[a, b], [a * w, b * w + Poly.constant(cusp_q.ring, w.space, 1)]])
    assert tampered.det() == cusp_q.problem.minor
    report = verify_model(cusp_q.replace(h_mat=tampered))
    check = next(c for c in report.checks if c.name == "border-determinant")
    assert (check.ok, check.detail) == (False, "det(H) != minor")


def _failed_checks(model):
    return {c.name for c in verify_model(model).checks if not c.ok}


RESHAPE = {
    "extra row": lambda rows: rows + rows[-1:],
    "missing row": lambda rows: rows[:-1],
    "extra column": lambda rows: [row + row[-1:] for row in rows],
    "missing column": lambda rows: [row[:-1] for row in rows],
}


@pytest.mark.parametrize("name", ["h_mat", "g_mat"])
@pytest.mark.parametrize(
    "fixture, shape",
    [("cusp_q", "extra row"), ("cusp_q", "extra column"), ("cusp_q", "missing column"),
     ("tcurve", "missing row")],
)
def test_verify_reports_h_or_g_of_the_wrong_shape(fixture, shape, name, request):
    """H and G are kept as r top rows of n entries; another shape fails a check and raises nothing.

    det(H) is read off the r x r block of r rows, so only a wrong row count of H fails it.
    """
    model = request.getfixturevalue(fixture)
    rows = RESHAPE[shape](getattr(model, name).rows)
    failed = _failed_checks(model.replace(**{name: PolyMatrix(rows)}))
    assert "matrix-identity" in failed
    assert ("border-determinant" in failed) == (name == "h_mat" and shape.endswith("row"))


def test_substitution_images_read_n_entries_of_each_row(cusp_q):
    m = cusp_q
    longer = tuple(row + (m.ring.one(),) for row in m.dgy)
    assert desing.substitution_images(m.problem, longer, m.d2, m.perm, m.tspace) == m.images


@pytest.mark.parametrize(
    "build",
    [
        lambda: helpers.problem("cusp"),
        lambda: helpers.problem("tcurve"),
        lambda: helpers.cusp_product_problem(1, 14),
        lambda: helpers.coupled_cusp_problem(3, [(2, 3), (4, 5), (6, 1)]),
    ],
    ids=["cusp", "tcurve", "cusp-n16-r1", "r3-dense"],
)
def test_the_top_row_identity_check_agrees_with_the_bordered_products(build):
    """GH = HG = P * Id on r rows gives the verdict of the n x n products, G tampered or not.

    One entry of L = N * adj(A), then one of R = -L * B, is moved by x^20.
    """
    model = build_model(build())
    ring, r, n = model.ring, model.r, model.n
    p_id = PolyMatrix.identity(ring, model.problem.space, n).scale(model.p_poly)

    def moved(col):
        rows = [list(row) for row in model.g_mat.rows]
        rows[0][col] = rows[0][col] + Poly.constant(ring, model.problem.space, ring.parse("x^20"))
        return PolyMatrix(rows)

    for g_mat, holds in ((model.g_mat, True), (moved(0), False), (moved(r), False)):
        h_full, g_full = helpers.bordered(model.replace(g_mat=g_mat))
        full = g_full.mul(h_full) == p_id and h_full.mul(g_full) == p_id
        assert desing._inverts_up_to_p(g_mat, model.h_mat, model.p_poly, (r, n)) == full == holds


RECORDED = json.loads(check_corpus.GOLDEN.read_text(encoding="utf-8"))
CASES = check_corpus._cases()


@pytest.mark.parametrize("label, check, failing", CASES, ids=[label for label, _, _ in CASES])
def test_check_case_fails_exactly_its_declared_checks(label, check, failing):
    """Each corpus case fails the checks it names, in report order, and prints its recorded rows."""
    report = check()
    assert tuple(c.name for c in report.failures()) == failing
    assert check_corpus.rows(report) == RECORDED[label]


def test_the_check_cases_are_the_recorded_ones_in_order():
    assert [label for label, _, _ in CASES] == list(RECORDED)


# -- randomized families -------------------------------------------------


def test_monomial_curve_family_builds_and_verifies():
    rng = SplitMix64(2026)
    ring = SeriesRing(QQ)
    for q in (2, 3):
        for p in range(2, 7):
            if p == q:
                continue
            arc = ring.x() + draw_series(rng, ring, 2, 6)
            prob = helpers.monomial_curve_problem(ring, q, p, arc)
            model = build_model(prob)
            assert model.e == p * (q - 1)
            assert verify_model(model).ok


def test_certificate_scaling_equivalence(cusp_q):
    """Scaling the certificate by x only rescales the chart coordinate."""
    base = helpers.problem("cusp")
    scaled = base.replace(certificate=base.certificate.scale(base.ring.x()), c=5)
    m2 = build_model(scaled)
    assert m2.e == 4
    assert verify_model(m2).ok
    ring = base.ring
    t_point = {"T1": ring.parse("x^2"), "T2": ring.zero()}
    t_scaled = {"T1": ring.parse("x^4"), "T2": ring.zero()}
    for nm in ("Y1", "Y2"):
        assert m2.images[nm].eval(t_point) == cusp_q.images[nm].eval(t_scaled)


def test_build_model_inverts_only_d2_and_d_on_every_shipped_problem(monkeypatch):
    """Every Taylor coefficient is divided by one d^2 and every term of P by one d."""
    lengths = []
    plain = ring_module._inverse

    def counting(b, n, p, start=None):
        lengths.append(n)
        return plain(b, n, p, start)

    monkeypatch.setattr(ring_module, "_inverse", counting)
    for path in helpers.shipped_problems():
        problem = load_problem(str(path))
        lengths.clear()
        build_model(problem)
        assert len(lengths) == 2, (path.name, lengths)


def _f_jacobians(monkeypatch):
    """Record the polynomials of every desing.jacobian call from here on; returns the list."""
    plain = desing.jacobian
    calls = []

    def counting(polys, names=None):
        calls.append(tuple(polys))
        return plain(polys, names)

    monkeypatch.setattr(desing, "jacobian", counting)
    return calls


def test_build_and_verify_compute_the_minor_once_on_every_shipped_problem(monkeypatch):
    """Problem.border is the one Jacobian of f, from loading through build and verify,
    and M is det(A) read off it; the other Jacobians taken are g's."""
    for path in helpers.shipped_problems():
        with monkeypatch.context() as patch:
            calls = _f_jacobians(patch)
            problem = load_problem(str(path))
            assert verify_model(build_model(problem)).ok
        assert calls.count(problem.f_polys) == 1, path.name
        cols = tuple(problem.space.names[j - 1] for j in problem.minor_cols)
        assert problem.minor == desing.jacobian(problem.f_polys, cols).det(), path.name


def test_an_inferred_c_is_checked_once_and_equals_the_explicit_problem(monkeypatch):
    """make_problem(..., c=None) runs Problem.__post_init__ once, not once per c."""
    plain = desing.Problem.__post_init__
    runs = []

    def counting(problem):
        runs.append(problem.c)
        plain(problem)

    monkeypatch.setattr(desing.Problem, "__post_init__", counting)
    problem = helpers.problem("cusp", c=None)
    assert runs == [None]
    assert problem == helpers.problem("cusp")


def test_an_inferred_c_builds_the_minor_once(monkeypatch):
    """The border and minor that infer c are the ones the returned Problem keeps:
    one Jacobian of f from construction through build and verify."""
    calls = _f_jacobians(monkeypatch)
    problem = helpers.problem("cusp", c=None)
    assert problem.c == 4
    assert verify_model(build_model(problem)).ok
    assert calls.count(problem.f_polys) == 1


# -- scaling in n and r ---------------------------------------------------


@pytest.mark.parametrize(
    "k, untouched",
    [(1, 14), (1, 78), (1, 318), (4, 0)],
    ids=["cusp-n16-r1", "cusp-n80-r1", "cusp-n320-r1", "cusps4-n8-r4"],
)
def test_wide_systems_build_verify_and_lift_in_under_a_second(k, untouched):
    problem = helpers.cusp_product_problem(k, untouched)
    start = time.perf_counter()
    model = build_model(problem)
    report = verify_model(model)
    lift = make_lift(model)
    elapsed = time.perf_counter() - start
    assert (problem.n, problem.r) == (2 * k + untouched, k)
    assert report.ok and lift.strict
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_build_and_verify_read_the_jet_point_a_bounded_number_of_times_per_variable(monkeypatch):
    """Each evaluation at the jet checks the n-long point once, however many entries
    it evaluates, so build + verify read O(n) point values, not one point per entry."""
    reads = []

    class CountingPoint(dict):
        def __getitem__(self, name):
            reads.append(name)
            return super().__getitem__(name)

    plain = desing.Problem.jet_point
    monkeypatch.setattr(desing.Problem, "jet_point", lambda problem: CountingPoint(plain(problem)))
    problem = helpers.cusp_product_problem(1, 318)
    assert verify_model(build_model(problem)).ok
    assert 0 < len(reads) <= 16 * problem.n


def test_build_and_verify_take_adjugates_of_the_minor_block_only(monkeypatch):
    """Every determinant and adjugate of a build, verify and lift is r x r, and no
    matrix product or evaluation has more than r rows.

    G comes from adj(A) for the r x r block A, det(H) is read off H's block
    form, and Newton's J is r x r: an n x n one would cost about n * 2^n.
    H and G are kept as their r top rows, so nothing n x n is multiplied or
    evaluated either.
    """
    sizes = {"det": [], "adjugate": [], "mat_mul": [], "eval": []}

    def recording(plain, seen):
        def call(rows, *args):
            seen.append(len(rows))
            return plain(rows, *args)

        return call

    for name in ("det", "adjugate", "mat_mul"):
        monkeypatch.setattr(linalg, name, recording(getattr(linalg, name), sizes[name]))
    plain_eval = PolyMatrix.eval

    def evaluating(mat, values):
        sizes["eval"].append(len(mat.rows))
        return plain_eval(mat, values)

    monkeypatch.setattr(PolyMatrix, "eval", evaluating)
    problems = (
        helpers.cusp_product_problem(1, 14),
        helpers.cusp_product_problem(4, 0),
        helpers.problem("tcurve"),
    )
    for problem in problems:
        for seen in sizes.values():
            seen.clear()
        model = build_model(problem)
        verify_model(model)
        rng = SplitMix64(problem.n)
        t_free = [draw_series(rng, model.ring, 1, 6) for _ in range(model.param_count)]
        assert make_lift(model, t_free).newton_iterations > 0
        assert sizes["adjugate"] and set(sizes["adjugate"]) == {problem.r}
        assert sizes["det"] and set(sizes["det"]) == {problem.r}
        assert sizes["mat_mul"] and max(sizes["mat_mul"]) <= problem.r
        assert sizes["eval"] and max(sizes["eval"]) <= problem.r


def test_verify_in_an_open_block_touches_no_power_table_the_build_used(monkeypatch):
    """Inside one open block, build_model walks one table of its own and verify_model
    another, and neither touches the outer block's table."""
    tables = []  # the tables themselves, so no id is reused while they are compared
    plain = polyring._power

    def recording(powers, *args):
        tables.append(powers)
        return plain(powers, *args)

    monkeypatch.setattr(polyring, "_power", recording)
    problem = helpers.problem("tcurve", n_work=40)
    with shared_powers():
        outer = polyring._active.powers
        model = build_model(problem)
        built = {id(t) for t in tables}
        del tables[:]
        assert verify_model(model).ok
        verified = {id(t) for t in tables}
    assert len(built) == len(verified) == 1
    assert built.isdisjoint(verified) and id(outer) not in built | verified
    assert outer == {}


def _built_and_checked(path):
    """The rendered g, a and loc_s of a shipped problem's model, and its check rows."""
    model = build_model(load_problem(str(path)))
    rows = [(ch.name, ch.ok, ch.detail) for ch in verify_model(model).checks]
    return [gi.render() for gi in model.g], [ai.render() for ai in model.a], model.loc_s.render(), rows


def test_two_threads_build_and_verify_as_sequential_runs_do():
    """Two threads released together each build and verify a shipped problem, each in
    its own blocks, render what sequential builds render and end with no block open,
    as does the main thread."""
    paths = (helpers.PROBLEMS / "tcurve.json", helpers.PROBLEMS / "node.json")
    want = [(_built_and_checked(path), None) for path in paths]
    got = [None, None]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        got[i] = (_built_and_checked(paths[i]), polyring._active.powers)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, so the two threads' blocks interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want and polyring._active.powers is None
