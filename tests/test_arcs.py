"""Lifting, parameter extraction, reference search, and the enumeration oracle."""

import dataclasses
import json
import tracemalloc
from itertools import product

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

import cofactor_reference as reference
import helpers
import oracle_reference
import power_reference
from arclift import (
    ArcliftError,
    BudgetExceededError,
    FieldMismatchError,
    IdentityFailedError,
    NoProgressError,
    NotStrictError,
    OutOfFamilyError,
    PrecisionExhaustedError,
    PrimeField,
    QQ,
    Series,
    SeriesRing,
    SplitMix64,
    StructureError,
    VarSpace,
    build_model,
    default_target,
    draw_series,
    extract_params,
    extract_t,
    find_strict_reference,
    hensel_solve,
    make_lift,
    make_problem,
    offset_lift,
    oracle_enumerate,
    parse_poly,
    verify_model,
)
from arclift import arcs, linalg
from arclift import ring as ring_module
from arclift.cli import load_problem, parse_problem
from arclift.polyring import Poly


# -- Newton iteration ----------------------------------------------------


def test_hensel_golden_on_the_node(node):
    ring = node.ring
    res = hensel_solve(node, (ring.x(),), target=30)
    assert res.iterations == 1
    assert res.k0 == 10
    assert res.t_bound[0] == ring.parse("x^10 - x^17 + x^24 + O(x^30)")


def test_hensel_golden_on_the_cusp(cusp_q):
    ring = cusp_q.ring
    res = hensel_solve(cusp_q, (ring.parse("x^9"),), target=32)
    assert res.k0 == 28
    assert res.iterations == 1
    assert res.t_bound[0] == ring.parse("3*x^28 + O(x^32)")


def test_hensel_rejects_an_unreachable_target(cusp_q):
    with pytest.raises(PrecisionExhaustedError):
        hensel_solve(cusp_q, (cusp_q.ring.zero(),), target=40)


def test_default_target(cusp_q, node, tcurve):
    assert default_target(cusp_q) == 32
    assert default_target(node) == 30
    assert default_target(tcurve) == 50


def _lift_every_shipped_problem():
    """Each shipped problem at its own n_work: the zero lift, two seeded random lifts, the
    reference search and, when that finds a strict lift, an offset lift around it."""
    for path in helpers.shipped_problems():
        model = build_model(load_problem(str(path)))
        ring = model.ring
        make_lift(model)
        rng = SplitMix64(7)
        for _ in range(2):
            make_lift(model, tuple(draw_series(rng, ring, 1, 6) for _ in range(model.param_count)))
        ref = find_strict_reference(model)
        if ref is not None:
            offset_lift(model, ref, tuple(ring.one() for _ in range(model.param_count)))


def test_newton_at_least_doubles_the_residual_order_on_every_shipped_problem(monkeypatch):
    """k_(i+1) >= min(2*k_i, target) for every Newton run of _lift_every_shipped_problem."""
    runs = []

    def recording(model, t_free, target, seed=None):
        res = hensel_solve(model, t_free, target, seed)
        runs.append((target, res))
        return res

    monkeypatch.setattr(arcs, "hensel_solve", recording)
    _lift_every_shipped_problem()
    assert len(runs) > 30
    for target, res in runs:
        for k, k_next in zip(res.orders, res.orders[1:]):
            assert k_next >= min(2 * k, target), res.orders


def _reference_newton(model, t_free, target, seed=None):
    """Newton on the bound block with every piece at full precision.

    Each step evaluates the bound Jacobian at the whole iterate, takes its
    determinant and adjugate by the recursive cofactor reference, inverts the
    determinant at that precision, and evaluates g at the new iterate.
    """
    ring = model.ring
    t_free = tuple(t_free)
    t_bound = [ring.zero(ring.n_work)] * model.r if seed is None else list(seed)

    def residuals():
        point = dict(zip(model.tspace.names, tuple(t_bound) + t_free))
        return point, [gi.eval(point) for gi in model.g]

    point, res = residuals()
    k0 = min(v.order_floor() for v in res)
    if k0 < 1:
        raise NoProgressError(
            f"initial residual has order {k0}; Newton iteration needs positive order"
        )
    k, orders, iterations = k0, [k0], 0
    zero, one = ring.zero(ring.n_work), ring.one()
    while k < target:
        if all(v.is_zero() for v in res):
            raise PrecisionExhaustedError(
                f"residual is certified zero only through x^{k - 1}, "
                f"short of the target x^{target}"
            )
        if iterations >= 64:
            raise NoProgressError("Newton did not reach the target within 64 iterations")
        jac = model.t_jac.eval(point)
        inv_det = reference.det(jac, zero, one).inv_unit()
        correction = linalg.mat_vec(reference.adjugate(jac, zero, one), res)
        for i in range(model.r):
            t_bound[i] = t_bound[i] - correction[i] * inv_det
        iterations += 1
        point, res = residuals()
        k_new = min(v.order_floor() for v in res)
        if k_new <= k:
            # the order is capped by a residual's precision, not by the step
            if all(v.is_zero() for v in res if v.order_floor() == k_new):
                raise PrecisionExhaustedError(
                    f"residual is certified zero only through x^{k_new - 1}, "
                    f"short of the target x^{target}"
                )
            raise NoProgressError(f"residual order stalled at x^{k}")
        k = k_new
        orders.append(k)
    return arcs.HenselResult(tuple(s.truncate(k) for s in t_bound), tuple(orders))


def _outcome(solve, *args):
    """A Newton run as plain data: every HenselResult field, or the error raised."""
    try:
        res = solve(*args)
    except ArcliftError as exc:
        return type(exc), str(exc)
    stored = tuple((s.nums, s.den, s.prec) for s in res.t_bound)
    return stored, res.orders


@pytest.fixture(scope="module")
def shipped_models():
    """(model, reference) for every shipped problem over its own field and over Q or F5.

    The reference is the strict one find_strict_reference finds, or the zero
    lift where there is none.
    """
    out, seen = [], set()
    for path in helpers.shipped_problems():
        raw = helpers.problem_data(path.stem)
        for field in (raw["field"], "F5" if raw["field"] == "Q" else "Q"):
            data = dict(raw, field=field)
            text = json.dumps(data, sort_keys=True)
            if text in seen:
                continue
            seen.add(text)
            model = build_model(parse_problem(data))
            out.append((model, find_strict_reference(model) or make_lift(model)))
    return out


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.data())
def test_hensel_solve_matches_full_precision_newton(shipped_models, data):
    """Same iterates, residual orders and errors as Newton with every piece at full precision.

    Free coordinates are zero, random, or offsets x^(2c+1)*z from the
    reference; offset runs start from the reference's bound block, itself
    perturbed from x^j on in some runs.  Some runs cut every free and seed
    component to its own lower precision, so residuals and steps differ in
    precision from one component to the next.
    """
    model, ref = data.draw(st.sampled_from(shipped_models))
    ring, r = model.ring, model.r
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    mode = data.draw(st.sampled_from(("zero", "random", "offset", "perturbed")))
    seed = None
    if mode == "zero":
        t_free = tuple(ring.zero() for _ in range(model.param_count))
    elif mode == "random":
        t_free = tuple(draw_series(rng, ring, 1, 6) for _ in range(model.param_count))
    else:
        shift = ring.monomial(2 * model.c + 1)
        t_free = tuple(s + shift * draw_series(rng, ring, 0, 6) for s in ref.t[r:])
        seed = ref.t[:r]
        if mode == "perturbed":
            j = data.draw(st.integers(1, 2 * model.c + 1))
            seed = tuple(s + draw_series(rng, ring, j, j + 3) for s in seed)
    if data.draw(st.booleans()):
        precs = st.integers(2, ring.n_work)
        t_free = tuple(s.truncate(data.draw(precs)) for s in t_free)
        seed = seed and tuple(s.truncate(data.draw(precs)) for s in seed)
    top = default_target(model)
    target = data.draw(st.one_of(st.just(top), st.integers(1, top)))
    assert _outcome(hensel_solve, model, t_free, target, seed) == _outcome(
        _reference_newton, model, t_free, target, seed
    )


# Y(2i) -> Y(2i) + Y(2i+1): a 3-cycle gives a dense 3 x 3 minor block, a chain a triangular one
CYCLE = [(2, 3), (4, 5), (6, 1)]
CHAIN = [(2 * i, 2 * i + 1) for i in range(1, 6)]


@pytest.mark.parametrize(
    "k, links", [(3, CYCLE), (4, CYCLE), (6, CHAIN)], ids=["r3-dense", "r4-block", "r6-chain"]
)
def test_coupled_systems_verify_and_newton_takes_cofactor_digits(k, links):
    """No shipped problem has r >= 3, nor a bound Jacobian with entries off its diagonal.

    Each Newton run, from random free coordinates, matches Newton with det(J)
    and adj(J) from the recursive cofactor reference, iterates and precisions.
    """
    model = build_model(helpers.coupled_cusp_problem(k, links))
    assert model.r == k and verify_model(model).ok
    assert any(model.t_jac.rows[i][j].terms for i in range(k) for j in range(k) if i != j)
    rng = SplitMix64(k)
    for _ in range(4):
        t_free = tuple(draw_series(rng, model.ring, 1, 6) for _ in range(model.param_count))
        target = default_target(model)
        assert hensel_solve(model, t_free, target).iterations > 0
        assert _outcome(hensel_solve, model, t_free, target) == _outcome(
            _reference_newton, model, t_free, target
        )


@pytest.mark.parametrize(
    "k, links", [(3, CYCLE), (4, CYCLE), (6, CHAIN)], ids=["r3-dense", "r4-block", "r6-chain"]
)
def test_newton_builds_one_block_table_per_step(k, links, monkeypatch):
    """det(J) is read off adj(J)'s cofactor table, so a step expands J once, not twice."""
    model = build_model(helpers.coupled_cusp_problem(k, links))
    tables = []
    plain = linalg._block_dets

    def recording(rows, tops, one):
        tables.append(len(rows))
        return plain(rows, tops, one)

    monkeypatch.setattr(linalg, "_block_dets", recording)
    rng = SplitMix64(k)
    for _ in range(2):
        t_free = tuple(draw_series(rng, model.ring, 1, 6) for _ in range(model.param_count))
        tables.clear()
        res = hensel_solve(model, t_free, default_target(model))
        assert res.iterations > 0
        assert tables == [k] * res.iterations


def _g_evaluations(monkeypatch):
    """Record every Poly.eval call; returns the list of polynomials evaluated."""
    evaluated = []
    plain = Poly.eval

    def recording(self, values):
        evaluated.append(self)
        return plain(self, values)

    monkeypatch.setattr(Poly, "eval", recording)
    return evaluated


def test_newton_inverts_det_from_the_previous_inverse(monkeypatch):
    """Newton's inverses and products on the F5 offjet lift at n_work 320.

    Each step divides by det(J), known mod x^w, with div_unit, handing it
    the previous step's det(J) as near.  det(J) is inverted only to half the
    digits of its quotient, so to ceil(w/2) at most, from the previous
    inverse cut where the two det(J) agree, and one Karp-Markstein
    correction ends the quotient.  In the last step that cut covers the half
    length, so no Newton inverse runs and only the quotient checks it.  The
    product volume (the sum of len(a) * len(b) over the vectors _kmul
    multiplies, each cut to the m coefficients it asks for) was 1 219 824
    when det(J) was inverted to all w digits, and 923 245 when a covering
    start was checked once more inside the inverse.
    """
    model = helpers.model("cusp_offjet_f5", n_work=320)
    volume, inverses, quotients = [0], [], []
    plain_kmul, plain_inverse = ring_module._kmul, ring_module._inverse
    plain_div_unit = Series.div_unit

    def kmul(a, b, m, p):
        volume[0] += min(len(a), m) * min(len(b), m)
        return plain_kmul(a, b, m, p)

    def inverse(b, n, p, start=None):
        inverses.append((n, 0 if start is None else start[2]))
        return plain_inverse(b, n, p, start)

    def div_unit(self, unit, near=None):
        seed = 0 if near is None else min((unit - near).order_floor(), near._inv[2])
        out = plain_div_unit(self, unit, near)
        h = (out.prec - self.order_floor() + 1) // 2
        quotients.append((h, seed, getattr(unit, "_inv", None)))
        return out

    monkeypatch.setattr(ring_module, "_kmul", kmul)
    monkeypatch.setattr(ring_module, "_inverse", inverse)
    monkeypatch.setattr(Series, "div_unit", div_unit)
    make_lift(model)
    # r = 1: one quotient per step, by det(J) known mod x^w
    assert [(h, seed) for h, seed, _ in quotients] == [
        (156, 0), (154, 3), (151, 6), (145, 12), (133, 24), (109, 48), (61, 96)
    ]
    assert inverses == [(h, seed) for h, seed, _ in quotients[:-1]]
    assert all(seed < n for n, seed in inverses)
    assert quotients[-1][2] is None
    assert volume[0] <= 919_524 == 923_245 - 61 * 61


def test_newton_evaluates_g_only_at_its_start_on_every_shipped_problem(monkeypatch):
    """Every later residual comes from the Taylor tail, on the lifts of _lift_every_shipped_problem."""
    evaluated = _g_evaluations(monkeypatch)
    runs = []

    def recording(model, t_free, target, seed=None):
        evaluated.clear()
        res = hensel_solve(model, t_free, target, seed)
        g_calls = sum(any(p is gi for gi in model.g) for p in evaluated)
        runs.append((res.iterations, g_calls, model.r))
        return res

    monkeypatch.setattr(arcs, "hensel_solve", recording)
    _lift_every_shipped_problem()
    assert sum(iterations for iterations, _, _ in runs) > 30
    for iterations, g_calls, r in runs:
        assert g_calls == r


def test_eval_prec_is_the_precision_eval_certifies_on_every_shipped_model():
    """Each g_i and t_jac entry, at points whose components are cut to different precisions."""
    for path in helpers.shipped_problems():
        model = build_model(load_problem(str(path)))
        ring = model.ring
        polys = list(model.g) + [p for row in model.t_jac.rows for p in row]
        rng = SplitMix64(11)
        for cut in (ring.n_work, ring.n_work // 2, 9):
            point = {
                nm: draw_series(rng, ring, 1, 6).truncate(cut - k)
                for k, nm in enumerate(model.tspace.names)
            }
            for p in polys:
                assert p.eval_prec(point) == p.eval(point).prec


def test_a_residual_the_tail_cannot_certify_is_evaluated(tcurve, monkeypatch):
    """The guard's branch: g_1 is evaluated where the tail identity is too short.

    The seed's second component is known only through x^4, so the residuals
    and the step are certified only through x^4, while g_1 at the next
    iterate is certified far beyond: its terms in T2 all carry coefficients
    of order at least 18.
    """
    ring = tcurve.ring
    t_free = (ring.zero(),)
    seed = (ring.parse("x + O(x^60)"), ring.parse("O(x^5)"))
    want = _outcome(_reference_newton, tcurve, t_free, 5, seed)
    evaluated = _g_evaluations(monkeypatch)
    got = _outcome(hensel_solve, tcurve, t_free, 5, seed)
    assert got == want
    assert got[1] == (1, 5)  # one step, residual order 1 to 5
    assert sum(p is tcurve.g[0] for p in evaluated) == 2
    assert sum(p is tcurve.g[1] for p in evaluated) == 1


def test_a_stall_at_a_residual_precision_is_precision_exhaustion(tcurve):
    """The seed of the test above with target 8: the step's residual is zero at x^5.

    Its order is capped by what the seed certifies, not by Newton, so the
    run is out of precision rather than stalled.
    """
    ring = tcurve.ring
    seed = (ring.parse("x + O(x^60)"), ring.parse("O(x^5)"))
    with pytest.raises(PrecisionExhaustedError, match=r"certified zero only through x\^4"):
        hensel_solve(tcurve, (ring.zero(),), 8, seed)


def _with_tail(model, text):
    """A copy of model whose Newton tail of g_1 is the polynomial text in T1, T2, D1."""
    tampered = model.replace()
    vars(tampered)["newton_tail"] = (parse_poly(text, model.ring, model.newton_tail[0].space),)
    return tampered


def test_newton_that_gains_one_order_a_step_stops_at_64_iterations():
    """A tail of x*D1 makes each residual x * (-delta): orders 12, 13, ... never reach 92."""
    model = _with_tail(helpers.model("cusp_f5", n_work=100), "x*D1")
    with pytest.raises(NoProgressError, match="did not reach the target within 64 iterations"):
        hensel_solve(model, (model.ring.x(),), 92)


def test_newton_whose_residual_order_does_not_rise_stalls(cusp_f5):
    """A tail of D1 makes the residual -delta, of the order x^12 it had."""
    model = _with_tail(cusp_f5, "D1")
    with pytest.raises(NoProgressError, match=r"residual order stalled at x\^12"):
        hensel_solve(model, (cusp_f5.ring.x(),), 30)


def test_make_lift_evaluates_each_ideal_generator_once_on_every_shipped_problem(monkeypatch):
    """The subsystem residual is read off the ideal's evaluations at y2."""
    evaluated = _g_evaluations(monkeypatch)
    for path in helpers.shipped_problems():
        model = build_model(load_problem(str(path)))
        evaluated.clear()
        make_lift(model)
        gens = model.problem.ideal_gens
        assert [sum(p is gen for p in evaluated) for gen in gens] == [1] * len(gens), path.name


# -- lifting -------------------------------------------------------------


def test_lift_golden(cusp_q):
    ring = cusp_q.ring
    lift = make_lift(cusp_q, (ring.parse("x^9"),))
    assert lift.t[1] == ring.parse("x^9")
    assert lift.t[0] == ring.parse("3*x^28 + O(x^32)")
    assert lift.y2[0] == ring.parse("x^3 + 6*x^18 + 6*x^33 + O(x^37)")
    assert lift.y2[1] == ring.parse("x^2 + 4*x^17")
    assert lift.y2[0].prec == 37
    assert lift.y2[1].prec == 40
    assert lift.strict
    assert lift.residual_f >= 40
    assert lift.residual_i >= 40
    assert lift.newton_iterations == 1
    assert lift.eff_prec == 37


def test_zero_lift_reproduces_the_jet(cusp_q):
    lift = make_lift(cusp_q)
    assert lift.newton_iterations == 0
    assert lift.y2[0] == cusp_q.jet[0]
    assert lift.y2[1] == cusp_q.jet[1]
    assert lift.eff_prec >= 37
    assert lift.strict


def test_lift_validates_free_components(cusp_q):
    ring = cusp_q.ring
    with pytest.raises(StructureError):
        make_lift(cusp_q, (ring.one(),))
    with pytest.raises(StructureError):
        make_lift(cusp_q, (ring.x(), ring.x()))
    other = SeriesRing(PrimeField(5))
    with pytest.raises(FieldMismatchError):
        make_lift(cusp_q, (other.x(),))


def test_node_x_lift_is_not_strict(node):
    lift = make_lift(node, (node.ring.x(),))
    assert not lift.strict
    assert lift.y2[0] == node.ring.parse("x^2 - x^9 + x^16 - x^23 + x^30 + O(x^36)")


def test_low_targets_cap_the_certified_precision(cusp_q):
    """A target below the initial residual order returns the seed, honestly
    truncated to what Newton actually certifies."""
    lift = make_lift(cusp_q, (cusp_q.ring.parse("x^9"),), target=4)
    assert lift.newton_iterations == 0
    assert lift.eff_prec == 33
    assert lift.residual_f >= lift.eff_prec


def test_an_explicit_target_below_one_is_named(cusp_q):
    with pytest.raises(StructureError, match="target residual order must be at least 1, got 0"):
        make_lift(cusp_q, target=0)


def test_no_room_for_the_default_target_blames_the_working_precision(cusp_q, monkeypatch):
    monkeypatch.setattr(arcs, "default_target", lambda model: 0)
    with pytest.raises(StructureError, match="working precision 40 leaves no room above the "
                                             "denominator order 2c = 8"):
        make_lift(cusp_q)


def test_a_residual_below_its_floor_fails_the_identity(cusp_q):
    ring = cusp_q.ring
    y1 = cusp_q.images["Y1"]
    moved = y1 + Poly.constant(ring, y1.space, ring.parse("x^12"))
    tampered = cusp_q.replace(images={**cusp_q.images, "Y1": moved})
    with pytest.raises(IdentityFailedError, match="subsystem residual"):
        make_lift(tampered)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_strictness_reads_the_free_coordinates_only_mod_x_to_the_c_plus_1(shipped_models, data):
    """y'' - y' = d*G(y')*T with ord d = c, and T_bound is a power series in T_free, so moving
    T_free by x^(c+1)*z moves the arc only from x^(2c+1) on: the two lifts agree through
    x^(2c) and are strict together.  The free coordinates start at the reference's or at
    random ones."""
    model, ref = data.draw(st.sampled_from([pair for pair in shipped_models if pair[0].param_count]))
    ring = model.ring
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    if data.draw(st.booleans()):
        t_free = ref.t[model.r:]
    else:
        t_free = tuple(draw_series(rng, ring, 1, 6) for _ in range(model.param_count))
    shift = ring.monomial(model.c + 1)
    moved = tuple(t + shift * draw_series(rng, ring, 0, 6) for t in t_free)
    a, b = make_lift(model, t_free), make_lift(model, moved)
    assert all((y - w).order_floor() >= model.problem.window for y, w in zip(a.y2, b.y2))
    assert a.strict == b.strict


# -- argument errors -------------------------------------------------------


@pytest.fixture(scope="module")
def two_free():
    """A cusp with one untouched variable: n = 3, r = 1, two free coordinates."""
    return build_model(helpers.cusp_product_problem(1, untouched=1))


def _raises(cls, message, fn, *args, **kwargs):
    """fn(*args, **kwargs) raises exactly cls with exactly message."""
    with pytest.raises(ArcliftError) as exc:
        fn(*args, **kwargs)
    assert (type(exc.value), str(exc.value)) == (cls, message)


def test_make_lift_argument_errors(cusp_q, two_free):
    x, one = cusp_q.ring.x(), cusp_q.ring.one()
    f5 = SeriesRing(PrimeField(5), 40).x()
    short = SeriesRing(QQ, 20).x()
    foreign = "free component 1 is not a series over the model ring"
    constant = "free component 1 has a nonzero constant term; parameters must lie in (x)"
    two = "expected 1 free components, got 2"
    _raises(StructureError, two, make_lift, cusp_q, (x, x))
    _raises(StructureError, "expected 1 free components, got 0", make_lift, cusp_q, ())
    _raises(FieldMismatchError, foreign, make_lift, cusp_q, (f5,))
    _raises(FieldMismatchError, foreign, make_lift, cusp_q, (short,))
    _raises(FieldMismatchError, foreign, make_lift, cusp_q, (0,))
    _raises(StructureError, constant, make_lift, cusp_q, (one + x,))
    # the count is checked first, then each component in turn, then the target
    _raises(StructureError, two, make_lift, cusp_q, (f5, f5), target=0)
    _raises(FieldMismatchError, foreign, make_lift, cusp_q, (f5,), target=0)
    x, one = two_free.ring.x(), two_free.ring.one()
    _raises(StructureError, constant, make_lift, two_free, (one, f5))
    _raises(FieldMismatchError, foreign, make_lift, two_free, (f5, one))
    _raises(FieldMismatchError, "free component 2 is not a series over the model ring",
            make_lift, two_free, (x, f5))


def test_hensel_solve_argument_errors(cusp_q):
    x, one = cusp_q.ring.x(), cusp_q.ring.one()
    _raises(StructureError, "expected 1 free components, got 2", hensel_solve, cusp_q, (x, x), 10)
    _raises(FieldMismatchError, "free component 1 is not a series over the model ring",
            hensel_solve, cusp_q, (SeriesRing(PrimeField(5), 40).x(),), 10)
    _raises(StructureError, "expected 1 seed components, got 2",
            hensel_solve, cusp_q, (x,), 10, seed=(x, x))
    _raises(FieldMismatchError, "seed component 1 is not a series over the model ring",
            hensel_solve, cusp_q, (x,), 10, seed=(SeriesRing(PrimeField(5), 40).x(),))
    _raises(NoProgressError, "initial residual has order 0; Newton iteration needs positive order",
            hensel_solve, cusp_q, (x,), 10, seed=(one,))


def test_extract_params_requires_a_strict_reference(node):
    loose = make_lift(node, (node.ring.x(),))
    _raises(NotStrictError, "the reference lift is not strict",
            extract_params, node, loose.y2, loose)


def test_offset_lift_argument_errors(cusp_q, node, two_free):
    ref = make_lift(cusp_q)
    x = cusp_q.ring.x()
    f5 = SeriesRing(PrimeField(5), 40).x()
    foreign = "offset component 1 is not a series over the model ring"
    _raises(StructureError, "expected 1 offset components, got 2", offset_lift, cusp_q, ref, (x, x))
    _raises(FieldMismatchError, foreign, offset_lift, cusp_q, ref, (f5,))
    _raises(FieldMismatchError, foreign, offset_lift, cusp_q, ref, (SeriesRing(QQ, 20).one(),))
    # a strict reference is checked first, then the count, each component, the target
    loose = make_lift(node, (node.ring.x(),))
    _raises(NotStrictError, "the reference lift is not strict", offset_lift, node, loose, (f5, f5))
    _raises(StructureError, "expected 1 offset components, got 2",
            offset_lift, cusp_q, ref, (f5, f5), target=0)
    _raises(FieldMismatchError, foreign, offset_lift, cusp_q, ref, (f5,), target=0)
    ref2 = make_lift(two_free)
    _raises(FieldMismatchError, "offset component 2 is not a series over the model ring",
            offset_lift, two_free, ref2, (two_free.ring.one(), f5))


@pytest.mark.parametrize("target", [0, -3])
def test_offset_lift_names_a_target_below_one(cusp_q, target):
    ref = make_lift(cusp_q)
    _raises(StructureError, f"target residual order must be at least 1, got {target}",
            offset_lift, cusp_q, ref, (cusp_q.ring.one(),), target=target)


def test_extract_t_argument_errors(cusp_q):
    ring = cusp_q.ring
    f5 = SeriesRing(PrimeField(5), 40).parse("x^2")
    foreign = "arc component 2 is not a series over the model ring"
    _raises(StructureError, "expected 2 components, got 1", extract_t, cusp_q, (cusp_q.jet[0],))
    _raises(StructureError, "expected 2 components, got 3", extract_t, cusp_q, (f5, f5, f5))
    _raises(FieldMismatchError, foreign, extract_t, cusp_q, (cusp_q.jet[0], f5))
    _raises(FieldMismatchError, "arc component 1 is not a series over the model ring",
            extract_t, cusp_q, (SeriesRing(QQ, 20).parse("x^3"), cusp_q.jet[1]))
    # every component's ring is checked before the window
    _raises(FieldMismatchError, foreign, extract_t, cusp_q, (ring.parse("x^3 + x"), f5))


# -- inverting the parametrization ---------------------------------------


def test_extract_golden(cusp_q):
    ring = cusp_q.ring
    s = ring.parse("x + x^8")
    arc = (s * s * s, s * s)
    t = extract_t(cusp_q, arc)
    assert t[0] == ring.parse("3/4*x^12 + 1/2*x^19 + O(x^35)")
    assert t[1] == ring.parse("1/2*x + 1/4*x^8 + O(x^32)")


def test_extract_roundtrips_through_lift(cusp_q):
    ring = cusp_q.ring
    lift = make_lift(cusp_q, (ring.parse("x + x^3"),))
    t = extract_t(cusp_q, lift.y2)
    assert t[0] == lift.t[0]
    assert t[1] == lift.t[1]


def test_extract_rejects_non_strict_arcs(node):
    lift = make_lift(node, (node.ring.x(),))
    with pytest.raises(NotStrictError) as exc:
        extract_t(node, lift.y2)
    assert exc.value.index == 1
    assert exc.value.order == 9


def test_extract_rejects_arcs_off_the_model(cusp_q):
    ring = cusp_q.ring
    arc = (ring.parse("x^3 + x^9"), ring.parse("x^2 + x^9"))
    with pytest.raises(IdentityFailedError):
        extract_t(cusp_q, arc)


def test_extract_refuses_an_arc_the_images_do_not_reproduce(cusp_q):
    """Y1's image moved by x^12, as in tests/check_corpus.py: g, H and the jet are the model's
    own, so a strict lift passes every check before re-substitution, and fails there."""
    ring = cusp_q.ring
    lift = make_lift(cusp_q, (ring.parse("x^9"),))
    moved = cusp_q.images["Y1"] + Poly.constant(ring, cusp_q.tspace, ring.parse("x^12"))
    tampered = cusp_q.replace(images={**cusp_q.images, "Y1": moved})
    with pytest.raises(IdentityFailedError, match="re-substitution does not reproduce arc component 1"):
        extract_t(tampered, lift.y2)


# -- offsets and the inverse family map ----------------------------------


def test_offset_golden(cusp_q):
    ring = cusp_q.ring
    ref = make_lift(cusp_q)
    shifted = offset_lift(cusp_q, ref, (ring.x(),))
    assert shifted.y2[0] == ring.parse("x^3 + 6*x^19 + 6*x^35 + O(x^37)")
    assert shifted.y2[1] == ring.parse("x^2 + 4*x^18")
    assert shifted.strict


def test_offset_agrees_with_the_reference_through_the_window(cusp_q):
    ref = make_lift(cusp_q)
    shifted = offset_lift(cusp_q, ref, (cusp_q.ring.parse("1 + x"),))
    for a, b in zip(shifted.y2, ref.y2):
        assert (a - b).order_floor() >= 2 * cusp_q.c + 1


def test_offset_lift_that_loses_strictness_fails_the_identity(cusp_q, monkeypatch):
    ref = make_lift(cusp_q)
    monkeypatch.setattr(arcs, "_is_strict", lambda model, y2: False)
    with pytest.raises(IdentityFailedError, match="lost strictness"):
        offset_lift(cusp_q, ref, (cusp_q.ring.x(),))


def test_offset_lift_refuses_to_drift_from_a_reference_claimed_strict(cusp_q):
    """A reference whose y2 is moved by x^5 but still says strict: the offset lift, strict
    itself, differs from it at order 5."""
    ring = cusp_q.ring
    ref = make_lift(cusp_q)
    moved = ref.replace(y2=(ref.y2[0] + ring.parse("x^5"), ref.y2[1]))
    with pytest.raises(IdentityFailedError, match="drifted from the reference inside the congruence window"):
        offset_lift(cusp_q, moved, (ring.x(),))


def test_a_lift_refuses_an_ideal_residual_below_its_floor(cusp_q):
    """Y1 - x^3 joins the ideal with a zero cofactor row, though N * (Y1 - x^3) is no
    multiple of f: at the arc it is y2_1 - x^3, of order 10 < eff_prec - c = 33."""
    problem = cusp_q.problem
    space, cert = problem.space, problem.certificate
    extra = parse_poly("Y1 - x^3", cusp_q.ring, space)
    certificate = cert.replace(cofactors=(*cert.cofactors, (Poly.zero(cusp_q.ring, space),)))
    wider = problem.replace(ideal_gens=(*problem.ideal_gens, extra), certificate=certificate)
    tampered = cusp_q.replace(problem=wider)
    with pytest.raises(IdentityFailedError, match="ideal residual dipped below its guaranteed floor"):
        make_lift(tampered, (cusp_q.ring.x(),))


def test_a_relift_that_misses_the_arc_fails_the_identity(cusp_q, monkeypatch):
    ring = cusp_q.ring
    ref = make_lift(cusp_q)
    shifted = offset_lift(cusp_q, ref, (ring.x(),))
    real = arcs.offset_lift
    monkeypatch.setattr(arcs, "offset_lift", lambda model, r, z: real(model, r, (z[0] + ring.x(),)))
    with pytest.raises(IdentityFailedError, match="relift from the recovered offsets"):
        extract_params(cusp_q, shifted.y2, ref)


def test_offset_requires_a_strict_reference(node):
    loose = make_lift(node, (node.ring.x(),))
    with pytest.raises(NotStrictError):
        offset_lift(node, loose, (node.ring.one(),))


def test_extract_params_golden(cusp_q):
    ring = cusp_q.ring
    ref = make_lift(cusp_q)
    shifted = offset_lift(cusp_q, ref, (ring.x(),))
    z = extract_params(cusp_q, shifted.y2, ref)
    assert z[0] == ring.parse("x + O(x^23)")
    assert z[0].prec == 23


def test_extract_params_rejects_foreign_arcs(cusp_q):
    ring = cusp_q.ring
    ref = make_lift(cusp_q)
    s = ring.parse("x + x^8")
    arc = (s * s * s, s * s)
    with pytest.raises(OutOfFamilyError) as exc:
        extract_params(cusp_q, arc, ref)
    assert exc.value.index == 1
    assert exc.value.order == 1


# -- reference search ----------------------------------------------------


def test_reference_search_takes_the_jet_when_it_is_strict(cusp_q):
    ref = find_strict_reference(cusp_q)
    assert ref is not None
    assert ref.strict
    assert ref.newton_iterations == 0


def test_reference_search_solves_the_shifted_node(shifted_node):
    ref = find_strict_reference(shifted_node)
    assert ref is not None
    assert ref.strict
    assert ref.t[1] == shifted_node.ring.parse("-x")


def test_reference_search_gives_up_honestly(offjet):
    assert find_strict_reference(offjet, search_depth=3) is None


def test_reference_search_stops_at_layer_c():
    """Layers above c cannot reach the window, so depths c, c + 1, 8 and 20 agree."""
    for path in helpers.shipped_problems():
        raw = helpers.problem_data(path.stem)
        for field in dict.fromkeys((raw["field"], "F5", "Q")):
            model = helpers.model(path.stem, field=field)
            found = set()
            for depth in (model.c, model.c + 1, 8, 20):
                ref = find_strict_reference(model, depth)
                found.add(None if ref is None else tuple((s.nums, s.den, s.prec) for s in ref.t))
            assert len(found) == 1, (path.name, field)


def test_reference_search_keeps_only_an_improving_candidate(monkeypatch):
    """The greedy step: a candidate that raises the lowest violated order seeds the next
    layer's probes and residual, and one that does not is dropped.

    No shipped problem reaches an improving non-strict candidate, so make_lift and
    _violation are scripted: no lift is strict, each is recorded by its free vector, and
    each violation is one window coefficient over F5 with its lowest order.
    """
    ring = SeriesRing(PrimeField(5), 40)
    model = dataclasses.make_dataclass("Model", ["ring", "param_count", "c"])(ring, 1, 3)
    lifts = []
    script = iter([
        ([1], 0),  # base
        ([2], 0), ([3], 1),  # layer 1: probe, then a candidate that improves 0 -> 1
        ([4], 0), ([1], 1),  # layer 2: probe, then a candidate that does not improve
        ([4], 0), ([2], 0),  # layer 3: probe, then a candidate that does not improve
    ])

    def lift(model, t_free):
        lifts.append(t_free)
        return dataclasses.make_dataclass("Lift", ["strict"])(False)

    monkeypatch.setattr(arcs, "make_lift", lift)
    monkeypatch.setattr(arcs, "_violation", lambda model, lift: next(script))
    assert find_strict_reference(model, search_depth=8) is None
    # layer 1 solves 1 + (2 - 1)*a = 0, a = 4; layer 2 solves 3 + (4 - 3)*a = 0 against
    # the kept candidate's violation, a = 2; layer 3 probes from the layer-1 candidate again
    expected = ["0", "x", "4*x", "4*x + x^2", "4*x + 2*x^2", "4*x + x^3", "4*x + 2*x^3"]
    assert [t.render() for (t,) in lifts] == expected
    assert next(script, None) is None


def test_reference_search_handles_no_parameters(smooth):
    ref = find_strict_reference(smooth)
    assert ref is not None and ref.strict


def test_reference_search_gives_none_when_the_only_lift_is_not_strict():
    """Y1^2 - x^2 through x + x^4 at c = 2: the one lift is Y1 = x, off the jet at x^4,
    inside the window x^5, and no free coordinate is left to move it."""
    ring = SeriesRing(QQ, 40)
    problem = make_problem(
        ring, n=1, ideal_gens=[parse_poly("Y1^2 - x^2", ring, VarSpace.ys(1))],
        f_idx=[1], minor_cols=[1], jet=(ring.parse("x + x^4"),), c=2,
    )
    model = build_model(problem)
    base = make_lift(model)
    assert model.param_count == 0
    assert not base.strict and base.y2 == (ring.parse("x + O(x^39)"),)
    assert find_strict_reference(model) is None


def test_strictness_of_an_arc_known_only_inside_the_window_is_undecidable():
    """At n_work 10 the cusp's lift is known through x^6 in its first component, short of
    the window x^9, so whether it is strict cannot be decided."""
    model = helpers.model("cusp", n_work=10)
    message = (r"component 1 matches the jet only through x\^6; "
               r"strictness needs agreement through x\^8")
    with pytest.raises(PrecisionExhaustedError, match=message):
        make_lift(model, (model.ring.parse("x"),))


# -- enumeration oracle --------------------------------------------------


@pytest.fixture(scope="module")
def cusp5():
    return helpers.problem("cusp_f5")


def test_oracle_counts(cusp5):
    assert oracle_enumerate(cusp5, 9).count == 1
    assert oracle_enumerate(cusp5, 10).count == 25
    assert oracle_enumerate(cusp5, 11).count == 625


def test_oracle_budget(cusp5):
    with pytest.raises(BudgetExceededError):
        oracle_enumerate(cusp5, 30)


def test_oracle_refuses_rational_problems():
    with pytest.raises(StructureError):
        oracle_enumerate(helpers.problem("cusp"), 10)


def test_oracle_refuses_short_windows(cusp5):
    with pytest.raises(StructureError):
        oracle_enumerate(cusp5, 8)


def test_oracle_membership_and_determinism(cusp5):
    first = oracle_enumerate(cusp5, 10)
    second = oracle_enumerate(cusp5, 10)
    assert first.ordered == second.ordered
    ring = SeriesRing(PrimeField(5))
    assert first.contains((ring.parse("x^3"), ring.parse("x^2")))
    assert not first.contains((ring.parse("x^3 + x^4"), ring.parse("x^2")))


def test_oracle_keys_are_the_members_base_p_digits_in_order(cusp5):
    jets = oracle_enumerate(cusp5, 10)
    assert list(jets.keys) == sorted(set(jets.keys))
    for i, key in enumerate(jets.keys):
        member = jets.member(i)
        assert member == jets.ordered[i]
        assert key == int("".join(str(d) for comp in member for d in comp), 5)


def test_oracle_holds_each_member_in_at_most_100_bytes(cusp5):
    """The tracemalloc peak over the 78 125 members at x^13, under a quarter
    of the 420 bytes a member took as n tuples of m ints."""
    tracemalloc.start()
    try:
        jets = oracle_enumerate(cusp5, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jets.count == 78125
    assert peak <= 100 * jets.count


def test_oracle_counts_its_candidates_and_finds_each_member(cusp5):
    jets = oracle_enumerate(cusp5, 11)
    assert jets.candidates == 5 ** (2 * (11 - 9))
    ring = SeriesRing(PrimeField(5), 11)

    def arc(key):
        return tuple(ring.series(list(c)) for c in key)

    for key in jets.ordered:
        assert jets.contains(arc(key))
        # moved inside the window, so off the jet: sorts between members or after them
        assert not jets.contains(arc(((key[0][0] + 1,) + key[0][1:], key[1])))
    assert not jets.contains(arc(((0,) * 11, (0,) * 11)))


def test_oracle_contains_needs_enough_arc_precision(cusp5):
    jets = oracle_enumerate(cusp5, 10)
    ring = SeriesRing(PrimeField(5))
    with pytest.raises(PrecisionExhaustedError):
        jets.contains((ring.parse("x^3 + O(x^9)"), ring.parse("x^2 + O(x^9)")))
    with pytest.raises(FieldMismatchError):
        jets.contains((SeriesRing(QQ).parse("x^3"), SeriesRing(QQ).parse("x^2")))
    _raises(StructureError, "expected 2 components, got 1", jets.contains, (ring.parse("x^3"),))


def test_oracle_covers_every_strict_lift(cusp_f5):
    prob = helpers.problem("cusp_f5")
    jets = oracle_enumerate(prob, 11)
    rng = SplitMix64(7)
    ring = cusp_f5.ring
    for _ in range(10):
        tf = (draw_series(rng, ring, 1, 6),)
        lift = make_lift(cusp_f5, tf)
        assert lift.strict
        assert jets.contains(lift.y2)


@st.composite
def _jet_windows(draw, min_width=1):
    """A random system over F2/F3/F5 with n <= 3, c = 1, a window of <= 2000
    candidates, a jet with a nonzero constant term and a nonzero Jacobian there."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    width = draw(st.integers(min_width, 4).filter(lambda w: p ** (n * w) <= 2000))
    m = 3 + width
    ring = SeriesRing(PrimeField(p), m)
    space = VarSpace.ys(n)
    scalars = st.integers(0, p - 1)
    jet = tuple(ring.series(draw(st.lists(scalars, min_size=3, max_size=3))) for _ in range(n))
    assume(any(y.coeff_at(0) for y in jet))
    point = dict(zip(space.names, jet))
    gens = []
    for _ in range(draw(st.integers(1, min(n, 2)))):
        g = Poly.zero(ring, space)
        for _ in range(draw(st.integers(1, 4))):
            coeff = ring.series(draw(st.lists(scalars, min_size=1, max_size=3)))
            term = Poly.constant(ring, space, coeff)
            for nm in space.names:
                for _ in range(draw(st.integers(0, 2))):
                    term = term * Poly.variable(ring, space, nm)
            g = g + term
        if draw(st.sampled_from([True, True, True, False])):
            # make the jet itself a solution mod x^3, so the window is not empty
            at_jet = g.eval(point)
            g = g - Poly.constant(ring, space, ring.series([at_jet.coeff_at(k) for k in range(3)]))
        gens.append(g)
    assume(any(g.diff(nm).eval(point).coeff_at(0) for g in gens for nm in space.names))
    idx = range(1, len(gens) + 1)
    return make_problem(ring, n, gens, f_idx=idx, minor_cols=idx, jet=jet, c=1), m


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_jet_windows())
def test_oracle_matches_brute_force_with_a_nonzero_jacobian(window):
    problem, m = window
    ring, names = problem.ring, problem.space.names
    p, width = ring.field.p, m - 3
    base = [tuple(y.coeff_at(k) for k in range(3)) for y in problem.jet]
    found = []
    for tail in product(range(p), repeat=problem.n * width):
        key = tuple(b + tail[i * width : (i + 1) * width] for i, b in enumerate(base))
        point = {nm: ring.series(list(c)) for nm, c in zip(names, key)}
        if all(g.eval(point).order_floor() >= m for g in problem.ideal_gens):
            found.append(key)
    assert oracle_enumerate(problem, m).ordered == tuple(sorted(found))


def _same_as_reference(problem, m):
    got = oracle_enumerate(problem, m)
    want = oracle_reference.enumerate_jets(problem, m)
    assert (got.ordered, got.count, got.candidates) == (want.ordered, want.count, want.candidates)


@pytest.mark.parametrize(
    "name, m", [("cusp_f5", m) for m in range(9, 13)] + [("cusp_offjet_f5", m) for m in range(9, 12)]
)
def test_oracle_matches_the_tuple_reference_on_the_shipped_cusps(name, m):
    _same_as_reference(helpers.problem(name), m)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_jet_windows(min_width=0))
def test_oracle_matches_the_tuple_reference_on_random_windows(window):
    _same_as_reference(*window)


@pytest.mark.parametrize(
    "case", ["the bare congruence window", "a parent with no extension"]
)
def test_the_random_windows_reach_both_edge_cases(case):
    """m = 2c+1, where no layer is built, and a parent whose J0*delta = -top
    has no solution, each the first such window the strategy draws."""
    wanted = {
        "the bare congruence window": lambda w: w[1] == 3,
        "a parent with no extension": lambda w: oracle_reference.enumerate_jets(*w).dead_ends > 0,
    }[case]
    first = settings(derandomize=True, database=None, max_examples=500, phases=[Phase.generate])
    window = find(_jet_windows(min_width=0), wanted, settings=first)
    _same_as_reference(*window)


# -- randomized confirmation ----------------------------------------------


def test_extract_inverts_lift_on_random_parameters(cusp_q):
    rng = SplitMix64(41)
    ring = cusp_q.ring
    for _ in range(25):
        tf = (draw_series(rng, ring, 1, 6),)
        lift = make_lift(cusp_q, tf)
        assert lift.strict
        t = extract_t(cusp_q, lift.y2)
        assert t[0] == lift.t[0]
        assert t[1] == lift.t[1]


def test_offset_roundtrip_on_random_offsets(cusp_q):
    rng = SplitMix64(99)
    ring = cusp_q.ring
    ref = make_lift(cusp_q)
    for _ in range(10):
        z = (draw_series(rng, ring, 0, 6),)
        shifted = offset_lift(cusp_q, ref, z)
        back = extract_params(cusp_q, shifted.y2, ref)
        assert back[0] == z[0].truncate(23)


# -- power tables ----------------------------------------------------------


def _table_cases():
    """() -> Problem, one param each: every shipped problem, each Q one also over F5 and
    F_(2^31-1), the dense r = 3 coupled cusps and the n = 16 wide cusp."""
    cases = []
    for path in helpers.shipped_problems():
        raw = helpers.problem_data(path.stem)
        field = raw["field"]
        for other in (field, "F5", "F2147483647") if field == "Q" else (field,):
            data = dict(raw, field=other)
            cases.append((f"{path.stem}-{other}", lambda data=data: parse_problem(data)))
    links = [(2, 3), (4, 5), (6, 1)]
    cases.append(("coupled-r3", lambda: helpers.coupled_cusp_problem(3, links)))
    cases.append(("cusp-n16", lambda: helpers.cusp_product_problem(1, 14)))
    return [pytest.param(load, id=name) for name, load in cases]


def _pipeline(problem):
    """Every result of a build, verify and lifts through the model, in stored form, errors included."""
    out = []

    def run(label, fn, *args):
        try:
            res = fn(*args)
        except ArcliftError as exc:
            out.append((label, type(exc).__name__, str(exc)))
            return None
        out.append((label, power_reference.stored(res)))
        return res

    model = run("build_model", build_model, problem)
    if model is None:
        return out
    out.append(("verify_model", [(ch.name, ch.ok, ch.detail) for ch in verify_model(model).checks]))
    ring = model.ring
    rng = SplitMix64(model.n)
    drawn = tuple(draw_series(rng, ring, 1, 6) for _ in range(model.param_count))
    lifts = [run("make_lift", make_lift, model, t_free) for t_free in (None, drawn)]
    ref = run("find_strict_reference", find_strict_reference, model)
    if ref is not None:
        z = tuple(draw_series(rng, ring, 0, 4) for _ in range(model.param_count))
        moved = run("offset_lift", offset_lift, model, ref, z)
        lifts.append(moved)
        if moved is not None:
            run("extract_params", extract_params, model, moved.y2, ref)
    out.append(("precisions", [(res.newton_iterations, res.k0, res.eff_prec)
                               for res in lifts if res is not None]))
    out.append(("newton_tail", power_reference.stored(model.newton_tail)))
    return out


@pytest.mark.parametrize("load", _table_cases())
def test_shared_power_tables_change_no_stored_digit(load, monkeypatch):
    """build_model, verify_model's checks, make_lift, offset_lift and extract_params give
    the nums, den and prec of every series and the term set of every Poly that a fresh
    power table per walk gives, with the same newton_iterations, k0 and eff_prec."""
    with monkeypatch.context() as patched:
        patched.setattr(Poly, "_walk", power_reference.walk)
        want = _pipeline(load())
    got = _pipeline(load())
    assert got[0][0] == "build_model"
    assert got == want


def _series_products(monkeypatch):
    """Count every Series product from here on; returns the one-element counter."""
    count = [0]
    plain = Series.__mul__

    def counting(a, b):
        count[0] += 1
        return plain(a, b)

    monkeypatch.setattr(Series, "__mul__", counting)
    return count


def test_one_power_table_per_point_cuts_build_and_verify_products(monkeypatch):
    """Building and verifying tcurve and the monomial curve (3, 6) at n_work 40 takes at
    least 8 % fewer Series products than a fresh power table per walk, the package's
    walk before the tables were shared.  There tcurve takes 446 products (259 to build,
    187 to verify) and the curve (3, 6) through the arc x + 2x^2 - x^3 takes 210
    (105 + 105); one table per point takes at most 403 and 178."""
    ring = SeriesRing(QQ, 40)
    builds = (
        (lambda: helpers.problem("tcurve", n_work=40), 446, 403),
        (lambda: helpers.monomial_curve_problem(ring, 3, 6, ring.parse("x + 2*x^2 - x^3")), 210, 178),
    )
    count = _series_products(monkeypatch)

    def products(problem):
        count[0] = 0
        assert verify_model(build_model(problem)).ok
        return count[0]

    for build, before, shared in builds:
        with monkeypatch.context() as patched:
            patched.setattr(Poly, "_walk", power_reference.walk)
            assert products(build()) == before
        assert products(build()) <= min(shared, 0.92 * before)


def test_build_and_verify_keep_no_power_table_across_calls(monkeypatch):
    """Two builds of one problem, and two verifications of one model, take the same products."""
    problem = helpers.problem("tcurve", n_work=40)
    problem.minor  # cached on the problem, so built before the counts start
    count = _series_products(monkeypatch)
    builds, verifies = [], []
    for _ in range(2):
        count[0] = 0
        model = build_model(problem)
        builds.append(count[0])
    for _ in range(2):
        count[0] = 0
        assert verify_model(model).ok
        verifies.append(count[0])
    assert builds[0] == builds[1] > 0
    assert verifies[0] == verifies[1] > 0
