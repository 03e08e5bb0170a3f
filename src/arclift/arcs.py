"""Arcs through a smooth model: lifting and parametrization.

A smooth model turns the original system into g = a + T + Q with an
invertible bound block.  Solving g = 0 for the bound coordinates T1..Tr,
with the free coordinates T(r+1)..Tn chosen at will inside (x), produces
arcs y'' that solve the system and agree with the jet y' through x^(2c).
This module provides that machinery in both directions:

    hensel_solve     Newton iteration on the bound block: each step works
                     the Jacobian only to the precision the step needs and
                     reads the next residual off the Taylor tail of Q,
                     with the iterates of full-precision Newton
    make_lift        free choices in, certified arc out
    extract_t        strict arc in, its T coordinates out
    offset_lift      reparametrize around a strict reference: free
                     coordinates move by x^(2c+1) * z
    extract_params   recover z from an arc and a strict reference
    find_strict_reference
                     search for a lift that agrees with the jet through
                     x^(2c), trying zero first, then greedy affine
                     corrections layer by layer

A lift is strict when every component matches the jet through x^(2c), that
is inside the congruence window x^(2c+1); strictness, extraction and the
offset family all check the window through one scan.  Strict lifts are
exactly the arcs the family parametrizes, which is what makes extraction
well posed.  All order claims are made against effective
precision: an invisible series is a certified zero at its precision, never
an exact one, and the code refuses to decide questions the precision
cannot settle.
"""

from __future__ import annotations

from . import linalg
from .desing import SmoothModel
from .errors import (
    FieldMismatchError,
    IdentityFailedError,
    NoProgressError,
    NotStrictError,
    OutOfFamilyError,
    PrecisionExhaustedError,
    StructureError,
)
from .oracle import JetSet, oracle_enumerate  # re-exported for cli and perfbench's tracer
from .polyring import PolyMatrix
from .record import Record
from .ring import Series


class HenselResult(Record):
    """Outcome of Newton iteration on the bound block.

    orders is the residual order before the first step and after each one,
    k0 through k_final.
    """

    t_bound: tuple
    orders: tuple

    @property
    def k0(self) -> int:
        return self.orders[0]

    @property
    def k_final(self) -> int:
        return self.orders[-1]

    @property
    def iterations(self) -> int:
        return len(self.orders) - 1


class LiftResult(Record):
    """An arc produced by lifting, with the certificates gathered on the way.

    t is the full coordinate vector (bound block first, then the free
    choices), y2 the arc in the original component order.  residual_f and
    residual_i are the certified vanishing orders of the selected subsystem
    and of the whole ideal at y2.
    """

    t: tuple
    y2: tuple
    residual_f: int
    residual_i: int
    strict: bool
    newton_iterations: int
    k0: int

    @property
    def eff_prec(self) -> int:
        return min(s.prec for s in self.y2)


def hensel_solve(model: SmoothModel, t_free, target: int, seed=None) -> HenselResult:
    """Solve the bound block of g = 0 to residual order at least target.

    The free coordinates are fixed to t_free.  Each step is the Newton update
    u -> u - delta with delta = adj(J)*g(u)/det(J), J the bound block
    Jacobian at u; det(J) and adj(J) certify the digits of cofactor
    expansion.  One block table gives both: det(J) is the first entry of
    J*adj(J), the first-row expansion with the products, signs and order of
    linalg.det.  The residual order must strictly increase every round (it
    doubles in practice).  A step computes each piece only to the precision
    that reaches its result, so the iterates, residuals and orders are those
    of full-precision Newton, digit for digit:

    - g(u) vanishes mod x^k and is known mod x^R, R the largest precision
      among its components.  No component of delta is known beyond x^R
      (det(J) is a unit, so every row of adj(J) holds one), hence delta
      needs J only mod x^(R-k): J, det(J) and adj(J) are computed at u
      truncated to R - k.
    - Successive det(J) agree mod x^h0, h0 about k since delta vanishes mod
      x^k, and Series.div_unit, handed the previous one as near, does the
      rest; the quotient is unique, so no digit changes.
    - g(u - delta) = g(u) - J(u)*delta + tail(u, -delta), with tail the
      Taylor tail of Q (model.newton_tail), and g(u) - J(u)*delta vanishes
      through the least precision of the residuals and of delta.  So the
      next residual is the tail, kept to the precision P that evaluating g
      at u - delta would certify (Poly.eval_prec).  Where P exceeds that
      least precision or the tail's own, the identity certifies fewer than
      P digits, and g is evaluated at u - delta instead.

    Raises NoProgressError when iteration cannot start or stalls,
    PrecisionExhaustedError when the residual is certified zero at a
    precision short of the target, also when that precision is what keeps
    a step's residual order from rising.
    """
    ring = model.ring
    r = model.r
    t_free = _series_vector(model, t_free, model.param_count, "free components", "free")
    if seed is None:
        t_bound = tuple(ring.zero(ring.n_work) for _ in range(r))
    else:
        t_bound = _series_vector(model, seed, r, "seed components", "seed")

    names = model.tspace.names
    point = dict(zip(names, t_bound + t_free))
    res = [gi.eval(point) for gi in model.g]
    k0 = min(v.order_floor() for v in res)
    if k0 < 1:
        raise NoProgressError(
            f"initial residual has order {k0}; Newton iteration needs positive order"
        )

    def exhausted(k):
        return PrecisionExhaustedError(
            f"residual is certified zero only through x^{k - 1}, short of the target x^{target}"
        )

    k = k0
    orders = [k0]
    one = ring.one()
    det_prev = None
    while k < target:
        if all(v.is_zero() for v in res):
            raise exhausted(k)
        if len(orders) > 64:
            raise NoProgressError("Newton did not reach the target within 64 iterations")
        w = max(v.prec for v in res) - k
        jac = model.t_jac.eval({nm: s.truncate(w) for nm, s in point.items()})
        adj = linalg.adjugate(jac, one)
        det = linalg.mat_vec([jac[0]], [row[0] for row in adj])[0]
        delta = [c.div_unit(det, det_prev) for c in linalg.mat_vec(adj, res)]
        det_prev = det
        tails = model.newton_tail
        tail_point = dict(zip(tails[0].space.names, t_bound + t_free + tuple(-d for d in delta)))
        t_bound = tuple(u - d for u, d in zip(t_bound, delta))
        point = dict(zip(names, t_bound + t_free))
        certified = min(s.prec for s in res + delta)
        res = [_next_residual(gi, tail, point, tail_point, certified)
               for gi, tail in zip(model.g, tails)]
        k_new = min(v.order_floor() for v in res)
        if k_new <= k:
            if all(v.is_zero() for v in res if v.order_floor() == k_new):
                raise exhausted(k_new)
            raise NoProgressError(f"residual order stalled at x^{k}")
        k = k_new
        orders.append(k)
    # Newton certifies the solution only modulo x^k, so cap the precision
    # of the result there; usually k is the residual's full precision and
    # this is a no-op.
    return HenselResult(tuple(s.truncate(k) for s in t_bound), tuple(orders))


def _next_residual(gi, tail, point, tail_point, certified: int) -> Series:
    """gi at point, read off its Newton tail when that certifies eval's precision."""
    prec = gi.eval_prec(point)
    if prec <= certified:
        val = tail.eval(tail_point)
        if prec <= val.prec:
            return val.truncate(prec)
    return gi.eval(point)


def _window_miss(model, diffs):
    """The first (index, diff) with diff not certified zero mod x^(2c+1), or None.

    Such a diff either has a visible order inside the window or is zero at a
    precision inside it, where the question is undecidable.
    """
    need = model.problem.window
    for i, diff in enumerate(diffs):
        if diff.order_floor() < need:
            return i, diff
    return None


def _is_strict(model: SmoothModel, y2) -> bool:
    miss = _window_miss(model, [y - j for y, j in zip(y2, model.jet)])
    if miss is not None and miss[1].order() is None:
        i, diff = miss
        raise PrecisionExhaustedError(
            f"component {i + 1} matches the jet only through x^{diff.prec - 1}; "
            f"strictness needs agreement through x^{model.problem.window - 1}"
        )
    return miss is None


def _require_window(model, diffs, label: str, needs: str, differs: str, error) -> None:
    """Raise at the first diff not certified zero mod x^(2c+1): error at a visible
    order, PrecisionExhaustedError where the precision cannot decide."""
    miss = _window_miss(model, diffs)
    if miss is None:
        return
    i, diff = miss
    need, o = model.problem.window, diff.order()
    if o is None:
        raise PrecisionExhaustedError(
            f"{label} {i + 1} is known only through x^{diff.prec - 1}; {needs} x^{need - 1}"
        )
    raise error(
        f"{label} {i + 1} {differs} at order {o}, inside the congruence window x^{need}",
        index=i + 1,
        order=o,
    )


def _series_vector(model, items, count: int, noun: str, kind: str, in_x: bool = False) -> tuple:
    """items as a tuple of count series over the model ring, and in (x) when in_x.

    The count is checked first, then each component in turn.
    """
    items = tuple(items)
    if len(items) != count:
        raise StructureError(f"expected {count} {noun}, got {len(items)}")
    for i, s in enumerate(items, start=1):
        if not isinstance(s, Series) or s.ring != model.ring:
            raise FieldMismatchError(f"{kind} component {i} is not a series over the model ring")
        if in_x and s.order() == 0:
            raise StructureError(
                f"{kind} component {i} has a nonzero constant term; parameters must lie in (x)"
            )
    return items


def default_target(model: SmoothModel) -> int:
    """Highest residual order certifiable at the working precision."""
    return model.ring.n_work - 2 * model.c


def _lift(model: SmoothModel, t_free: tuple, target: int | None, seed=None) -> LiftResult:
    """Solve the bound block from seed (or zero) to target (or default_target), certify the arc."""
    if target is None:
        target = default_target(model)
        if target < 1:
            raise StructureError(
                f"working precision {model.ring.n_work} leaves no room above the "
                f"denominator order 2c = {2 * model.c}"
            )
    elif target < 1:
        raise StructureError(f"target residual order must be at least 1, got {target}")
    hensel = hensel_solve(model, t_free, target, seed)
    t = hensel.t_bound + t_free
    tpoint = dict(zip(model.tspace.names, t))
    y2 = _images_at(model, tpoint)
    ypoint = dict(zip(model.problem.space.names, y2))
    floors = [g.eval(ypoint).order_floor() for g in model.problem.ideal_gens]
    residual_f = min(floors[i - 1] for i in model.problem.f_idx)
    residual_i = min(floors)
    eff = min(s.prec for s in y2)
    if residual_f < eff:
        raise IdentityFailedError("subsystem residual dipped below the arc's precision")
    if residual_i < eff - model.c:
        raise IdentityFailedError("ideal residual dipped below its guaranteed floor")
    return LiftResult(
        t=t,
        y2=y2,
        residual_f=residual_f,
        residual_i=residual_i,
        strict=_is_strict(model, y2),
        newton_iterations=hensel.iterations,
        k0=hensel.k0,
    )


def _images_at(model: SmoothModel, tpoint: dict) -> tuple:
    """The arc y = y' + d*G(y')*T at tpoint, in Y order; the point is checked once for all n."""
    row = PolyMatrix([[model.images[nm] for nm in model.problem.space.names]])
    return tuple(row.eval(tpoint)[0])


def make_lift(model: SmoothModel, t_free=None, target: int | None = None) -> LiftResult:
    """Lift the jet to an arc with the given free coordinates.

    Every free component must lie in (x); None means all zero.  The result
    solves the subsystem to order at least eff_prec and the whole ideal to
    order at least eff_prec - c.
    """
    ring = model.ring
    if t_free is None:
        t_free = tuple(ring.zero(ring.n_work) for _ in range(model.param_count))
    t_free = _series_vector(model, t_free, model.param_count, "free components", "free", in_x=True)
    return _lift(model, t_free, target)


def offset_lift(model: SmoothModel, reference: LiftResult, z, target: int | None = None) -> LiftResult:
    """Lift with free coordinates displaced from a strict reference by x^(2c+1) * z.

    The result is again strict and agrees with the reference through x^(2c).
    The z components may be arbitrary series, units included.
    """
    if not reference.strict:
        raise NotStrictError("the reference lift is not strict")
    z = _series_vector(model, z, model.param_count, "offset components", "offset")
    shift = model.ring.monomial(model.problem.window)
    r = model.r
    t_free = tuple(t + shift * s for t, s in zip(reference.t[r:], z))
    out = _lift(model, t_free, target, seed=reference.t[:r])
    if not out.strict:
        raise IdentityFailedError("offset lift lost strictness")
    if _window_miss(model, [y - ref for y, ref in zip(out.y2, reference.y2)]) is not None:
        raise IdentityFailedError(
            "offset lift drifted from the reference inside the congruence window"
        )
    return out


def extract_t(model: SmoothModel, arc) -> tuple:
    """Recover the T coordinates of a strict arc.

    Inverts y'' = y' + d*G(y')*t using H(y')*G(y') = d * Id: t is H's r
    stored rows times eps = (y'' - y') / d^2, then eps[r:] for H's rows
    (0 | Id).  Raises NotStrictError when the arc deviates from the jet
    inside the congruence window, and IdentityFailedError when the arc is
    strict but does not solve the system, so cannot lie in the family.
    """
    arc = _series_vector(model, arc, model.n, "components", "arc")
    diffs = [s - j for s, j in zip(arc, model.jet)]
    _require_window(model, diffs, "arc component", "extraction needs agreement decided through",
                    "deviates from the jet", NotStrictError)
    eps = [diffs[model.perm[j]].div_exact(model.d2) for j in range(model.n)]
    t = linalg.mat_vec(model.hy, eps) + eps[model.r:]
    tpoint = dict(zip(model.tspace.names, t))
    for i, gi in enumerate(model.g, start=1):
        val = gi.eval(tpoint)
        if not val.is_zero():
            raise IdentityFailedError(
                f"the arc does not solve the system: equation {i} evaluates "
                f"to order {val.order()} at the extracted coordinates"
            )
    for i, (y, a) in enumerate(zip(_images_at(model, tpoint), arc), start=1):
        if y != a:
            raise IdentityFailedError(f"re-substitution does not reproduce arc component {i}")
    return tuple(t)


def extract_params(model: SmoothModel, arc, reference: LiftResult) -> tuple:
    """Recover the offsets z with arc = offset_lift(reference, z), up to precision.

    The free coordinates of the arc must agree with the reference through
    x^(2c); a visible earlier deviation means the arc, although strict, sits
    outside the x^(2c+1)-neighborhood the reference parametrizes, and raises
    OutOfFamilyError.  The recovered z is verified by relifting.
    """
    if not reference.strict:
        raise NotStrictError("the reference lift is not strict")
    t = extract_t(model, arc)
    diffs = [a - b for a, b in zip(t[model.r:], reference.t[model.r:])]
    _require_window(model, diffs, "free coordinate", "offset extraction needs",
                    "differs from the reference", OutOfFamilyError)
    shift = model.ring.monomial(model.problem.window)
    z = tuple(diff.div_exact(shift) for diff in diffs)
    relift = offset_lift(model, reference, z)
    eff = min(s.prec for s in arc)
    floor = max(1, eff - (4 * model.c + 1))
    for i in range(model.n):
        got = (arc[i] - relift.y2[i]).order_floor()
        if got < floor:
            raise IdentityFailedError(
                f"relift from the recovered offsets matches component {i + 1} only "
                f"through x^{got - 1}, short of the guaranteed x^{floor - 1}"
            )
    return z


def _violation(model: SmoothModel, lift: LiftResult) -> tuple:
    """The arc's coefficients off the jet inside the congruence window, and
    the lowest order among the nonzero ones (None when all are zero)."""
    need = model.problem.window
    zero = model.ring.field.zero
    diffs = [y - j for y, j in zip(lift.y2, model.jet)]
    vec = [diff.coefficient(k) for diff in diffs for k in range(need)]
    return vec, min((idx % need for idx, v in enumerate(vec) if v != zero), default=None)


# layers tried by find_strict_reference unless its caller says otherwise
SEARCH_DEPTH = 8


def find_strict_reference(
    model: SmoothModel, search_depth: int = SEARCH_DEPTH
) -> LiftResult | None:
    """Search for a strict lift: zero free coordinates first, then greedy repair.

    Layer by layer (x^1 up to x^min(search_depth, c)) the search probes each
    free direction with a finite difference, solves the resulting affine
    system for the violation inside the congruence window, and keeps the
    solution only when the lowest violated order strictly improves.  Returns
    None when the budget runs out, which is a best-effort answer, not a
    proof that no strict lift exists.

    Layers above c cannot help, so the search stops at c whatever the
    depth.  The bound block solves g(T_bound, T_free) = 0 with an
    invertible Jacobian, so by the implicit function theorem T_bound is a
    power series in T_free over k[[x]], and moving T_free by x^layer * v
    moves T_bound, hence all of T, only from x^layer on.  The arc is
    y'' = y' + d*G(y')*T with ord d = c, so it moves only from x^(layer+c)
    on, which lies beyond the window x^(2c+1) once layer > c.  A probe
    there leaves the violation unchanged, its column is zero, and the layer
    would be skipped after a full lift per free coordinate.
    """
    ring = model.ring
    nfree = model.param_count
    zeros = tuple(ring.zero(ring.n_work) for _ in range(nfree))
    base = make_lift(model, zeros)
    if base.strict:
        return base
    if nfree == 0:
        return None
    field = ring.field
    t_free = list(zeros)
    vbase, lowest = _violation(model, base)
    for layer in range(1, min(search_depth, model.c) + 1):
        cols = []
        for u in range(nfree):
            probe = list(t_free)
            probe[u] = probe[u] + ring.monomial(layer)
            v_u, _ = _violation(model, make_lift(model, tuple(probe)))
            cols.append([a - b for a, b in zip(v_u, vbase)])
        rows = [[cols[u][row] for u in range(nfree)] for row in range(len(vbase))]
        rhs = [-v for v in vbase]
        sol = linalg.solve_linear(field, rows, rhs)
        if sol is None or all(a == field.zero for a in sol[0]):
            continue
        alpha = sol[0]
        cand_free = list(t_free)
        for u in range(nfree):
            if alpha[u] != field.zero:
                cand_free[u] = cand_free[u] + ring.monomial(layer, alpha[u])
        cand = make_lift(model, tuple(cand_free))
        if cand.strict:
            return cand
        v_new, new_lowest = _violation(model, cand)
        if new_lowest is not None and new_lowest > lowest:
            t_free = cand_free
            vbase = v_new
            lowest = new_lowest
    return None
