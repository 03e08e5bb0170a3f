"""Validation of a certified jet problem and construction of its smooth model.

The input is a polynomial system over the local ring k[x]_(x): generators of
an ideal in the Y variables, a selected subsystem f of r of them, r columns
of the Jacobian whose minor M is to witness generic smoothness, a multiplier
certificate (a polynomial N with cofactors expressing N times each generator
inside (f)), a congruence level c, and a jet y' solving the system modulo
x^(2c+1).

From validated input the construction produces a system g = a + T + Q in new
variables T1..Tn that is smooth by design: the bound block T1..Tr has unit
Jacobian at the origin, the free block T(r+1)..Tn parametrizes solutions.
Arcs through y' correspond to series solutions of g; that correspondence is
the business of the arcs module.  The pieces are:

    e        visible order of (N*M)(y'); must satisfy e < c
    N_norm   x^(c-e) * N, so that d below has order exactly c
    P        N_norm * M
    d        P(y'), the localizing denominator
    H        [[A, B], [0, Id]], [A | B] the Jacobian of f with the minor
             columns first and A its r x r block, so det(H) = M
    G        N_norm * adjugate(H) = [[L, R], [0, P * Id]], L = N_norm * adj(A)
             and R = -L * B, so GH = HG = P * Id; only the r top rows of H
             and G are kept, the rows below being fixed: nothing is n x n
    a        f(y') / d^2, componentwise, each of positive order
    Q        the quadratic-and-higher remainder of f(y' + d*G(y')*T) / d^2
    loc_s    det(dg/dT_bound) = det(Id_r + dQ/dT_bound), constant term 1
    loc_s'   P(y' + d*G(y')*T) / d, constant term 1

Everything is exact; effective precision flows through the series layer, so
every certified statement about the model carries the precision at which it
was actually checked.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .errors import (
    IdentityFailedError,
    OrderTooHighError,
    OrderViolationError,
    StructureError,
    ValidationError,
)
from .polyring import Poly, PolyMatrix, VarSpace, jacobian, shared_powers
from .prng import SplitMix64, draw_series
from .record import Record
from .ring import Series, SeriesRing


class Certificate(Record):
    """Multiplier N and cofactors with N * gen_j = sum_k cofactors[j][k] * f_k."""

    n_poly: Poly
    cofactors: tuple

    def __post_init__(self):
        object.__setattr__(self, "cofactors", tuple(tuple(row) for row in self.cofactors))

    def scale(self, s: Series) -> Certificate:
        return Certificate(
            self.n_poly.scale(s),
            tuple(tuple(p.scale(s) for p in row) for row in self.cofactors),
        )


def identity_certificate(ring: SeriesRing, space: VarSpace, count: int) -> Certificate:
    """N = 1, identity cofactors: gen_j = f_j, right only when f lists 1..count in order."""
    rows = PolyMatrix.identity(ring, space, count).rows if count else ()
    return Certificate(Poly.constant(ring, space, 1), rows)


class CheckResult(Record):
    name: str
    ok: bool
    detail: str


class ValidationReport(Record):
    checks: tuple
    e: int | None

    @property
    def ok(self) -> bool:
        return all(ch.ok for ch in self.checks)

    def failures(self):
        return tuple(ch for ch in self.checks if not ch.ok)


class Problem(Record):
    """A complete, structurally checked input; mathematical checks live in validate_problem.

    Every shape and type is checked before anything is built from them.  With
    no certificate it then takes N = 1 with cofactors that follow f (gen_j is
    the f_k with f_idx[k] = j), which needs f to cover every generator; with
    no c it takes the least c, ord((N*M)(y')) + 1.  The jet's
    precision is checked last, once, against the final c.
    """

    ring: SeriesRing
    n: int
    ideal_gens: tuple
    f_idx: tuple
    minor_cols: tuple
    jet: tuple
    certificate: Certificate | None = None
    c: int | None = None
    mode: str = "dvr"

    def __post_init__(self):
        for name in ("ideal_gens", "f_idx", "minor_cols", "jet"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not isinstance(self.ring, SeriesRing):
            raise StructureError("problem needs a SeriesRing")
        if not isinstance(self.n, int) or self.n < 1:
            raise StructureError(f"variable count must be a positive integer, got {self.n!r}")
        space = self.space

        def foreign(p):
            return not isinstance(p, Poly) or p.ring != self.ring or p.space != space

        if not self.ideal_gens:
            raise StructureError("no ideal generators")
        for j, g in enumerate(self.ideal_gens, start=1):
            if foreign(g):
                raise StructureError(f"generator {j} is not a polynomial over this problem's ring")
        m = len(self.ideal_gens)
        r = len(self.f_idx)
        if r < 1 or r > self.n:
            raise StructureError(f"subsystem size must be between 1 and n={self.n}, got {r}")
        if len(set(self.f_idx)) != r or any(not (1 <= i <= m) for i in self.f_idx):
            raise StructureError(f"f indices must be distinct members of 1..{m}")
        if len(self.minor_cols) != r:
            raise StructureError(f"need exactly {r} minor columns, got {len(self.minor_cols)}")
        if len(set(self.minor_cols)) != r or any(not (1 <= j <= self.n) for j in self.minor_cols):
            raise StructureError(f"minor columns must be distinct members of 1..{self.n}")
        if self.c is not None and (not isinstance(self.c, int) or self.c < 1):
            raise StructureError(f"congruence level c must be a positive integer, got {self.c!r}")
        if len(self.jet) != self.n:
            raise StructureError(f"jet must have {self.n} components, got {len(self.jet)}")
        for i, y in enumerate(self.jet, start=1):
            if not isinstance(y, Series) or y.ring != self.ring:
                raise StructureError(f"jet component {i} is not a series of this ring")
        if self.mode not in ("dvr", "variety"):
            raise StructureError(f"mode must be 'dvr' or 'variety', got {self.mode!r}")
        if self.mode == "variety":
            for j, g in enumerate(self.ideal_gens, start=1):
                for coeff in g.terms.values():
                    if len(coeff) > 1:
                        raise StructureError(
                            f"variety mode forbids x in the system: generator {j} "
                            "has an x-dependent coefficient"
                        )
        if self.certificate is None:
            if sorted(self.f_idx) != list(range(1, m + 1)):
                raise StructureError(
                    "a certificate is required when the subsystem f does not cover "
                    "every ideal generator"
                )
            ident = identity_certificate(self.ring, space, m)
            rows = [[row[i - 1] for i in self.f_idx] for row in ident.cofactors]
            object.__setattr__(self, "certificate", Certificate(ident.n_poly, rows))
        cert = self.certificate
        if foreign(cert.n_poly):
            raise StructureError("certificate multiplier is not a polynomial over this ring")
        if len(cert.cofactors) != m or any(len(row) != r for row in cert.cofactors):
            raise StructureError(f"cofactor matrix must be {m}x{r}")
        if any(foreign(p) for row in cert.cofactors for p in row):
            raise StructureError("cofactor entries must be polynomials over this ring")
        if self.c is None:
            v = (cert.n_poly * self.minor).eval(self.jet_point())
            e = v.order()
            if e is None:
                raise StructureError(
                    "cannot infer c: multiplier times minor vanishes at the jet "
                    f"to the checked precision x^{v.prec}"
                )
            object.__setattr__(self, "c", e + 1)
        need = self.window
        for i, y in enumerate(self.jet, start=1):
            if y.prec < need:
                raise StructureError(
                    f"jet component {i} has precision {y.prec}, need at least 2c+1 = {need}"
                )

    @cached_property
    def space(self) -> VarSpace:
        """Y1..Yn, built and validated once per problem."""
        return VarSpace.ys(self.n)

    @property
    def r(self) -> int:
        return len(self.f_idx)

    @property
    def f_polys(self) -> tuple:
        return tuple(self.ideal_gens[i - 1] for i in self.f_idx)

    @property
    def window(self) -> int:
        """The congruence window 2c+1: the jet solves the system mod x^window."""
        return 2 * self.c + 1

    def jet_point(self) -> dict:
        return {nm: y for nm, y in zip(self.space.names, self.jet)}

    @cached_property
    def border(self) -> tuple:
        """H's top rows [A | B], the one Jacobian of f, minor columns first, and perm; kept."""
        lead = tuple(j - 1 for j in self.minor_cols)
        perm = lead + tuple(j for j in range(self.n) if j not in lead)
        return jacobian(self.f_polys, tuple(self.space.names[j] for j in perm)), perm

    @cached_property
    def minor(self) -> Poly:
        """Determinant of the selected r x r Jacobian block, columns in the listed order.

        det(A), read off the border and kept; every stage that needs M reads it here.
        """
        return PolyMatrix([row[:self.r] for row in self.border[0].rows]).det()


# the public name of the one constructor: make_problem(..., c=None) checks its input once
make_problem = Problem


def _cofactor_miss(problem: Problem, n_poly: Poly, cofactors) -> int | None:
    """The first j with n_poly * gen_j != sum_k cofactors[j][k] * f_k (1-based), or None."""
    for j, gen in enumerate(problem.ideal_gens, start=1):
        rhs = Poly.zero(problem.ring, problem.space)
        for cof, f in zip(cofactors[j - 1], problem.f_polys):
            rhs = rhs + cof * f
        if n_poly * gen != rhs:
            return j
    return None


def _check(name: str, failure: str | None, passed: str) -> CheckResult:
    """Passed with detail passed when failure is None, else failed with detail failure."""
    return CheckResult(name, failure is None, passed if failure is None else failure)


def validate_problem(problem: Problem) -> ValidationReport:
    """Run the three mathematical admission checks; failures are reported, not raised."""
    cert, c = problem.certificate, problem.c
    j = _cofactor_miss(problem, cert.n_poly, cert.cofactors)
    checks = [_check(
        "certificate-cofactors", j and f"N * generator {j} does not match its cofactor combination",
        "multiplier identity holds for every generator",
    )]

    need = problem.window
    point = problem.jet_point()
    orders = enumerate((gen.eval(point).order_floor() for gen in problem.ideal_gens), start=1)
    low = next(((j, o) for j, o in orders if o < need), None)
    checks.append(_check(
        "jet-kills-ideal",
        low and f"generator {low[0]} has order {low[1]} at the jet, below 2c+1 = {need}",
        f"every generator vanishes at the jet through x^{need - 1}",
    ))

    p_val = (cert.n_poly * problem.minor).eval(point)
    window = p_val.truncate(min(need, p_val.prec))
    e = window.order()
    if e is None:
        failure = ("multiplier times minor vanishes at the jet through "
                   f"x^{window.prec - 1}; the construction needs a visible order below c = {c}")
    else:
        failure = f"e = {e} is not below c = {c}" if e >= c else None
    checks.append(_check("minor-order", failure, f"e = {e} < c = {c}"))
    return ValidationReport(tuple(checks), e)


class NormalizedCertificate(Record):
    n_norm: Poly
    p_poly: Poly
    d: Series
    cofactors: tuple


def normalize_certificate(problem: Problem, e: int | None) -> NormalizedCertificate:
    """Rescale the multiplier by x^(c-e) so the denominator d gets order exactly c."""
    if e is None or e >= problem.c:
        raise OrderTooHighError(
            f"normalization needs e < c, got e = {e}, c = {problem.c}"
        )
    shift = problem.ring.monomial(problem.c - e)
    scaled = problem.certificate.scale(shift)
    n_norm = scaled.n_poly
    p_poly = n_norm * problem.minor
    d = p_poly.eval(problem.jet_point())
    if d.order() != problem.c:
        raise IdentityFailedError(
            f"normalized denominator has order {d.order()}, expected c = {problem.c}"
        )
    return NormalizedCertificate(n_norm, p_poly, d, scaled.cofactors)


def build_border(problem: Problem) -> tuple:
    """H's top rows [A | B] and perm, as the problem keeps them; M is det(A) by construction."""
    return problem.border


def _border_is_minor(h_mat: PolyMatrix, r: int, minor: Poly) -> bool:
    """det(H) = M, read off H = [[A, B], [0, Id]]: r stored rows [A | B] with det(A) = M."""
    rows = h_mat.rows
    return len(rows) == r <= len(rows[0]) and PolyMatrix([row[:r] for row in rows]).det() == minor


def compute_g(h_mat: PolyMatrix, n_norm: Poly, p_poly: Poly) -> PolyMatrix:
    """G's top rows, L = N_norm * adj(A) and R = -L * B for H's [A | B]; checks GH = HG = P * Id."""
    r = h_mat.shape[0]
    one = Poly.constant(h_mat.ring, h_mat.space, 1)
    lead = PolyMatrix(linalg.adjugate([row[:r] for row in h_mat.rows], one)).scale(n_norm)
    right = linalg.mat_mul(lead.rows, [row[r:] for row in h_mat.rows])
    g_mat = PolyMatrix([a + [-p for p in b] for a, b in zip(lead.rows, right)])
    if not _inverts_up_to_p(g_mat, h_mat, p_poly, h_mat.shape):
        raise IdentityFailedError("GH = HG = P * Id failed")
    return g_mat


def _inverts_up_to_p(g_mat: PolyMatrix, h_mat: PolyMatrix, p_poly: Poly, shape: tuple) -> bool:
    """GH = HG = P * Id on top rows of shape (r, n): L[A | B] + [0 | R] and A[L | R] + [0 | B*P],
    the n x n products' sums for those rows in their order; the rows below are (0 | P * Id)."""
    if g_mat.shape != shape or h_mat.shape != shape:
        return False
    r, n = shape
    zero = Poly.zero(p_poly.ring, p_poly.space)
    gh = linalg.mat_mul([row[:r] for row in g_mat.rows], h_mat.rows)
    hg = linalg.mat_mul([row[:r] for row in h_mat.rows], g_mat.rows)
    for i in range(r):
        for j in range(r, n):
            gh[i][j] = gh[i][j] + g_mat.rows[i][j]
            hg[i][j] = hg[i][j] + h_mat.rows[i][j] * p_poly
    p_id = [[p_poly if i == j else zero for j in range(n)] for i in range(r)]
    return gh == p_id and hg == p_id


def _jet_evaluations(problem: Problem, h_mat: PolyMatrix, g_mat: PolyMatrix, d: Series) -> tuple:
    """H(y'), G(y') and d*G(y') on the top rows, each a tuple of rows."""
    point = problem.jet_point()
    hy, gy = (tuple(tuple(row) for row in mat.eval(point)) for mat in (h_mat, g_mat))
    return hy, gy, tuple(tuple(d * entry for entry in row) for row in gy)


def substitution_images(problem: Problem, dgy: tuple, d2: Series, perm: tuple, tspace: VarSpace) -> dict:
    """Y_perm[j] -> y'_perm[j] + (d*G(y')*T)_j, that is dgy[j] * T for j < r and d^2 * T_j below."""
    width = tspace.dim
    names = problem.space.names
    top = dgy[:problem.r]
    images = {}
    for j in range(problem.n):
        terms = {(0,) * width: problem.jet[perm[j]]}
        row = enumerate(top[j][:width]) if j < len(top) else [(j, d2)]
        for k, coeff in row:
            terms[(0,) * k + (1,) + (0,) * (width - k - 1)] = coeff
        images[names[perm[j]]] = Poly._make(problem.ring, tspace, terms)
    return images


def _low_degree(q: Poly) -> int | None:
    """The T-degree of the first visible term of q of T-degree below 2, or None."""
    for exps, coeff in q.terms.items():
        if sum(exps) < 2 and not coeff.is_zero():
            return sum(exps)
    return None


def _divided(poly: Poly, s: Series) -> Poly:
    """poly with each coefficient divided exactly by s."""
    return Poly._make(poly.ring, poly.space, {e: c.div_exact(s) for e, c in poly.terms.items()})


def _g_component(ring: SeriesRing, tspace: VarSpace, i: int, ai: Series, qi: Poly) -> Poly:
    """g_(i+1) = a_(i+1) + T_(i+1) + Q_(i+1)."""
    return Poly.constant(ring, tspace, ai) + Poly.variable(ring, tspace, tspace.names[i]) + qi


def taylor_decompose(problem: Problem, d2: Series, dgy: tuple, perm: tuple, tspace: VarSpace):
    """Split f(y' + d*G(y')*T) = d^2 * (a + T + Q) = f(y') + d^2 * (T + Q), Q of T-degree >= 2."""
    ring = problem.ring
    images = substitution_images(problem, dgy, d2, perm, tspace)
    a = []
    q = []
    for i, f in enumerate(problem.f_polys, start=1):
        full = f.subst(images, tspace)
        fy = full.constant_term()  # f(y'), since the images' constant terms are the jet
        ai = fy.div_exact(d2)
        if ai.order() == 0:
            raise OrderViolationError(
                f"f component {i} gives a unit after division by d^2; "
                "the jet does not solve the system deeply enough"
            )
        num = full - Poly.constant(ring, tspace, fy)
        reduced = _divided(num, d2)
        ti = Poly.variable(ring, tspace, tspace.names[i - 1])
        qi = reduced - ti
        deg = _low_degree(qi)
        if deg is not None:
            raise IdentityFailedError(
                f"Taylor remainder of f component {i} has a visible term of T-degree {deg}"
            )
        a.append(ai)
        q.append(qi)
    return tuple(a), tuple(q), images


class SmoothModel(Record, eq=False):
    """Everything the construction produces, immutable and safe to share.

    h_mat and g_mat are the r top rows [A | B] and [L | R] of H and G, columns
    in perm order; hy, gy and dgy are those rows at the jet, and d times gy.
    """

    problem: Problem
    e: int
    perm: tuple
    n_norm: Poly
    p_poly: Poly
    cofactors: tuple
    d: Series
    d2: Series
    h_mat: PolyMatrix
    g_mat: PolyMatrix
    hy: tuple
    gy: tuple
    dgy: tuple
    images: dict
    a: tuple
    q: tuple
    g: tuple
    loc_s: Poly
    loc_s_prime: Poly
    tspace: VarSpace
    t_jac: PolyMatrix

    @property
    def ring(self) -> SeriesRing:
        return self.problem.ring

    @property
    def jet(self) -> tuple:
        return self.problem.jet

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def r(self) -> int:
        return self.problem.r

    @property
    def c(self) -> int:
        return self.problem.c

    @property
    def param_count(self) -> int:
        return self.n - self.r

    @property
    def free_idx(self) -> tuple:
        """1-based indices of the free T coordinates."""
        return tuple(range(self.r + 1, self.n + 1))

    @cached_property
    def newton_tail(self) -> tuple:
        """Per bound equation, the part of Q_i(T + D) of degree >= 2 in D.

        The polynomials live in T1..Tn, D1..Dr, with D the displacement of
        the bound block, so g(u + D) = g(u) + J(u)*D + tail(u, D) for the
        bound Jacobian J.  Built on first use, outside build_model.
        """
        ring, r, names = self.ring, self.r, self.tspace.names
        space = VarSpace(names + tuple(f"D{i + 1}" for i in range(r)))
        images = {nm: Poly.variable(ring, space, nm) for nm in names}
        for i in range(r):
            images[names[i]] = images[names[i]] + Poly.variable(ring, space, f"D{i + 1}")
        tails = []
        for qi in self.q:
            shifted = qi.subst(images, space)
            tails.append(Poly._make(
                ring, space, {e: c for e, c in shifted.terms.items() if sum(e[self.n:]) >= 2}
            ))
        return tuple(tails)


def _unit_constant(poly: Poly) -> bool:
    const = poly.constant_term()
    return const.order() == 0 and const.coeff_at(0) == poly.ring.field.one


def build_model(problem: Problem) -> SmoothModel:
    """Validate, then run the whole construction; raises on any failed check.

    Validation through P's substitution runs in one shared_powers block of
    its own, never an outer one: the jet's powers, walked by the admission
    checks, P(y'), H(y') and G(y'), and the substitution images', walked by
    every f_i and by P, are built once and dropped with the block, and the
    model keeps none.  f(y') is read off each f_i's substitution.
    """
    with shared_powers():
        report = validate_problem(problem)
        if not report.ok:
            names = ", ".join(ch.name for ch in report.failures())
            raise ValidationError(f"validation failed: {names}", report)
        e = report.e
        norm = normalize_certificate(problem, e)
        h_mat, perm = build_border(problem)
        g_mat = compute_g(h_mat, norm.n_norm, norm.p_poly)

        d = norm.d
        d2 = d * d
        hy, gy, dgy = _jet_evaluations(problem, h_mat, g_mat, d)

        tspace = VarSpace.ts(problem.n)
        a, q, images = taylor_decompose(problem, d2, dgy, perm, tspace)
        p_at_images = norm.p_poly.subst(images, tspace)
    g = tuple(_g_component(problem.ring, tspace, i, a[i], q[i]) for i in range(problem.r))

    t_jac = jacobian(g, tspace.names[:problem.r])
    loc_s = t_jac.det()
    if not _unit_constant(loc_s):
        raise IdentityFailedError("localization unit from the bound Jacobian lacks constant term 1")

    loc_s_prime = _divided(p_at_images, d)
    if not _unit_constant(loc_s_prime):
        raise IdentityFailedError("localization unit from P lacks constant term 1")

    return SmoothModel(
        problem=problem,
        e=e,
        perm=perm,
        n_norm=norm.n_norm,
        p_poly=norm.p_poly,
        cofactors=norm.cofactors,
        d=d,
        d2=d2,
        h_mat=h_mat,
        g_mat=g_mat,
        hy=hy,
        gy=gy,
        dgy=dgy,
        images=images,
        a=a,
        q=q,
        g=g,
        loc_s=loc_s,
        loc_s_prime=loc_s_prime,
        tspace=tspace,
        t_jac=t_jac,
    )


_VERIFY_SEED = 0x5EED0FA0


def _taylor_miss(model: SmoothModel, images: dict) -> str | None:
    """How f(y' + d*G(y')*T) = d^2 * g = f(y') + d^2 * (T + Q) first fails, as polynomials or at a point.

    The check's printed detail still reads f(y') + d^2 * g; it is hashed into recorded goldens.
    """
    problem, ring, tspace = model.problem, model.ring, model.tspace
    point = problem.jet_point()
    rng = SplitMix64(_VERIFY_SEED)
    samples = [{nm: draw_series(rng, ring, 1, 4) for nm in tspace.names} for _ in range(3)]
    for i, f in enumerate(problem.f_polys):
        gi, ai = model.g[i], model.a[i]
        if gi != _g_component(ring, tspace, i, ai, model.q[i]):
            return f"g component {i + 1} is not a_{i + 1} + T_{i + 1} + Q_{i + 1}"
        lhs = f.subst(images, tspace)
        fy = f.eval(point)
        if lhs != gi.scale(model.d2) + Poly.constant(ring, tspace, fy - ai * model.d2):
            return f"Taylor identity fails as polynomials for f component {i + 1}"
        for pt in samples:
            if lhs.eval(pt) != fy + (gi.eval(pt) - ai) * model.d2:
                return f"Taylor identity fails at a sample point for f component {i + 1}"
    return None


def verify_model(model: SmoothModel) -> ValidationReport:
    """Re-check every identity the model claims, from its inputs, two ways where possible.

    Its evaluations run in a shared_powers block of its own, never the
    build's or an outer one, so each is recomputed from the model's inputs.
    """
    problem = model.problem
    j = _cofactor_miss(problem, model.n_norm, model.cofactors)
    checks = [_check(
        "certificate-normalized", j and f"scaled identity fails for generator {j}",
        "scaled multiplier identity holds for every generator",
    )]

    ok = _inverts_up_to_p(model.g_mat, model.h_mat, model.p_poly, (problem.r, problem.n))
    checks.append(_check(
        "matrix-identity", None if ok else "GH = HG = P * Id failed", "GH = HG = P * Id"
    ))

    ok = _border_is_minor(model.h_mat, problem.r, problem.minor)
    checks.append(_check(
        "border-determinant", None if ok else "det(H) != minor", "det(H) equals the minor"
    ))

    o, c = model.d.order(), problem.c
    checks.append(_check(
        "d-order", None if o == c else f"ord(d) = {o}, expected c = {c}", f"ord(d) = {o}"
    ))

    with shared_powers():
        hy, gy, dgy = _jet_evaluations(problem, model.h_mat, model.g_mat, model.d)
        images = substitution_images(problem, dgy, model.d * model.d, model.perm, model.tspace)
        ok = hy == model.hy and gy == model.gy and dgy == model.dgy and images == model.images
        checks.append(_check(
            "evaluation-consistency",
            None if ok else "a stored evaluation or substitution image does not match recomputation",
            "H(y'), G(y'), d*G(y') match the stored evaluations",
        ))

        checks.append(_check(
            "taylor-identity", _taylor_miss(model, images),
            "f(y' + d*G(y')*T) = f(y') + d^2 * g, by polynomial identity and at random points",
        ))

    low = next(((i, deg) for i, deg in enumerate(map(_low_degree, model.q), start=1)
                if deg is not None), None)
    checks.append(_check(
        "q-degree", low and f"Q component {low[0]} has a visible term of T-degree {low[1]}",
        "every visible term of Q has T-degree >= 2",
    ))

    i = next((k for k, ai in enumerate(model.a, start=1) if ai.order_floor() < 1), None)
    checks.append(_check(
        "a-order", i and f"a component {i} has order 0", "every a component has order >= 1"
    ))

    if model.t_jac != jacobian(model.g, model.tspace.names[:problem.r]):
        failure = "t_jac is not dg/dT over the bound block"
    elif model.loc_s != model.t_jac.det():
        failure = "loc_s is not det(t_jac)"
    elif not (_unit_constant(model.loc_s) and _unit_constant(model.loc_s_prime)):
        failure = "a localizing element lacks constant term 1"
    else:
        failure = None
    checks.append(_check(
        "localization-units", failure, "both localizing elements have constant term 1"
    ))

    return ValidationReport(tuple(checks), model.e)
