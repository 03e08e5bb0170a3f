"""Shared problem builders for the test suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arclift import (
    Poly,
    PolyMatrix,
    QQ,
    SeriesRing,
    VarSpace,
    build_model,
    identity_certificate,
    make_problem,
    parse_poly,
)
from arclift.cli import main, parse_problem

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"


def python(*argv, max_memory=None, stdout=subprocess.PIPE):
    """Run a fresh interpreter with this checkout's package first on the path.

    max_memory, when given, caps the child's address space in bytes, so a
    run that tries to allocate without bound fails with MemoryError.  stdout,
    when given, is where the child writes instead of a captured pipe.
    """
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))

    return subprocess.run(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        preexec_fn=cap if max_memory else None,
    )


def run(capsys, *argv):
    """cli.main on the arguments, each passed through str(); returns (code, stdout, stderr)."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def shipped_problems():
    """Every problems/*.json, sorted; fails when fewer than the eight shipped files are found."""
    paths = sorted(PROBLEMS.glob("*.json"))
    if len(paths) < 8:
        pytest.fail(f"found {len(paths)} problem files in {PROBLEMS}, expected at least 8")
    return paths


# tcurve's first two generators with f listing them out of order and no certificate or c
TCURVE_F_REVERSED = {
    "ideal": ["Y2^2 - Y1*Y3", "Y3^2 - Y1^2*Y2"], "f": [2, 1], "c": None, "certificate": None,
}


def problem_data(name, **changes):
    """problems/<name>.json as data with changes applied; a change of None drops its key."""
    data = dict(json.loads((PROBLEMS / f"{name}.json").read_text()), **changes)
    return {key: value for key, value in data.items() if value is not None}


def problem_file(directory, name, **changes):
    """problem_data(name, **changes) written to <directory>/<name>.json; returns the path."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(problem_data(name, **changes)))
    return str(path)


def problem(name, **changes):
    """The shipped problem <name>, built by parse_problem from its data with changes applied."""
    return parse_problem(problem_data(name, **changes))


def model(name, **changes):
    return build_model(problem(name, **changes))


def monomial_curve_problem(ring, q, p, arc):
    """Y1^q = Y2^p with the exact arc (arc^p, arc^q) as jet."""
    space = VarSpace.ys(2)
    yp = ring.one()
    for _ in range(p):
        yp = yp * arc
    yq = ring.one()
    for _ in range(q):
        yq = yq * arc
    return make_problem(
        ring,
        n=2,
        ideal_gens=[parse_poly(f"Y1^{q} - Y2^{p}", ring, space)],
        f_idx=[1],
        minor_cols=[1],
        jet=(yp, yq),
        c=p * (q - 1) + 1,
    )


def cusp_product_problem(k, untouched=0, field=QQ):
    """k cusps Y(2i-1)^2 - Y(2i)^3 with jets (x^3, x^2), plus untouched variables.

    The minor is the product of the Y(2i-1) partials, of order e = 3k at the
    jet, so c = 4k; n_work = 4c + 8 covers the window 2c+1 and leaves a lift
    the target 2c + 8.
    """
    n, c = 2 * k + untouched, 4 * k
    ring = SeriesRing(field, 4 * c + 8)
    space = VarSpace.ys(n)
    return make_problem(
        ring,
        n=n,
        ideal_gens=[
            parse_poly(f"Y{2 * i - 1}^2 - Y{2 * i}^3", ring, space) for i in range(1, k + 1)
        ],
        f_idx=range(1, k + 1),
        minor_cols=range(1, 2 * k, 2),
        jet=[ring.parse(s) for s in ("x^3", "x^2") * k] + [ring.parse("x")] * untouched,
        certificate=identity_certificate(ring, space, k),
        c=c,
    )


def coupled_cusp_problem(k, links, field=QQ):
    """cusp_product_problem(k) after the change of variables Y(a) -> Y(a) + Y(b), (a, b) in links.

    Each a is a free (even) variable and each b a minor (odd) column, so the
    change is unimodular: the jet solved back through it stays exact, the
    identity certificate still serves and the minor keeps its order 3k at the
    jet.  A link (2i, b) makes generator i depend on minor column b besides
    2i-1, so the minor block and t_jac are no longer diagonal.
    """
    base = cusp_product_problem(k, field=field)
    ring, space = base.ring, base.space
    images = {nm: Poly.variable(ring, space, nm) for nm in space.names}
    jet = list(base.jet)
    for a, b in links:
        images[f"Y{a}"] = images[f"Y{a}"] + images[f"Y{b}"]
        jet[a - 1] = jet[a - 1] - jet[b - 1]
    return make_problem(
        ring,
        n=base.n,
        ideal_gens=[g.subst(images, space) for g in base.ideal_gens],
        f_idx=base.f_idx,
        minor_cols=base.minor_cols,
        jet=jet,
        certificate=base.certificate,
        c=base.c,
    )


def bordered(model):
    """The n x n H = [[A, B], [0, Id]] and G = [[L, R], [0, P * Id]] from the model's r top rows."""
    ident = PolyMatrix.identity(model.ring, model.problem.space, model.n)
    lower_g = ident.scale(model.p_poly).rows[model.r:]
    return PolyMatrix(model.h_mat.rows + ident.rows[model.r:]), PolyMatrix(model.g_mat.rows + lower_g)
