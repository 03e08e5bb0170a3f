"""A record of every admission and verification check: name, ok and detail.

Each case runs `validate_problem` on a problem or `verify_model` on a model
and keeps the rows it returns, failing details included (`arclift
validate` prints them).  The cases cover every shipped problem, both ways,
and a set of tampered problems and models that makes each check fail at
least once; each case names the checks it must fail, in report order.

Record it again (only for a change meant to alter a check's verdict or
wording) with

    PYTHONPATH=src python tests/check_corpus.py
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "check_golden.json"


def _cases():
    """(label, check, failing): check() returns a ValidationReport, failing its failed checks."""
    sys.path.insert(0, str(REPO / "tests"))
    import helpers
    from arclift import Certificate, Poly, PolyMatrix, build_model, parse_poly
    from arclift import validate_problem, verify_model
    from arclift.cli import load_problem

    cases = []
    for path in helpers.shipped_problems():
        problem = load_problem(str(path))
        cases.append((f"validate {path.name}", lambda p=problem: validate_problem(p), ()))
        cases.append((f"verify {path.name}", lambda p=problem: verify_model(build_model(p)), ()))

    def validate(label, failing, problem):
        cases.append((f"validate {label}", lambda: validate_problem(problem), failing))

    validate("cusp jet off the variety", ("jet-kills-ideal",),
             helpers.problem("cusp", jet=["x^3", "x^2 + x^4"]))
    validate("cusp deep perturbation", (), helpers.problem("cusp", jet=["x^3", "x^2 + x^6"]))
    validate("cusp degenerate jet", ("minor-order",), helpers.problem("cusp", jet=["0", "0"]))
    validate("cusp c = 3", ("minor-order",), helpers.problem("cusp", c=3))
    tcurve = helpers.problem("tcurve")
    rows = [list(row) for row in tcurve.certificate.cofactors]
    rows[2][1] = parse_poly("Y2", tcurve.ring, tcurve.space)
    validate(
        "tcurve wrong cofactor", ("certificate-cofactors",),
        tcurve.replace(certificate=Certificate(tcurve.certificate.n_poly, rows)),
    )
    reversed_f = helpers.problem("tcurve", **helpers.TCURVE_F_REVERSED)
    validate("tcurve f out of order", (), reversed_f)

    model = helpers.model("cusp")
    ring, tspace = model.ring, model.tspace

    def verify(label, failing, **fields):
        tampered = model.replace(**fields)
        cases.append((f"verify cusp {label}", lambda: verify_model(tampered), failing))

    def bump(text):
        return parse_poly(text, ring, tspace)

    q0, g0 = model.q[0], model.g[0]
    verify("remainder", ("taylor-identity", "localization-units"),
           q=(q0 + bump("x^20*T1^2"),), g=(g0 + bump("x^20*T1^2"),))
    verify("linear term in q", ("taylor-identity", "q-degree"),
           q=(q0 + bump("x^20*T2"),), g=(g0 + bump("x^20*T2"),))
    verify("swapped dgy", ("evaluation-consistency",), dgy=(tuple(reversed(model.dgy[0])),))
    moved = model.images["Y1"] + Poly.constant(ring, tspace, ring.parse("x^12"))
    verify("images", ("evaluation-consistency",), images={**model.images, "Y1": moved})
    verify("t_jac", ("localization-units",),
           t_jac=PolyMatrix([[model.t_jac.rows[0][0] + bump("x^20*T1")]]))
    verify("loc_s", ("localization-units",), loc_s=model.loc_s + bump("x^20*T2"))
    verify("x*T1^2 in q", ("taylor-identity",), q=(q0 + bump("x*T1^2"),))
    verify("n_norm", ("certificate-normalized",), n_norm=model.n_norm.scale(ring.x()))
    verify("cofactors", ("certificate-normalized",),
           cofactors=((model.cofactors[0][0].scale(ring.parse("2")),),))
    h_rows = [list(row) for row in model.h_mat.rows]
    h_rows[0][0] = h_rows[0][0] + parse_poly("x^5", ring, model.problem.space)
    verify("h_mat", ("matrix-identity", "border-determinant", "evaluation-consistency"),
           h_mat=PolyMatrix(h_rows))
    verify("d", ("d-order", "evaluation-consistency", "taylor-identity"), d=model.d * ring.x())
    verify("a", ("taylor-identity", "a-order"), a=(model.a[0] + ring.one(),))
    verify("g alone", ("taylor-identity",), g=(g0 + bump("x^20*T2^2"),))
    verify("loc_s_prime", ("localization-units",), loc_s_prime=model.loc_s_prime + bump("1"))

    cases.append(("verify tcurve f out of order", lambda: verify_model(build_model(reversed_f)), ()))
    tmodel = build_model(tcurve)
    extra = parse_poly("x^40*T3", tmodel.ring, tmodel.tspace)
    tampered = tmodel.replace(
        q=(tmodel.q[0], tmodel.q[1] + extra), g=(tmodel.g[0], tmodel.g[1] + extra)
    )
    cases.append(("verify tcurve linear term in q_2", lambda: verify_model(tampered),
                  ("taylor-identity", "q-degree")))
    return cases


def case(label):
    """The (check, failing) pair of the case with this label."""
    return next((check, failing) for name, check, failing in _cases() if name == label)


def rows(report) -> dict:
    return {"checks": [[ch.name, ch.ok, ch.detail] for ch in report.checks], "e": report.e}


def current() -> dict:
    """label -> rows, for every case, from the code as it stands."""
    return {label: rows(check()) for label, check, _ in _cases()}


def record() -> None:
    doc = current()
    lines = ",\n".join(f"{json.dumps(label)}: {json.dumps(doc[label])}" for label in doc)
    GOLDEN.write_text(f"{{\n{lines}\n}}\n", encoding="utf-8")
    print(f"recorded {len(doc)} reports in {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    record()
