"""Walk the full pipeline on the cusp Y1^2 = Y2^3, narrating each stage.

Reads problems/cusp.json at the field and working precision given, builds
the smooth model for its jet (x^3, x^2), runs the verification battery,
lifts a few arcs, inverts the parametrization, and closes with an
offset/extract roundtrip.  Everything printed is exact arithmetic.

    python3 scripts/cusp_walkthrough.py
    python3 scripts/cusp_walkthrough.py --field F5 --n-work 60
"""

import argparse
import json
import sys
from pathlib import Path

from arclift import (
    ArcliftError,
    build_model,
    extract_params,
    extract_t,
    make_lift,
    offset_lift,
    validate_problem,
    verify_model,
)
from arclift.cli import parse_problem

CUSP = Path(__file__).resolve().parent.parent / "problems" / "cusp.json"


def banner(text):
    print()
    print(f"== {text} ==")


def run(field, n_work):
    problem = parse_problem(dict(json.loads(CUSP.read_text()), field=field, n_work=n_work))
    ring = problem.ring

    banner("certificate validation")
    report = validate_problem(problem)
    for check in report.checks:
        print(f"  {check.name}: {'ok' if check.ok else 'FAIL'} - {check.detail}")
    print(f"  minor order e = {report.e}, depth c = {problem.c}")

    banner("model construction")
    model = build_model(problem)
    print(f"  d = {model.d}")
    print(f"  g_1 = {model.g[0].render()}")
    print(f"  localizer = {model.loc_s.render()}")
    for name in problem.space.names:
        print(f"  {name} image: {model.images[name].render()}")
    verdicts = verify_model(model)
    print(f"  verification: {'all ok' if verdicts.ok else verdicts.failures()}")

    banner("lifting the jet and a neighbor")
    for label, t_free in (("zero", None), ("x^9", (ring.parse("x^9"),))):
        lift = make_lift(model, t_free)
        print(f"  t_free = {label}:")
        print(f"    y''_1 = {lift.y2[0]}")
        print(f"    y''_2 = {lift.y2[1]}")
        print(
            f"    strict = {lift.strict}, newton = {lift.newton_iterations},"
            f" residuals = {lift.residual_f}/{lift.residual_i}"
        )

    banner("inverting the parametrization")
    s = ring.parse("x + x^8")
    arc = (s * s * s, s * s)
    t = extract_t(model, arc)
    print("  arc = ((x + x^8)^3, (x + x^8)^2)")
    print(f"  t_1 = {t[0]}")
    print(f"  t_2 = {t[1]}")

    banner("offset roundtrip")
    ref = make_lift(model)
    z = (ring.parse("1 + 2*x"),)
    shifted = offset_lift(model, ref, z)
    back = extract_params(model, shifted.y2, ref)
    print(f"  offset z = {z[0].render()}")
    print(f"  recovered = {back[0]}")
    print(f"  match = {back[0] == z[0]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", default="Q", help="Q or F<p> (default Q)")
    ap.add_argument("--n-work", type=int, default=40, help="working precision")
    args = ap.parse_args()
    try:
        run(args.field, args.n_work)
    except ArcliftError as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    main()
