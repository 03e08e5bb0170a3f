"""Count jet-space solutions over F_p window by window and compare with lifts.

The cusp is read from problems/cusp.json over F_p at working precision 40.
For each truncation window x^m the oracle enumerates every coefficient
vector that extends the jet of the cusp and kills the ideal, then checks
that randomly lifted arcs land inside the enumerated set.  Beyond the
congruence threshold 2c + 1 the counts first grow by p^n per unit of
window, while the ideal does not yet see the newest coefficients, and then
by p^(n-r), the dimension of the smooth family: over F5 the census prints
1, 25, 625, 15625, 78125 at x^9..x^13, so x25 and then x5.

    python3 scripts/jet_census.py
    python3 scripts/jet_census.py --p 7 --windows 9 10 11 --samples 25
"""

import argparse
import json
import sys
import time
from pathlib import Path

from arclift import ArcliftError, SplitMix64, build_model, draw_series, make_lift, oracle_enumerate
from arclift.cli import parse_problem

CUSP = Path(__file__).resolve().parent.parent / "problems" / "cusp.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=5, help="field characteristic")
    ap.add_argument(
        "--windows", type=int, nargs="+", default=[9, 10, 11, 12, 13],
        help="truncation windows x^m to census",
    )
    ap.add_argument("--samples", type=int, default=10, help="random lifts per window")
    ap.add_argument("--seed", type=int, default=0, help="seed for the sampled lifts")
    args = ap.parse_args()
    try:
        census(args)
    except ArcliftError as exc:
        print(f"{ap.prog}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)


def census(args):
    problem = parse_problem(dict(json.loads(CUSP.read_text()), field=f"F{args.p}", n_work=40))
    model = build_model(problem)
    ring = problem.ring
    rng = SplitMix64(args.seed)
    print(f"cusp over F{args.p}, jet (x^3, x^2), c = {problem.c}")
    print(f"{'window':>8} {'count':>10} {'growth':>8} {'sampled':>8} {'secs':>7}")

    prev = None
    for m in args.windows:
        start = time.perf_counter()
        jets = oracle_enumerate(problem, m)
        inside = 0
        for _ in range(args.samples):
            tf = (draw_series(rng, ring, 1, 6),)
            lift = make_lift(model, tf)
            if lift.strict and jets.contains(lift.y2):
                inside += 1
        secs = time.perf_counter() - start
        growth = "-" if prev is None else f"x{jets.count // prev}" if prev else "-"
        print(
            f"{f'x^{m}':>8} {jets.count:>10} {growth:>8}"
            f" {inside}/{args.samples:<6} {secs:>7.2f}"
        )
        prev = jets.count


if __name__ == "__main__":
    main()
