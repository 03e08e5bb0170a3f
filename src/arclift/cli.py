"""Command line driver: validate, build, lift, extract, roundtrip, enumerate.

Problems live in JSON files:

    {
      "field": "Q",                    "Q" or "F<p>" with p prime
      "n": 2,
      "ideal": ["Y1^2 - Y2^3"],        polynomials in Y1..Yn and x
      "f": [1],                        1-based generator indices of the subsystem
      "minor_cols": [1],               1-based Y columns of the Jacobian minor
      "jet": ["x^3", "x^2"],           series in x, one per component
      "c": 4,                          optional; inferred as e + 1 when absent
      "certificate": {"N": "...", "cofactors": [["..."]]},   optional
      "mode": "dvr",                   optional; "variety" forbids x in the ideal
      "n_work": 40,                    optional working precision
      "jet_prec": 40                   optional cap on the jet's precision
    }

When "n_work" is absent the environment variable ARCLIFT_NWORK applies,
then the built-in default.  Either way the working precision must lie in
1..10000 (MAX_NWORK); a larger one is refused as unparsable input, and so
is an exponent above 10000 (MAX_EXPONENT) on a variable Yi.  Series
lists on the command line are comma separated (the series grammar itself
has no commas).

Exit codes:

    0  success
    1  structural failure: wrong shapes or fields, precision too low to
       decide, arcs outside the strict window or the parametrized family,
       Newton stall, enumeration budget
    2  mathematical validation failure
    3  no strict reference lift found within the search depth
    4  unparsable input: problem file, series text, or command usage
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain

from . import arcs
from .desing import (
    Certificate,
    Problem,
    SmoothModel,
    build_model,
    make_problem,
    validate_problem,
    verify_model,
)
from .errors import (
    ArcliftError,
    NotStrictError,
    ParseError,
    PrecisionExhaustedError,
    StructureError,
    ValidationError,
)
from .polyring import VarSpace, parse_poly
from .prng import SplitMix64, draw_series
from .ring import DEFAULT_PRECISION, PrimeField, QQ, SeriesRing

# layers tried by find_strict_reference unless --search-depth says otherwise
SEARCH_DEPTH = 8

# the largest working precision a problem file or ARCLIFT_NWORK may ask for
MAX_NWORK = 10_000

# the largest exponent of a variable Yi in a problem file's polynomials
MAX_EXPONENT = 10_000


class _Parser(argparse.ArgumentParser):
    """Routes usage errors through the parse-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def _expect(cond, message):
    if not cond:
        raise ParseError(message)


def _int_field(raw, key):
    v = raw[key]
    _expect(isinstance(v, int) and not isinstance(v, bool), f"'{key}' must be an integer")
    return v


def _opt_int(raw, key):
    return _int_field(raw, key) if key in raw else None


def _int_list(raw, key):
    v = raw[key]
    _expect(
        isinstance(v, list) and v
        and all(isinstance(k, int) and not isinstance(k, bool) for k in v),
        f"'{key}' must be a non-empty list of integers",
    )
    return v


def _str_list(raw, key):
    v = raw[key]
    _expect(
        isinstance(v, list) and v and all(isinstance(s, str) for s in v),
        f"'{key}' must be a non-empty list of strings",
    )
    return v


_TOP_KEYS = {
    "field", "n", "ideal", "f", "minor_cols", "jet",
    "c", "certificate", "mode", "n_work", "jet_prec",
}
_REQUIRED = ("field", "n", "ideal", "f", "minor_cols", "jet")


def load_problem(path: str) -> Problem:
    """Read and structurally check a problem JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read problem file: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"problem file is not valid JSON: {exc}")
    _expect(isinstance(raw, dict), "problem file must hold a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _expect(not unknown, f"unknown problem keys: {', '.join(sorted(unknown))}")
    for key in _REQUIRED:
        _expect(key in raw, f"problem file lacks required key '{key}'")

    desc = raw["field"]
    _expect(isinstance(desc, str), "'field' must be a string like 'Q' or 'F5'")
    if desc == "Q":
        field = QQ
    else:
        m = re.fullmatch(r"F(\d+)", desc)
        _expect(m is not None, f"unrecognized field '{desc}'; use 'Q' or 'F<p>'")
        try:
            field = PrimeField(int(m.group(1)))
        except StructureError as exc:
            raise ParseError(f"bad field '{desc}': {exc}")

    n = _int_field(raw, "n")
    _expect(n >= 1, "'n' must be positive")
    # checked before anything n wide is built, so a small file cannot ask for n-wide memory
    jet_text = raw["jet"]
    if isinstance(jet_text, list) and len(jet_text) != n:
        raise StructureError(f"jet must have {n} components, got {len(jet_text)}")
    n_work = _opt_int(raw, "n_work")
    if n_work is None:
        env = os.environ.get("ARCLIFT_NWORK")
        if env is not None:
            try:
                n_work = int(env)
            except ValueError:
                raise ParseError(f"ARCLIFT_NWORK must be an integer, got {env!r}")
    if n_work is None:
        n_work = DEFAULT_PRECISION
    _expect(n_work >= 1, "working precision must be positive")
    _expect(n_work <= MAX_NWORK, f"working precision {n_work} exceeds the cap {MAX_NWORK}")
    ring = SeriesRing(field, n_work)
    space = VarSpace.ys(n)

    gens = [parse_poly(s, ring, space) for s in _str_list(raw, "ideal")]
    f_idx = _int_list(raw, "f")
    minor_cols = _int_list(raw, "minor_cols")
    jet = [ring.parse(s) for s in _str_list(raw, "jet")]
    jet_prec = _opt_int(raw, "jet_prec")
    if jet_prec is not None:
        _expect(jet_prec >= 1, "'jet_prec' must be positive")
        jet = [y.truncate(jet_prec) for y in jet]

    mode = raw.get("mode", "dvr")
    _expect(isinstance(mode, str), "'mode' must be a string")

    cert = None
    if "certificate" in raw:
        cd = raw["certificate"]
        _expect(isinstance(cd, dict), "'certificate' must be an object")
        extra = set(cd) - {"N", "cofactors"}
        _expect(not extra, f"unknown certificate keys: {', '.join(sorted(extra))}")
        _expect("N" in cd and "cofactors" in cd, "'certificate' needs 'N' and 'cofactors'")
        _expect(isinstance(cd["N"], str), "certificate 'N' must be a polynomial string")
        cof = cd["cofactors"]
        _expect(
            isinstance(cof, list) and cof
            and all(isinstance(row, list) and all(isinstance(s, str) for s in row) for row in cof),
            "certificate 'cofactors' must be a list of lists of polynomial strings",
        )
        cert = Certificate(
            parse_poly(cd["N"], ring, space),
            [[parse_poly(s, ring, space) for s in row] for row in cof],
        )

    polys = gens + ([cert.n_poly, *chain(*cert.cofactors)] if cert else [])
    top = max((max(exps) for p in polys for exps in p.terms), default=0)
    _expect(top <= MAX_EXPONENT, f"variable exponent {top} exceeds the cap {MAX_EXPONENT}")
    return make_problem(
        ring,
        n=n,
        ideal_gens=gens,
        f_idx=f_idx,
        minor_cols=minor_cols,
        jet=tuple(jet),
        certificate=cert,
        c=_opt_int(raw, "c"),
        mode=mode,
    )


def _fmt_field(field) -> str:
    return "Q" if field.p is None else f"F{field.p}"


def _series_list(text: str, ring: SeriesRing, expect: int, what: str) -> tuple:
    text = text.strip()
    parts = [] if not text else [p.strip() for p in text.split(",")]
    if len(parts) != expect:
        raise StructureError(
            f"{what}: expected {expect} comma separated series, got {len(parts)}"
        )
    return tuple(ring.parse(p) for p in parts)


def _header(path: str, problem: Problem) -> list:
    return [
        f"problem: {path}",
        f"field: {_fmt_field(problem.ring.field)}",
        f"n: {problem.n}  r: {problem.r}  c: {problem.c}  mode: {problem.mode}",
    ]


def _summary(path: str, problem: Problem) -> dict:
    return {
        "path": path,
        "field": _fmt_field(problem.ring.field),
        "n": problem.n,
        "r": problem.r,
        "c": problem.c,
        "mode": problem.mode,
        "n_work": problem.ring.n_work,
    }


def _check_rows(report) -> list:
    return [{"name": ch.name, "ok": ch.ok, "detail": ch.detail} for ch in report.checks]


def _emit(args, lines, payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


# a lift's certificate fields, printed in this order after its t and y2
_LIFT_FIELDS = ("strict", "residual_f", "residual_i", "newton_iterations", "k0", "eff_prec")


def _lift_json(result: arcs.LiftResult) -> dict:
    lift = {"t": [str(s) for s in result.t], "y2": [str(s) for s in result.y2]}
    lift.update((key, getattr(result, key)) for key in _LIFT_FIELDS)
    return lift


def _lift_lines(result: arcs.LiftResult) -> list:
    lift = _lift_json(result)
    return (
        [f"t_{i} = {s}" for i, s in enumerate(lift["t"], start=1)]
        + [f"y2_{i} = {s}" for i, s in enumerate(lift["y2"], start=1)]
        + [f"{key}: {json.dumps(lift[key])}" for key in _LIFT_FIELDS]
    )


def _resolve_reference(args, model: SmoothModel):
    """Reference lift from --reference free components, or by search."""
    if args.reference is not None:
        rf = _series_list(args.reference, model.ring, model.param_count, "reference")
        ref = arcs.make_lift(model, rf)
        if not ref.strict:
            raise NotStrictError(
                "the supplied reference free components do not give a strict lift"
            )
        return ref
    return arcs.find_strict_reference(model, args.search_depth)


def _no_reference(depth: int) -> int:
    print(
        f"arclift: no strict lift found within search depth {depth}",
        file=sys.stderr,
    )
    return 3


def cmd_validate(args) -> int:
    problem = load_problem(args.problem)
    report = validate_problem(problem)
    lines = _header(args.problem, problem)
    for ch in report.checks:
        lines.append(f"check {ch.name}: {'ok' if ch.ok else 'FAIL'} - {ch.detail}")
    tail = f" (e = {report.e})" if report.e is not None else ""
    lines.append(f"valid: {'yes' if report.ok else 'no'}{tail}")
    payload = {
        "problem": _summary(args.problem, problem),
        "checks": _check_rows(report),
        "e": report.e,
        "valid": report.ok,
    }
    _emit(args, lines, payload)
    return 0 if report.ok else 2


def cmd_desingularize(args) -> int:
    problem = load_problem(args.problem)
    model = build_model(problem)
    verify = verify_model(model)
    lines = _header(args.problem, problem)
    lines.append(f"e: {model.e}")
    lines.append(f"d = {model.d}")
    lines.append(f"perm: {' '.join(str(j + 1) for j in model.perm)}")
    lines.append(f"param_count: {model.param_count}")
    free_names = model.tspace.names[model.r :]
    lines.append(f"free T: {' '.join(free_names) if free_names else '-'}")
    for i, ai in enumerate(model.a, start=1):
        lines.append(f"a_{i} = {ai}")
    for i, gi in enumerate(model.g, start=1):
        lines.append(f"g_{i} = {gi.render()}")
    lines.append(f"loc_s = {model.loc_s.render()}")
    lines.append(f"loc_s_prime = {model.loc_s_prime.render()}")
    for ch in verify.checks:
        lines.append(f"verify {ch.name}: {'ok' if ch.ok else 'FAIL'}")
    lines.append(f"verified: {'yes' if verify.ok else 'no'}")
    payload = {
        "problem": _summary(args.problem, problem),
        "e": model.e,
        "d": str(model.d),
        "n_norm": model.n_norm.render(),
        "perm": [j + 1 for j in model.perm],
        "param_count": model.param_count,
        "free_idx": list(model.free_idx),
        "a": [str(ai) for ai in model.a],
        "g": [gi.render() for gi in model.g],
        "loc_s": model.loc_s.render(),
        "loc_s_prime": model.loc_s_prime.render(),
        "verify": _check_rows(verify),
        "verified": verify.ok,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(args, lines, payload)
    return 0 if verify.ok else 2


def cmd_lift(args) -> int:
    if args.reference is not None and args.params is None:
        raise ParseError("--reference applies only with --params")
    reference_mode = args.t_free is None and args.params is None and args.random is None
    if reference_mode and args.prec is not None:
        raise ParseError("--prec does not apply when searching for a reference lift")
    searches = reference_mode or (args.params is not None and args.reference is None)
    if args.search_depth is None:
        args.search_depth = SEARCH_DEPTH
    elif not searches:
        raise ParseError("--search-depth applies only when searching for a reference lift")
    problem = load_problem(args.problem)
    model = build_model(problem)
    ring = model.ring
    lines = _header(args.problem, problem)
    payload = {"problem": _summary(args.problem, problem)}

    if args.t_free is not None:
        tf = _series_list(args.t_free, ring, model.param_count, "t-free")
        result = arcs.make_lift(model, tf, target=args.prec)
        lines.append("mode: t-free")
        lines.extend(_lift_lines(result))
        payload.update(mode="t-free", lift=_lift_json(result))
    elif args.params is not None:
        z = _series_list(args.params, ring, model.param_count, "params")
        ref = _resolve_reference(args, model)
        if ref is None:
            return _no_reference(args.search_depth)
        result = arcs.offset_lift(model, ref, z, target=args.prec)
        lines.append("mode: params")
        lines.extend(_lift_lines(result))
        payload.update(mode="params", lift=_lift_json(result), reference=_lift_json(ref))
    elif args.random is not None:
        seed, count = args.random
        if count < 1:
            raise StructureError(f"draw count must be positive, got {count}")
        rng = SplitMix64(seed)
        lines.append("mode: random")
        lines.append(f"seed: {seed}  count: {count}")
        draws = []
        for idx in range(1, count + 1):
            tf = tuple(draw_series(rng, ring, 1, 6) for _ in range(model.param_count))
            result = arcs.make_lift(model, tf, target=args.prec)
            lines.append(f"-- draw {idx} --")
            lines.extend(_lift_lines(result))
            draws.append(_lift_json(result))
        payload.update(mode="random", seed=seed, count=count, draws=draws)
    else:
        ref = arcs.find_strict_reference(model, args.search_depth)
        if ref is None:
            return _no_reference(args.search_depth)
        lines.append("mode: reference")
        lines.extend(_lift_lines(ref))
        payload.update(mode="reference", lift=_lift_json(ref))

    _emit(args, lines, payload)
    return 0


def cmd_extract(args) -> int:
    problem = load_problem(args.problem)
    model = build_model(problem)
    arc = _series_list(args.arc, model.ring, model.n, "arc")
    t = arcs.extract_t(model, arc)
    lines = _header(args.problem, problem)
    for i, s in enumerate(t, start=1):
        lines.append(f"t_{i} = {s}")
    payload = {
        "problem": _summary(args.problem, problem),
        "t": [str(s) for s in t],
    }
    if args.reference is not None:
        ref = _resolve_reference(args, model)
        z = arcs.extract_params(model, arc, ref)
        for i, s in enumerate(z, start=1):
            lines.append(f"z_{i} = {s}")
        payload["z"] = [str(s) for s in z]
        payload["reference"] = _lift_json(ref)
    _emit(args, lines, payload)
    return 0


def cmd_roundtrip(args) -> int:
    problem = load_problem(args.problem)
    model = build_model(problem)
    ring = model.ring
    ref = arcs.find_strict_reference(model, args.search_depth)
    if ref is None:
        return _no_reference(args.search_depth)
    if args.count < 1:
        raise StructureError(f"trial count must be positive, got {args.count}")
    rng = SplitMix64(args.seed)
    lines = _header(args.problem, problem)
    lines.append(f"reference newton_iterations: {ref.newton_iterations}")
    trials = []
    failures = 0
    for trial in range(1, args.count + 1):
        z = tuple(draw_series(rng, ring, 0, 6) for _ in range(model.param_count))
        lifted = arcs.offset_lift(model, ref, z)
        back = arcs.extract_params(model, lifted.y2, ref)
        ok = all(a == b for a, b in zip(z, back))
        depth = min((s.prec for s in back), default=ring.n_work)
        failures += 0 if ok else 1
        lines.append(
            f"trial {trial}: {'ok' if ok else 'MISMATCH'} "
            f"(offsets recovered through x^{depth - 1})"
        )
        trials.append(
            {
                "z": [str(s) for s in z],
                "recovered": [str(s) for s in back],
                "ok": ok,
                "recovered_prec": depth,
            }
        )
    lines.append(f"roundtrip: {args.count - failures}/{args.count} ok")
    payload = {
        "problem": _summary(args.problem, problem),
        "reference": _lift_json(ref),
        "trials": trials,
        "ok": failures == 0,
    }
    _emit(args, lines, payload)
    return 0 if failures == 0 else 2


def cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    model = build_model(problem)
    ring = model.ring
    jets = arcs.oracle_enumerate(problem, args.prec)
    width = args.prec - (2 * problem.c + 1)
    candidates = ring.field.p ** (problem.n * width)
    lines = _header(args.problem, problem)
    lines.append(f"window: x^{args.prec}")
    lines.append(f"candidates: {candidates}")
    lines.append(f"members: {jets.count}")
    payload = {
        "problem": _summary(args.problem, problem),
        "window": args.prec,
        "candidates": candidates,
        "count": jets.count,
    }

    containment = None
    misses = 0
    ref = arcs.find_strict_reference(model, args.search_depth)
    if ref is None:
        lines.append("containment: skipped (no strict reference found)")
    elif args.samples > 0:
        rng = SplitMix64(args.seed)
        hits = 0
        try:
            for _ in range(args.samples):
                z = tuple(draw_series(rng, ring, 0, 6) for _ in range(model.param_count))
                member = arcs.offset_lift(model, ref, z)
                hits += 1 if jets.contains(member.y2) else 0
        except PrecisionExhaustedError:
            lines.append(
                f"containment: skipped (precision cannot settle membership mod x^{args.prec})"
            )
        else:
            misses = args.samples - hits
            containment = {"checked": args.samples, "hits": hits}
            lines.append(f"containment: {hits}/{args.samples} random strict lifts are members")
    payload["containment"] = containment

    shown = []
    for idx, key in enumerate(jets.ordered[:3], start=1):
        parts = [
            f"y{i + 1} = {ring.series(list(comp), jets.m)}" for i, comp in enumerate(key)
        ]
        lines.append(f"member {idx}: {' ; '.join(parts)}")
        shown.append([str(ring.series(list(comp), jets.m)) for comp in key])
    payload["members_shown"] = shown

    _emit(args, lines, payload)
    if misses:
        print(
            "arclift: a strict lift is missing from the exhaustive member set",
            file=sys.stderr,
        )
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arclift", description="exact arc lifting through smooth models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to a problem JSON file")
        p.add_argument("--json", action="store_true", help="emit a JSON report on stdout")

    def searching(p, default=SEARCH_DEPTH):
        p.add_argument("--search-depth", type=int, default=default,
                       help="layers tried when searching for a strict reference")

    p = sub.add_parser("validate", help="run the admission checks on a problem")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("desingularize", help="build the smooth model and verify it")
    common(p)
    p.add_argument("--out", metavar="FILE", help="also write the JSON report to FILE")
    p.set_defaults(func=cmd_desingularize)

    p = sub.add_parser("lift", help="lift the jet to an arc solving the system")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--t-free", dest="t_free", metavar="LIST",
                       help="comma separated free components, each in (x)")
    group.add_argument("--params", metavar="LIST",
                       help="comma separated offsets z applied at x^(2c+1) around the reference")
    group.add_argument("--random", nargs=2, type=int, metavar=("SEED", "COUNT"),
                       help="draw COUNT random free-component vectors")
    p.add_argument("--reference", metavar="LIST",
                   help="free components of the reference lift used by --params")
    p.add_argument("--prec", type=int, default=None,
                   help="target residual order for Newton iteration")
    searching(p, default=None)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("extract", help="recover coordinates of a strict arc")
    common(p)
    p.add_argument("--arc", metavar="LIST", required=True,
                   help="comma separated arc components")
    p.add_argument("--reference", metavar="LIST",
                   help="free components of a reference lift; adds offset extraction")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("roundtrip", help="offset-lift random parameters and recover them")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the offset draws")
    p.add_argument("--count", type=int, default=5, help="number of trials")
    searching(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("oracle", help="enumerate all arcs mod x^M over a finite field")
    common(p)
    p.add_argument("--prec", type=int, required=True, metavar="M",
                   help="enumerate solutions mod x^M")
    p.add_argument("--samples", type=int, default=10,
                   help="random strict lifts checked for membership")
    p.add_argument("--seed", type=int, default=0, help="seed for the membership samples")
    searching(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ArcliftError as exc:
        if isinstance(exc, ValidationError) and exc.report is not None:
            for ch in exc.report.failures():
                print(f"arclift: check {ch.name}: {ch.detail}", file=sys.stderr)
        prefix = "parse error: " if isinstance(exc, ParseError) else ""
        print(f"arclift: {prefix}{exc}", file=sys.stderr)
        return exc.exit_code
