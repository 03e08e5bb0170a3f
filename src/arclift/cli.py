"""Command line driver: validate, build, lift, extract, roundtrip, enumerate.

A problem is JSON data.  load_problem reads a file of it, and
parse_problem builds it at the field and n_work the data names:

    {
      "field": "Q",                    "Q" or "F<p>" with p prime
      "n": 2,
      "ideal": ["Y1^2 - Y2^3"],        polynomials in Y1..Yn and x
      "f": [1],                        1-based generator indices of the subsystem
      "minor_cols": [1],               1-based Y columns of the Jacobian minor
      "jet": ["x^3", "x^2"],           series in x, one per component
      "c": 4,                          optional; inferred as e + 1 when absent
      "certificate": {"N": "...", "cofactors": [["..."]]},   optional; N = 1, cofactors follow f
      "mode": "dvr",                   optional; "variety" forbids x in the ideal
      "n_work": 40                     optional working precision
    }

When "n_work" is absent it is 40 (DEFAULT_PRECISION); nothing but the
data sets a problem.  The working precision must lie in 1..10000
(MAX_NWORK); a larger one is refused as unparsable input, and so
is an exponent above 10000 (MAX_EXPONENT) on a variable Yi.  Series
lists on the command line are comma separated (the series grammar itself
has no commas).  `lift --random SEED COUNT`, `roundtrip --count` and
`oracle --samples` are capped at 10000 (MAX_COUNT), and a negative
`--search-depth` or `--samples` is refused, as usage errors before any
file is read; a COUNT or --count below 1 still exits 1.

Exit codes:

    0  success
    1  structural failure: wrong shapes or fields, precision too low to
       decide, arcs outside the strict window or the parametrized family,
       Newton stall, enumeration budget, stdout closed before the output
    2  mathematical validation failure
    3  no strict reference lift found within the search depth (NoReferenceError)
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
    NoReferenceError,
    NotStrictError,
    ParseError,
    PrecisionExhaustedError,
    StructureError,
    ValidationError,
)
from .polyring import VarSpace, parse_poly
from .prng import SplitMix64, draw_series
from .ring import DEFAULT_PRECISION, PrimeField, QQ, SeriesRing, digits

# the largest working precision problem data may ask for
MAX_NWORK = 10_000

# the largest exponent of a variable Yi in a problem file's polynomials
MAX_EXPONENT = 10_000

# the largest lift --random COUNT, roundtrip --count and oracle --samples
MAX_COUNT = 10_000


class _Parser(argparse.ArgumentParser):
    """Routes usage errors through the parse-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)

    def print_help(self, file=None):
        # flushed at once, so a closed stdout raises BrokenPipeError inside main
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


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
    "c", "certificate", "mode", "n_work",
}
_REQUIRED = ("field", "n", "ideal", "f", "minor_cols", "jet")


def load_problem(path: str) -> Problem:
    """Read a problem JSON file and build it with parse_problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"problem file is not valid JSON: {exc}")
    except (OSError, ValueError) as exc:  # bad UTF-8, or a number past the int/str digit limit
        raise ParseError(f"cannot read problem file: {exc}")
    return parse_problem(raw)


def parse_problem(raw) -> Problem:
    """Structurally check problem JSON data and build it at the field and n_work it names."""
    _expect(isinstance(raw, dict), "problem data must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _expect(not unknown, f"unknown problem keys: {', '.join(sorted(unknown))}")
    for key in _REQUIRED:
        _expect(key in raw, f"problem data lacks required key '{key}'")

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
    jet_text = raw["jet"]
    _expect(isinstance(jet_text, list), "'jet' must be a non-empty list of strings")
    if len(jet_text) != n:
        raise StructureError(f"jet must have {n} components, got {len(jet_text)}")
    n_work = _int_field(raw, "n_work") if "n_work" in raw else DEFAULT_PRECISION
    _expect(n_work >= 1, "working precision must be positive")
    _expect(n_work <= MAX_NWORK, f"working precision {n_work} exceeds the cap {MAX_NWORK}")
    ring = SeriesRing(field, n_work)
    space = VarSpace.ys(n)

    gens = [parse_poly(s, ring, space) for s in _str_list(raw, "ideal")]
    f_idx = _int_list(raw, "f")
    minor_cols = _int_list(raw, "minor_cols")
    jet = [ring.parse(s) for s in _str_list(raw, "jet")]

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
    _expect(
        top <= MAX_EXPONENT, f"variable exponent {digits(top)} exceeds the cap {MAX_EXPONENT}"
    )
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


def _series_list(text: str, ring: SeriesRing, expect: int, what: str) -> tuple:
    text = text.strip()
    parts = [] if not text else [p.strip() for p in text.split(",")]
    if len(parts) != expect:
        raise StructureError(
            f"{what}: expected {expect} comma separated series, got {len(parts)}"
        )
    return tuple(ring.parse(p) for p in parts)


def _strs(items) -> list:
    return [str(s) for s in items]


def _summary(path: str, problem: Problem) -> dict:
    p = problem.ring.field.p
    return dict(
        path=path, field="Q" if p is None else f"F{p}", n=problem.n, r=problem.r,
        c=problem.c, mode=problem.mode, n_work=problem.ring.n_work,
    )


def _model(args):
    """The problem file's smooth model, and a payload that holds its summary."""
    problem = load_problem(args.problem)
    return build_model(problem), {"problem": _summary(args.problem, problem)}


def _check_rows(report) -> list:
    return [{"name": ch.name, "ok": ch.ok, "detail": ch.detail} for ch in report.checks]


def _emit(args, payload, view) -> None:
    """Print the payload as JSON, or its problem header and the lines view reads off it."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), flush=True)
        return
    p = payload["problem"]
    header = [
        f"problem: {p['path']}",
        f"field: {p['field']}",
        f"n: {p['n']}  r: {p['r']}  c: {p['c']}  mode: {p['mode']}",
    ]
    print("\n".join(header + list(view(payload))), flush=True)


def _numbered(prefix: str, texts) -> list:
    return [f"{prefix}_{i} = {s}" for i, s in enumerate(texts, start=1)]


# a lift's certificate fields, printed in this order after its t and y2
_LIFT_FIELDS = ("strict", "residual_f", "residual_i", "newton_iterations", "k0", "eff_prec")


def _lift_json(result: arcs.LiftResult) -> dict:
    lift = {"t": _strs(result.t), "y2": _strs(result.y2)}
    lift.update((key, getattr(result, key)) for key in _LIFT_FIELDS)
    return lift


def _lift_lines(lift: dict) -> list:
    return (
        _numbered("t", lift["t"])
        + _numbered("y2", lift["y2"])
        + [f"{key}: {json.dumps(lift[key])}" for key in _LIFT_FIELDS]
    )


def _check_count(value: int, what: str) -> None:
    """A draw or trial count: positive (exit 1) and at most MAX_COUNT (exit 4)."""
    if value < 1:
        raise StructureError(f"{what} must be positive, got {value}")
    _expect(value <= MAX_COUNT, f"{what} {value} exceeds the cap {MAX_COUNT}")


def _check_depth(value: int) -> None:
    _expect(value >= 0, f"--search-depth must not be negative, got {value}")


def _find_reference(model: SmoothModel, depth: int) -> arcs.LiftResult:
    ref = arcs.find_strict_reference(model, depth)
    if ref is None:
        raise NoReferenceError(f"no strict lift found within search depth {depth}")
    return ref


def _resolve_reference(args, model: SmoothModel):
    """Reference lift from --reference free components, or by search."""
    if args.reference is None:
        return _find_reference(model, args.search_depth)
    rf = _series_list(args.reference, model.ring, model.param_count, "reference")
    ref = arcs.make_lift(model, rf)
    if not ref.strict:
        raise NotStrictError("the supplied reference free components do not give a strict lift")
    return ref


def _validate_view(p):
    for ch in p["checks"]:
        yield f"check {ch['name']}: {'ok' if ch['ok'] else 'FAIL'} - {ch['detail']}"
    tail = f" (e = {p['e']})" if p["e"] is not None else ""
    yield f"valid: {'yes' if p['valid'] else 'no'}{tail}"


def cmd_validate(args) -> int:
    problem = load_problem(args.problem)
    report = validate_problem(problem)
    summary = _summary(args.problem, problem)
    payload = dict(problem=summary, checks=_check_rows(report), e=report.e, valid=report.ok)
    _emit(args, payload, _validate_view)
    return 0 if report.ok else 2


def _desingularize_view(p):
    yield f"e: {p['e']}"
    yield f"d = {p['d']}"
    yield f"perm: {' '.join(map(str, p['perm']))}"
    yield f"param_count: {p['param_count']}"
    yield f"free T: {' '.join(f'T{i}' for i in p['free_idx']) or '-'}"
    yield from _numbered("a", p["a"])
    yield from _numbered("g", p["g"])
    yield f"loc_s = {p['loc_s']}"
    yield f"loc_s_prime = {p['loc_s_prime']}"
    for ch in p["verify"]:
        yield f"verify {ch['name']}: {'ok' if ch['ok'] else 'FAIL'}"
    yield f"verified: {'yes' if p['verified'] else 'no'}"


def cmd_desingularize(args) -> int:
    model, payload = _model(args)
    verify = verify_model(model)
    payload.update(
        e=model.e, d=str(model.d), n_norm=model.n_norm.render(),
        perm=[j + 1 for j in model.perm], param_count=model.param_count,
        free_idx=list(model.free_idx), a=_strs(model.a), g=[gi.render() for gi in model.g],
        loc_s=model.loc_s.render(), loc_s_prime=model.loc_s_prime.render(),
        verify=_check_rows(verify), verified=verify.ok,
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise ParseError(f"cannot write report file: {exc}")
    _emit(args, payload, _desingularize_view)
    return 0 if verify.ok else 2


def _lift_view(p):
    yield f"mode: {p['mode']}"
    if p["mode"] != "random":
        yield from _lift_lines(p["lift"])
        return
    yield f"seed: {p['seed']}  count: {p['count']}"
    for idx, draw in enumerate(p["draws"], start=1):
        yield f"-- draw {idx} --"
        yield from _lift_lines(draw)


def cmd_lift(args) -> int:
    if args.reference is not None and args.params is None:
        raise ParseError("--reference applies only with --params")
    reference_mode = args.t_free is None and args.params is None and args.random is None
    if reference_mode and args.prec is not None:
        raise ParseError("--prec does not apply when searching for a reference lift")
    searches = reference_mode or (args.params is not None and args.reference is None)
    if args.search_depth is None:
        args.search_depth = arcs.SEARCH_DEPTH
    elif not searches:
        raise ParseError("--search-depth applies only when searching for a reference lift")
    _check_depth(args.search_depth)
    if args.random is not None:
        _check_count(args.random[1], "draw count")
    model, payload = _model(args)
    ring = model.ring
    if args.t_free is not None:
        tf = _series_list(args.t_free, ring, model.param_count, "t-free")
        result = arcs.make_lift(model, tf, target=args.prec)
        payload.update(mode="t-free", lift=_lift_json(result))
    elif args.params is not None:
        z = _series_list(args.params, ring, model.param_count, "params")
        ref = _resolve_reference(args, model)
        result = arcs.offset_lift(model, ref, z, target=args.prec)
        payload.update(mode="params", lift=_lift_json(result), reference=_lift_json(ref))
    elif args.random is not None:
        seed, count = args.random
        rng = SplitMix64(seed)
        draws = []
        for _ in range(count):
            tf = tuple(draw_series(rng, ring, 1, 6) for _ in range(model.param_count))
            draws.append(_lift_json(arcs.make_lift(model, tf, target=args.prec)))
        payload.update(mode="random", seed=seed, count=count, draws=draws)
    else:
        ref = _find_reference(model, args.search_depth)
        payload.update(mode="reference", lift=_lift_json(ref))
    _emit(args, payload, _lift_view)
    return 0


def cmd_extract(args) -> int:
    model, payload = _model(args)
    arc = _series_list(args.arc, model.ring, model.n, "arc")
    payload["t"] = _strs(arcs.extract_t(model, arc))
    if args.reference is not None:
        ref = _resolve_reference(args, model)
        payload["z"] = _strs(arcs.extract_params(model, arc, ref))
        payload["reference"] = _lift_json(ref)
    _emit(args, payload, lambda p: _numbered("t", p["t"]) + _numbered("z", p.get("z", ())))
    return 0


def _roundtrip_view(p):
    yield f"reference newton_iterations: {p['reference']['newton_iterations']}"
    for idx, trial in enumerate(p["trials"], start=1):
        yield (
            f"trial {idx}: {'ok' if trial['ok'] else 'MISMATCH'} "
            f"(offsets recovered through x^{trial['recovered_prec'] - 1})"
        )
    passed = sum(trial["ok"] for trial in p["trials"])
    yield f"roundtrip: {passed}/{len(p['trials'])} ok"


def cmd_roundtrip(args) -> int:
    _check_depth(args.search_depth)
    _check_count(args.count, "trial count")
    model, payload = _model(args)
    ring = model.ring
    ref = _find_reference(model, args.search_depth)
    rng = SplitMix64(args.seed)
    trials = []
    for _ in range(args.count):
        z = tuple(draw_series(rng, ring, 0, 6) for _ in range(model.param_count))
        back = arcs.extract_params(model, arcs.offset_lift(model, ref, z).y2, ref)
        trials.append({
            "z": _strs(z), "recovered": _strs(back), "ok": all(a == b for a, b in zip(z, back)),
            "recovered_prec": min((s.prec for s in back), default=ring.n_work),
        })
    ok = all(trial["ok"] for trial in trials)
    payload.update(reference=_lift_json(ref), trials=trials, ok=ok)
    _emit(args, payload, _roundtrip_view)
    return 0 if ok else 2


def _oracle_view(p, skipped):
    """Oracle text; skipped says why containment was not counted, None for no line."""
    yield f"window: x^{p['window']}"
    yield f"candidates: {p['candidates']}"
    yield f"members: {p['count']}"
    held = p["containment"]
    if held is not None:
        yield f"containment: {held['hits']}/{held['checked']} random strict lifts are members"
    elif skipped is not None:
        yield f"containment: skipped ({skipped})"
    for idx, comps in enumerate(p["members_shown"], start=1):
        yield f"member {idx}: " + " ; ".join(
            f"y{i} = {s}" for i, s in enumerate(comps, start=1)
        )


def cmd_oracle(args) -> int:
    _check_depth(args.search_depth)
    samples = args.samples
    _expect(0 <= samples <= MAX_COUNT, f"--samples must lie in 0..{MAX_COUNT}, got {samples}")
    model, payload = _model(args)
    ring = model.ring
    jets = arcs.oracle_enumerate(model.problem, args.prec)
    containment = skipped = None
    ref = arcs.find_strict_reference(model, args.search_depth)
    if ref is None:
        skipped = "no strict reference found"
    elif samples > 0:
        rng = SplitMix64(args.seed)
        hits = 0
        try:
            for _ in range(samples):
                z = tuple(draw_series(rng, ring, 0, 6) for _ in range(model.param_count))
                member = arcs.offset_lift(model, ref, z)
                hits += 1 if jets.contains(member.y2) else 0
        except PrecisionExhaustedError:
            skipped = f"precision cannot settle membership mod x^{args.prec}"
        else:
            containment = {"checked": samples, "hits": hits}
    shown = [
        [str(ring.series(list(comp), jets.m)) for comp in jets.member(i)]
        for i in range(min(3, jets.count))
    ]
    payload.update(
        window=args.prec, candidates=jets.candidates, count=jets.count,
        containment=containment, members_shown=shown,
    )
    _emit(args, payload, lambda p: _oracle_view(p, skipped))
    if containment is not None and containment["hits"] < containment["checked"]:
        raise ValidationError("a strict lift is missing from the exhaustive member set")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arclift", description="exact arc lifting through smooth models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to a problem JSON file")
        p.add_argument("--json", action="store_true", help="emit a JSON report on stdout")

    def searching(p, default=arcs.SEARCH_DEPTH):
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
    except BrokenPipeError:
        # stdout was closed before _emit's flush; the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ArcliftError as exc:
        if isinstance(exc, ValidationError) and exc.report is not None:
            for ch in exc.report.failures():
                print(f"arclift: check {ch.name}: {ch.detail}", file=sys.stderr)
        prefix = "parse error: " if isinstance(exc, ParseError) else ""
        print(f"arclift: {prefix}{exc}", file=sys.stderr)
        return exc.exit_code
