"""The four benchmark workloads: seeded inputs, a fixed cycle of ops, checks.

A workload's setup draws a pool of POOL input sets from SplitMix64(seed) and
builds whatever the ops reuse; cycle i of the measurement loop runs the ops
of pool entry i % POOL.  Every op has a timed `run` and an untimed `check`.
The check applies the independent tests (a residual order, a verification
battery, an exit code and the CLI's own verdict line) and returns the
rendered output, which the runner hashes and compares with a golden digest.

    lift-q        make_lift on cusp_offjet, cusp, shifted_node, tcurve and three
                  offset_lift -> extract_params roundtrips on cusp, over Q at
                  n_work 160
    lift-fp       the same cycle over F5 and F_(2^31-1) at n_work 320
    build-verify  build_model + verify_model over Q at n_work 40 on ten
                  monomial curves with seeded arcs, tcurve, node, shifted_node
    cli-cold      one fresh `python -m arclift` process per op
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from procs import ROOT, CliResult, Launcher

PROBLEMS = ROOT / "problems"
OUT = ROOT / ".bench_out"

POOL = 16
GOLDEN_SEED = 0
F_BIG = 2**31 - 1

from arclift import arcs, cli, desing  # noqa: E402  (sys.path is set by the entry script)
from arclift.polyring import VarSpace, parse_poly  # noqa: E402
from arclift.prng import SplitMix64, draw_series  # noqa: E402
from arclift.ring import QQ, SeriesRing  # noqa: E402


class CheckFailed(Exception):
    """An op's output failed an independent check."""


@dataclass
class Op:
    key: str
    entry: int
    run: object
    check: object


@dataclass
class Plan:
    """A set-up workload: POOL lists of ops, plus state the ops share."""

    entries: list
    in_process: bool = True
    tracer: object = None
    child_rss_kb: int = 0
    launcher: Launcher | None = None

    def close(self) -> None:
        """Stop the processes the set-up started."""
        if self.launcher is not None:
            self.launcher.close()


@dataclass(frozen=True)
class Workload:
    """min_cycles: a run never stops earlier, so its tail percentile always has
    >= 10 samples beyond it.  trace_cycles: the fixed work of a traced run."""

    name: str
    detail: str
    setup: object
    min_cycles: int
    trace_cycles: int


# -- shared helpers ------------------------------------------------------


def load_problem(name: str, field: str | None = None, n_work: int | None = None):
    """A shipped problem, optionally with its field and n_work replaced."""
    path = PROBLEMS / f"{name}.json"
    if field is not None or n_work is not None:
        raw = json.loads(path.read_text(encoding="utf-8"))
        if field is not None:
            raw["field"] = field
        if n_work is not None:
            raw["n_work"] = n_work
        path = OUT / "problems" / f"{name}-{raw['field']}-n{raw.get('n_work', 'default')}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(raw, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    return cli.load_problem(str(path))


def check_residual(problem, y2, eff_prec: int) -> None:
    """The raw ideal generators, evaluated at y2, vanish to order eff_prec - c."""
    point = dict(zip(problem.space.names, y2))
    floor = eff_prec - problem.c
    for j, gen in enumerate(problem.ideal_gens, start=1):
        got = gen.eval(point).order_floor()
        if got < floor:
            raise CheckFailed(f"generator {j} vanishes to order {got}, below eff_prec - c = {floor}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def render_lift(res) -> str:
    lines = [str(s) for s in res.t + res.y2]
    lines.append(
        f"strict={res.strict} residual_f={res.residual_f} residual_i={res.residual_i} "
        f"newton={res.newton_iterations} k0={res.k0}"
    )
    return "\n".join(lines)


# -- lift-q and lift-fp --------------------------------------------------

LIFT_PROBLEMS = ("cusp_offjet", "cusp", "shifted_node", "tcurve")
# Roundtrips per field and cycle.  With three, the inverse direction
# (div_exact by d^2, mat_vec, the relift) weighs about as much as the forward
# lifts, and the median op falls inside the roundtrips' narrow latency band;
# with one it fell between the wide bands of cusp lifts and roundtrips, and
# op_p50_ms moved by 11 % (quartile spread) between seeds.
ROUNDTRIPS = 3


def _lift_op(key, entry, model, t_free):
    def check(res):
        check_residual(model.problem, res.y2, res.eff_prec)
        return render_lift(res)

    return Op(key, entry, lambda: arcs.make_lift(model, t_free), check)


def _roundtrip_op(key, entry, model, ref, z):
    def run():
        lifted = arcs.offset_lift(model, ref, z)
        return lifted, arcs.extract_params(model, lifted.y2, ref)

    def check(res):
        lifted, back = res
        if not all(a == b for a, b in zip(z, back)):
            raise CheckFailed("extract_params did not recover the offsets")
        check_residual(model.problem, lifted.y2, lifted.eff_prec)
        return render_lift(lifted) + "\n" + "\n".join(str(s) for s in back)

    return Op(key, entry, run, check)


def _lift_plan(seed: int, fields, n_work: int) -> Plan:
    built = []
    for fld in fields:
        models = {nm: desing.build_model(load_problem(nm, fld, n_work)) for nm in LIFT_PROBLEMS}
        ref = arcs.find_strict_reference(models["cusp"])
        if ref is None:
            raise RuntimeError(f"no strict reference for cusp over {fld}")
        built.append((fld, models, ref))
    rng = SplitMix64(seed)
    entries = []
    for entry in range(POOL):
        ops = []
        for fld, models, ref in built:
            for nm, model in models.items():
                tf = tuple(draw_series(rng, model.ring, 1, 6) for _ in range(model.param_count))
                ops.append(_lift_op(f"lift/{nm}/{fld}", entry, model, tf))
            cusp = models["cusp"]
            for k in range(ROUNDTRIPS):
                z = tuple(draw_series(rng, cusp.ring, 0, 6) for _ in range(cusp.param_count))
                ops.append(_roundtrip_op(f"roundtrip/cusp/{fld}/{k}", entry, cusp, ref, z))
        entries.append(ops)
    return Plan(entries)


def setup_lift_q(seed: int) -> Plan:
    return _lift_plan(seed, ("Q",), 160)


def setup_lift_fp(seed: int) -> Plan:
    return _lift_plan(seed, ("F5", f"F{F_BIG}"), 320)


# -- build-verify --------------------------------------------------------


def monomial_curve_problem(ring, q: int, p: int, arc):
    """Y1^q = Y2^p with the exact arc (arc^p, arc^q) as jet, c = p(q-1) + 1."""
    space = VarSpace.ys(2)
    yp = ring.one()
    for _ in range(p):
        yp = yp * arc
    yq = ring.one()
    for _ in range(q):
        yq = yq * arc
    return desing.make_problem(
        ring,
        n=2,
        ideal_gens=[parse_poly(f"Y1^{q} - Y2^{p}", ring, space)],
        f_idx=[1],
        minor_cols=[1],
        jet=(yp, yq),
        c=p * (q - 1) + 1,
    )


def _build_op(key, entry, problem):
    def run():
        model = desing.build_model(problem)
        return model, desing.verify_model(model)

    def check(res):
        model, report = res
        if not report.ok:
            raise CheckFailed("verify_model: " + ", ".join(ch.name for ch in report.failures()))
        lines = [f"e={model.e} perm={model.perm}", str(model.d)]
        lines += [str(a) for a in model.a]
        lines += [g.render() for g in model.g]
        lines += [model.loc_s.render(), model.loc_s_prime.render()]
        lines += [f"{ch.name}={ch.ok}" for ch in report.checks]
        return "\n".join(lines)

    return Op(key, entry, run, check)


def setup_build_verify(seed: int) -> Plan:
    ring = SeriesRing(QQ, 40)
    fixed = {nm: load_problem(nm, "Q", 40) for nm in ("tcurve", "node", "shifted_node")}
    rng = SplitMix64(seed)
    entries = []
    for entry in range(POOL):
        ops = []
        for q in (2, 3):
            for p in range(2, 7):
                arc = ring.x() + draw_series(rng, ring, 2, 6)
                problem = monomial_curve_problem(ring, q, p, arc)
                ops.append(_build_op(f"build/monomial-{q}-{p}", entry, problem))
        for nm, problem in fixed.items():
            ops.append(_build_op(f"build/{nm}", entry, problem))
        entries.append(ops)
    return Plan(entries)


# -- cli-cold ------------------------------------------------------------

TRACE_MARKER = "\n@@perfbench-trace@@"

_EXTRACT_ARC = "x^3 + 6*x^18 + 6*x^33, x^2 + 4*x^17"
_EXTRACT_REF_ARC = "x^3 + 6*x^19 + 6*x^35, x^2 + 4*x^18"


def _lift_blocks(text: str):
    """(y2 series texts, eff_prec) for each lift printed by `arclift lift`."""
    y2 = []
    for line in text.splitlines():
        if line.startswith("y2_"):
            y2.append(line.split(" = ", 1)[1])
        elif line.startswith("eff_prec: "):
            yield y2, int(line.split(": ", 1)[1])
            y2 = []


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cli_check(kind: str, expect: int, problem):
    def check(res: CliResult):
        err = res.err.split(TRACE_MARKER.encode(), 1)[0].decode(errors="replace")
        _require(res.code == expect, f"exit {res.code}, expected {expect}: {err.strip()[-300:]}")
        text = res.out.decode()
        lines = text.splitlines()
        if kind == "validate":
            _require(any(l.startswith("valid: yes") for l in lines), "validate did not report valid: yes")
        elif kind == "desingularize":
            _require(json.loads(text)["verified"] is True, "desingularize did not verify")
        elif kind == "lift":
            blocks = list(_lift_blocks(text))
            _require(len(blocks) >= 1, "no lift printed")
            for y2_text, eff in blocks:
                y2 = [problem.ring.parse(s) for s in y2_text]
                _require(len(y2) == problem.n, "wrong number of arc components")
                check_residual(problem, y2, eff)
        elif kind == "no-reference":
            _require("no strict lift found" in err, "missing the no-reference message")
        elif kind == "extract":
            got = [l.split(" = ", 1)[1] for l in lines if l.startswith("t_")]
            _require(len(got) == problem.n, "extract printed the wrong number of coordinates")
            for s in got:
                problem.ring.parse(s)
        elif kind == "extract-params":
            _require(any(l.startswith("z_1 = ") for l in lines), "no recovered offset printed")
        elif kind == "roundtrip":
            _require("roundtrip: 3/3 ok" in lines, "roundtrip mismatch")
        elif kind == "oracle":
            _require("containment: 10/10 random strict lifts are members" in lines,
                     "a strict lift is missing from the enumerated set")
        return f"exit {res.code}\n{text}"

    return check


def _cli_op(plan: Plan, key, entry, args, kind, expect, problem):
    def run():
        if plan.tracer is None:
            res = plan.launcher.run([sys.executable, "-m", "arclift", *args])
        else:
            child = str(Path(__file__).resolve().parent / "cli_child.py")
            res = plan.launcher.run([sys.executable, child, *args])
            head, _, payload = res.err.partition(TRACE_MARKER.encode())
            res.err = head
            plan.tracer.merge(json.loads(payload), plan.tracer.op)
        plan.child_rss_kb = max(plan.child_rss_kb, res.maxrss_kb)
        return res

    return Op(key, entry, run, _cli_check(kind, expect, problem))


def setup_cli_cold(seed: int) -> Plan:
    problems = {nm: load_problem(nm) for nm in ("cusp", "tcurve", "shifted_node")}
    rng = SplitMix64(seed)
    plan = Plan([], in_process=False, launcher=Launcher())
    for entry in range(POOL):
        s_cusp, s_tcurve, s_round, s_oracle = (str(rng.below(1 << 31)) for _ in range(4))
        cycle = [
            ("validate/cusp", ["validate", "problems/cusp.json"], "validate", 0, "cusp"),
            ("validate/tcurve", ["validate", "problems/tcurve.json"], "validate", 0, "tcurve"),
            ("desingularize/cusp", ["desingularize", "problems/cusp.json", "--json"],
             "desingularize", 0, "cusp"),
            ("desingularize/tcurve", ["desingularize", "problems/tcurve.json", "--json"],
             "desingularize", 0, "tcurve"),
            ("desingularize/shifted_node", ["desingularize", "problems/shifted_node.json", "--json"],
             "desingularize", 0, "shifted_node"),
            ("lift-random/cusp", ["lift", "problems/cusp.json", "--random", s_cusp, "2"],
             "lift", 0, "cusp"),
            ("lift-random/tcurve", ["lift", "problems/tcurve.json", "--random", s_tcurve, "2"],
             "lift", 0, "tcurve"),
            ("lift-reference/shifted_node", ["lift", "problems/shifted_node.json"],
             "lift", 0, "shifted_node"),
            ("lift-reference/cusp_offjet", ["lift", "problems/cusp_offjet.json"],
             "no-reference", 3, "cusp"),
            ("extract/cusp", ["extract", "problems/cusp.json", "--arc", _EXTRACT_ARC],
             "extract", 0, "cusp"),
            ("extract-params/cusp",
             ["extract", "problems/cusp.json", "--arc", _EXTRACT_REF_ARC, "--reference", "0"],
             "extract-params", 0, "cusp"),
            ("roundtrip/cusp", ["roundtrip", "problems/cusp.json", "--seed", s_round, "--count", "3"],
             "roundtrip", 0, "cusp"),
            ("oracle/cusp_f5", ["oracle", "problems/cusp_f5.json", "--prec", "12", "--seed", s_oracle],
             "oracle", 0, "cusp"),
        ]
        plan.entries.append(
            [_cli_op(plan, key, entry, args, kind, expect, problems[pn])
             for key, args, kind, expect, pn in cycle]
        )
    return plan


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lift-q", "Q, n_work 160", setup_lift_q, min_cycles=6, trace_cycles=2),
        Workload("lift-fp", "F5 and F_(2^31-1), n_work 320", setup_lift_fp, min_cycles=8,
                 trace_cycles=2),
        Workload("build-verify", "Q, n_work 40", setup_build_verify, min_cycles=8, trace_cycles=2),
        Workload("cli-cold", "shipped problems at their own n_work", setup_cli_cold, min_cycles=4,
                 trace_cycles=1),
    )
}


# a fraction, or an integer multiplying a power of x: the coefficients of rendered series
_COEFF = re.compile(r"\d+/\d+|\d+(?=\*x)")


def coeff_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the series coefficients in text."""
    return max(
        (int(part).bit_length() for m in _COEFF.finditer(text) for part in m.group().split("/")),
        default=0,
    )
