"""arclift benchmark: run one workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Load is a closed loop: one client in one process, pinned to one CPU, no
threads, each op starting when the previous one has finished and been
checked.  The loop runs whole cycles of the workload's ops until --seconds
have passed and at least the workload's min_cycles have run.  Every op's
output is checked (see workloads.py); for the golden seed its digest must
also equal the one in golden.json, and an op repeated within a run must
reproduce its earlier digest.  Times are scaled to a reference CPU speed
(see calib.py); the raw wall-clock figures are printed too.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
    ops_per_s    ops that passed their checks, per second spent inside ops
    op_p50_ms    median op latency
    op_tail_ms   the highest of p50/p75/p90/p95/p99/p99.9 that has >= 10
                 samples beyond it in a run of the workload's minimum
                 length; fixed per workload, so commits compare the same
                 percentile (which one, and the counts, are printed above)
    setup_s      median over fresh interpreters of the time from interpreter
                 start to the first op: import, input draws, model builds
    peak_rss_mb  peak RSS of the workload process (cli-cold: of its largest
                 arclift child)
fail_ratio (failed / attempted) is printed too; the result line carries it
as `failed` and `attempted`.

--trace 1 traces the set-up, runs the untraced loop, then traces a fixed
number of cycles and runs the layer probes, and prints the per-layer metrics
of BENCHMARK.json.  Spans are written to .bench_out/spans/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calib
import procs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
SETUP_SAMPLES = 5
MAX_REPORTED_FAILURES = 5

workloads = None  # imported by main() once the arclift sources are found


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (statistics' inclusive method)."""
    s = sorted(values)
    pos = p / 100 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(plan, wl) -> float:
    """Highest ladder percentile with TAIL_BEYOND samples beyond it in the shortest run."""
    n = wl.min_cycles * len(plan.entries[0])
    fit = [p for p in TAIL_LADDER if round(n * (100 - p) / 100, 6) >= TAIL_BEYOND]
    return fit[-1] if fit else TAIL_LADDER[0]


class Loop:
    """Runs whole cycles of a plan's ops, timing each op and checking its output."""

    def __init__(self, plan, seed: int, goldens: dict):
        self.plan = plan
        self.goldens = goldens if seed == workloads.GOLDEN_SEED else None
        self.seen = {}
        self.failures = []
        self.clock = calib.Clock()

    def run(self, cycles: int, seconds: float = 0.0, tracer=None):
        """Per-op records (cycle, scaled_s, ok, coeff_bits, raw_s): at least
        `cycles` whole cycles, and more until `seconds` have passed."""
        records = []
        deadline = time.monotonic() + seconds
        cycle = 0
        while cycle < cycles or time.monotonic() < deadline:
            for op in self.plan.entries[cycle % len(self.plan.entries)]:
                records.append((cycle, *self._one(op, tracer, len(records) + 1)))
            cycle += 1
        return records

    def _one(self, op, tracer, op_id: int):
        if tracer is not None:
            tracer.op = op_id
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception:
            error = traceback.format_exc()
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        scaled = latency * self.clock.scale()
        bits = 0
        if error is None:
            try:
                text = op.check(result)
                bits = workloads.coeff_bits(text)
                error = self._compare(f"{op.key}#{op.entry}", text)
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        if error is not None:
            self.failures.append(f"{op.key}#{op.entry}: {error}")
        return scaled, error is None, bits, latency

    def _compare(self, key: str, text: str) -> str | None:
        digest = workloads.digest(text)
        earlier = self.seen.setdefault(key, digest)
        if earlier != digest:
            return "output changed between two runs of the same op"
        if self.goldens is not None and self.goldens.get(key) != digest:
            return f"digest {digest} differs from the golden {self.goldens.get(key)}"
        return None


def setup_seconds(name: str, seed: int) -> tuple:
    """Raw and speed-scaled set-up times of SETUP_SAMPLES fresh interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        res = procs.spawn([sys.executable, str(HERE / "setup_child.py"), name, str(seed)])
        if res.code != 0:
            raise RuntimeError("set-up failed in a fresh interpreter:\n" + res.err.decode()[-2000:])
        ready, sampling, scale = (float(v) for v in res.out.decode().split())
        raw.append(ready - start - sampling)
        scaled.append(raw[-1] * scale)
    return raw, scaled


def summarize(records, p: float = TAIL_LADDER[0]):
    lat = [r[1] for r in records]
    raw = [r[4] for r in records]
    ok = sum(1 for r in records if r[2])
    tail = percentile(lat, p)
    return {
        "attempted": len(lat),
        "ok": ok,
        "ops_per_s": ok / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "tail_p": p,
        "op_tail_ms": 1e3 * tail,
        "beyond": sum(1 for v in lat if v > tail),
        "cycles": records[-1][0] + 1,
        "scale": sum(lat) / sum(raw),
        "raw": f"{ok / sum(raw):.4g} ops/s, p50 {1e3 * statistics.median(raw):.4g} ms, "
               f"p{p:g} {1e3 * percentile(raw, p):.4g} ms",
    }


def layer_metrics(tracer, untraced: dict, traced: dict, bits: int, probe_values: dict) -> dict:
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    out = {}
    for name in set(calls) | set(self_s):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0) * traced["scale"]
    for key in ("arcs.hensel.iterations", "arcs.hensel.k0"):
        out[key] = counters.get(key, 0)
    ref_calls = calls.get("arcs.strict_ref", 0)
    out["arcs.strict_ref.lifts_per_call"] = (
        counters.get("arcs.strict_ref.lifts", 0) / ref_calls if ref_calls else 0.0
    )
    candidates = counters.get("arcs.oracle.candidates", 0)
    out["arcs.oracle.members_per_candidate"] = (
        counters.get("arcs.oracle.members", 0) / candidates if candidates else 0.0
    )
    out["ring.coeff_bits_max"] = bits
    out["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    out["trace.traced_ops_per_s"] = traced["ops_per_s"]
    out["trace.overhead_pct"] = 100 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1)
    out.update(probe_values)
    return out


def emit(spec_metrics: list, values: dict, loop: Loop, attempted: int) -> None:
    metrics = {}
    for m in spec_metrics:
        v = values.get(m["name"])
        if v is None:
            # a span this workload never enters; any other gap is a bug
            if not m["name"].endswith((".calls", ".self_s")):
                raise KeyError(f"metric {m['name']} was not measured")
            v = 0 if m["unit"] == "count" else 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:<36} {v:.6g} {m['unit']}")
    for line in loop.failures[:MAX_REPORTED_FAILURES]:
        print("FAILED " + line, file=sys.stderr)
    failed = len(loop.failures)
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(wl, args, spec, goldens) -> None:
    setup_raw, setup_scaled = setup_seconds(wl.name, args.seed)
    plan = wl.setup(args.seed)
    gc.collect()
    loop = Loop(plan, args.seed, goldens)
    try:
        s = summarize(loop.run(wl.min_cycles, args.seconds), tail_percentile(plan, wl))
    finally:
        plan.close()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if plan.in_process else plan.child_rss_kb
    print(f"workload {wl.name} ({wl.detail}), seed {args.seed}, one client, closed loop")
    print(f"{s['attempted']} ops in {s['cycles']} cycles; op_tail_ms is p{s['tail_p']:g} "
          f"of {s['attempted']} samples ({s['beyond']} beyond it)")
    print(f"raw wall clock: {s['raw']}; setup "
          + " ".join(f"{v:.4f}" for v in setup_raw) + " s")
    print("speed-scaled setup_s samples: " + " ".join(f"{v:.4f}" for v in setup_scaled))
    values = dict(
        ops_per_s=s["ops_per_s"], op_p50_ms=s["op_p50_ms"], op_tail_ms=s["op_tail_ms"],
        setup_s=statistics.median(setup_scaled), peak_rss_mb=rss_kb / 1024,
    )
    emit(spec["end_to_end"], values, loop, s["attempted"])


def run_traced(wl, args, spec, goldens) -> None:
    import probes
    import tracing

    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    tracer.enabled = True
    try:
        plan = wl.setup(args.seed)
    finally:
        tracer.enabled = False
        tracing.uninstall(saved)
    try:
        loop = Loop(plan, args.seed, goldens)
        untraced_records = loop.run(wl.min_cycles, args.seconds)
        plan.tracer = tracer
        saved = tracing.install(tracer)
        try:
            traced_records = loop.run(wl.trace_cycles, tracer=tracer)
        finally:
            tracing.uninstall(saved)
    finally:
        plan.close()
    # the untraced rate over the same cycles the traced loop ran
    untraced = summarize([r for r in untraced_records if r[0] < wl.trace_cycles])
    traced = summarize(traced_records)
    bits = max(r[3] for r in traced_records)
    values = layer_metrics(tracer, untraced, traced, bits, probes.run_all(args.seed))
    spans = workloads.OUT / "spans" / f"{wl.name}-seed{args.seed}.json.gz"
    tracer.write(spans)
    print(f"workload {wl.name} ({wl.detail}), seed {args.seed}, traced: set-up and "
          f"{wl.trace_cycles} cycles ({traced['attempted']} ops); spans in {spans.relative_to(ROOT)}")
    attempted = len(untraced_records) + len(traced_records)
    emit(spec["per_layer"], values, loop, attempted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("ARCLIFT_NWORK", None)
    # one client: keep it, its children and its calibration samples on one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "arclift" / "__init__.py").is_file():
        print(f"perfbench: no arclift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global workloads
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    goldens = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))["digests"]
    wl = workloads.WORKLOADS[args.workload]
    (run_traced if args.trace else run_untraced)(wl, args, spec, goldens.get(wl.name, {}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
