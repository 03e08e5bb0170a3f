"""Layer probes for the traced run: how single operations grow with size.

    ring.<op>_us.<field>.n<N>      one Series op (mul, div_exact, inv_unit) on
                                   operands of N coefficients, in microseconds
    arcs.make_lift_ms.<field>.n<N> one make_lift on cusp_offjet at n_work N
    cli.import_s, cli.import.numpy_s
                                   cumulative import times of arclift.cli and
                                   numpy, from `python -X importtime`

Fields: q (small seeded rationals), qtall (coefficients of a real Q lift of
cusp_offjet at n_work 160, repeated to fill N slots, so heights stay those
of a lift), f5, and fbig = F_(2^31-1).  Each probe reports the median of
repeated calls, repeating until 20 ms have been spent (at most 25 calls),
scaled to the reference CPU speed like every other time (calib.py).
"""

from __future__ import annotations

import statistics
import sys
import time

from arclift import arcs, desing
from arclift.prng import SplitMix64, draw_series
from arclift.ring import QQ, PrimeField, SeriesRing

import calib
from procs import spawn
from workloads import F_BIG, load_problem

RING_OPS = ("mul", "div_exact", "inv_unit")
RING_FIELDS = ("q", "qtall", "f5", "fbig")
RING_SIZES = (40, 160, 640)
LIFT_SIZES = {"q": (40, 80, 160), "f5": (80, 160, 320)}
IMPORT_REPS = 3


def _median_time(fn, min_total: float = 0.02, max_calls: int = 25) -> float:
    clock = calib.Clock()
    times = []
    while not times or (sum(times) < min_total and len(times) < max_calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * clock.scale()


def lift_probes(seed: int):
    """arcs.make_lift_ms.* metrics, plus the Q lift at the largest size (the qtall source)."""
    out = {}
    tall = None
    for fld, sizes in LIFT_SIZES.items():
        for n in sizes:
            model = desing.build_model(load_problem("cusp_offjet", fld.upper(), n))
            rng = SplitMix64(seed)
            t_free = (draw_series(rng, model.ring, 1, 6),)
            out[f"arcs.make_lift_ms.{fld}.n{n}"] = 1e3 * _median_time(
                lambda: arcs.make_lift(model, t_free), min_total=0.1
            )
            if fld == "q":
                tall = arcs.make_lift(model, t_free)
    return out, tall


def _unit_coeffs(series) -> list:
    """Coefficients of series / x^ord(series): a unit with the same heights."""
    return list(series.coeffs[series.order():])


def _tiled(coeffs: list, n: int) -> list:
    return (coeffs * (n // len(coeffs) + 1))[:n]


def ring_probes(seed: int, tall_lift) -> dict:
    fields = {"q": QQ, "qtall": QQ, "f5": PrimeField(5), "fbig": PrimeField(F_BIG)}
    tall_a = _unit_coeffs(tall_lift.y2[0])
    tall_b = _unit_coeffs(tall_lift.y2[1])
    out = {}
    for name in RING_FIELDS:
        for n in RING_SIZES:
            ring = SeriesRing(fields[name], n)
            if name == "qtall":
                a = ring.series(_tiled(tall_a, n))
                b = ring.series(_tiled(tall_b, n))
            else:
                rng = SplitMix64(seed + n)
                a = ring.one() + draw_series(rng, ring, 1, n - 1)
                b = ring.one() + draw_series(rng, ring, 1, n - 1)
            c = a * b
            calls = {
                "mul": lambda: a * b,
                "div_exact": lambda: c.div_exact(b),
                "inv_unit": lambda: a.inv_unit(),
            }
            for op in RING_OPS:
                out[f"ring.{op}_us.{name}.n{n}"] = 1e6 * _median_time(calls[op])
    return out


def import_probes() -> dict:
    """Median cumulative import time of arclift.cli and of numpy, in seconds."""
    cli_s, numpy_s = [], []
    clock = calib.Clock()
    for _ in range(IMPORT_REPS):
        res = spawn([sys.executable, "-X", "importtime", "-c", "import arclift.cli"])
        if res.code != 0:
            raise RuntimeError("importing arclift.cli failed: " + res.err.decode()[-300:])
        cumulative = {}
        for line in res.err.decode().splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) * 1e-6
        cli_s.append(cumulative["arclift.cli"])
        numpy_s.append(cumulative.get("numpy", 0.0))
    scale = clock.scale()
    return {"cli.import_s": statistics.median(cli_s) * scale,
            "cli.import.numpy_s": statistics.median(numpy_s) * scale}


def run_all(seed: int) -> dict:
    lifts, tall = lift_probes(seed)
    out = dict(lifts)
    out.update(ring_probes(seed, tall))
    out.update(import_probes())
    return out
