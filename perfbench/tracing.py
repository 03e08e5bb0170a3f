"""Spans and counters recorded around calls into arclift, from outside src/.

`install` replaces each traced function where its callers look it up: a
method on a class (Series.__mul__), a module attribute (arcs calls
`linalg.det`), or a name another module imported (cli imports
`build_model`).  Every replacement is one shared wrapper that records a span
(name, start, end, parent, op id) while the tracer is enabled; `uninstall`
puts the originals back.  Self time is a span's duration minus the time its
child spans cover, accumulated as spans close.  Spans stay in memory in
column arrays and are written out once, by `write`.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "op": array("i"),
        }
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span index, child seconds, name]

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, value=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def inside(self, name: str) -> bool:
        """True when a span called `name` is open."""
        return any(frame[2] == name for frame in self._stack)

    def call(self, name, fn, after, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        cols = self.cols
        idx = len(cols["end"])
        cols["name"].append(self._name_id(name))
        cols["parent"].append(self._stack[-1][0] if self._stack else -1)
        cols["op"].append(self.op)
        cols["end"].append(0.0)
        frame = [idx, 0.0, name]
        self._stack.append(frame)
        start = time.perf_counter()
        cols["start"].append(start)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            cols["end"][idx] = end
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
        if after is not None:
            after(self, args, result)
        return result

    def export(self) -> dict:
        """Everything recorded, as plain JSON-able data (sent up by CLI children)."""
        out = {key: list(col) for key, col in self.cols.items()}
        out.update(names=self.names, calls=self.calls, self_s=self.self_s, counters=self.counters)
        return out

    def merge(self, data: dict, op: int) -> None:
        """Add another tracer's export, relabelling its spans with `op`."""
        base = len(self.cols["end"])
        ids = [self._name_id(nm) for nm in data["names"]]
        self.cols["name"].extend(ids[i] for i in data["name"])
        self.cols["start"].extend(data["start"])
        self.cols["end"].extend(data["end"])
        self.cols["parent"].extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.cols["op"].extend(op for _ in data["op"])
        for key, v in data["calls"].items():
            self.calls[key] = self.calls.get(key, 0) + v
        for key, v in data["self_s"].items():
            self.self_s[key] = self.self_s.get(key, 0.0) + v
        for key, v in data["counters"].items():
            self.count(key, v)

    def write(self, path) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names, "columns": {key: list(col) for key, col in self.cols.items()}}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def _after_hensel(tracer, args, result):
    tracer.count("arcs.hensel.iterations", result.iterations)
    tracer.count("arcs.hensel.k0", result.k0)


def _after_make_lift(tracer, args, result):
    if tracer.inside("arcs.strict_ref"):
        tracer.count("arcs.strict_ref.lifts")


def _after_oracle(tracer, args, result):
    problem, m = args[0], args[1]
    width = m - 2 * problem.c - 1
    tracer.count("arcs.oracle.candidates", problem.ring.field.p ** (problem.n * width))
    tracer.count("arcs.oracle.members", result.count)


def _targets():
    """(span name, [(owner, attribute), ...], after-hook) for every traced function."""
    from arclift import arcs, cli, desing, linalg, polyring, ring

    return [
        ("ring.mul", [(ring.Series, "__mul__")], None),
        ("ring.add", [(ring.Series, "__add__")], None),
        ("ring.div_exact", [(ring.Series, "div_exact")], None),
        ("ring.inv_unit", [(ring.Series, "inv_unit")], None),
        ("polyring.eval", [(polyring.Poly, "eval")], None),
        ("polyring.subst", [(polyring.Poly, "subst")], None),
        ("polyring.mul", [(polyring.Poly, "__mul__")], None),
        ("polyring.matrix_det", [(polyring.PolyMatrix, "det")], None),
        ("linalg.det", [(linalg, "det")], None),
        ("linalg.adjugate", [(linalg, "adjugate")], None),
        ("linalg.mat_vec", [(linalg, "mat_vec")], None),
        ("linalg.solve_linear", [(linalg, "solve_linear")], None),
        ("desing.validate", [(desing, "validate_problem"), (cli, "validate_problem")], None),
        ("desing.normalize", [(desing, "normalize_certificate")], None),
        ("desing.border", [(desing, "build_border")], None),
        ("desing.compute_g", [(desing, "compute_g")], None),
        ("desing.taylor", [(desing, "taylor_decompose")], None),
        ("desing.build_model", [(desing, "build_model"), (cli, "build_model")], None),
        ("desing.verify_model", [(desing, "verify_model"), (cli, "verify_model")], None),
        ("arcs.hensel", [(arcs, "hensel_solve")], _after_hensel),
        ("arcs.make_lift", [(arcs, "make_lift")], _after_make_lift),
        ("arcs.offset_lift", [(arcs, "offset_lift")], None),
        ("arcs.extract_t", [(arcs, "extract_t")], None),
        ("arcs.extract_params", [(arcs, "extract_params")], None),
        ("arcs.strict_ref", [(arcs, "find_strict_reference")], None),
        ("arcs.oracle", [(arcs, "oracle_enumerate")], _after_oracle),
        ("cli.load_problem", [(cli, "load_problem")], None),
        ("cli.main", [(cli, "main")], None),
    ]


def _wrap(tracer, name, fn, after):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, after, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every traced function; returns what `uninstall` needs to undo it."""
    saved = []
    for name, places, after in _targets():
        owner, attr = places[0]
        original = owner.__dict__[attr]
        wrapper = _wrap(tracer, name, original, after)
        for owner, attr in places:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
