"""A byte corpus of the command line: one digest per invocation.

Each entry holds an argv and the sha256 of what `arclift.cli.main` gave
for it: exit code, stdout, stderr and, for `--out`, the report file.  The
argvs cover every subcommand and mode, in text and `--json`, on every
problem shipped when the corpus was recorded, plus a few error cases.
Paths are relative to the repository root, where the corpus is replayed.

Record it again (only for a change meant to alter printed bytes) with

    PYTHONPATH=src python tests/cli_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "cli_golden.json"
OUT = "{out}"  # argv placeholder for a report file in a fresh directory


def _invocations():
    from arclift import arcs
    from arclift.cli import build_model, load_problem

    argvs = []
    for path in sorted((REPO / "problems").glob("*.json")):
        rel = path.relative_to(REPO).as_posix()
        model = build_model(load_problem(rel))
        k = model.param_count
        zeros = ",".join(["0"] * k)
        arc = ",".join(str(y) for y in arcs.make_lift(model, (model.ring.zero(),) * k).y2)
        per_mode = [
            ["validate"],
            ["desingularize"],
            ["desingularize", "--out", OUT],
            ["lift"],
            ["lift", "--search-depth", "2"],
            ["lift", "--t-free", ",".join(["x^9"] * k)],
            ["lift", "--t-free", ",".join(["x^9"] * k), "--prec", "20"],
            ["lift", "--random", "1", "2"],
            ["lift", "--params", ",".join(["1"] * k)],
            ["lift", "--params", ",".join(["1"] * k), "--reference", zeros],
            ["extract", "--arc", arc],
            ["extract", "--arc", arc, "--reference", zeros],
            ["roundtrip", "--count", "3"],
            ["oracle", "--prec", "10"],
            ["oracle", "--prec", "10", "--samples", "0"],
        ]
        for cmd, *rest in per_mode:
            argvs.append([cmd, rel, *rest])
            argvs.append([cmd, rel, *rest, "--json"])
        argvs.append(["roundtrip", rel, "--count", "0"])
    argvs += [
        ["validate", "problems/no_such_file.json"],
        ["lift", "problems/cusp.json", "--t-free", "2x"],
        ["lift", "problems/cusp.json", "--t-free", "x^9", "--reference", "0"],
        ["lift", "problems/cusp.json", "--t-free", "x^9", "--search-depth", "3"],
    ]
    return [{"argv": argv} for argv in argvs]


def digest(argv) -> str:
    """sha256 over (exit code, stdout, stderr, report file) of one in-process run."""
    from arclift.cli import main

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        argv = [report if a == OUT else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = Path(report).read_text(encoding="utf-8") if os.path.exists(report) else None
    record = json.dumps([code, out.getvalue(), err.getvalue(), written])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def record() -> None:
    os.chdir(REPO)
    entries = _invocations()
    for entry in entries:
        entry["sha256"] = digest(entry["argv"])
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"recorded {len(entries)} invocations in {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    record()
