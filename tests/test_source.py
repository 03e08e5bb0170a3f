"""Guards on the package source itself."""

import ast
import importlib.util

import helpers


def test_no_assert_statements_in_the_package():
    """Runtime contracts raise exceptions, so they survive `python -O`."""
    found = []
    for path in sorted((helpers.REPO / "src" / "arclift").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_linear_algebra_routine_calls_itself():
    """Determinants are memoised and built bottom-up, not recursive.

    A recursive expansion costs O(n!) and the memoised one n * 2^n, so the
    n x n bordered H is never formed: its det is read off its r x r block.
    """
    path = helpers.REPO / "src" / "arclift" / "linalg.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    recursive = [
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == fn.name
    ]
    assert recursive == []


def test_no_module_does_arithmetic_through_a_field():
    """A field only reads scalars (coerce, from_pair); sums and products are the scalars' own."""
    banned = {"add", "mul", "neg", "inv", "is_zero"}
    found = []
    for path in sorted((helpers.REPO / "src" / "arclift").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                name = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if node.func.attr in banned and name == "field":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_name_the_bench_tracer_wraps_exists():
    """perfbench/tracing.py patches arclift by (owner, attribute); a renamed stage fails here."""
    path = helpers.REPO / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner.__name__}.{attr}"
        for _, places, _ in tracing._targets()
        for owner, attr in places
        if attr not in vars(owner)
    ]
    assert missing == []


def test_the_jet_oracle_loads_no_name_from_the_construction():
    """The oracle cross-checks the construction from below, so the bodies of its parts
    load no name arcs.py imports from linalg, desing, polyring or ring.  Annotations
    are skipped: under `from __future__ import annotations` they are never evaluated."""
    path = helpers.REPO / "src" / "arclift" / "arcs.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    construction = {"linalg", "desing", "polyring", "ring"}
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module in construction or (node.module is None and alias.name in construction):
                    imported.add(alias.asname or alias.name)
    assert {"linalg", "Problem", "PolyMatrix", "Series"} <= imported
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, ast.FunctionDef):
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    parts = {"JetSet", "_key", "_digits", "_times", "_tops", "_row_reduce", "oracle_enumerate"}
    defs = [node for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in parts]
    assert {node.name for node in defs} == parts
    loaded = sorted(
        f"{d.name}:{node.lineno}:{node.id}"
        for d in defs
        for node in ast.walk(d)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported
    )
    assert loaded == []
