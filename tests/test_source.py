"""Guards on the package source itself."""

import ast
import importlib.util
import sys

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


def test_the_jet_oracle_imports_only_the_standard_library_errors_and_record():
    """The oracle cross-checks the construction from below, so oracle.py may import
    nothing of it: every import statement, at any depth, names a standard-library
    module, `.errors` or `.record`.  That covers every function the module has or
    gains, with no list of names."""
    path = helpers.REPO / "src" / "arclift" / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            imported += [dots + alias.name for alias in node.names] if node.module is None else [dots + node.module]
    outside = [
        name for name in imported
        if name not in {".errors", ".record"}
        and (name.startswith(".") or name.partition(".")[0] not in sys.stdlib_module_names)
    ]
    assert {".errors", ".record"} <= set(imported)
    assert outside == []


def _top_level_names(module: str) -> set:
    """The classes, functions and plain assignments a package module defines at top level."""
    path = helpers.REPO / "src" / "arclift" / f"{module}.py"
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return names


def test_arcs_reexports_the_oracle_it_does_not_define():
    """arcs keeps the oracle's names for the CLI and the bench tracer, bound to oracle's objects."""
    from arclift import arcs, oracle

    assert arcs.oracle_enumerate is oracle.oracle_enumerate
    assert arcs.JetSet is oracle.JetSet
    assert {"JetSet", "oracle_enumerate"} <= _top_level_names("oracle")
    assert _top_level_names("arcs") & _top_level_names("oracle") == set()
