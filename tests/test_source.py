"""Guards on the package source itself."""

import ast

import helpers


def test_no_assert_statements_in_the_package():
    """Runtime contracts raise exceptions, so they survive `python -O`."""
    found = []
    for path in sorted((helpers.REPO / "src" / "arclift").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
