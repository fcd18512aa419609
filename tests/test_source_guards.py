"""Static guards over the package source."""

import ast
from pathlib import Path

import tiletopo

SRC = Path(tiletopo.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a certified check written as
    # one would silently vanish; checks raise typed errors instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
