"""Static guards over the package source."""

import ast
import sys
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


def test_imports_are_stdlib_numpy_or_the_package():
    # numpy is the one declared dependency; anything else (sympy, say) would
    # be an import the package does not declare
    allowed = set(sys.stdlib_module_names) | {"numpy", "tiletopo"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert found == []


def _module_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module-level imports, with their line numbers."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def test_no_unused_module_imports():
    # a name counts as used when it is read as a name (which covers the
    # base of an attribute chain such as linalg.mat_vec) or listed in __all__
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        found += [
            f"{path.name}:{line} {name}"
            for name, line in _module_imports(tree).items()
            if name not in used
        ]
    assert found == []


def test_no_uncalled_private_functions():
    # a module-level _name function or class must be read somewhere in the
    # package outside its own body; reads inside it (recursion) do not count
    defined, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            }
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name.startswith("_"):
                owner = top.name
                defined.append((f"{path.name}:{top.lineno} {owner}", owner))
            reads.append((owner, names))
    found = [
        where
        for where, name in defined
        if not any(name in names for owner, names in reads if owner != name)
    ]
    assert found == []


def test_no_silently_swallowed_exceptions():
    # a handler whose whole body is `pass` hides the failure it caught; a
    # handler acts on the exception, re-raises or returns a value instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and all(isinstance(stmt, ast.Pass) for stmt in node.body)
        ]
    assert found == []
