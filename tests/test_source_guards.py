"""Static guards over the package source."""

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import tiletopo

SRC = Path(tiletopo.__file__).parent
README = SRC.parent.parent / "README.md"
TESTS = Path(__file__).parent


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


def _package_imports() -> dict[str, set[str]]:
    """Each module of the package and the modules it imports relatively, at
    module level or inside a function."""
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = {
            name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])
        }
    return graph


def test_no_import_cycles():
    # the modules import each other in one direction only, so each can be
    # read, tested and loaded after the ones below it; a deferred import
    # inside a function still counts, since it only hides the cycle
    graph = _package_imports()
    done: set[str] = set()
    cycles = []

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycles.append(" -> ".join(path[path.index(module):] + [module]))
            return
        if module in done:
            return
        for target in sorted(graph.get(module, ())):
            visit(target, path + [module])
        done.add(module)

    for module in sorted(graph):
        visit(module, [])
    assert cycles == []


def test_no_module_level_memos():
    # the CLI runs one op per process, so a memo kept across calls can only
    # pay inside one call, where a local value does the same; the benchmark
    # would also have to reset each one between its in-process ops.
    # Per-object cached_property views are allowed
    memos = {"lru_cache", "cache"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name in memos
                ]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in memos
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                found.append(f"{path.name}:{node.lineno} functools.{node.attr}")
    assert found == []


def test_no_float_in_certifying_modules():
    # the modules that decide and certify compute in integers and Fractions
    # only; floats stay where they prefilter or print (geometry's sweep,
    # NumberField.to_float, render and cli)
    certifying = ("numsys", "neighbors", "automata", "topology", "chains", "contact")
    roots = {"sqrt", "hypot"}
    found = []
    for name in certifying:
        path = SRC / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                what = "/"
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                what = repr(node.value)
            elif isinstance(node, ast.Name) and node.id == "float":
                what = "float"
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in roots
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
            ):
                what = f"math.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                what = ", ".join(a.name for a in node.names if a.name in roots)
            else:
                continue
            if what:
                found.append(f"{path.name}:{node.lineno} {what}")
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
    # base of an attribute chain such as math.lcm) or listed in __all__
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


def _sketch_source() -> str:
    """The code block under the README's "Library sketch" heading."""
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_no_unreached_public_functions():
    # a module-level public function or class must be read somewhere in the
    # package outside its own body, be exported in __all__, or be named in
    # the README's library sketch; code that only the tests use lives in
    # tests/reference.py
    sketch = {
        node.id if isinstance(node, ast.Name) else node.name
        for node in ast.walk(ast.parse(_sketch_source()))
        if isinstance(node, (ast.Name, ast.alias))
    }
    defined, reads, exported = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exported |= _exported(tree)
        for top in tree.body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            }
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                owner = top.name
                defined.append((f"{path.name}:{top.lineno} {owner}", owner))
            reads.append((owner, names))
    found = [
        where
        for where, name in defined
        if name not in exported | sketch
        and not any(name in names for owner, names in reads if owner != name)
    ]
    assert found == []


def _kept_members() -> set[str]:
    """The ``Class.member`` names that open the bullets of the README's
    "Kept on purpose" entry, before each bullet's reason."""
    entry = README.read_text(encoding="utf-8").split("**Kept on purpose.**", 1)[1]
    entry = entry.split("\n\n**", 1)[0]
    return {
        name
        for line in entry.splitlines()
        if line.startswith("- ")
        for name in re.findall(r"`(\w+\.\w+)`", line.split(":", 1)[0])
    }


def _class_members(cls: ast.ClassDef):
    """(name, node) of each public method, property, cached property and
    annotated field of a class, and of each public ``self.x`` that its
    ``__init__`` sets."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and not sub.attr.startswith("_")
                ):
                    yield sub.attr, sub
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and not node.target.id.startswith("_")
        ):
            yield node.target.id, node


def test_every_class_member_is_read():
    # a public method, property, field or __init__ attribute of a class in
    # src/tiletopo must be read as an attribute somewhere in the package
    # outside its own body, be named in the README's library sketch, or be
    # on the README's "Kept on purpose" list with its reason.  The match is
    # by name: a member hidden by a same-named attribute of another class
    # (or of numpy) passes unseen
    sketch = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(ast.parse(_sketch_source()))
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    kept = _kept_members()
    members, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reads += [
            (node.attr, path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        ]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members += [
                    (f"{cls.name}.{name}", name, path.name, node)
                    for name, node in _class_members(cls)
                ]
    found = [
        f"{where}:{node.lineno} {qualified}"
        for qualified, name, where, node in members
        if name not in sketch
        and qualified not in kept
        and not any(
            attr == name and (path != where or not node.lineno <= line <= node.end_lineno)
            for attr, path, line in reads
        )
    ]
    assert found == []
    # and the list cannot outlive what it keeps
    assert kept - {qualified for qualified, *_ in members} == set()


def _names_read(tree: ast.AST) -> set[str]:
    """Names read as names or attributes, and names imported from
    ``reference``."""
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "reference":
            names |= {alias.name for alias in node.names}
    return names


def test_every_reference_definition_is_read():
    # tests/reference.py holds the oracles that left the package; each
    # top-level function or class there must be read by a test module, by
    # conftest.py or by another part of reference.py (its own body does not
    # count), so that an oracle no test reads any more does not stay behind
    reads = set()
    for path in sorted(TESTS.glob("*.py")):
        if path.name != "reference.py":
            reads |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    reference = ast.parse((TESTS / "reference.py").read_text(encoding="utf-8"))
    defined = [
        top for top in reference.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
    ]
    found = [
        f"reference.py:{top.lineno} {top.name}"
        for top in defined
        if top.name not in reads
        and not any(top.name in _names_read(other) for other in reference.body if other is not top)
    ]
    assert found == []


def test_library_sketch_runs():
    # the sketch is the library surface that the guard above trusts, so it
    # must run and give the values it shows
    scope: dict = {}
    exec(compile(_sketch_source(), "README.md", "exec"), scope)
    assert scope["cert"].value == (Fraction(-12, 11), Fraction(-2, 11))
    boundary_point, data, ordered = scope["boundary_point"], scope["data"], scope["ordered"]
    assert boundary_point(Fraction(0), data, ordered) == boundary_point(Fraction(1), data, ordered)
    assert abs(scope["polyline_hausdorff"](*scope["levels"]) - 0.9615758416) < 1e-9
    assert scope["stream"].getvalue() == scope["svg"]


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


def test_every_error_type_is_raised():
    # an error type of errors.py is raised somewhere in the package, or no
    # command can give it; the error types that only the tests' oracles
    # raise live in tests/reference.py beside them
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    errors = tiletopo.errors
    found = [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.TileError)
        and value is not errors.TileError
        and name not in raised
    ]
    assert found == []


_MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
    "remove", "reverse", "setdefault", "sort", "update",
    "difference_update", "intersection_update", "symmetric_difference_update",
}


def _root(node: ast.AST, through_calls: bool = False) -> str | None:
    """The name under a chain of subscripts and attributes (and of calls,
    if asked), or None if the chain starts elsewhere."""
    while True:
        if isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        elif through_calls and isinstance(node, ast.Call):
            node = node.func
        else:
            return node.id if isinstance(node, ast.Name) else None


def _bound_names(target: ast.AST) -> list[str]:
    """The names an assignment target binds, through tuple unpacking."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for elt in target.elts for n in _bound_names(elt)]
    if isinstance(target, ast.Starred):
        return _bound_names(target.value)
    return []


def _stores_into_parameters(source: str) -> list[tuple[str, int, str]]:
    """(function, line, what) for each write into a parameter of a function
    in ``source``: a store or del on a subscript or attribute, or a
    mutating method call, whose base is a parameter (``self`` and ``cls``
    left out) or a name bound from one, by a ``for`` target over it or by a
    plain subscript or attribute read of it."""
    hits = []

    def visit(scope: list[str], body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                check(".".join(scope + [node.name]), node)
                visit(scope + [node.name], node.body)
            elif isinstance(node, ast.ClassDef):
                visit(scope + [node.name], node.body)

    def check(name: str, func: ast.FunctionDef) -> None:
        args = func.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        bound = {a.arg for a in every if a is not None} - {"self", "cls"}
        nodes = list(ast.walk(func))
        grown = True
        while grown:  # names bound from parameters, until none is added
            before = len(bound)
            for node in nodes:
                if isinstance(node, ast.For) and _root(node.iter, through_calls=True) in bound:
                    targets = [node.target]
                elif (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, (ast.Subscript, ast.Attribute))
                    and _root(node.value) in bound
                ):
                    targets = node.targets
                else:
                    continue
                bound |= {n for t in targets for n in _bound_names(t)}
            grown = len(bound) > before
        for node in nodes:
            if (
                isinstance(node, (ast.Subscript, ast.Attribute))
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and _root(node) in bound
            ):
                hits.append((name, node.lineno, ast.unparse(node)))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
                and _root(node.func.value) in bound
            ):
                hits.append((name, node.lineno, ast.unparse(node.func)))

    visit([], ast.parse(source).body)
    return sorted(hits)


# function -> why it writes into what it is given
_WRITES_INTO_PARAMETERS = {
    "algebraic.NumberField.reduce": "reduces the list it is given in place, its callers' scratch",
}


def test_no_stores_into_parameters():
    # a check reads what it checks and a report writes what it reports: a
    # function that writes into an argument changes its caller's data
    # elsewhere, as _check_cycle_pattern once wrote its expected addresses
    # into the matrix it checked.  The allowed writers are named above
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for name, line, what in _stores_into_parameters(path.read_text(encoding="utf-8")):
            found.setdefault(f"{path.stem}.{name}", []).append(f"{path.name}:{line} {what}")
    assert {name: hits for name, hits in found.items() if name not in _WRITES_INTO_PARAMETERS} == {}
    assert set(_WRITES_INTO_PARAMETERS) <= set(found)


def test_store_scan_sees_writes_through_bound_names():
    source = (
        "def check(matrix, rows, n):\n"
        "    for (l1, l2), cell in matrix.items():\n"
        "        cell['addresses'] = []\n"
        "    row = rows[0]\n"
        "    row.append(n)\n"
        "    local = {}\n"
        "    local['x'] = rows[2]\n"
        "    local['y'].append(n)\n"
        "    del rows[1:]\n"
        "    copy = list(rows)\n"
        "    copy.append(n)\n"
    )
    assert _stores_into_parameters(source) == [
        ("check", 3, "cell['addresses']"),
        ("check", 5, "row.append"),
        ("check", 9, "rows[1:]"),
    ]
