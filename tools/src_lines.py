"""Count the code lines of the package: lines that hold a token other than a
comment, leaving out docstrings, comments and blank lines.

    python3 tools/src_lines.py [PACKAGE_DIR]

prints one count per module and the total.  PACKAGE_DIR defaults to
src/tiletopo next to this script.  Only the standard library is used:
``tokenize`` finds the lines that carry code, and ``ast`` finds the
docstrings (the leading string of a module, class or function body).
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = {
        line
        for tok in tokens
        if tok.type not in NOT_CODE
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    return len(lines - docstring_lines(ast.parse(path.read_bytes(), filename=str(path))))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "tiletopo"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
