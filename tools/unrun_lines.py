"""List the lines of the package that the Tier-1 suite never runs.

    python3 tools/unrun_lines.py

runs the Tier-1 suite (pytest on ``tests/``) in this process under a
``sys.settrace`` line tracer that records only frames whose code lies in
src/tiletopo, then prints, per module, the executable lines that never ran
and their count, and the total.  Executable lines are the line numbers of
the compiled code objects, nested ones included, so docstrings, comments and
blank lines do not count.  Tests that start a subprocess run the package
there, untraced, so lines that only such tests reach are listed too.  Only
the standard library and pytest are used; the tracing makes the suite
several times slower.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiletopo"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that carry bytecode in the module or any function or
    class body it defines."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Run Tier-1 in process with the line tracer; return pytest's exit
    code and the lines run, per package file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def outer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(outer)
    sys.settrace(outer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    code, ran = run_traced()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        unrun = sorted(executable_lines(path) - ran.get(str(path), set()))
        total += len(unrun)
        listing = ", ".join(map(str, unrun))
        print(f"{path.name:16} {len(unrun):4}  {listing}")
    print(f"{'total':16} {total:4}")
    print(f"pytest exit code {code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
