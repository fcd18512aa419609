"""Running one CLI op in-process and checking its output against the record.

An op is one ``tiletopo`` command line.  It runs through ``cli.main(argv)``
in this process with stdout and stderr captured; its output is the stdout
bytes plus every file it wrote under the op's ``--out`` directory.  The
correctness gate compares each op with ``expected.json``, which holds the
exit status and output digest of every op a workload can draw, recorded at
the commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
# --out target of every op, relative to ROOT so printed paths are the same
# wherever the checkout lives
OUT_DIR = ".perfbench_out/op"


class BenchSetupError(Exception):
    """The checkout cannot run the benchmark (no sources, wrong import)."""


def import_tiletopo():
    """Import the package from ``ROOT/src`` and nowhere else."""
    if not (SRC / "tiletopo" / "cli.py").is_file():
        raise BenchSetupError(f"no tiletopo sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tiletopo.cli

    origin = Path(tiletopo.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchSetupError(f"tiletopo imported from {origin}, not {SRC}")
    return tiletopo.cli


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class OpResult:
    argv: list[str]
    seconds: float
    outcome: str  # "rc=<code>" or "raise:<ExceptionType>"
    digest: str
    stdout: bytes
    out_bytes: int


def clear_caches() -> None:
    """Give the next op the caches of a fresh process.

    Every memoized function in the package is cleared, and so is sympy's
    expression cache once sympy has been imported."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tiletopo" or name.startswith("tiletopo.")):
            continue
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()
    if "sympy" in sys.modules:
        from sympy.core.cache import clear_cache

        clear_cache()


def _digest(stdout: bytes, files: list[tuple[str, bytes]]) -> str:
    h = hashlib.sha256()
    h.update(len(stdout).to_bytes(8, "little"))
    h.update(stdout)
    for name, data in files:
        h.update(name.encode())
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()[:32]


def run_op(cli, argv: list[str]) -> OpResult:
    """Run one op after resetting its output directory and the caches.

    Only the ``cli.main`` call is timed.  ``cli.main`` is looked up at call
    time so that a traced run sees its wrapper."""
    out = ROOT / OUT_DIR
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    clear_caches()
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            outcome = f"rc={cli.main(argv)}"
        except Exception as exc:  # an escaping exception is the op's result
            outcome = f"raise:{type(exc).__name__}"
        seconds = time.perf_counter() - t0
    files = sorted(
        (p.relative_to(out).as_posix(), p.read_bytes()) for p in out.rglob("*") if p.is_file()
    )
    data = stdout.getvalue().encode("utf-8")
    return OpResult(
        argv,
        seconds,
        outcome,
        _digest(data, files),
        data,
        len(data) + sum(len(b) for _, b in files),
    )


def _param_matches_library(argv: list[str], stdout: bytes) -> bool:
    """Check a ``param --walk`` op that failed when recorded.

    The printed walk, address and value are recomputed from ``psi`` and
    ``point_eval``; neither needs the Perron data that the recorded failure
    came from, so a later fix can pass."""
    from tiletopo.contact import Walk, build_contact_graph, derive_order_extension, psi
    from tiletopo.numsys import TileParams, format_address, point_eval

    opts = dict(zip(argv[1::2], argv[2::2]))
    params = TileParams(int(opts["--A"]), int(opts["--B"]))
    head, pre, per = opts["--walk"].split(";")
    walk = Walk(
        int(head),
        tuple(int(x) for x in pre.split(",") if x),
        tuple(int(x) for x in per.split(",") if x),
    )
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    addr = psi(walk, derive_order_extension(build_contact_graph(params)))
    value = point_eval(addr, params)
    return (
        got.get("walk") == {"start": walk.start, "pre": list(walk.pre), "period": list(walk.period)}
        and got.get("address") == format_address(addr)
        and got.get("value") == [str(value[0]), str(value[1])]
    )


def judge(result: OpResult, expected: dict) -> tuple[bool, bool]:
    """Return (failed, incorrect) for one op.

    An op fails if it raises, exits with another status than recorded, or
    its output digest differs.  An op that raises exactly as recorded is a
    known failure: failed but not incorrect.  An op recorded as raising that
    now succeeds passes if ``param`` output matches the library."""
    if result.outcome == expected["outcome"]:
        if result.outcome.startswith("raise:"):
            return True, False
        ok = result.digest == expected["sha"]
        return not ok, not ok
    if (
        expected["outcome"].startswith("raise:")
        and result.outcome == "rc=0"
        and result.argv[0] == "param"
        and _param_matches_library(result.argv, result.stdout)
    ):
        return False, False
    return True, True
