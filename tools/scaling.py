"""Time CLI commands on ladders of growing B, to see how each grows.

    python3 tools/scaling.py [--checkout DIR] [LADDER ...]

DIR is a checkout of the repository (a directory holding ``src/tiletopo``);
it defaults to the one this script lies in.  Each LADDER is one of the
names below; without any, every ladder runs.

    param-walk        param --walk "2;1,1;1" at (B/2, B), B = 25 ... 25,600
    param-t           param --t 1/2 at (B/2, B), B = 25 ... 25,600
    neighbors         neighbors --check at (B-2, B), B = 25 ... 6,400
    neighbors-square  neighbors --check at (B, B), B = 25 ... 6,400
    cutpoint          cutpoint at (B-2, B), B = 25 ... 6,400
    verify-chains     verify-chains at (A, 2A-3), B = 11 ... 161
    approx            approx --n 3 at (B/2, B), B = 2, 5, 10, 20, 40
    render-patch      render --kind patch --n 3 at (B/2, B), B = 2, 5, 10, 20, 40

Each ladder doubles B (verify-chains roughly doubles it, as B stays odd;
approx and render-patch from B = 5 on).  The approx and render-patch
ladders hold the level n fixed, so the polygon grows with B: 22 vertices at
B = 2 and 65,838 at B = 40.  The two neighbors ladders bracket the
certified ball: about 4B/3 points at (B-2, B) and 4B + 7 at (B, B).
For each ladder one fresh interpreter, started in DIR, imports that
checkout's package and runs each rung once to warm up and then
``REPEAT`` (3) more times, timing only the ``cli.main`` call with stdout
counted and not kept.  The printout gives, per rung, the fastest time, the
bytes printed, the exit code, and the growth exponent log(t2/t1) /
log(B2/B1) fitted between the rung and the one below it.  The approx and
render-patch ladders also give the peak memory that ``tracemalloc`` traced
in the untimed warm-up run, the whole command with its polygon, so that
memory growth in B shows next to time.  Nothing is written to the checkout,
not even bytecode caches.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 3  # timed runs per rung; the fastest is kept
TRACED = {"approx", "render-patch"}  # ladders whose warm-up run is traced


def _halves(b: int) -> list[str]:
    return ["--A", str(b // 2), "--B", str(b)]


def _near(b: int) -> list[str]:
    return ["--A", str(b - 2), "--B", str(b)]


def _square(b: int) -> list[str]:
    return ["--A", str(b), "--B", str(b)]


DOUBLING = [25 * 2**k for k in range(11)]  # 25 ... 25,600
SMALL = [2, 5, 10, 20, 40]  # the benchmark's range of B
JSON = ["--format", "json"]
LADDERS = {
    "param-walk": [(b, ["param", *_halves(b), "--walk", "2;1,1;1", *JSON]) for b in DOUBLING],
    "param-t": [(b, ["param", *_halves(b), "--t", "1/2", *JSON]) for b in DOUBLING],
    "neighbors": [(b, ["neighbors", *_near(b), "--check", *JSON]) for b in DOUBLING[:9]],
    "neighbors-square": [(b, ["neighbors", *_square(b), "--check", *JSON]) for b in DOUBLING[:9]],
    "cutpoint": [(b, ["cutpoint", *_near(b), *JSON]) for b in DOUBLING[:9]],
    "verify-chains": [
        (2 * a - 3, ["verify-chains", "--A", str(a), "--B", str(2 * a - 3), *JSON])
        for a in (7, 12, 22, 42, 82)
    ],
    "approx": [(b, ["approx", *_halves(b), "--n", "3"]) for b in SMALL],
    "render-patch": [(b, ["render", *_halves(b), "--n", "3", "--kind", "patch"]) for b in SMALL],
}

# run in the checkout: argv[1] is REPEAT, argv[2] a JSON list of argv
# lists, argv[3] "1" to trace the warm-up runs; prints a JSON list of
# [fastest seconds, stdout bytes, exit code, traced peak bytes or 0]
WORKER = """
import contextlib, gc, io, json, sys, time, tracemalloc
sys.dont_write_bytecode = True
sys.path.insert(0, "src")
import tiletopo.cli as cli
import tiletopo.render  # numpy's import is in no rung's trace
repeat, argvs, traced = int(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3] == "1"

class Sink(io.TextIOBase):
    size = 0

    def write(self, text):
        self.size += len(text.encode())
        return len(text)

def run(argv):
    out = Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return seconds, out.size, code

rows = []
for argv in argvs:
    if traced:
        tracemalloc.start()
    _, size, code = run(argv)
    peak = tracemalloc.get_traced_memory()[1]  # 0 when not tracing
    tracemalloc.stop()
    gc.collect()
    rows.append([min(run(argv)[0] for _ in range(repeat)), size, code, peak])
print(json.dumps(rows))
"""


def time_ladder(checkout: Path, rungs: list[tuple[int, list[str]]], traced: bool) -> list[list]:
    argvs = json.dumps([argv for _, argv in rungs])
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(REPEAT), argvs, str(int(traced))],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker failed in {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("ladders", nargs="*", metavar="LADDER", help=", ".join(LADDERS))
    args = parser.parse_args(argv)
    unknown = [name for name in args.ladders if name not in LADDERS]
    if unknown:
        parser.error(f"unknown ladder {unknown[0]!r}; choose from {', '.join(LADDERS)}")
    for name in args.ladders or LADDERS:
        rungs = LADDERS[name]
        traced = name in TRACED
        rows = time_ladder(args.checkout, rungs, traced)
        print(f"{name}: {' '.join(rungs[-1][1])}")
        peak_head = f" {'peak MB':>9}" if traced else ""
        print(f"{'B':>8} {'best ms':>10}{peak_head} {'bytes':>9} {'rc':>3} {'exponent':>9}")
        for k, ((b, _), (seconds, size, code, peak)) in enumerate(zip(rungs, rows)):
            exponent = ""
            if k:
                (b0, _), s0 = rungs[k - 1], rows[k - 1][0]
                exponent = f"{math.log(seconds / s0) / math.log(b / b0):.2f}"
            peak_mb = f" {peak / 1e6:>9.2f}" if traced else ""
            print(f"{b:>8} {seconds * 1e3:>10.3f}{peak_mb} {size:>9} {code:>3} {exponent:>9}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
