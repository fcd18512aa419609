"""Compare the time of CLI ops between two checkouts, op by op.

    python3 tools/ab_ops.py BASE CHANGE [--rounds 10] [--repeat 5] [OP ...]

BASE and CHANGE are two checkouts of the repository (directories holding
``src/tiletopo`` and ``perfbench/ops.py``).  Each OP is one command line in
quotes, as ``perfbench/expected.json`` records it, such as
``"verify-chains --A 12 --B 21 --out .perfbench_out/op"``; without any, the
six ``verify-chains`` ops that a 20-second ``certify`` run draws are timed.

Each round starts one fresh interpreter per checkout, in that checkout, and
alternates which of the two goes first.  The interpreter imports the
checkout's own ``perfbench/ops.py`` and package, runs every op once to warm
up, and then times each op ``--repeat`` times with ``ops.run_op``, which
times only the ``cli.main`` call, as the benchmark does.  The round keeps
each op's fastest repeat.  The printout gives, per op, the median over the
rounds of those times for each checkout, and the ratio CHANGE / BASE, with
its quartiles over the rounds' ratios; the last line is the mean of the six
(or given) ops, which is what the benchmark's tail metric averages when
these ops are its slowest.  Nothing in either checkout is written to except
the ``.perfbench_out`` directory that ``ops.run_op`` uses.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_OPS = [
    f"verify-chains --A {a} --B {b} --out .perfbench_out/op"
    for a, b in ((5, 7), (6, 9), (7, 11), (10, 17), (11, 19), (12, 21))
]

# run in the checkout: argv[1] is the repeat count, argv[2] a JSON list of
# argv lists; prints a JSON list of each op's fastest time
WORKER = """
import gc, json, sys
sys.path.insert(0, "perfbench")
import ops
cli = ops.import_tiletopo()
repeat, argvs = int(sys.argv[1]), json.loads(sys.argv[2])
for argv in argvs:
    ops.run_op(cli, argv)
gc.collect()
gc.freeze()
best = [min(ops.run_op(cli, argv).seconds for _ in range(repeat)) for argv in argvs]
print(json.dumps(best))
"""


def time_ops(checkout: Path, argvs: list[list[str]], repeat: int) -> list[float]:
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(repeat), json.dumps(argvs)],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("ops", nargs="*", default=DEFAULT_OPS)
    args = parser.parse_intermixed_args(argv)
    argvs = [op.split() for op in args.ops]
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    times: dict[str, list[list[float]]] = {"base": [], "change": []}
    for r in range(args.rounds):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for side in order:
            times[side].append(time_ops(checkouts[side], argvs, args.repeat))
        print(f"round {r + 1}/{args.rounds} done ({order[0]} first)", file=sys.stderr)
    width = max(len(op) for op in args.ops)
    print(f"{'op':<{width}} {'base ms':>9} {'change ms':>10} {'ratio':>7}  ratio quartiles")
    rows = list(enumerate(args.ops)) + [(None, "mean of the ops")]
    for k, name in rows:
        def per_round(side: str) -> list[float]:
            if k is None:
                return [statistics.fmean(t) for t in times[side]]
            return [t[k] for t in times[side]]

        base, change = per_round("base"), per_round("change")
        ratios = [c / b for b, c in zip(base, change)]
        lo, hi = quartiles(ratios)
        print(
            f"{name:<{width}} {1e3 * statistics.median(base):>9.2f} "
            f"{1e3 * statistics.median(change):>10.2f} "
            f"{statistics.median(ratios):>7.3f}  {lo:.3f}-{hi:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
