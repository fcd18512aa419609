"""Record the correctness gate: every op each workload can draw.

For each op this stores the argv, the sampling unit it belongs to, the exit
status (or escaping exception type), a digest of stdout plus every --out
file, and its wall time, which sampling uses to group ops of similar cost.
The record is taken once, at the commit that introduced the benchmark, and
never regenerated to make a later commit pass.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import random
import sys

import ops

WALKS_PER_PAIR = 3
# boundary level: the smallest n with at least this many walks
BOUNDARY_MIN_WALKS = 1000
BOUNDARY_MAX_LEVEL = 12


def _pairs(b_max: int):
    for b in range(2, b_max + 1):
        for a in range(1, b + 1):
            yield a, b


def certify_ops():
    for a, b in _pairs(20):
        yield f"neighbors {a},{b}", ["neighbors", "--A", str(a), "--B", str(b), "--check", "--format", "json"]
    for a, b in _pairs(20):
        if 2 * a - b >= 5:
            yield f"cutpoint {a},{b}", ["cutpoint", "--A", str(a), "--B", str(b), "--out", ops.OUT_DIR]
    for b in range(5, 24, 2):
        a = (b + 3) // 2
        yield f"verify-chains {a},{b}", ["verify-chains", "--A", str(a), "--B", str(b), "--out", ops.OUT_DIR]


def boundary_level(a: int, b: int) -> int | None:
    from tiletopo.contact import build_contact_graph, count_walks
    from tiletopo.numsys import TileParams

    graph = build_contact_graph(TileParams(a, b))
    for n in range(BOUNDARY_MAX_LEVEL + 1):
        if count_walks(graph, n) >= BOUNDARY_MIN_WALKS:
            return n
    return None


def boundary_ops():
    for a, b in _pairs(12):
        n = boundary_level(a, b)
        if n is None:  # growth too slow to reach the band by the level cap
            continue
        base = ["--A", str(a), "--B", str(b), "--n", str(n)]
        yield f"approx {a},{b}", ["approx", *base]
        for kind in ("boundary", "patch"):
            yield f"render-{kind} {a},{b}", ["render", *base, "--kind", kind, "--out", ops.OUT_DIR]


def random_walk(ordered, k: int) -> str:
    """The k-th valid walk 'start;pre;period' in an ordered contact graph.

    Each letter must index an edge of the state it leaves, including on
    every pass through the periodic tail until (state, phase) repeats."""
    params = ordered.graph.params
    rng = random.Random(f"walk:{params.a}:{params.b}:{k}")
    top = max(ordered.out_count(s) for s in range(1, 7))
    start = rng.randint(1, 6)
    state = start
    pre = []
    for _ in range(rng.randint(0, 4)):
        letter = rng.randint(1, ordered.out_count(state))
        pre.append(letter)
        state = ordered.edge_at(state, letter)[3]
    for _ in range(100):
        period = [rng.randint(1, top) for _ in range(rng.randint(1, 3))]
        if _period_valid(ordered, state, period):
            break
    else:
        period = [1]
    return f"{start};{','.join(map(str, pre))};{','.join(map(str, period))}"


def _period_valid(ordered, state: int, period: list[int]) -> bool:
    seen = set()
    phase = 0
    while (state, phase) not in seen:
        seen.add((state, phase))
        if period[phase] > ordered.out_count(state):
            return False
        state = ordered.edge_at(state, period[phase])[3]
        phase = (phase + 1) % len(period)
    return True


def param_ops():
    from tiletopo.contact import build_contact_graph, derive_order_extension
    from tiletopo.numsys import TileParams

    for a, b in _pairs(40):
        ordered = derive_order_extension(build_contact_graph(TileParams(a, b)))
        walks: list[str] = []
        k = 0
        while len(walks) < WALKS_PER_PAIR:
            walk = random_walk(ordered, k)
            k += 1
            if walk not in walks:  # redraw so each pair has distinct walks
                walks.append(walk)
        for walk in walks:
            yield f"{a},{b}", ["param", "--A", str(a), "--B", str(b), "--walk", walk, "--format", "json"]


UNIVERSES = {
    "certify": certify_ops,
    "boundary": boundary_ops,
    "param": param_ops,
}


def record(cli, workload: str) -> list[dict]:
    items = []
    for unit, argv in UNIVERSES[workload]():
        res = ops.run_op(cli, argv)
        items.append(
            {
                "argv": argv,
                "unit": unit,
                "outcome": res.outcome,
                "sha": res.digest,
                "cost": round(res.seconds, 4),
            }
        )
        print(workload, unit, res.outcome, f"{res.seconds:.3f}s", file=sys.stderr, flush=True)
    return items


def main() -> int:
    os.chdir(ops.ROOT)
    cli = ops.import_tiletopo()
    import numpy  # noqa: F401  imported up front so no op pays for it
    import sympy  # noqa: F401

    recorded = {w: record(cli, w) for w in UNIVERSES}
    write_expected(str(ops.EXPECTED), recorded)
    return 0


def write_expected(path: str, recorded: dict[str, list[dict]]) -> None:
    """One op per line, so that a diff of the record stays readable."""
    blocks = []
    for workload, items in recorded.items():
        rows = ",\n".join(json.dumps(item, separators=(",", ":")) for item in items)
        blocks.append(f"{json.dumps(workload)}: [\n{rows}\n]")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"schema": "perfbench/expected@1", "workloads": {\n')
        fh.write(",\n".join(blocks) + "\n}}\n")


if __name__ == "__main__":
    raise SystemExit(main())
