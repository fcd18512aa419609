"""Seeded, cost-stratified op lists drawn from the recorded universes.

A workload's universe is every op in ``expected.json`` for it.  Ops are
grouped into units (one op each, except ``param``, whose unit is an (A, B)
pair with several recorded walks).  Units are split into strata by command,
render kind and recorded outcome; within a stratum they are sorted by
recorded cost and cut into contiguous blocks, one per op, and each block
contributes the unit whose cost is nearest the block's median.  The seed
orders the ops and picks the walk of each ``param`` pair.

So every run of a workload at one ``--seconds`` runs the same instances with
the same cost profile and the same share of each stratum.  Picking a random
unit per block instead moved a 9-op ``boundary`` run's median op time by 38%
between seeds on a 2-vCPU virtual machine.  No instance repeats within a run.
"""

from __future__ import annotations

import random
import statistics
from collections import defaultdict

WORKLOADS = ("certify", "boundary", "param")


def stratum(item: dict) -> str:
    argv = item["argv"]
    kind = argv[argv.index("--kind") + 1] if "--kind" in argv else ""
    known_failure = item["outcome"].startswith("raise:")
    return f"{argv[0]}:{kind}:{'raises' if known_failure else 'ok'}"


def _blocks(seq: list, n: int) -> list[list]:
    cuts = [round(i * len(seq) / n) for i in range(n + 1)]
    return [seq[cuts[i] : cuts[i + 1]] for i in range(n)]


def op_list(workload: str, items: list[dict], seed: int, budget_s: float) -> list[dict]:
    """Ops whose recorded costs add up to about ``budget_s`` seconds."""
    rng = random.Random(f"{workload}:{seed}")
    units: dict[str, list[dict]] = defaultdict(list)
    for item in items:
        units[item["unit"]].append(item)

    def cost(unit: str) -> float:
        return sum(i["cost"] for i in units[unit]) / len(units[unit])

    strata: dict[str, list[str]] = defaultdict(list)
    for unit, members in units.items():
        strata[stratum(members[0])].append(unit)
    frac = min(1.0, budget_s / sum(cost(u) for u in units))
    chosen = []
    for key in sorted(strata):
        ranked = sorted(strata[key], key=lambda u: (cost(u), u))
        for block in _blocks(ranked, max(1, round(len(ranked) * frac))):
            mid = statistics.median(cost(u) for u in block)
            unit = min(block, key=lambda u: (abs(cost(u) - mid), u))
            chosen.append(rng.choice(units[unit]))
    rng.shuffle(chosen)
    return chosen
