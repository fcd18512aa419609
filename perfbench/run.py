"""End-to-end and per-layer benchmark of the tiletopo CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 18 --trace 0

One process, one client, no threads: a closed loop that runs each op of a
seeded op list through ``tiletopo.cli.main(argv)`` after the previous one
returns, like a shell loop over a parameter grid.  Every op's exit status
and output bytes go through the correctness gate (``ops.judge``).  The op
list's recorded cost adds up to about ``--seconds``.

``--trace 0`` prints the end-to-end metrics: throughput, median and tail op
time, the share of ops that passed, peak memory, and the set-up time of a
fresh interpreter (timed in child processes, apart from the warm in-process
ops).  Times are scaled to a reference speed (see ``Speed``); the raw wall
times are printed above the JSON line.  ``--trace 1`` runs each op of a
shorter list twice, once plain and once with spans installed (see
``spans.py``), and prints the per-layer metrics and the tracing overhead.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import ops
import spans
import workloads
from setup_probe import SETUP_OPS

SETUP_RUNS = 5
# seconds the reference computation takes at the speed times are scaled to,
# and how often a run re-measures it
REFERENCE_S = 0.03
REFERENCE_EVERY_S = 1.0
# a traced run measures each op twice, plus the tracing cost
TRACE_BUDGET_SHARE = 0.4
# stop starting ops this long after the process started; ops not started
# count as failed, so a slowdown this large cannot pass unnoticed
DEADLINE_S = 150.0
TAIL_SHARE = 0.1
TAIL_MIN_OPS = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def reference_seconds() -> float:
    """Time of a fixed computation in the program's own idiom: exact
    rationals, hashed integer points, set and dict updates."""
    t0 = time.perf_counter()
    seen, counts, acc = set(), {}, Fraction(0)
    for i in range(5000):
        p = (i * 7919 % 1009, i * 104729 % 1013)
        seen.add(p)
        counts[p] = counts.get(p, 0) + 1
        acc += Fraction(p[0] - p[1], 1 + i % 97)
    return time.perf_counter() - t0


class Speed:
    """Samples of the reference time through a run, to scale op times by.

    On a shared 2-vCPU virtual machine the host's speed moved by up to 50%
    within minutes: one op's wall time spread by 29-42% (quartile distance
    over median) over 200 s, and by 8-14% once divided by the reference time
    measured around it.  A time t is reported as t * REFERENCE_S / r, where
    r is the mean of the reference samples taken just before and after it,
    so a program change still moves it in proportion."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ref: list[float] = []
        self.take()

    def take(self) -> None:
        self.at.append(time.perf_counter())
        self.ref.append(reference_seconds())

    def take_if_due(self) -> None:
        if time.perf_counter() - self.at[-1] >= REFERENCE_EVERY_S:
            self.take()

    def scale(self, started: float) -> float:
        i = bisect.bisect(self.at, started)
        return REFERENCE_S / statistics.mean(self.ref[max(0, i - 1) : i + 1])


def setup_seconds() -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters running
    ``setup_probe.py``."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        speed = Speed()
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py"))],
            cwd=ops.ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        raw.append(time.perf_counter() - t0)
        speed.take()
        scaled.append(raw[-1] * speed.scale(t0))
        if proc.returncode != 0:
            raise ops.BenchSetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return raw, scaled


def warm_up(cli) -> None:
    """Import what the package imports lazily and run each command once, so
    that timed ops do not pay one-off set-up costs.  Freezing the objects
    alive now keeps the per-op ``gc.collect`` from rescanning sympy and the
    record (about 40 ms per op otherwise on a 2-vCPU VM), and is closer to a
    fresh process."""
    import numpy  # noqa: F401
    import sympy  # noqa: F401

    for argv in SETUP_OPS:
        ops.run_op(cli, argv)
    gc.collect()
    gc.freeze()


def tail(times: list[float]) -> tuple[float, int]:
    """(mean, count) of the slowest TAIL_SHARE of the ops, and of at least
    TAIL_MIN_OPS of them.  A mean rather than one order statistic: on a
    shared 2-vCPU virtual machine one op's wall time spread by 19-27%
    (quartile distance over median) between back-to-back repeats."""
    ordered = sorted(times, reverse=True)
    k = min(len(ordered), max(TAIL_MIN_OPS, math.ceil(TAIL_SHARE * len(ordered))))
    return statistics.fmean(ordered[:k]), k


class Gate:
    """Counts attempted, failed and incorrect ops."""

    def __init__(self, index: dict[tuple, dict]) -> None:
        self.index = index
        self.attempted = self.failed = self.incorrect = 0

    def check(self, result: ops.OpResult) -> None:
        failed, incorrect = ops.judge(result, self.index[tuple(result.argv)])
        self.attempted += 1
        self.failed += failed
        self.incorrect += incorrect
        if incorrect:
            print(f"INCORRECT: {' '.join(result.argv)} -> {result.outcome}", file=sys.stderr)

    def skipped(self, count: int) -> None:
        """Ops not started before the deadline: failed, though not wrong."""
        self.attempted += count
        self.failed += count


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(ops.SRC.rglob("*.py")))


def run_plain(cli, op_list, gate, started) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of the ops."""
    speed = Speed()
    runs = []
    for i, item in enumerate(op_list):
        if time.perf_counter() - started > DEADLINE_S:
            print(f"deadline: {len(op_list) - i} ops not started", file=sys.stderr)
            gate.skipped(len(op_list) - i)
            break
        speed.take_if_due()
        t0 = time.perf_counter()
        result = ops.run_op(cli, item["argv"])
        gate.check(result)
        runs.append((t0, result.seconds))
    speed.take()
    return [t for _, t in runs], [t * speed.scale(t0) for t0, t in runs]


def timing(times: list[float], setup: list[float]) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "setup_s": statistics.median(setup),
    }


def end_to_end(workload: str, gate, times, setup) -> dict:
    (raw, scaled), (setup_raw, setup_scaled) = times, setup
    metrics = timing(scaled, setup_scaled)
    metrics["ok_frac"] = (gate.attempted - gate.failed) / gate.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _, slowest = tail(raw)
    print(
        f"{workload}: {gate.attempted} ops, {gate.failed} failed "
        f"({gate.incorrect} incorrect), {sum(raw):.3f} s in ops"
    )
    pct = 100.0 * (len(raw) - slowest) / len(raw)
    print(f"  op_tail_s is the mean of the {slowest} slowest of {len(raw)} ops (beyond p{pct:.1f})")
    print(f"  failed_frac {gate.failed / gate.attempted:.6f} ({gate.failed}/{gate.attempted})")
    print(f"  setup_s is the median of {', '.join(f'{t:.3f}' for t in setup_scaled)} s")
    print("  raw wall times, not scaled to the reference speed:")
    for name, value in timing(raw, setup_raw).items():
        print(f"    {name:<26} {value:>14.6g}")
    return metrics


def run_traced(cli, op_list, gate, started, spans_path) -> dict:
    """Each op plain and traced, alternating which goes first."""
    tracer = spans.Tracer()
    plain = traced = 0.0
    out_bytes = 0
    for i, item in enumerate(op_list):
        if time.perf_counter() - started > DEADLINE_S:
            print(f"deadline: {len(op_list) - i} ops not started", file=sys.stderr)
            gate.skipped(2 * (len(op_list) - i))
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = i
                with tracer:
                    result = ops.run_op(cli, item["argv"])
                traced += result.seconds
                out_bytes += result.out_bytes
            else:
                result = ops.run_op(cli, item["argv"])
                plain += result.seconds
            gate.check(result)
    left = spans.wrapped_bindings()
    if left:
        raise RuntimeError(f"tracer left wrappers behind: {left}")
    tracer.write(spans_path)
    metrics = spans.layer_metrics(spans.summarize(tracer.spans))
    metrics["cli.out_bytes"] = out_bytes
    metrics["trace.overhead_frac"] = traced / plain - 1 if plain else 0.0
    metrics["repo.src_lines"] = src_lines()
    print(f"traced {len(op_list)} ops: plain {plain:.3f} s, traced {traced:.3f} s")
    print(f"  {len(tracer.spans)} spans written to {spans_path}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        os.chdir(ops.ROOT)
        cli = ops.import_tiletopo()
        expected = ops.load_expected()["workloads"][args.workload]
        setup = ([], []) if args.trace else setup_seconds()
    except (ops.BenchSetupError, ImportError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    budget = args.seconds * (TRACE_BUDGET_SHARE if args.trace else 1.0)
    op_list = workloads.op_list(args.workload, expected, args.seed, budget)
    gate = Gate({tuple(item["argv"]): item for item in expected})
    warm_up(cli)
    if args.trace:
        name = f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = run_traced(cli, op_list, gate, started, ops.ROOT / ".perfbench_out" / name)
        units = spans.PER_LAYER_UNITS
    else:
        times = run_plain(cli, op_list, gate, started)
        metrics = end_to_end(args.workload, gate, times, setup)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": gate.incorrect == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
