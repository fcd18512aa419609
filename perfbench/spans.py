"""Spans around the public functions of each layer, installed from outside.

Each layer is a module of the package.  Installing a ``Tracer`` replaces every
public function of every layer with a wrapper that records a span (op index,
name, start, end, parent span, counters), in every package module that bound
the function, since ``chains`` and ``topology`` import ``product_intersection``
by name.  Uninstalling restores each original binding.  ``linalg`` is left
out: its 2x2 helpers are too fine-grained to wrap from outside.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "neighbors",
    "automata",
    "topology",
    "chains",
    "contact",
    "algebraic",
    "geometry",
    "render",
    "numsys",
)
# formats one coordinate, about 10^5 calls per rendered patch; its time
# stays in the render span that calls it
SKIP = {"render.fmt"}
# private helpers wrapped for their counters
EXTRA = {"neighbors._candidate_ball"}

COUNTERS = {
    "neighbors._candidate_ball": lambda args, res: {"ball_points": len(res)},
    "neighbors.neighbor_set_search": lambda args, res: {"members": len(res.members)},
    "automata.product_intersection": lambda args, res: {
        "states": len(res.transitions),
        "live": len(res.live),
        "runs": len(res.runs),
    },
    "chains.circular_chain_report": lambda args, res: {"cells": len(res.matrix)},
    "contact.approx_boundary": lambda args, res: {
        "walks": len(res.firsts),
        "vertices": len(res.vertices),
    },
    "geometry.polygon_is_simple_closed": lambda args, res: {"segments": len(args[0])},
}


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "tiletopo" or name.startswith("tiletopo."))
    ]


def layer_functions() -> dict[str, object]:
    """Name -> original function for everything a Tracer wraps."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"tiletopo.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if name in SKIP or (attr.startswith("_") and name not in EXTRA):
                continue
            found[name] = obj
    return found


class Tracer:
    """Records spans while installed; ``op`` tags the spans of the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, name, start, end, parent, counters]
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = time.perf_counter()
                span[5] = {"raised": 1}
                raise
            else:
                span[3] = time.perf_counter()
                if count is not None:
                    span[5] = count(args, result)
                return result
            finally:
                stack.pop()

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals = layer_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, obj))
        setup_cls = sys.modules["tiletopo.chains"].ChainSetup
        build = setup_cls.__dict__["build"]
        setattr(setup_cls, "build", classmethod(self._wrap("chains.ChainSetup.build", build.__func__)))
        self._bindings.append((setup_cls, "build", build))

    def uninstall(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """One JSON line per span: op, name, start and end (seconds from the
        first span), parent span index, counters."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent, counters in self.spans:
                row = [op, name, round(start - t0, 7), round(end - t0, 7), parent]
                if counters:
                    row.append(counters)
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def wrapped_bindings() -> list[str]:
    """Package attributes that still hold a tracer wrapper (should be none)."""
    left = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "__perfbench_original__"):
                left.append(f"{mod.__name__}.{attr}")
    setup_cls = sys.modules["tiletopo.chains"].ChainSetup
    if hasattr(setup_cls.__dict__["build"].__func__, "__perfbench_original__"):
        left.append("tiletopo.chains.ChainSetup.build")
    return left


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, total seconds, self seconds, summed counters.

    Total time counts only spans with no enclosing span of the same name.
    Self time is a span's duration minus the time covered by its child
    spans; spans nest in one thread, so the children are disjoint."""
    child_time = defaultdict(float)
    for span in spans:
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for idx, (op, name, start, end, parent, counts) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[idx]
        p = parent
        while p >= 0 and spans[p][1] != name:
            p = spans[p][4]
        if p < 0:
            total[name] += end - start
        for key, value in (counts or {}).items():
            counters[name][key] += value
    return {
        name: {
            "calls": calls[name],
            "total_s": total[name],
            "self_s": self_s[name],
            **counters[name],
        }
        for name in calls
    }


PER_LAYER_UNITS = {
    "neighbors.search_s": "s",
    "neighbors.ball_points": "count",
    "neighbors.kept_ratio": "ratio",
    "automata.product_s": "s",
    "automata.product_calls": "count",
    "automata.product_states": "count",
    "automata.live_ratio": "ratio",
    "automata.runs": "count",
    "topology.cut_point_self_s": "s",
    "chains.setup_s": "s",
    "chains.report_self_s": "s",
    "chains.gamma_s": "s",
    "chains.cells": "count",
    "contact.order_s": "s",
    "contact.perron_s": "s",
    "contact.perron_failed": "count",
    "algebraic.root_field_s": "s",
    "contact.walk_to_param_s": "s",
    "contact.psi_s": "s",
    "contact.approx_s": "s",
    "contact.walks": "count",
    "contact.vertices": "count",
    "geometry.simple_closed_s": "s",
    "geometry.segments": "count",
    "render.self_s": "s",
    "numsys.point_eval_s": "s",
    "numsys.point_eval_calls": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "repo.src_lines": "lines",
}


def layer_metrics(summary: dict) -> dict[str, float]:
    """The span-derived per-layer metrics, summed over a run's ops."""

    def get(name: str, key: str = "total_s") -> float:
        return summary.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))

    ball = get("neighbors._candidate_ball", "ball_points")
    states = get("automata.product_intersection", "states")
    return {
        "neighbors.search_s": get("neighbors.neighbor_set_search"),
        "neighbors.ball_points": ball,
        "neighbors.kept_ratio": ratio(get("neighbors.neighbor_set_search", "members"), ball),
        "automata.product_s": get("automata.product_intersection"),
        "automata.product_calls": get("automata.product_intersection", "calls"),
        "automata.product_states": states,
        "automata.live_ratio": ratio(get("automata.product_intersection", "live"), states),
        "automata.runs": get("automata.product_intersection", "runs"),
        "topology.cut_point_self_s": get("topology.verify_cut_point", "self_s"),
        "chains.setup_s": get("chains.ChainSetup.build"),
        "chains.report_self_s": get("chains.circular_chain_report", "self_s"),
        "chains.gamma_s": get("chains.gamma_arcs"),
        "chains.cells": get("chains.circular_chain_report", "cells"),
        "contact.order_s": get("contact.derive_order_extension"),
        "contact.perron_s": get("contact.perron_data"),
        "contact.perron_failed": get("contact.perron_data", "raised"),
        "algebraic.root_field_s": get("algebraic.dominant_root_field"),
        "contact.walk_to_param_s": get("contact.walk_to_param"),
        "contact.psi_s": get("contact.psi"),
        "contact.approx_s": get("contact.approx_boundary"),
        "contact.walks": get("contact.approx_boundary", "walks"),
        "contact.vertices": get("contact.approx_boundary", "vertices"),
        "geometry.simple_closed_s": get("geometry.polygon_is_simple_closed"),
        "geometry.segments": get("geometry.polygon_is_simple_closed", "segments"),
        "render.self_s": layer_self("render"),
        "numsys.point_eval_s": get("numsys.point_eval"),
        "numsys.point_eval_calls": get("numsys.point_eval", "calls"),
        "cli.self_s": layer_self("cli"),
    }
