"""Deterministic SVG rendering of boundary approximations and markers.

Output is byte-stable: geometry is exact until the final serialization.  A
scene holds one integer polygon over one ``scale``, the common denominator
of the level-n boundary, and the integer lattice shifts it is drawn at.  The
polygon is the (m, 2) integer array of ``contact.approx_boundary``, read as
it is.  A coordinate p is written as ``"%.12g" % (p / scale)``, Python's
correctly rounded int/int division.  The shifted points are int64 when
every shifted coordinate fits and Python ints otherwise, and each distinct
value among them is divided and formatted once: a patch repeats its
coordinates many times.  The distinct values are found without building
the shifted grid: per axis, the polygon's sorted distinct values plus each
shift are sorted runs, and one stable sort merges them.  The polygon JSON is
written in its fixed layout, with each distinct coordinate turned into a
ratio once.  Ordering is fixed and nothing depends on hashes or time.  The y
axis is flipped, in integers, so figures follow the mathematical
orientation.
"""

from __future__ import annotations

import colorsys
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .contact import BoundaryApprox, IntVec, approx_boundary, build_contact_graph, ordered_extension
from .errors import CertificateFailure, WrongRegime
from .geometry import polygon_is_simple_closed
from .neighbors import neighbor_set_formula
from .numsys import RationalPoint, TileParams, point_eval
from .topology import cut_point_address

Style = dict[str, str]


@dataclass
class Scene:
    """One integer polygon drawn at integer shifts, and markers, in exact
    coordinates times ``scale``.

    ``polygon`` is an (m, 2) integer array, int64 or Python ints; a tuple of
    int pairs becomes one of Python ints.  A translate ``((sx, sy), style)``
    draws the polygon moved by ``(sx, sy) * scale``, that is by the lattice
    vector (sx, sy)."""

    scale: int
    polygon: np.ndarray
    translates: list[tuple[IntVec, Style]]
    markers: list[tuple[RationalPoint, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.polygon, np.ndarray):
            self.polygon = np.array(self.polygon, dtype=object).reshape(-1, 2)

    def viewbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [p[0] for p, _ in self.markers]
        ys = [p[1] for p, _ in self.markers]
        if len(self.polygon) and self.translates:
            s = self.scale
            lo, hi = self.polygon.min(axis=0).tolist(), self.polygon.max(axis=0).tolist()
            dx, dy = zip(*(shift for shift, _ in self.translates))
            xs += [lo[0] + min(dx) * s, hi[0] + max(dx) * s]
            ys += [lo[1] + min(dy) * s, hi[1] + max(dy) * s]
        if not xs:
            raise ValueError("empty scene")
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        pad_x = Fraction(x1 - x0) / 20 or Fraction(self.scale, 10)
        pad_y = Fraction(y1 - y0) / 20 or Fraction(self.scale, 10)
        box = (x0 - pad_x, y0 - pad_y, x1 + pad_x, y1 + pad_y)
        return tuple(c / self.scale for c in box)


def fmt(x) -> str:
    return format(float(x), ".12g")


def palette(n: int) -> list[str]:
    colors = []
    for i in range(n):
        r, g, b = colorsys.hls_to_rgb((i * 0.61803398875) % 1.0, 0.62, 0.65)
        colors.append(f"#{round(r*255):02x}{round(g*255):02x}{round(b*255):02x}")
    return colors


_INT64_MAX = 2**63 - 1


def _points_attributes(scene: Scene) -> list[str]:
    """The ``points`` attribute of each translate, "x,y x,y ..." with x and y
    as ``"%.12g" % (p / scale)`` and y negated.

    The translates' points form one integer grid, shifted and y-negated in
    integers; int64 holds it unless a shifted coordinate could overflow, and
    then the same code runs on Python ints.  The grid is never built: on
    each axis its values are the runs "distinct base values + shift", one
    sorted run per translate, and one ``np.unique`` gives their distinct
    values and each run value's rank.  Each distinct value is divided by
    Python's exact int/int and formatted once."""
    s = scene.scale
    base = scene.polygon
    shifts = [(sx * s, -sy * s) for (sx, sy), _ in scene.translates]
    if not len(base) or not shifts:
        return [""] * len(shifts)
    reach = max(-int(base.min()), int(base.max())) + max(abs(c) for sh in shifts for c in sh)
    dtype = np.int64 if reach <= _INT64_MAX else object
    base = base.astype(dtype) * np.array([1, -1], dtype=dtype)
    shift = np.array(shifts, dtype=dtype)
    # per axis, the sorted distinct base values and each vertex's place in them
    (ux, ix), (uy, iy) = (np.unique(base[:, c], return_inverse=True) for c in (0, 1))
    runs = np.concatenate([(ux + shift[:, :1]).ravel(), (uy + shift[:, 1:]).ravel()])
    distinct, rank = np.unique(runs, return_inverse=True)
    strings = np.array(["%.12g" % (v / s) for v in distinct.tolist()], dtype=object)
    # rank holds the x runs, then the y runs, one row per translate each
    cut = len(shifts) * len(ux)
    rx, ry = rank[:cut].reshape(len(shifts), -1), rank[cut:].reshape(len(shifts), -1)
    rows = strings[np.stack([rx[:, ix], ry[:, iy]], axis=2)]
    template = " ".join(["%s,%s"] * len(base))
    return [template % tuple(row.ravel()) for row in rows]


def scene_to_svg(scene: Scene) -> str:
    x0, y0, x1, y1 = scene.viewbox()
    w, h = x1 - x0, y1 - y0
    stroke = float(max(w, h)) / 600
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{fmt(x0)} {fmt(-y1)} {fmt(w)} {fmt(h)}" '
        f'width="640" height="{fmt(640*float(h)/float(w))}">',
    ]
    for pts, (_, style) in zip(_points_attributes(scene), scene.translates):
        attrs = " ".join(f'{k}="{v}"' for k, v in sorted(style.items()))
        lines.append(f'<polygon points="{pts}" stroke-width="{fmt(stroke)}" {attrs}/>')
    s = scene.scale
    for point, label in scene.markers:
        lines.append(
            f'<circle cx="{fmt(point[0] / s)}" cy="{fmt(-point[1] / s)}" '
            f'r="{fmt(4*stroke)}" fill="#c01010" stroke="none">'
            f"<title>{label}</title></circle>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _boundary_polygon(params: TileParams, n: int, budget: int) -> BoundaryApprox:
    ordered = ordered_extension(build_contact_graph(params))
    approx = approx_boundary(ordered, n, budget)
    if not polygon_is_simple_closed(approx.point_array):
        raise CertificateFailure(f"level-{n} polygon is not simple closed")
    return approx


def render_boundary(params: TileParams, n: int, budget: int = 10**6) -> str:
    """Closed polygonal approximation of the boundary at level n."""
    approx = _boundary_polygon(params, n, budget)
    style = {"fill": "none", "stroke": "#202060"}
    return scene_to_svg(Scene(approx.scale, approx.point_array, [((0, 0), style)]))


def render_patch(params: TileParams, n: int, budget: int = 10**6) -> str:
    """The level-n boundary and its translates by every neighbor."""
    approx = _boundary_polygon(params, n, budget)
    shifts = [(0, 0)] + neighbor_set_formula(params).sorted_members()
    translates = [
        (shift, {"fill": color, "fill-opacity": "0.55", "stroke": "#303030"})
        for shift, color in zip(shifts, palette(len(shifts)))
    ]
    return scene_to_svg(Scene(approx.scale, approx.point_array, translates))


def render_cutpoint(params: TileParams, n: int, budget: int = 10**6) -> str:
    """Boundary at level n with the cut point marked exactly."""
    a, b = params.a, params.b
    if 2 * a - b < 5:
        raise WrongRegime(f"cut-point rendering requires 2A - B >= 5 for (A,B)=({a},{b})")
    approx = _boundary_polygon(params, n, budget)
    s = approx.scale
    z = point_eval(cut_point_address(params), params)
    style = {"fill": "none", "stroke": "#202060"}
    marker = ((z[0] * s, z[1] * s), "cut point")
    return scene_to_svg(Scene(s, approx.point_array, [((0, 0), style)], [marker]))


def _ratio(x: int, scale: int) -> str:
    """``str(Fraction(x, scale))`` without building the Fraction."""
    g = math.gcd(x, scale)
    return str(x // g) if g == scale else f"{x // g}/{scale // g}"


def polygon_to_json(params: TileParams, n: int, budget: int = 10**6) -> dict:
    approx = _boundary_polygon(params, n, budget)
    s = approx.scale
    # each distinct coordinate is turned into a ratio once
    distinct, inverse = np.unique(approx.point_array.ravel(), return_inverse=True)
    vertices = np.array([_ratio(v, s) for v in distinct.tolist()], dtype=object)[inverse]
    return {
        "schema": "tiletopo/boundary-polygon@1",
        "params": {"A": params.a, "B": params.b},
        "level": n,
        "vertices": vertices.reshape(-1, 2).tolist(),
    }


def polygon_json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for a ``polygon_to_json``
    document, written in its fixed layout: every vertex string is a digit
    ratio with nothing to escape."""
    vertices = doc["vertices"]
    items = ('    [\n      "%s",\n      "%s"\n    ],\n' * len(vertices)) % tuple(
        chain.from_iterable(vertices)
    )
    listing = f"[\n{items[:-2]}\n  ]" if vertices else "[]"
    return (
        f'{{\n  "level": {doc["level"]},\n'
        f'  "params": {{\n    "A": {doc["params"]["A"]},\n    "B": {doc["params"]["B"]}\n  }},\n'
        f'  "schema": {json.dumps(doc["schema"])},\n'
        f'  "vertices": {listing}\n}}'
    )
