"""Deterministic SVG rendering of boundary approximations and markers.

Output is byte-stable: geometry is exact until the final serialization.  A
scene holds one integer polygon over one ``scale``, the common denominator
of the level-n boundary, and the integer lattice shifts it is drawn at.  The
polygon is the (m, 2) integer array of ``contact.approx_boundary``, read as
it is.  A coordinate p is written as ``"%.12g" % (p / scale)``, Python's
correctly rounded int/int division.  The shifted points are int64, divided
as float64, while every shifted coordinate and the scale are at most 2**53,
where that division is exact int/int too, and Python ints otherwise.  Each
distinct value on an axis is divided and formatted once: a patch repeats
its coordinates many times.  The distinct values are found without building
the shifted grid: per axis, one ``np.unique`` over the polygon's values plus
each distinct shift on that axis.  The polygon JSON is written straight
from the same array in its fixed layout, with each distinct coordinate
turned into a ratio once.  Ordering is fixed and nothing depends on hashes
or time.  The y axis is flipped, in integers, so figures follow the
mathematical orientation.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass, field
from fractions import Fraction

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

    ``polygon`` is an (m, 2) integer array, int64 or Python ints
    (``dtype=object``).  A translate ``((sx, sy), style)``
    draws the polygon moved by ``(sx, sy) * scale``, that is by the lattice
    vector (sx, sy)."""

    scale: int
    polygon: np.ndarray
    translates: list[tuple[IntVec, Style]]
    markers: list[tuple[RationalPoint, str]] = field(default_factory=list)

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


# int64 to float64 is exact up to 2**53 in magnitude, and float division of
# exact operands is correctly rounded, as Python's int / int is
_FLOAT_EXACT = 2**53


def _points_attributes(scene: Scene) -> list[str]:
    """The ``points`` attribute of each translate, "x,y x,y ..." with x and y
    as ``"%.12g" % (p / scale)`` and y negated.

    The translates' points form one integer grid, shifted and y-negated in
    integers; it is int64 and divided as float64 while every shifted
    coordinate and the scale are at most 2**53, and Python ints divided by
    exact int/int otherwise, with the same code.  The grid is never built:
    per axis, one ``np.unique`` over the base values plus each distinct
    shift on that axis gives the axis's distinct values and each one's
    rank.  The distinct values are formatted in one ``%`` pass, each with
    its separator (x with ",", y with " "), and gathered into one
    interleaved row per translate that one join turns into text."""
    s = scene.scale
    base = scene.polygon
    shifts = [(sx * s, -sy * s) for (sx, sy), _ in scene.translates]
    if not len(base) or not shifts:
        return [""] * len(shifts)
    reach = max(-int(base.min()), int(base.max())) + max(abs(c) for sh in shifts for c in sh)
    dtype = np.int64 if max(reach, s) <= _FLOAT_EXACT else object
    base = base.astype(dtype) * np.array([1, -1], dtype=dtype)
    shift = np.array(shifts, dtype=dtype)
    rows = np.empty((len(shifts), 2 * len(base)), dtype=object)
    for c, sep in ((0, ","), (1, " ")):
        axis, which = np.unique(shift[:, c], return_inverse=True)
        values, rank = np.unique(base[:, c] + axis[:, None], return_inverse=True)
        text = ("%.12g" + sep + "\n") * len(values) % tuple((values / s).tolist())
        strings = np.array(text.split("\n")[:-1], dtype=object)
        rows[:, c::2] = strings[rank.reshape(len(axis), -1)[which]]
    # every row ends in the last y's separator
    return ["".join(row)[:-1] for row in rows.tolist()]


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
        raise CertificateFailure(
            f"level-{n} polygon is not simple closed for (A,B)=({params.a},{params.b})"
        )
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


def polygon_json_text(params: TileParams, n: int, budget: int = 10**6) -> str:
    """The ``approx`` document of the level-n boundary polygon, byte for byte
    what ``json.dumps(..., indent=2, sort_keys=True)`` writes for
    ``{"schema": "tiletopo/boundary-polygon@1", "params": {"A", "B"},
    "level": n, "vertices": [[x, y], ...]}`` with each coordinate as its
    ratio string, a digit ratio with nothing to escape.  Each distinct
    coordinate is reduced by one array ``gcd`` with the scale (int64 or
    Python ints) and written by one ``%`` pass; the ratios and the JSON
    punctuation around them make one row per vertex, joined once."""
    approx = _boundary_polygon(params, n, budget)
    s, points = approx.scale, approx.point_array
    distinct, inverse = np.unique(points, return_inverse=True)
    g = np.gcd(distinct, s)
    pairs = np.stack([distinct // g, s // g], axis=1).ravel().tolist()
    # each line is "num/den", so "/1\n" matches only den == 1: write num alone
    text = ("%d/%d\n" * len(distinct) % tuple(pairs)).replace("/1\n", "\n")
    ratios = np.array(text.split("\n")[:-1], dtype=object)
    rows = np.empty((len(points), 5), dtype=object)
    rows[:, 0], rows[:, 2], rows[:, 4] = '    [\n      "', '",\n      "', '"\n    ],\n'
    rows[:, 1::2] = ratios[inverse.reshape(-1, 2)]
    vertices = "".join(rows.ravel().tolist())[:-2]
    return (
        f'{{\n  "level": {n},\n'
        f'  "params": {{\n    "A": {params.a},\n    "B": {params.b}\n  }},\n'
        f'  "schema": "tiletopo/boundary-polygon@1",\n'
        f'  "vertices": [\n{vertices}\n  ]\n}}'
    )
