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
its coordinates many times.  The shifted grid is never built: each axis's
table of strings spans its distinct shifts times the polygon's distinct
values, and a translate reads its points from one row of each.  The SVG
is a stream: ``_svg_pieces`` yields the header, one complete line per
translate, the markers and the footer, ``write_svg`` writes them to a file
one by one and ``scene_to_svg`` joins them.  The polygon JSON is written
straight from the same array in its fixed layout, with each distinct
coordinate turned into a ratio once.  Ordering is fixed and nothing depends
on hashes or time.  The y axis is flipped, in integers, so figures follow
the mathematical orientation.
"""

from __future__ import annotations

import colorsys
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TextIO

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


def _axis_tables(scene: Scene) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per axis, x and then y negated: the text of every shifted coordinate
    as a (k, d) table over the axis's k distinct shifts and the polygon's d
    distinct values, each string ``"%.12g" % (p / scale)`` with its
    separator (x with ",", y with " "); the row of each translate; and the
    column of each vertex.

    The coordinates are int64 and divided as float64 while every shifted
    coordinate and the scale are at most 2**53, and Python ints divided by
    exact int/int otherwise, with the same code.  The k rows of sums are
    each sorted, so one stable argsort merges them (timsort merges runs),
    and the cumulative count of new values ranks each sum among the
    distinct ones, which one ``%`` pass formats."""
    s = scene.scale
    shifts = [(sx * s, -sy * s) for (sx, sy), _ in scene.translates]
    reach = max(-int(scene.polygon.min()), int(scene.polygon.max()))
    reach += max(abs(c) for sh in shifts for c in sh)
    dtype = np.int64 if max(reach, s) <= _FLOAT_EXACT else object
    base = scene.polygon.astype(dtype) * np.array([1, -1], dtype=dtype)
    shift = np.array(shifts, dtype=dtype)
    for c, sep in ((0, ","), (1, " ")):
        axis, row = np.unique(shift[:, c], return_inverse=True)
        distinct, column = np.unique(base[:, c], return_inverse=True)
        sums = (axis[:, None] + distinct).ravel()
        order = np.argsort(sums, kind="stable")
        merged = sums[order]
        new = np.ones(len(merged), dtype=bool)
        new[1:] = merged[1:] != merged[:-1]
        rank = np.empty(len(merged), dtype=np.intp)
        rank[order] = np.cumsum(new) - 1
        values = merged[new]
        text = ("%.12g" + sep + "\n") * len(values) % tuple((values / s).tolist())
        strings = np.array(text.split("\n")[:-1], dtype=object)
        yield strings[rank.reshape(len(axis), -1)], row, column


def _svg_pieces(scene: Scene) -> Iterator[str]:
    """The document in order: the header, one ``<polygon .../>`` line per
    translate, one ``<circle>`` line per marker and the footer.

    A translate's line is one join of its points between the line's head
    and tail: its row of each axis table, gathered at the vertices'
    columns, interleaved x, y, x, y."""
    x0, y0, x1, y1 = scene.viewbox()
    w, h = x1 - x0, y1 - y0
    stroke = float(max(w, h)) / 600
    yield (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{fmt(x0)} {fmt(-y1)} {fmt(w)} {fmt(h)}" '
        f'width="640" height="{fmt(640*float(h)/float(w))}">\n'
    )
    m = len(scene.polygon)
    if m and scene.translates:
        (xs, xrow, xcol), (ys, yrow, ycol) = _axis_tables(scene)
    line = np.empty(2 * m + 2, dtype=object)
    line[0] = '<polygon points="'
    for t, (_, style) in enumerate(scene.translates):
        attrs = " ".join(f'{k}="{v}"' for k, v in sorted(style.items()))
        line[-1] = f'" stroke-width="{fmt(stroke)}" {attrs}/>\n'
        if m:
            line[1:-1:2] = xs[xrow[t]][xcol]
            line[2:-1:2] = ys[yrow[t]][ycol]
            line[-2] = line[-2][:-1]  # the last y without its separator
        yield "".join(line.tolist())
    s = scene.scale
    for point, label in scene.markers:
        yield (
            f'<circle cx="{fmt(point[0] / s)}" cy="{fmt(-point[1] / s)}" '
            f'r="{fmt(4*stroke)}" fill="#c01010" stroke="none">'
            f"<title>{label}</title></circle>\n"
        )
    yield "</svg>\n"


def scene_to_svg(scene: Scene) -> str:
    return "".join(_svg_pieces(scene))


def write_svg(scene: Scene, fh: TextIO) -> None:
    """Write ``scene_to_svg(scene)`` to the text file ``fh`` one piece at a
    time, so that no whole document is built."""
    fh.writelines(_svg_pieces(scene))


def _boundary_polygon(params: TileParams, n: int, budget: int) -> BoundaryApprox:
    ordered = ordered_extension(build_contact_graph(params))
    approx = approx_boundary(ordered, n, budget)
    if not polygon_is_simple_closed(approx.point_array):
        raise CertificateFailure(
            f"level-{n} polygon is not simple closed for (A,B)=({params.a},{params.b})"
        )
    return approx


def boundary_scene(params: TileParams, n: int, budget: int = 10**6) -> Scene:
    """Closed polygonal approximation of the boundary at level n."""
    approx = _boundary_polygon(params, n, budget)
    style = {"fill": "none", "stroke": "#202060"}
    return Scene(approx.scale, approx.point_array, [((0, 0), style)])


def patch_scene(params: TileParams, n: int, budget: int = 10**6) -> Scene:
    """The level-n boundary and its translates by every neighbor."""
    approx = _boundary_polygon(params, n, budget)
    shifts = [(0, 0)] + neighbor_set_formula(params).sorted_members()
    translates = [
        (shift, {"fill": color, "fill-opacity": "0.55", "stroke": "#303030"})
        for shift, color in zip(shifts, palette(len(shifts)))
    ]
    return Scene(approx.scale, approx.point_array, translates)


def cutpoint_scene(params: TileParams, n: int, budget: int = 10**6) -> Scene:
    """Boundary at level n with the cut point marked exactly."""
    a, b = params.a, params.b
    if 2 * a - b < 5:
        raise WrongRegime(f"cut-point rendering requires 2A - B >= 5 for (A,B)=({a},{b})")
    approx = _boundary_polygon(params, n, budget)
    s = approx.scale
    z = point_eval(cut_point_address(params), params)
    style = {"fill": "none", "stroke": "#202060"}
    marker = ((z[0] * s, z[1] * s), "cut point")
    return Scene(s, approx.point_array, [((0, 0), style)], [marker])


def polygon_json_text(params: TileParams, n: int, budget: int = 10**6) -> str:
    """The ``approx`` document of the level-n boundary polygon, byte for byte
    what ``json.dumps(..., indent=2, sort_keys=True)`` writes for
    ``{"schema": "tiletopo/boundary-polygon@1", "params": {"A", "B"},
    "level": n, "vertices": [[x, y], ...]}`` with each coordinate as its
    ratio string, a digit ratio with nothing to escape.  Each distinct
    coordinate is reduced by one array ``gcd`` with the scale (int64 or
    Python ints) and written by one ``%`` pass; the header, the ratios with
    the JSON punctuation around them, and the footer are joined once."""
    approx = _boundary_polygon(params, n, budget)
    s, points = approx.scale, approx.point_array
    distinct, inverse = np.unique(points, return_inverse=True)
    g = np.gcd(distinct, s)
    pairs = np.stack([distinct // g, s // g], axis=1).ravel().tolist()
    # each line is "num/den", so "/1\n" matches only den == 1: write num alone
    text = ("%d/%d\n" * len(distinct) % tuple(pairs)).replace("/1\n", "\n")
    ratios = np.array(text.split("\n")[:-1], dtype=object)
    pieces = np.empty(5 * len(points) + 1, dtype=object)
    pieces[0] = (
        f'{{\n  "level": {n},\n'
        f'  "params": {{\n    "A": {params.a},\n    "B": {params.b}\n  }},\n'
        f'  "schema": "tiletopo/boundary-polygon@1",\n'
        f'  "vertices": [\n'
    )
    rows = pieces[1:].reshape(-1, 5)
    rows[:, 0], rows[:, 2], rows[:, 4] = '    [\n      "', '",\n      "', '"\n    ],\n'
    rows[-1, 4] = '"\n    ]\n  ]\n}'
    rows[:, 1::2] = ratios[inverse.reshape(-1, 2)]
    return "".join(pieces.tolist())
