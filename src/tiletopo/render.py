"""Deterministic SVG rendering of boundary approximations and markers.

Output is byte-stable: geometry is exact until the final serialization, where
rationals become decimals with 12 significant digits; ordering is fixed and
nothing depends on hashes or time.  The y axis is flipped so figures follow
the mathematical orientation.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass, field
from fractions import Fraction

from .contact import OrderedContactGraph, approx_boundary, build_contact_graph, derive_order_extension
from .errors import CertificateFailure, WrongRegime
from .geometry import polygon_is_simple_closed
from .neighbors import neighbor_set_formula
from .numsys import RationalPoint, TileParams, point_eval
from .topology import cut_point_address

Style = dict[str, str]


@dataclass
class Scene:
    polygons: list[tuple[tuple[RationalPoint, ...], Style]]
    markers: list[tuple[RationalPoint, str]] = field(default_factory=list)

    def viewbox(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [p[0] for poly, _ in self.polygons for p in poly]
        ys = [p[1] for poly, _ in self.polygons for p in poly]
        xs += [p[0] for p, _ in self.markers]
        ys += [p[1] for p, _ in self.markers]
        if not xs:
            raise ValueError("empty scene")
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        pad_x = (x1 - x0) / 20 or Fraction(1, 10)
        pad_y = (y1 - y0) / 20 or Fraction(1, 10)
        return (x0 - pad_x, y0 - pad_y, x1 + pad_x, y1 + pad_y)


def fmt(x) -> str:
    return format(float(x), ".12g")


def palette(n: int) -> list[str]:
    colors = []
    for i in range(n):
        r, g, b = colorsys.hls_to_rgb((i * 0.61803398875) % 1.0, 0.62, 0.65)
        colors.append(f"#{round(r*255):02x}{round(g*255):02x}{round(b*255):02x}")
    return colors


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
    for poly, style in scene.polygons:
        pts = " ".join(f"{fmt(p[0])},{fmt(-p[1])}" for p in poly)
        attrs = " ".join(f'{k}="{v}"' for k, v in sorted(style.items()))
        lines.append(f'<polygon points="{pts}" stroke-width="{fmt(stroke)}" {attrs}/>')
    for point, label in scene.markers:
        lines.append(
            f'<circle cx="{fmt(point[0])}" cy="{fmt(-point[1])}" '
            f'r="{fmt(4*stroke)}" fill="#c01010" stroke="none">'
            f"<title>{label}</title></circle>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _ordered(params: TileParams) -> OrderedContactGraph:
    return derive_order_extension(build_contact_graph(params))


def _boundary_polygon(params: TileParams, n: int, budget: int) -> tuple[RationalPoint, ...]:
    ordered = _ordered(params)
    approx = approx_boundary(ordered, n, budget)
    if not polygon_is_simple_closed(approx.vertices):
        raise CertificateFailure(f"level-{n} polygon is not simple closed")
    return approx.vertices


def render_boundary(params: TileParams, n: int, budget: int = 10**6) -> str:
    """Closed polygonal approximation of the boundary at level n."""
    verts = _boundary_polygon(params, n, budget)
    style = {"fill": "none", "stroke": "#202060"}
    return scene_to_svg(Scene([(verts, style)]))


def render_patch(params: TileParams, n: int, budget: int = 10**6) -> str:
    """The level-n boundary and its translates by every neighbor."""
    verts = _boundary_polygon(params, n, budget)
    shifts = [(0, 0)] + neighbor_set_formula(params).sorted_members()
    colors = palette(len(shifts))
    polys = []
    for color, (sx, sy) in zip(colors, shifts):
        moved = tuple((p[0] + sx, p[1] + sy) for p in verts)
        polys.append((moved, {"fill": color, "fill-opacity": "0.55", "stroke": "#303030"}))
    return scene_to_svg(Scene(polys))


def render_cutpoint(params: TileParams, n: int, budget: int = 10**6) -> str:
    """Boundary at level n with the cut point marked exactly."""
    if 2 * params.a - params.b < 5:
        raise WrongRegime("cut-point rendering requires 2A - B >= 5")
    verts = _boundary_polygon(params, n, budget)
    z = point_eval(cut_point_address(params), params)
    style = {"fill": "none", "stroke": "#202060"}
    return scene_to_svg(Scene([(verts, style)], [(z, "cut point")]))


def polygon_to_json(params: TileParams, n: int, budget: int = 10**6) -> dict:
    verts = _boundary_polygon(params, n, budget)
    return {
        "schema": "tiletopo/boundary-polygon@1",
        "params": {"A": params.a, "B": params.b},
        "level": n,
        "vertices": [[str(p[0]), str(p[1])] for p in verts],
    }
