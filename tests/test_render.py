import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiletopo import TileParams, WrongRegime, render
from tiletopo.contact import BoundaryApprox
from tiletopo.errors import CertificateFailure
from tiletopo.render import (
    Scene,
    fmt,
    palette,
    polygon_json_text,
    render_boundary,
    render_cutpoint,
    render_patch,
    scene_to_svg,
)


class TestBoundary:
    def test_vertex_counts_increase(self):
        params = TileParams(2, 2)
        sizes = [render_boundary(params, n).count(",") for n in range(4)]
        assert sizes == sorted(sizes) and len(set(sizes)) == 4

    def test_deterministic(self):
        for n in (0, 2):
            a = render_boundary(TileParams(4, 5), n)
            b = render_boundary(TileParams(4, 5), n)
            assert a == b

    def test_not_simple_closed_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(render, "polygon_is_simple_closed", lambda points: False)
        not_simple = r"^level-1 polygon is not simple closed for \(A,B\)=\(4,5\)$"
        with pytest.raises(CertificateFailure, match=not_simple):
            render_boundary(TileParams(4, 5), 1)

    def test_svg_shape(self):
        svg = render_boundary(TileParams(4, 5), 1)
        assert svg.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in svg
        assert svg.rstrip().endswith("</svg>")


class TestPatch:
    @pytest.mark.parametrize("a,b,count", [(2, 2, 7), (4, 5, 11), (5, 5, 19)])
    def test_polygon_counts(self, a, b, count):
        svg = render_patch(TileParams(a, b), 1)
        assert svg.count("<polygon") == count

    def test_distinct_fills(self):
        svg = render_patch(TileParams(4, 5), 1)
        fills = [
            part.split('"')[1]
            for part in svg.split("fill=")[1:]
            if part.startswith('"#')
        ]
        assert len(fills) == len(set(fills)) == 11


class TestCutpoint:
    def test_marker_5_5(self):
        svg = render_cutpoint(TileParams(5, 5), 2)
        # z = (-12/11, -2/11); y axis flipped in the document
        assert f'cx="{fmt(-12/11)}"' in svg
        assert f'cy="{fmt(2/11)}"' in svg

    def test_marker_6_6(self):
        svg = render_cutpoint(TileParams(6, 6), 1)
        assert svg.count("<circle") == 1

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            render_cutpoint(TileParams(4, 5), 1)


class TestScene:
    NARROW = (
        (0, 0),
        (1, 0),
        (2**53, 0),
        (-(2**53) - 1, 2**53 + 1),
        (12345678901234567, -98765432109876543),
    )
    # int64 holds -2**63 but not its negation
    EDGE = NARROW + ((5, -(2**63)),)
    WIDE = EDGE + ((2**63 - 1, 0), (-(2**63), 5), (2**63, -(2**63)))
    TRIANGLE = np.array([(0, 0), (8, 2), (3, -6)], dtype=object)

    @pytest.mark.parametrize("kind", ["NARROW", "EDGE", "WIDE"])
    @pytest.mark.parametrize(
        "scale",
        [1, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**58 + 3, 2**61 + 1, 2**62 + 5, 2**63, 2**63 + 7,
         10**30],
    )
    def test_points_match_per_point_division(self, scale, kind):
        # int64 divided as float64 serves only shifted coordinates and scales
        # up to 2**53, where that division is exact; every polygon here has
        # a coordinate past 2**53, so Python ints and their exact int/int
        # take over at every scale
        polygon = getattr(self, kind) + ((-1, scale), (3 * scale + 1, -scale))
        shifts = [(0, 0), (1, -1), (-2, 3), (0, 1)]
        translates = [(shift, {"fill": "none"}) for shift in shifts]
        scene = Scene(scale, np.array(polygon, dtype=object), translates)
        got = re.findall(r'points="([^"]*)"', scene_to_svg(scene))
        expected = [
            " ".join(
                "%.12g,%.12g" % ((x + sx * scale) / scale, -(y + sy * scale) / scale)
                for (x, y) in polygon
            )
            for (sx, sy) in shifts
        ]
        assert got == expected
        assert "-0," not in " ".join(got) and not re.search(r",-0( |$)", " ".join(got))

    @pytest.mark.parametrize(
        "x,scale,exact,rounded",
        [
            # x and the scale above 2**53, inside int64
            (305171093300600465, 37383383775444992, "8.16328171719", "8.16328171718"),
            # x between 2**53 and 2**54, the scale below 2**53
            (9208255395171365, 2860254522241849, "3.21938321348", "3.21938321347"),
        ],
    )
    def test_division_past_two_to_the_53_is_exact(self, x, scale, exact, rounded):
        # the float64 images of x and the scale divide to a quotient that
        # prints otherwise than the exact one does
        assert "%.12g" % (float(x) / float(scale)) == rounded
        polygon = np.array([(x, 0), (0, 0), (0, -scale)], dtype=np.int64)
        scene = Scene(scale, polygon, [((0, 0), {})])
        got = re.findall(r'points="([^"]*)"', scene_to_svg(scene))
        assert got == [f"{exact},0 0,0 0,1"]

    @staticmethod
    @st.composite
    def drawn_scenes(draw):
        """A scale (a small one, one near 2**53, or a power of 2 or 5 up to
        past 2**53), a polygon of 1 to 6 vertices within a few scales of the
        origin, zeros and negative coordinates included, and 1 to 5 shifts."""
        scale = draw(
            st.integers(1, 10**4)
            | st.integers(2**50, 2**56)
            | st.sampled_from([2**k for k in range(61)] + [5**k for k in range(27)])
        )
        coord = st.integers(-3 * scale, 3 * scale) | st.integers(-40, 40)
        polygon = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
        shift = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        return scale, polygon, draw(st.lists(shift, min_size=1, max_size=5))

    @given(drawn_scenes())
    @settings(max_examples=300, deadline=None)
    def test_drawn_points_match_per_point_division(self, case):
        # the same per-point oracle as above, on int64 and Python-int
        # polygons whose shifted grid lies below or above 2**53
        scale, polygon, shifts = case
        translates = [(shift, {"fill": "none"}) for shift in shifts]
        expected = [
            " ".join(
                "%.12g,%.12g" % ((x + sx * scale) / scale, -(y + sy * scale) / scale)
                for (x, y) in polygon
            )
            for (sx, sy) in shifts
        ]
        for dtype in (np.int64, object):
            scene = Scene(scale, np.array(polygon, dtype=dtype), translates)
            assert re.findall(r'points="([^"]*)"', scene_to_svg(scene)) == expected

    def test_viewbox_covers_every_translate_and_marker(self):
        scene = Scene(
            4,
            self.TRIANGLE,
            [((0, 0), {}), ((2, -1), {}), ((-1, 3), {})],
            [((40, 1), "far")],
        )
        xs = [0, 8, 3, 8, 16, 11, -4, 4, -1, 40]
        ys = [0, 2, -6, -4, -2, -10, 12, 14, 6, 1]
        pad_x, pad_y = Fraction(44, 20), Fraction(24, 20)
        assert scene.viewbox() == (
            (min(xs) - pad_x) / 4, (min(ys) - pad_y) / 4,
            (max(xs) + pad_x) / 4, (max(ys) + pad_y) / 4,
        )

    def test_empty_scene_has_no_viewbox(self):
        # a polygon drawn at no shift shows nothing, and no marker either
        scene = Scene(4, self.TRIANGLE, [])
        with pytest.raises(ValueError, match=r"^empty scene$"):
            scene.viewbox()
        with pytest.raises(ValueError, match=r"^empty scene$"):
            scene_to_svg(scene)

    def test_marker_without_translates_draws_no_polygon(self):
        scene = Scene(4, self.TRIANGLE, [], [((40, 1), "far")])
        svg = scene_to_svg(scene)
        assert "<polygon" not in svg
        assert svg.count("<circle") == 1 and "<title>far</title>" in svg
        # one point: the box is the point padded by scale / 10 on each side
        pad = Fraction(4, 10)
        assert scene.viewbox() == ((40 - pad) / 4, (1 - pad) / 4, (40 + pad) / 4, (1 + pad) / 4)


class TestJsonExport:
    def test_schema_and_exact_vertices(self):
        doc = json.loads(polygon_json_text(TileParams(4, 5), 0))
        assert doc["schema"] == "tiletopo/boundary-polygon@1"
        assert doc["vertices"][0] == ["1/2", "1/10"]
        assert len(doc["vertices"]) == 6

    def test_writer_matches_json_dumps(self):
        for b in range(2, 13):
            for a in range(1, b + 1):
                for n in (0, 1, 2):
                    text = polygon_json_text(TileParams(a, b), n)
                    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text

    def test_python_int_coordinates_write_the_same_document(self, monkeypatch):
        # the polygon and its scale times 3**50 lie past int64, so the gcds
        # run on Python ints, and reduce to the same ratios
        params = TileParams(7, 11)
        text = polygon_json_text(params, 2)
        approx = render._boundary_polygon(params, 2, 10**6)
        k = 3**50
        wide = BoundaryApprox(
            approx.scale * k, approx.point_array.astype(object) * k, approx.last_array
        )
        monkeypatch.setattr(render, "_boundary_polygon", lambda *args: wide)
        assert polygon_json_text(params, 2) == text


class TestGoldenBytes:
    """Digests of outputs recorded before the boundary moved to integer
    coordinates; the SVG and JSON bytes must never change."""

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_polygon_json(self):
        assert self.digest(polygon_json_text(TileParams(7, 11), 2)) == (
            "7db27046d55a4cc3660e01e4b2c904ce67a3654e7d21c2254f9760b94a00b17c"
        )

    def test_boundary_svg(self):
        assert self.digest(render_boundary(TileParams(4, 5), 3)) == (
            "1bca55871a19e9e5782de2c48d8ace9a56ffeb004ae8d1a6a650881f6528d7be"
        )

    def test_boundary_svg_with_candidate_pairs(self):
        # 6,430 vertices below 2**30 with 3,058 candidate pairs: the grid
        # prefilter and the int64 exact tests decide this one
        assert self.digest(render_boundary(TileParams(12, 12), 3)) == (
            "7d7bbad83697c4ba308c05d6dae0ca65b76bcf608283307a9f1228e52ce4401c"
        )

    def test_patch_svg(self):
        assert self.digest(render_patch(TileParams(5, 5), 2)) == (
            "8c098b8d9912b2890ba9a7f45a60f13c8dba3f286a917a3f83740ea53c10aa1d"
        )

    def test_patch_svg_with_many_repeated_coordinates(self):
        # 15 translates of 4,582 vertices: 137,460 coordinates, 27,532 of
        # them distinct; recorded before the writer formatted each distinct
        # value once
        assert self.digest(render_patch(TileParams(10, 12), 3)) == (
            "fad5d63506102d4aedfe7775f07ddea229ade4f8d9771d334b7b11760e78b947"
        )

    @pytest.mark.parametrize(
        "a,b,sha",
        [
            (5, 5, "591a2c9df98397e12ba5c23143893adfb2100b2ae87a5cbd823f8d1ce626e4f4"),
            (9, 12, "8ef6171dfa6c53888474eeb73fe412dda5a38b3b373719f4a08d6fc29655cafc"),
        ],
        ids=["5-5", "9-12"],
    )
    def test_cutpoint_svg(self, a, b, sha):
        assert self.digest(render_cutpoint(TileParams(a, b), 2)) == sha


class TestPalette:
    def test_unique_and_stable(self):
        assert palette(19) == palette(19)
        assert len(set(palette(19))) == 19
