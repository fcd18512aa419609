import hashlib
import json

import pytest

from tiletopo import TileParams, WrongRegime
from tiletopo.render import (
    fmt,
    palette,
    polygon_to_json,
    render_boundary,
    render_cutpoint,
    render_patch,
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


class TestJsonExport:
    def test_schema_and_exact_vertices(self):
        doc = polygon_to_json(TileParams(4, 5), 0)
        assert doc["schema"] == "tiletopo/boundary-polygon@1"
        assert doc["vertices"][0] == ["1/2", "1/10"]
        assert len(doc["vertices"]) == 6


class TestGoldenBytes:
    """Digests of outputs recorded before the boundary moved to integer
    coordinates; the SVG and JSON bytes must never change."""

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_polygon_json(self):
        doc = polygon_to_json(TileParams(7, 11), 2)
        assert self.digest(json.dumps(doc, indent=2, sort_keys=True)) == (
            "7db27046d55a4cc3660e01e4b2c904ce67a3654e7d21c2254f9760b94a00b17c"
        )

    def test_boundary_svg(self):
        assert self.digest(render_boundary(TileParams(4, 5), 3)) == (
            "1bca55871a19e9e5782de2c48d8ace9a56ffeb004ae8d1a6a650881f6528d7be"
        )

    def test_patch_svg(self):
        assert self.digest(render_patch(TileParams(5, 5), 2)) == (
            "8c098b8d9912b2890ba9a7f45a60f13c8dba3f286a917a3f83740ea53c10aa1d"
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
