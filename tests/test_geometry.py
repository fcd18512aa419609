import random
from fractions import Fraction

from tiletopo.geometry import (
    polygon_is_simple_closed,
    polyline_hausdorff,
    segments_intersect,
)


def F(x):
    return Fraction(x)


def poly(*pts):
    return tuple((F(x), F(y)) for (x, y) in pts)


class TestSegments:
    def test_proper_crossing(self):
        assert segments_intersect((F(0), F(0)), (F(2), F(2)), (F(0), F(2)), (F(2), F(0)))

    def test_touching_endpoint(self):
        assert segments_intersect((F(0), F(0)), (F(1), F(0)), (F(1), F(0)), (F(2), F(1)))

    def test_disjoint(self):
        assert not segments_intersect(
            (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))
        )

    def test_collinear_overlap(self):
        assert segments_intersect((F(0), F(0)), (F(2), F(0)), (F(1), F(0)), (F(3), F(0)))


class TestSimpleClosed:
    def test_square(self):
        assert polygon_is_simple_closed(poly((0, 0), (1, 0), (1, 1), (0, 1)))

    def test_bowtie(self):
        assert not polygon_is_simple_closed(poly((0, 0), (2, 2), (2, 0), (0, 2)))

    def test_spike(self):
        assert not polygon_is_simple_closed(poly((0, 0), (2, 0), (1, 0), (1, 1)))

    def test_vertex_on_edge(self):
        assert not polygon_is_simple_closed(
            poly((0, 0), (2, 0), (2, 2), (1, 0), (0, 2))
        )

    def test_repeated_vertex(self):
        assert not polygon_is_simple_closed(poly((0, 0), (1, 0), (0, 0), (0, 1)))

    @staticmethod
    def _star(seed: int, n: int):
        # radial star over the full circle: rational circle points via the
        # tangent half-angle, one sweep per half, with jittered radii
        rng = random.Random(seed)
        pts = []
        for mirror in (1, -1):
            for k in range(n):
                r = Fraction(rng.randint(50, 150), 100)
                t = Fraction(2 * k, n) - 1  # angle in [-pi/2, pi/2)
                c = (1 - t * t) / (1 + t * t)
                s = 2 * t / (1 + t * t)
                pts.append((mirror * r * c, mirror * r * s))
        return pts

    def test_big_random_star_is_simple(self):
        assert polygon_is_simple_closed(tuple(self._star(5, 250)))

    def test_big_random_star_with_crossing(self):
        pts = self._star(5, 250)
        pts[100], pts[102] = pts[102], pts[100]  # force a local crossing
        assert not polygon_is_simple_closed(tuple(pts))

    def test_huge_coordinates_path(self):
        # denominators past 2^30 force the python-exact branch
        big = Fraction(1, 2**40 + 1)
        shift = [(big * x, big * y) for (x, y) in [(0, 0), (1, 0), (1, 1), (0, 1)]]
        ring = tuple(shift)
        assert polygon_is_simple_closed(ring)
        m = 100
        pts = []
        for k in range(m):
            t = Fraction(2 * k, m) - 1
            c = (1 - t * t) / (1 + t * t)
            s = 2 * t / (1 + t * t)
            pts.append((c + big, s - big))
        assert polygon_is_simple_closed(tuple(pts))

    @staticmethod
    def _zigzag(length: Fraction):
        # 100 segments of the given length along the x axis, closed by two
        # edges of length about 1 through an apex above the middle
        pts = [(k * length, (k % 2) * length) for k in range(101)]
        return pts + [(50 * length, Fraction(1))]

    @staticmethod
    def _all_pairs_simple(pts) -> bool:
        m = len(pts)
        return not any(
            segments_intersect(pts[i], pts[(i + 1) % m], pts[j], pts[(j + 1) % m])
            for i in range(m)
            for j in range(i + 2, m)
            if (j + 1) % m != i
        )

    def test_segment_lengths_far_apart(self):
        # a grid sized by the median segment would need ~10^12 cells here
        pts = self._zigzag(Fraction(1, 10**6))
        assert polygon_is_simple_closed(tuple(pts)) is True
        assert self._all_pairs_simple(pts) is True
        pts[50], pts[52] = pts[52], pts[50]  # segments 49 and 52 now cross
        assert polygon_is_simple_closed(tuple(pts)) is False
        assert self._all_pairs_simple(pts) is False


class TestHausdorff:
    def test_identical_is_zero(self):
        p = poly((0, 0), (1, 0), (1, 1), (0, 1))
        assert polyline_hausdorff(p, p) == 0.0

    def test_translated_square(self):
        p = poly((0, 0), (4, 0), (4, 4), (0, 4))
        q = poly((1, 0), (5, 0), (5, 4), (1, 4))
        assert abs(polyline_hausdorff(p, q) - 1.0) < 1e-12
