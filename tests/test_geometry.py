import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiletopo.contact import (
    approx_boundary,
    build_contact_graph,
    count_walks,
    ordered_extension,
)
from tiletopo.geometry import _candidate_pairs, polygon_is_simple_closed, polyline_hausdorff
from tiletopo.numsys import TileParams

from reference import segments_intersect


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

    def test_touch_at_the_extreme_x_or_y(self):
        # the touching point lies on the first segment's box edge: its one x
        # for a vertical segment, its one y for a horizontal one
        assert segments_intersect((0, 0), (0, 2), (-1, 1), (0, 1))
        assert segments_intersect((0, 0), (2, 0), (1, -1), (1, 0))


def int_and_fraction(*pts):
    """One polygon with int and with Fraction coordinates; approx_boundary
    passes ints."""
    return [tuple(pts), poly(*pts)]


class TestSimpleClosed:
    def test_square(self):
        for p in int_and_fraction((0, 0), (1, 0), (1, 1), (0, 1)):
            assert polygon_is_simple_closed(p)

    def test_fewer_than_three_vertices(self):
        # two vertices close into one segment run both ways, not a polygon
        for p in int_and_fraction((0, 0), (1, 0)) + [((0, 0),), ()]:
            assert polygon_is_simple_closed(p) is False
        assert polygon_is_simple_closed(np.array([(0, 0), (1, 0)], dtype=np.int64)) is False

    def test_triangle(self):
        pts = ((0, 0), (3, 0), (0, 2))
        for p in int_and_fraction(*pts) + [np.array(pts, dtype=np.int64)]:
            assert polygon_is_simple_closed(p) is True

    def test_bowtie(self):
        for p in int_and_fraction((0, 0), (2, 2), (2, 0), (0, 2)):
            assert not polygon_is_simple_closed(p)

    def test_spike(self):
        for p in int_and_fraction((0, 0), (2, 0), (1, 0), (1, 1)):
            assert not polygon_is_simple_closed(p)

    def test_flat_triangle(self):
        # no edge pair is non-adjacent, so only the spike test rejects it;
        # 2**40 makes the integer array one of Python ints
        for k in (1, 2**40):
            pts = [(0, 0), (k, 0), (2 * k, 0)]
            for p in int_and_fraction(*pts) + int_and_fraction(*pts[::-1]):
                assert not polygon_is_simple_closed(p)

    def test_vertex_on_edge(self):
        # a vertex on a horizontal edge, and transposed on a vertical one, at
        # every cyclic position and in both orientations: the touch is read
        # off different sign terms and box comparisons (see the README ledger)
        pts = [(0, 0), (2, 0), (2, 2), (1, 0), (0, 2)]
        for shape in (pts, [(y, x) for x, y in pts]):
            for shift in range(len(shape)):
                ring = shape[shift:] + shape[:shift]
                for p in int_and_fraction(*ring) + int_and_fraction(*ring[::-1]):
                    assert not polygon_is_simple_closed(p)

    def test_repeated_vertex(self):
        for p in int_and_fraction((0, 0), (1, 0), (0, 0), (0, 1)):
            assert not polygon_is_simple_closed(p)

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
        # denominators past 2^30 make the integer array one of Python ints
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


def _star(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """m integer points in strictly increasing angle around the origin, with
    every angular gap below pi, under a random integer shear that makes the
    edges slivers: a simple polygon.  Coordinates are multiples of 4."""
    while True:
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(m))
        pts = []
        for t in angles:
            r = rng.uniform(2000, 10000)
            pts.append((4 * round(r * math.cos(t)), 4 * round(r * math.sin(t))))
        exact = [math.atan2(y, x) % (2 * math.pi) for x, y in pts]
        gaps = [(exact[(i + 1) % m] - exact[i]) % (2 * math.pi) for i in range(m)]
        if all(exact[i] < exact[i + 1] for i in range(m - 1)) and max(gaps) < 3:
            break
    a, b = rng.choice([(1, 0), (40, 1), (300, 7)])
    return [(a * x + b * y, y) for x, y in pts]


def _quarter(p, q, k):
    """The point k/4 of the way from p to q (exact: coordinates are
    multiples of 4)."""
    return tuple(pc + k * (qc - pc) // 4 for pc, qc in zip(p, q))


def _sample_polygons():
    """Seeded polygons with 5..400 vertices, and each of them scaled by
    2**40: (name, points, simple?)."""
    rng = random.Random(20261018)
    out = []
    for m in (65, 130, 250, 400, 5, 16, 64):
        pts = _star(rng, m)
        out.append(("simple", pts, True))
        while True:  # swap two vertices until edges k-1 and k+2 cross
            k = rng.randrange(1, m - 3)
            crossed = list(pts)
            crossed[k], crossed[k + 2] = crossed[k + 2], crossed[k]
            if segments_intersect(*crossed[k - 1 : k + 1], *crossed[k + 2 : k + 4]):
                break
        out.append(("crossing", crossed, False))
        # a vertex on the midpoint of edge j, inserted far from edge j
        j = rng.randrange(m)
        mid = _quarter(pts[j], pts[(j + 1) % m], 2)
        k = (j + m // 2) % m
        out.append(("vertex-on-edge", pts[: k + 1] + [mid] + pts[k + 1 :], False))
        # an edge lying inside edge j: its quarter points, inserted far away
        q1, q3 = (_quarter(pts[j], pts[(j + 1) % m], i) for i in (1, 3))
        out.append(("collinear-overlap", pts[: k + 1] + [q1, q3] + pts[k + 1 :], False))
    big = [(f"{name} x 2**40", [(x << 40, y << 40) for x, y in pts], simple) for name, pts, simple in out]
    return out + big


def _closed(pts) -> np.ndarray:
    """The closed integer array of an integer polygon, with the dtype the
    simple-closed test gives it."""
    small = max(abs(c) for v in pts for c in v) < 2**30
    return np.array(list(pts) + [pts[0]], dtype=np.int64 if small else object)


def _as_fractions(pts, d=12):
    return tuple((Fraction(x, d), Fraction(y, d)) for x, y in pts)


def _valid(pts) -> bool:
    """Distinct vertices and no spike, the two checks the all-pairs
    reference leaves out."""
    m = len(pts)
    if len(set(pts)) != m:
        return False
    for i in range(m):
        p, q, r = pts[i], pts[(i + 1) % m], pts[(i + 2) % m]
        cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        inward = (p[0] - q[0]) * (r[0] - q[0]) + (p[1] - q[1]) * (r[1] - q[1])
        if cross == 0 and inward > 0:
            return False
    return True


def _boundary_polygons():
    """The level-n boundary arrays of the pairs 1 <= A <= B <= 12 but (1, 2),
    each at its first level with 1,000 walks or more, where that is at most 4."""
    for b in range(2, 13):
        for a in range(1, b + 1):
            ordered = ordered_extension(build_contact_graph(TileParams(a, b)))
            n = next(n for n in range(30) if count_walks(ordered.graph, n) >= 1000)
            if (a, b) != (1, 2) and n <= 4:
                yield (a, b, n), approx_boundary(ordered, n).point_array


class TestVectorizedPath:
    """Every polygon goes through the sweep and the array tests on its
    integers: int64 below 2**30, Python ints above."""

    POLYGONS = _sample_polygons()

    def test_agrees_with_all_pairs(self):
        for name, pts, simple in self.POLYGONS:
            assert _valid(pts), name
            assert TestSimpleClosed._all_pairs_simple(pts) is simple, name
            assert polygon_is_simple_closed(tuple(pts)) is simple, name
            assert polygon_is_simple_closed(_as_fractions(pts)) is simple, name

    def test_candidates_cover_every_meeting_box(self):
        """Every non-adjacent pair whose exact boxes meet, in the frame of
        the longest segment, is a candidate."""
        for name, pts, _ in self.POLYGONS:
            iarr = np.array(pts + pts[:1], dtype=object)
            m = len(pts)
            seg = iarr[1:] - iarr[:-1]
            lengths2 = sorted((int(dx) ** 2 + int(dy) ** 2, i) for i, (dx, dy) in enumerate(seg))
            (second, _), (longest, k) = lengths2[-2:]
            assert second < longest * (1 - 1e-9), name  # the frame is unambiguous
            dx, dy = seg[k]
            u = iarr[:, 0] * dx + iarr[:, 1] * dy
            v = iarr[:, 1] * dx - iarr[:, 0] * dy
            lo_u, hi_u = np.minimum(u[:-1], u[1:]), np.maximum(u[:-1], u[1:])
            lo_v, hi_v = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
            meet = (
                (lo_u[:, None] <= hi_u[None, :])
                & (lo_u[None, :] <= hi_u[:, None])
                & (lo_v[:, None] <= hi_v[None, :])
                & (lo_v[None, :] <= hi_v[:, None])
            )
            i, j = np.nonzero(np.triu(meet, 2))
            keep = ~((i == 0) & (j == m - 1))
            need = set(zip(i[keep].tolist(), j[keep].tolist()))
            assert need or m == 5, name  # the simple pentagon has no such pair
            got = set(map(tuple, _candidate_pairs(_closed(pts)).tolist()))
            assert need <= got, name

    @pytest.mark.parametrize(
        "a,b,n,sha",
        [
            (12, 12, 3, "b6e6b2aeff624fba702295a7556d0ebc7b73735f165fd698d95e084cae2a0acf"),
            (10, 12, 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (5, 5, 6, "c250330ea790a2ca777c62b9f2b7038f1981705d687734205bb2de7bc9c9648f"),
        ],
        ids=["12-12-n3", "10-12-n3", "5-5-n6"],
    )
    def test_boundary_candidate_digests(self, a, b, n, sha):
        """Digests recorded with the per-cell bucket loop that the sorted
        grouping replaced; the pair array must not change."""
        ordered = ordered_extension(build_contact_graph(TileParams(a, b)))
        points = approx_boundary(ordered, n).point_array.tolist()
        pi = _candidate_pairs(_closed(points))
        assert pi.dtype == np.int64
        assert hashlib.sha256(pi.tobytes()).hexdigest() == sha

    def test_boundary_candidate_digest_all_cases(self):
        """One digest over the pair arrays of all 58 boundary polygons,
        recorded with the grid prefilter that the sweep replaced."""
        digest = hashlib.sha256()
        cases = 0
        for _, arr in _boundary_polygons():
            digest.update(_candidate_pairs(np.concatenate([arr, arr[:1]])).tobytes())
            cases += 1
        assert cases == 58
        assert digest.hexdigest() == (
            "773bace478b047665d9f1f5a0b13b65c2897bd285d5b3625bb55d29218de0e46"
        )

    def test_boundary_polygons_on_every_integer_path(self):
        # the array as int64, as Python ints and as tuples gives one answer;
        # scaled by 2**31, the same polygon runs on Python ints throughout
        cases = 0
        for case, arr in _boundary_polygons():
            assert arr.dtype == np.int64, case
            wide = arr.astype(object)
            inputs = [arr, wide, tuple(map(tuple, arr.tolist())), wide * 2**31]
            assert [polygon_is_simple_closed(p) for p in inputs] == [True] * 4, case
            cases += 1
        assert cases == 58


@st.composite
def _drawn_polygons(draw) -> list[tuple[int, int]]:
    """3 to 8 points of a small grid; when at least three are distinct, the
    distinct ones, as drawn (seldom simple) or in angular order about their
    mean (often simple).  Then one defect goes in after vertex k: none, a
    repeat of vertex j, the midpoint of edge j (a touch), the midpoint of
    the edge into vertex k (a spike), or the quarter points of edge j (a
    collinear overlap); with more than 3 points, all but a spike may take
    the place of vertex k instead.  Coordinates are multiples of 4, so
    every quarter point is an integer point."""
    coord = st.integers(-3, 3)
    drawn = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=8))
    pts = [(4 * x, 4 * y) for x, y in drawn]
    if len(set(pts)) >= 3:
        pts = list(dict.fromkeys(pts))
        if draw(st.booleans()):
            mx, my = sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts)
            pts.sort(key=lambda p: (math.atan2(p[1] - my, p[0] - mx), p))
    m = len(pts)
    j, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    edge = (pts[j], pts[(j + 1) % m])
    defect = draw(st.sampled_from(["none", "repeat", "touch", "spike", "overlap"]))
    extra = {
        "none": [],
        "repeat": [pts[j]],
        "touch": [_quarter(*edge, 2)],
        "spike": [_quarter(pts[k - 1], pts[k], 2)],
        "overlap": [_quarter(*edge, 1), _quarter(*edge, 3)],
    }[defect]
    replace = defect in ("repeat", "touch", "overlap") and m > 3 and draw(st.booleans())
    return pts[: k + 1 - replace] + extra + pts[k + 1 :]


class TestDrawnPolygons:
    """Small drawn polygons with collinear overlaps, touches at vertices,
    spikes and repeated vertices, against the all-pairs reference."""

    @given(_drawn_polygons())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_all_pairs(self, pts):
        simple = _valid(pts) and TestSimpleClosed._all_pairs_simple(pts)
        wide = np.array(pts, dtype=object) * 2**31
        inputs = [tuple(pts), np.array(pts, dtype=np.int64), wide, _as_fractions(pts)]
        assert [polygon_is_simple_closed(p) for p in inputs] == [simple] * 4

    @given(_drawn_polygons())
    @settings(max_examples=400, deadline=None)
    def test_candidates_cover_every_meeting_pair(self, pts):
        """The candidates are non-adjacent pairs i < j in increasing order
        of i * m + j, and they hold every non-adjacent pair of closed
        segments that meet."""
        m = len(pts)
        seg = [(pts[i], pts[(i + 1) % m]) for i in range(m)]
        need = {
            (i, j)
            for i in range(m)
            for j in range(i + 2, m)
            if (i, j) != (0, m - 1) and segments_intersect(*seg[i], *seg[j])
        }
        got = _candidate_pairs(_closed(pts)).tolist()
        assert all(i + 2 <= j < m and (i, j) != (0, m - 1) for i, j in got)
        assert got == sorted(got)
        assert need <= set(map(tuple, got))


def _comb(teeth: int, bent: int | None = None) -> list[tuple[int, int]]:
    """A base of length 4*teeth + 1 along y = -1 under ``teeth`` teeth of
    height 1,000 and width 2, 4*teeth + 4 segments.  Tooth ``bent`` leans
    3 to the left, so that its falling edge crosses its left neighbour."""
    top = 4 * teeth + 1
    pts = [(0, -1), (top, -1), (top, 0)]
    for t in reversed(range(teeth)):
        lean = 3 if t == bent else 0
        left, right = 4 * t + 1, 4 * t + 3
        pts += [(right, 0), (right - lean, 1000), (left - lean, 1000), (left, 0)]
    return pts + [(0, 0)]


class TestSweepAxis:
    """The sweep lists the pairs that overlap on one axis of the rotated
    frame.  A comb's teeth overlap each other on the axis across them, so
    the sweep must take the axis along them."""

    TEETH = 500

    def test_comb_is_simple(self):
        pts = _comb(self.TEETH)
        assert len(pts) == 2004
        assert polygon_is_simple_closed(np.array(pts, dtype=np.int64)) is True

    def test_bent_tooth_crosses(self):
        pts = _comb(self.TEETH, bent=self.TEETH // 2)
        assert polygon_is_simple_closed(np.array(pts, dtype=np.int64)) is False

    def test_comb_peak_allocation(self):
        closed = _closed(_comb(self.TEETH))
        tracemalloc.start()
        try:
            pairs = _candidate_pairs(closed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 0  # the teeth lie 2 apart: no boxes meet
        assert peak < 32 * 2**20


class TestHausdorff:
    def test_identical_is_zero(self):
        p = poly((0, 0), (1, 0), (1, 1), (0, 1))
        assert polyline_hausdorff(p, p) == 0.0

    def test_translated_square(self):
        p = poly((0, 0), (4, 0), (4, 4), (0, 4))
        q = poly((1, 0), (5, 0), (5, 4), (1, 4))
        assert abs(polyline_hausdorff(p, q) - 1.0) < 1e-12
