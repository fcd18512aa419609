import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiletopo import Address, TileParams, WrongRegime, point_eval
from tiletopo.neighbors import (
    NeighborSet,
    _ball_rows,
    _predecessor_rows,
    certified_series_bound,
    neighbor_set_formula,
    neighbor_set_search,
    reflect_neighbor_set,
)

from conftest import pairs
from reference import (
    LengthMismatch,
    adjacent_singleton_point,
    candidate_ball,
    mat_inv,
    mat_vec,
    neighbor_set_to_json,
    point_set_search,
    subdivision_diff,
    subdivision_intersects,
)


class TestFormula:
    def test_4_5_paper_set(self):
        s = neighbor_set_formula(TileParams(4, 5))
        assert s.j == 2
        expected = {(1, 0), (3, 1), (2, 1), (4, 1), (6, 2)}
        expected |= {(-x, -y) for (x, y) in expected}
        assert s.members == expected

    def test_2_2(self):
        s = neighbor_set_formula(TileParams(2, 2))
        assert s.j == 1
        assert s.members == {(1, 0), (-1, 0), (1, 1), (-1, -1), (2, 1), (-2, -1)}

    def test_5_5_cardinality(self):
        s = neighbor_set_formula(TileParams(5, 5))
        assert s.j == 4 and len(s) == 18

    def test_symmetry_and_count_on_grid(self):
        for b in range(2, 13):
            for a in range(1, b + 1):
                s = neighbor_set_formula(TileParams(a, b))
                assert len(s) == 2 + 4 * s.j
                assert all((-x, -y) in s.members for (x, y) in s.members)

    def test_a_zero_formula_matches_search(self):
        # at A = 0 the closed form is the eight unit vectors, the set the
        # certified search finds
        for b in range(2, 51):
            p = TileParams(0, b)
            f = neighbor_set_formula(p)
            assert f.members == neighbor_set_search(p).members, b
            assert f.j is None, b


class TestSearch:
    @pytest.mark.parametrize("a,b", [(4, 5), (2, 2), (5, 5), (1, 2), (6, 9), (12, 12)])
    def test_matches_formula(self, a, b):
        p = TileParams(a, b)
        assert neighbor_set_search(p).members == neighbor_set_formula(p).members

    def test_zero_excluded(self):
        assert (0, 0) not in neighbor_set_search(TileParams(4, 5)).members

    def test_certified_bound_dominates_members(self):
        # every neighbor must satisfy the certified norm bound
        for a, b in [(4, 5), (5, 5), (12, 12)]:
            p = TileParams(a, b)
            w_inv, bound = certified_series_bound(p)
            for s in neighbor_set_formula(p).members:
                t = mat_vec(w_inv, s)
                assert max(abs(t[0]), abs(t[1])) <= bound

    @pytest.mark.parametrize(
        "a,b",
        [(2, 2), (10**6, 10**6), (10**6 - 1, 10**6), (1, 10**6), (0, 10**6), (2000, 10**6)],
    )
    def test_bound_found_without_a_cap(self, a, b):
        # the split point k is searched with no upper limit: (2,2) is the one
        # pair 0 <= A <= B <= 400 that needs k = 2, and the large pairs need
        # k = 1.  R is invertible, so the bound confines both coordinates, and
        # the two alternating 12-term series with extreme digits stay inside
        # it.  R = adj(W) up to row factors, so this also checks W in each
        # branch of A^2 - 4B: above 0 at (10^6 - 1, 10^6) and (10^6, 10^6),
        # below 0 at (2,2), (1, 10^6) and (0, 10^6), and 0 at (2000, 10^6)
        p = TileParams(a, b)
        r, c = certified_series_bound(p)
        assert r[0][0] * r[1][1] != r[0][1] * r[1][0] and c > 0
        minv, col = mat_inv(p.matrix), (Fraction(b - 1), Fraction(0))
        for sign in (1, -1):
            s, term = (0, 0), col
            for i in range(12):
                term = mat_vec(minv, term)
                s = (s[0] + sign * (-1) ** i * term[0], s[1] + sign * (-1) ** i * term[1])
            t = mat_vec(r, s)
            assert max(abs(t[0]), abs(t[1])) <= c, (p, sign)

    def test_certified_bound_dominates_sampled_series(self):
        # finite difference series with extreme digits, including the two
        # alternating ones that push along the eigenvalue near -1 when A ~ B
        rng = random.Random(7)
        for b in range(2, 21):
            for a in range(0, b + 1):
                p = TileParams(a, b)
                w_inv, bound = certified_series_bound(p)
                columns, col = [], (Fraction(1), Fraction(0))
                for _ in range(12):
                    col = mat_vec(mat_inv(p.matrix), col)
                    columns.append(col)
                top = b - 1
                digit_runs = [[(-1) ** i * top for i in range(12)], [(-1) ** (i + 1) * top for i in range(12)]]
                digit_runs += [[rng.choice((-top, 0, top)) for _ in range(12)] for _ in range(20)]
                sums = [
                    (sum(d * c[0] for d, c in zip(run, columns)), sum(d * c[1] for d, c in zip(run, columns)))
                    for run in digit_runs
                ]
                for s in sums + list(neighbor_set_formula(p).members):
                    t = mat_vec(w_inv, s)
                    assert max(abs(t[0]), abs(t[1])) <= bound, (a, b, s)

    def test_reflection(self):
        s = neighbor_set_formula(TileParams(4, 5))
        r = reflect_neighbor_set(s)
        assert r.members == {(x, -y) for (x, y) in s.members}


class TestSearchGrid:
    """The search without the whole ball: exact against the closed form for
    every B <= 50, against the point-set search for every B <= 60, and a
    ball of a few hundred points at (50, 50)."""

    def test_search_equals_oracle_and_formula_up_to_60(self):
        # the counting search, the point-set search it replaced (successor
        # lists trimmed by live_nodes) and the closed form, on every pair
        # 0 <= A <= B <= 60
        for b in range(2, 61):
            for a in range(0, b + 1):
                p = TileParams(a, b)
                searched = neighbor_set_search(p).members
                assert searched == point_set_search(p).members, (a, b)
                assert searched == neighbor_set_formula(p).members, (a, b)

    def test_predecessor_rows_are_the_lemmas(self):
        # the rows the trimming visits for a dead (t, r) are exactly the y
        # with |t + B y| <= B - 1, one or two of them
        for b in range(2, 51):
            for t in range(-3 * b, 3 * b + 1):
                rows = [y for y in range(-5, 6) if abs(t + b * y) <= b - 1]
                assert list(_predecessor_rows(t, b)) == rows, (b, t)
                assert 1 <= len(rows) <= 2, (b, t)

    def test_predecessors_in_the_ball_are_the_lemmas(self):
        # on the ball's graph: the predecessors of each state (t, r), found
        # from every state's successors s -> Ms + (d, 0), are the states
        # (r + A y, y) of the ball in the rows _predecessor_rows(t, B)
        for b in range(2, 21):
            for a in range(0, b + 1):
                ball = candidate_ball(TileParams(a, b))
                preds: dict = {s: set() for s in ball}
                for x, y in ball:
                    for d in range(1 - b, b):
                        succ = (-b * y + d, x - a * y)
                        if succ in preds:
                            preds[succ].add((x, y))
                for (t, r), found in preds.items():
                    lemma = {(r + a * y, y) for y in _predecessor_rows(t, b)} & ball
                    assert found == lemma, (a, b, (t, r))

    def test_matches_formula_up_to_50(self):
        for b in range(2, 51):
            for a in range(1, b + 1):
                p = TileParams(a, b)
                assert neighbor_set_search(p).members == neighbor_set_formula(p).members, (a, b)

    def test_a_zero_is_the_eight_unit_vectors(self):
        units = {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)} - {(0, 0)}
        for b in range(2, 51):
            assert neighbor_set_search(TileParams(0, b)).members == units, b

    def test_every_row_of_the_ball_is_one_interval(self):
        # the search takes each state's successors as one range of a row
        for b in range(2, 51):
            for a in range(0, b + 1):
                rows: dict = {}
                for x, y in candidate_ball(TileParams(a, b)):
                    rows.setdefault(y, []).append(x)
                for y, xs in rows.items():
                    assert max(xs) - min(xs) + 1 == len(xs), (a, b, y)

    def test_a_slab_without_x_is_bounded_by_the_rows(self):
        # _ball_rows leaves out a slab |cx x + cy y| <= c with cx = 0: it is
        # a row (0, cy) of R, so r00 = 0 or r10 = 0, and y_max =
        # c (|r10| + |r00|) // |det R| is then c // |cy|, so no row in
        # range leaves it.  Every pair B <= 50 and the D = A^2 - 4B = 0
        # pairs (2k, k^2), k <= 45, whose eigenbasis gives such a row
        pairs = [(a, b) for b in range(2, 51) for a in range(0, b + 1)]
        pairs += [(2 * k, k * k) for k in range(8, 46)]
        slabs = 0
        for a, b in pairs:
            r, c = certified_series_bound(TileParams(a, b))
            (r00, r01), (r10, r11) = r
            y_max = c * (abs(r10) + abs(r00)) // abs(r00 * r11 - r01 * r10)
            for cx, cy in r:
                if cx == 0:
                    slabs += 1
                    assert y_max == c // abs(cy), (a, b)
        assert (len(pairs), slabs) == (1361, 540)

    def test_ball_is_small_at_50_50(self):
        assert len(candidate_ball(TileParams(50, 50))) < 1000

    def test_ball_golden_digest(self):
        # sha256 of the sorted certified ball over all 1,323 pairs
        # 0 <= A <= B <= 50, recorded with the Fraction bound and slab cuts
        # that the integer ones replaced
        h = hashlib.sha256()
        for b in range(2, 51):
            for a in range(0, b + 1):
                h.update(repr(sorted(candidate_ball(TileParams(a, b)))).encode())
        assert h.hexdigest() == (
            "a133147982320990ed010011b12169dfec5876cd00e62b451ed9c8e39cd23058"
        )


class TestJsonText:
    """The neighbor-set document in its fixed layout against ``json.dumps``
    of the reference dict."""

    @staticmethod
    def dumps(sset, reflected):
        return json.dumps(neighbor_set_to_json(sset, reflected), indent=2, sort_keys=True)

    def test_every_pair_up_to_50_plain_and_reflected(self):
        for b in range(2, 51):
            for a in range(0, b + 1):
                sset = neighbor_set_formula(TileParams(a, b))
                mirror = reflect_neighbor_set(sset)
                assert sset.json_text(False) == self.dumps(sset, False), (a, b)
                assert mirror.json_text(True) == self.dumps(mirror, True), (a, b)

    def test_a_zero_has_null_j(self):
        sset = neighbor_set_formula(TileParams(0, 7))
        assert '\n  "j": null,\n' in sset.json_text(False)
        assert sset.json_text(False) == self.dumps(sset, False)

    def test_empty_set(self):
        empty = NeighborSet(frozenset(), 1)
        assert empty.json_text(True) == self.dumps(empty, True)


class TestDrawnPairs:
    """The certified bound and the search on drawn pairs up to B = 200,
    past the fixed grids' B = 20 and B = 60, and the search again up to
    B = 10^4."""

    @given(pairs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_certified_bound_dominates_sampled_series(self, p, data):
        r, c = certified_series_bound(p)
        assert all(type(x) is int for x in (c, *r[0], *r[1])) and c > 0
        # 12-term series with extreme digits: the two alternating ones, which
        # push along the eigenvalue near -1 when A ~ B, and drawn ones
        top = p.b - 1
        extreme = st.sampled_from((-top, 0, top))
        runs = [[(-1) ** i * top for i in range(12)], [(-1) ** (i + 1) * top for i in range(12)]]
        runs += data.draw(st.lists(st.lists(extreme, min_size=12, max_size=12), max_size=8))
        minv = mat_inv(p.matrix)
        columns, col = [], (Fraction(1), Fraction(0))
        for _ in range(12):
            col = mat_vec(minv, col)
            columns.append(col)
        for run in runs:
            s = (sum(d * x for d, (x, _) in zip(run, columns)),
                 sum(d * y for d, (_, y) in zip(run, columns)))
            t = mat_vec(r, s)
            assert max(abs(t[0]), abs(t[1])) <= c, (p, run)

    @given(pairs(min_b=51))
    @settings(max_examples=40, deadline=None)
    def test_search_matches_formula(self, p):
        assert neighbor_set_search(p).members == neighbor_set_formula(p).members

    @given(pairs(min_b=201, max_b=10**4))
    @settings(max_examples=60, deadline=None, database=None)
    def test_search_matches_formula_up_to_ten_thousand(self, p):
        assert neighbor_set_search(p).members == neighbor_set_formula(p).members


class TestBallSize:
    """The ball's point count pinned at every rung of the two ``neighbors``
    ladders of ``tools/scaling.py``, (B - 2, B) and (B, B) for
    B = 25 * 2^k up to 6,400.  The search does a bounded amount of work per
    point and per dead state, so these counts pin its growth in B where a
    timing could not.  Measured: at (B, B) the ball has exactly 4B + 7
    points in 2B - 1 rows.  At (B - 2, B) it has about 4B / 3 points, under
    the ceiling (4B + 30) / 3 by a margin of 1/3 at B = 25, 100, 400, 1,600
    and 6,400 and of 11/3 at the other rungs.  (B, B) is not the largest
    ball at every B: the pairs with A^2 - 4B = 1 have larger ones, 117
    points at (9, 20) against 87 at (20, 20)."""

    RUNGS = [25 * 2**k for k in range(9)]

    @staticmethod
    def points(a, b):
        return sum(hi - lo + 1 for lo, hi in _ball_rows(TileParams(a, b)).values())

    def test_square_ladder(self):
        for b in self.RUNGS:
            assert self.points(b, b) == 4 * b + 7, b
            assert len(_ball_rows(TileParams(b, b))) == 2 * b - 1, b

    def test_near_ladder(self):
        counts = [self.points(b - 2, b) for b in self.RUNGS]
        assert counts == [43, 73, 143, 273, 543, 1073, 2143, 4273, 8543]
        assert [4 * b + 30 - 3 * n for b, n in zip(self.RUNGS, counts)] == [1, 11] * 4 + [1]


class TestSubdivision:
    def test_equal_words(self):
        assert subdivision_diff((2, 3), (2, 3), TileParams(4, 5)) == (0, 0)

    def test_depth2_example(self):
        assert subdivision_diff((2, 2), (1, 0), TileParams(4, 5)) == (2, 1)

    def test_depth1_example(self):
        assert subdivision_diff((2,), (1,), TileParams(4, 5)) == (1, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            subdivision_diff((1,), (1, 2), TileParams(4, 5))

    def test_intersects_examples(self):
        p = TileParams(4, 5)
        assert subdivision_intersects((2,), (1,), p)
        assert not subdivision_intersects((3,), (1,), p)
        assert subdivision_intersects((2, 2), (1, 0), p)

    def test_depth_monotonicity(self):
        # non-neighbors map only to non-neighbors under s -> Ms + (d, 0)
        for a, b in [(4, 5), (5, 5), (2, 2)]:
            p = TileParams(a, b)
            ball = candidate_ball(p)
            good = neighbor_set_formula(p).members | {(0, 0)}
            m = p.matrix
            for s in ball:
                if s in good:
                    continue
                ms = mat_vec(m, s)
                for d in range(-(b - 1), b):
                    t = (ms[0] + d, ms[1])
                    if t in ball:
                        assert t not in good, (s, t)


class TestAdjacentSingleton:
    def test_example_120_001(self):
        p = TileParams(4, 5)
        pair = adjacent_singleton_point((1, 2, 0), (0, 0, 1), p)
        assert pair is not None
        left, right = pair
        assert left == Address((), (1, 2, 0), (0, 4))
        assert right == Address((), (0, 0, 1), (4, 0))
        assert point_eval(left, p) == point_eval(right, p)

    def test_example_220_101(self):
        p = TileParams(4, 5)
        pair = adjacent_singleton_point((2, 2, 0), (1, 0, 1), p)
        assert pair is not None
        assert point_eval(pair[0], p) == point_eval(pair[1], p)

    def test_equal_words_give_nothing(self):
        assert adjacent_singleton_point((1, 2, 0), (1, 2, 0), TileParams(4, 5)) is None

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            adjacent_singleton_point((1, 2, 0), (0, 0, 1), TileParams(5, 5))


class TestSubdivisionLemmaReplay:
    """Exhaustive replay of the depth <= 4 intersection table for 2A-B=3."""

    @pytest.mark.parametrize("a,b", [(4, 5), (5, 7), (6, 9)])
    def test_depth1(self, a, b):
        p = TileParams(a, b)
        for a1 in range(b):
            for a1p in range(b):
                if a1 == a1p:
                    continue
                assert subdivision_intersects((a1,), (a1p,), p) == (abs(a1 - a1p) == 1)

    @pytest.mark.parametrize("a,b", [(4, 5), (5, 7), (6, 9)])
    def test_depth2(self, a, b):
        p = TileParams(a, b)
        for a1 in range(1, b):
            a1p = a1 - 1
            for a2 in range(b):
                for a2p in range(b):
                    got = subdivision_intersects((a1, a2), (a1p, a2p), p)
                    assert got == (a2 - a2p in {a, a - 1, a - 2})

    @pytest.mark.parametrize("a,b", [(4, 5), (5, 7), (6, 9)])
    def test_depth4_diff_a(self, a, b):
        p = TileParams(a, b)
        for a2 in range(a, b):  # a2 - a2' = A
            a2p = a2 - a
            for a3 in range(b):
                for a3p in range(b):
                    for a4 in range(b):
                        for a4p in range(b):
                            got = subdivision_intersects(
                                (1, a2, a3, a4), (0, a2p, a3p, a4p), p
                            )
                            want = (
                                a3 == b - 1
                                and a3p == 0
                                and a4 - a4p in {-a, -a + 1, -a + 2}
                            )
                            assert got == want

    @pytest.mark.parametrize("a,b", [(4, 5), (5, 7), (6, 9)])
    def test_depth4_diff_a_minus_1(self, a, b):
        p = TileParams(a, b)
        for a2 in range(a - 1, b):  # a2 - a2' = A-1
            a2p = a2 - (a - 1)
            for a3 in range(b):
                for a3p in range(b):
                    for a4 in range(b):
                        for a4p in range(b):
                            got = subdivision_intersects(
                                (1, a2, a3, a4), (0, a2p, a3p, a4p), p
                            )
                            d3, d4 = a3 - a3p, a4 - a4p
                            want = (
                                (d3 == b - a and a4 == 0 and a4p == b - 1)
                                or (d3 == b - a + 1 and d4 in {a - b, a - b - 1, a - b - 2})
                                or (d3 == b - a + 2 and d4 == 1)
                            )
                            assert got == want

    @pytest.mark.parametrize("a,b", [(4, 5), (5, 7), (6, 9)])
    def test_depth3_diff_a_minus_2_and_singleton(self, a, b):
        p = TileParams(a, b)
        for a2 in range(a - 2, b):  # a2 - a2' = A-2
            a2p = a2 - (a - 2)
            for a3 in range(b):
                for a3p in range(b):
                    got = subdivision_intersects((1, a2, a3), (0, a2p, a3p), p)
                    assert got == (a3 - a3p == -1)
                    if got:
                        pair = adjacent_singleton_point((1, a2, a3), (0, a2p, a3p), p)
                        assert pair is not None
                        assert point_eval(pair[0], p) == point_eval(pair[1], p)


class TestSingletonProofCases:
    """Depth-2 case analysis used to pin the cut point for 2A-B >= 5."""

    def grid(self):
        return [
            (a, b)
            for b in range(2, 13)
            for a in range(1, b + 1)
            if 2 * a - b >= 5
        ]

    def test_far_pairs_empty(self):
        for a, b in self.grid():
            p = TileParams(a, b)
            for j in range(b):
                for k in range(b):
                    # (A-4)j against (A-2)k and mirrored: never intersect
                    assert not subdivision_intersects((a - 2, k), (a - 4, j), p)
                    for kk in range(0, b - a + 3):
                        assert not subdivision_intersects((a - 3, kk), (a - 4, j), p)
            for j in range(b - a + 2, b):
                for k in range(b):
                    assert not subdivision_intersects((a - 2, k), (a - 3, j), p)

    def test_tight_pairs_exactly_three(self):
        for a, b in self.grid():
            p = TileParams(a, b)
            hits = set()
            for j in range(b - a + 2, b):
                for k in range(0, b - a + 3):
                    if subdivision_intersects((a - 3, j), (a - 3, k), p):
                        hits.add((j, k))
            expect = {
                (b - a + 2, b - a + 2),
                (b - a + 3, b - a + 2),
                (b - a + 2, b - a + 1),
            }
            assert hits == expect
