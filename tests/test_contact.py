import numpy as np
import pytest

from fractions import Fraction

from tiletopo import TileParams, parse_address, point_eval
from tiletopo.contact import (
    ContactGraph,
    Walk,
    approx_boundary,
    boundary_point,
    build_contact_graph,
    count_walks,
    derive_order_extension,
    graph_to_dot,
    graph_to_json,
    param_to_walk,
    perron_data,
    psi,
    walk_compare,
    walk_to_param,
)
from tiletopo.errors import NoConsistentOrdering, OutOfRange
from tiletopo.geometry import polyline_hausdorff


def ordered(a, b):
    return derive_order_extension(build_contact_graph(TileParams(a, b)))


def float_points(points):
    return np.array([[float(x), float(y)] for (x, y) in points])


def cloud_hausdorff(p, q):
    """Symmetric Hausdorff distance between two finite point clouds."""
    d = 0.0
    for a_arr, b_arr in ((p, q), (q, p)):
        for k in range(0, len(a_arr), 2048):
            chunk = a_arr[k : k + 2048]
            dist = np.sqrt(((chunk[:, None, :] - b_arr[None, :, :]) ** 2).sum(-1)).min(axis=1)
            d = max(d, float(dist.max()))
    return d


def walks_in_lex_order(o, n):
    """All length-n walks (start, letters) in lexicographic order."""
    out = []

    def rec(start, state, letters):
        if len(letters) == n:
            out.append((start, letters))
            return
        for k in range(1, o.out_count(state) + 1):
            rec(start, o.edge_at(state, k)[3], letters + (k,))

    for start in range(1, 7):
        rec(start, start, ())
    return out


class TestContactGraph:
    def test_edge_rule_4_5(self):
        g = build_contact_graph(TileParams(4, 5))
        # P1 (state 6) -> -R (state 1) exists exactly for (a, a') = (0, 4)
        edges = [e for e in g.edges if e[0] == 6 and e[3] == 1]
        assert edges == [(6, 0, 4, 1)]
        # brute-force the congruence M s + (a',0) = s' + (a,0) for all pairs
        m = g.params.matrix
        for (i, a, ap, j) in g.edges:
            s, t = g.states[i - 1], g.states[j - 1]
            ms = (m[0][0] * s[0] + m[0][1] * s[1], m[1][0] * s[0] + m[1][1] * s[1])
            assert (ms[0] + ap, ms[1]) == (t[0] + a, t[1])

    def test_a_equals_b_drops_p1_edges(self):
        g = build_contact_graph(TileParams(5, 5))
        assert not any(e[0] == 6 and e[3] == 1 for e in g.edges)
        assert not any(e[0] == 3 and e[3] == 4 for e in g.edges)

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (4, 5), (5, 5), (6, 9), (12, 12)])
    def test_strongly_connected(self, a, b):
        assert build_contact_graph(TileParams(a, b)).is_strongly_connected()

    @pytest.mark.parametrize("a,b", [(2, 2), (4, 5), (5, 5), (6, 9)])
    def test_flip_symmetry(self, a, b):
        g = build_contact_graph(TileParams(a, b))
        flip_state = {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}
        edges = set(g.edges)
        for (i, x, xp, j) in g.edges:
            assert (flip_state[i], b - 1 - x, b - 1 - xp, flip_state[j]) in edges

    def test_exports_are_stable(self):
        g = build_contact_graph(TileParams(4, 5))
        o = derive_order_extension(g)
        assert graph_to_dot(g, o) == graph_to_dot(g, o)
        assert graph_to_json(g, o) == graph_to_json(g, o)
        assert "digraph" in graph_to_dot(g)


class TestLevelConvergence:
    """The level-n polygons converge to one boundary as n grows."""

    def test_distances_shrink(self):
        o = ordered(2, 2)
        levels = [approx_boundary(o, n).vertices for n in range(7)]
        d = [polyline_hausdorff(levels[n], levels[n + 1]) for n in range(6)]
        assert d[1] > d[5]

    def test_levels_agree_per_state(self):
        # the walks from state i trace the piece K_i at every level
        o = ordered(2, 2)
        pieces = {}
        for n in (6, 8):
            ap = approx_boundary(o, n)
            cloud = float_points(ap.firsts) / ap.scale
            starts = np.array([start for start, _ in walks_in_lex_order(o, n)])
            pieces[n] = [cloud[starts == i] for i in range(1, 7)]
        for i in range(6):
            assert cloud_hausdorff(pieces[6][i], pieces[8][i]) < 0.15


class TestPerron:
    @pytest.mark.parametrize("a,b", [(4, 5), (2, 2), (5, 5), (6, 9)])
    def test_eigen_identity_exact(self, a, b):
        g = build_contact_graph(TileParams(a, b))
        pd = perron_data(g)
        for j in range(6):
            lhs = pd.field.zero()
            for i in range(6):
                lhs = lhs + pd.u[i] * pd.field.rational(pd.incidence[i][j])
            assert (lhs - pd.beta * pd.u[j]).is_zero()
        total = pd.u[0]
        for x in pd.u[1:]:
            total = total + x
        assert (total - pd.field.one()).is_zero()
        assert all(x.sign() > 0 for x in pd.u)
        assert (pd.beta - pd.field.one()).sign() > 0

    def test_beta_matches_power_iteration(self):
        g = build_contact_graph(TileParams(4, 5))
        pd = perron_data(g)
        d = np.array(pd.incidence, dtype=float)
        v = np.ones(6)
        lam = 0.0
        for _ in range(3000):
            w = v @ d
            lam = np.linalg.norm(w) / np.linalg.norm(v)
            v = w / np.linalg.norm(w)
        assert abs(float(pd.beta) - lam) < 1e-9

    def test_beta_is_spectral_radius_on_grid(self):
        # beta comes from the boundary cubic, not from the incidence matrix;
        # includes (1,10), (1,15) and (2,16), whose beta is quadratic
        for b in range(2, 21):
            for a in range(1, b + 1):
                pd = perron_data(build_contact_graph(TileParams(a, b)))
                eig = np.linalg.eigvals(np.array(pd.incidence, dtype=float))
                assert abs(float(pd.beta) - abs(eig).max()) < 1e-9, (a, b)


class TestOrdering:
    def test_table_decodings_4_5(self):
        o = ordered(4, 5)
        assert psi(Walk(3, (2, 1, 3), (2,)), o) == parse_address("440(04)")
        assert psi(Walk(5, (2,), (6,)), o) == parse_address("4(2)")
        assert psi(Walk(6, (1, 6, 4), (2,)), o) == parse_address("123(04)")

    def test_minimal_walk_is_periodic_vertex(self):
        o = ordered(4, 5)
        for i in range(1, 7):
            addr = psi(Walk(i, (), (1,)), o)
            assert addr.preperiod == ()
            assert point_eval(addr, o.graph.params) == o.vertex(i)

    def test_psi_concatenation(self):
        from tiletopo.numsys import prepend_digits

        o = ordered(4, 5)
        tail = psi(Walk(2, (), (1,)), o)
        full = psi(Walk(5, (2,), (1,)), o)
        # the walk (5; 2, 1bar) reads one edge digit then the (2; 1bar) digits
        edge = o.edge_at(5, 2)
        assert edge[3] == 2
        assert full == prepend_digits((edge[1],), tail)

    def test_consecutive_endpoint_equalities(self):
        pairs = [(a, b) for b in range(2, 13) for a in range(1, b + 1)]
        for (a, b) in pairs:
            o = ordered(a, b)
            # level 3 only on the first three pairs; on all 77 it costs ~5 s more
            for n in range(0, 4 if (a, b) in [(2, 2), (4, 5), (5, 5)] else 3):
                ap = approx_boundary(o, n)
                m = len(ap.firsts)
                for k in range(m):
                    assert ap.lasts[k] == ap.firsts[(k + 1) % m]

    @pytest.mark.parametrize("dropped", [(2, 0, 1, 4), (3, 4, 1, 5)])
    def test_missing_edge_has_no_ordering(self, dropped):
        g = build_contact_graph(TileParams(4, 5))
        assert dropped in g.edges
        edges = tuple(e for e in g.edges if e != dropped)
        with pytest.raises(NoConsistentOrdering, match=r"\(A,B\)=\(4,5\)"):
            derive_order_extension(ContactGraph(g.params, g.states, edges))

    def test_vertex_count_matches_walks(self):
        o = ordered(4, 5)
        for n in range(0, 4):
            ap = approx_boundary(o, n)
            assert len(ap.firsts) == count_walks(o.graph, n)


class TestParametrization:
    def test_extreme_walks(self):
        o = ordered(4, 5)
        pd = perron_data(o.graph)
        w0 = param_to_walk(Fraction(0), pd, o)
        assert (w0.start, w0.pre) == (1, ()) and set(w0.period) == {1}
        w1 = param_to_walk(Fraction(1), pd, o)
        assert w1.start == 6
        letters = [w1.period[i % len(w1.period)] for i in range(6)]
        state = 6
        for l in letters:
            assert l == o.out_count(state)
            state = o.edge_at(state, l)[3]

    def test_closed_curve(self):
        for (a, b) in [(2, 2), (4, 5), (5, 5)]:
            o = ordered(a, b)
            pd = perron_data(o.graph)
            assert boundary_point(Fraction(0), pd, o) == boundary_point(
                Fraction(1), pd, o
            )

    def test_round_trip_50_points(self, rng):
        o = ordered(4, 5)
        pd = perron_data(o.graph)
        for _ in range(50):
            start = rng.randint(1, 6)
            state = start
            pre = []
            for _ in range(rng.randint(0, 4)):
                k = rng.randint(1, o.out_count(state))
                pre.append(k)
                state = o.edge_at(state, k)[3]
            walk = Walk(start, tuple(pre), (1,))
            t = walk_to_param(walk, pd, o)
            back = param_to_walk(t, pd, o)
            assert (walk_to_param(back, pd, o) - t).is_zero()

    def test_lex_order_matches_parameter_order(self, rng):
        from tiletopo.contact import walk_compare

        o = ordered(4, 5)
        pd = perron_data(o.graph)
        walks = []
        for _ in range(30):
            start = rng.randint(1, 6)
            state = start
            pre = []
            for _ in range(rng.randint(0, 4)):
                k = rng.randint(1, o.out_count(state))
                pre.append(k)
                state = o.edge_at(state, k)[3]
            walks.append(Walk(start, tuple(pre), (1,)))
        for w1 in walks[:10]:
            for w2 in walks[10:20]:
                cmp = walk_compare(w1, w2)
                diff = walk_to_param(w1, pd, o) - walk_to_param(w2, pd, o)
                if cmp == 0:
                    assert diff.is_zero()
                else:
                    # parameters are weakly monotone in lex order
                    assert cmp * diff.sign() >= 0

    def test_table_endpoint_value(self):
        # the high end of the last curve hits 0.440(04)
        o = ordered(4, 5)
        pd = perron_data(o.graph)
        t = walk_to_param(Walk(3, (2, 1, 3), (2,)), pd, o)
        assert boundary_point(t, pd, o) == point_eval(
            parse_address("440(04)"), TileParams(4, 5)
        )

    def test_range_check(self):
        o = ordered(4, 5)
        pd = perron_data(o.graph)
        with pytest.raises(OutOfRange):
            param_to_walk(Fraction(3, 2), pd, o)

    def test_generic_rational_is_not_periodic(self):
        # beta is not a Pisot number here, so a generic rational parameter
        # never settles into a periodic walk and must be rejected
        from tiletopo.errors import NonPeriodicWalk

        o = ordered(4, 5)
        pd = perron_data(o.graph)
        with pytest.raises(NonPeriodicWalk):
            param_to_walk(Fraction(1, 3), pd, o, max_steps=400)

    def test_midpoint_is_an_interval_boundary(self):
        # the flip symmetry pairs the interval lengths, so 1/2 is exactly the
        # boundary between states 3 and 4 and resolves to the left max walk
        o = ordered(4, 5)
        pd = perron_data(o.graph)
        w = param_to_walk(Fraction(1, 2), pd, o)
        assert w.start == 3
        assert boundary_point(Fraction(1, 2), pd, o) == o.vertex(4)

    def test_boundary_points_near_level_polygon(self):
        o = ordered(4, 5)
        pd = perron_data(o.graph)
        cloud = float_points(approx_boundary(o, 4).vertices)
        probes = [Fraction(0), Fraction(1, 2), Fraction(1)]
        probes.append(walk_to_param(Walk(5, (2,), (6,)), pd, o))
        probes.append(walk_to_param(Walk(2, (3, 1), (1,)), pd, o))
        for t in probes:
            p = boundary_point(t, pd, o)
            d = np.sqrt(((cloud - np.array([[float(p[0]), float(p[1])]])) ** 2).sum(-1)).min()
            assert d < 0.05


class TestApproxBoundary:
    def test_level_zero_hexagon(self):
        o = ordered(4, 5)
        ap = approx_boundary(o, 0)
        assert len(ap.vertices) == 6
        assert ap.vertices == o.vertices

    def test_vertex_inclusion(self):
        for (a, b) in [(2, 2), (4, 5)]:
            o = ordered(a, b)
            prev = approx_boundary(o, 0).vertices
            for n in range(1, 5):
                cur = approx_boundary(o, n).vertices
                assert set(prev) <= set(cur)
                prev = cur

    @pytest.mark.parametrize("a,b", [(2, 2), (4, 5), (5, 5), (1, 12), (7, 11)])
    def test_firsts_are_walk_values(self, a, b):
        # firsts[k] is psi(w & 1bar) for the k-th length-n walk w in lex order
        o = ordered(a, b)
        for n in range(4):
            ap = approx_boundary(o, n)
            walks = walks_in_lex_order(o, n)
            assert len(walks) == len(ap.firsts)
            for (start, letters), (x, y) in zip(walks, ap.firsts):
                value = point_eval(psi(Walk(start, letters, (1,)), o), o.graph.params)
                assert value == (Fraction(x, ap.scale), Fraction(y, ap.scale))

    def test_budget(self):
        from tiletopo.errors import BudgetExceeded

        o = ordered(5, 5)
        with pytest.raises(BudgetExceeded):
            approx_boundary(o, 10, budget=1000)


class TestWalkCompare:
    def test_orderings(self):
        a = Walk(3, (1,), (2,))
        b = Walk(3, (2,), (2,))
        assert walk_compare(a, b) == -1
        assert walk_compare(b, a) == 1
        assert walk_compare(a, Walk(3, (1, 2), (2,))) == 0
        assert walk_compare(Walk(2, (9,), (9,)), Walk(3, (1,), (1,))) == -1
