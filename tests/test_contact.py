import hashlib
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from tiletopo import Address, TileParams, apply_contraction, chains, contact, parse_address, point_eval
from tiletopo.contact import (
    PerronData,
    Walk,
    approx_boundary,
    boundary_point,
    build_contact_graph,
    contact_states,
    count_walks,
    graph_to_dot,
    graph_to_json,
    ordered_extension,
    param_to_walk,
    perron_data,
    psi,
    walk_to_param,
)
from tiletopo.algebraic import NumberField
from tiletopo.errors import (
    BudgetExceeded,
    CertificateFailure,
    OutOfRange,
    TileError,
)
from tiletopo.geometry import polyline_hausdorff

import reference
from conftest import cyclic_walk


def ordered(a, b):
    return ordered_extension(build_contact_graph(TileParams(a, b)))


# the exhaustive search over every first-edge map, the oracle of the lemma
# of ordered_extension, and the closed form itself
ORDERINGS = pytest.mark.parametrize(
    "order_fn", [reference.order_search, ordered_extension], ids=["search", "first_map"]
)


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


def maximal_walk(o, start):
    """The walk from ``start`` that takes the last edge at every state."""
    seen, letters, state = {}, [], start
    while state not in seen:
        seen[state] = len(letters)
        letters.append(o.out_count(state))
        state = o.edge_at(state, letters[-1])[3]
    k = seen[state]
    return Walk(start, tuple(letters[:k]), tuple(letters[k:]))


def seeded_walk(o, start, rng):
    """A walk from ``start`` with a random prefix of 0..6 letters and a
    random period of 1..3 letters, redrawn until every letter names an edge;
    the period (1) always does."""
    for _ in range(10):
        state, letters = start, []
        for _ in range(rng.randint(0, 6) + rng.randint(1, 3)):
            letters.append(rng.randint(1, o.out_count(state)))
            state = o.edge_at(state, letters[-1])[3]
        cut = rng.randint(0, len(letters) - 1)
        walk = Walk(start, tuple(letters[:cut]), tuple(letters[cut:]))
        try:
            o.walk_steps(walk)
        except OutOfRange:
            continue
        return walk
    return Walk(start, (), (1,))


def matches_field_sums(a, b):
    """Perron data and the parameters of each state's minimal, maximal and
    seeded walk equal the FieldElement sums of ``reference``."""
    o = ordered_extension(build_contact_graph(TileParams(a, b)))
    pd, ref = perron_data(o.graph), reference.perron_data(o.graph)
    got = reference.lengths(pd)
    same = pd.field.minpoly == ref.field.minpoly and repr(got.beta) == repr(ref.beta)
    same = same and [(x.num, x.den) for x in got.u] == [(x.num, x.den) for x in ref.u]
    for s in range(1, 7):
        rng = random.Random(f"{a},{b},{s}")
        for w in (Walk(s, (), (1,)), maximal_walk(o, s), seeded_walk(o, s, rng)):
            t, want = walk_to_param(w, pd, o), reference.walk_to_param(w, ref, o)
            same = same and (t.num, t.den) == (want.num, want.den)
    return same


def outcome(fn, *args, **kwargs):
    """A call's result, or the type and message of the library error it
    raised."""
    try:
        return fn(*args, **kwargs)
    except TileError as exc:
        return type(exc), str(exc)


def phi_junction(i, phi, params):
    """V_i = psi(i; 1bar) of a first-edge map phi, by point_eval of the
    digits read along phi from state i."""
    seen, digits, state = {}, [], i
    while state not in seen:
        seen[state] = len(digits)
        digits.append(phi[state - 1][1])
        state = phi[state - 1][3]
    k = seen[state]
    return point_eval(Address((), tuple(digits[:k]), tuple(digits[k:])), params)


def fraction_threadings(state, edges, junction, params):
    """Orderings of the state's edges whose subpieces, from
    f_a(V_target) to f_a(V_target+1), chain from V_state to V_state+1;
    the search stops at the second one."""
    found = []

    def rec(point, chain):
        if len(chain) == len(edges):
            if point == junction[state % 6]:
                found.append(tuple(chain))
            return
        for e in edges:
            if len(found) < 2 and e not in chain:
                if apply_contraction(e[1], junction[e[3] - 1], params) == point:
                    rec(apply_contraction(e[1], junction[e[3] % 6], params), chain + [e])

    rec(junction[state - 1], [])
    return found


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
        edges = [e for e in reference.graph_edges(g) if e[0] == 6 and e[3] == 1]
        assert edges == [(6, 0, 4, 1)]
        # brute-force the congruence M s + (a',0) = s' + (a,0) for all pairs
        m = g.params.matrix
        for (i, a, ap, j) in reference.graph_edges(g):
            s, t = g.states[i - 1], g.states[j - 1]
            ms = (m[0][0] * s[0] + m[0][1] * s[1], m[1][0] * s[0] + m[1][1] * s[1])
            assert (ms[0] + ap, ms[1]) == (t[0] + a, t[1])

    def test_a_equals_b_drops_p1_edges(self):
        g = build_contact_graph(TileParams(5, 5))
        assert not any(e[0] == 6 and e[3] == 1 for e in reference.graph_edges(g))
        assert not any(e[0] == 3 and e[3] == 4 for e in reference.graph_edges(g))

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (4, 5), (5, 5), (6, 9), (12, 12)])
    def test_strongly_connected(self, a, b):
        assert reference.is_strongly_connected(build_contact_graph(TileParams(a, b)))

    @staticmethod
    def edge_families(a, b):
        """The adjacency matrix of the ten edge families of the lemma in
        ``build_contact_graph``'s docstring."""
        adj = [[0] * 6 for _ in range(6)]
        for (s, t), n in {
            (1, 3): 1, (2, 4): a, (2, 5): a - 1, (3, 4): b - a, (3, 5): b - a + 1,
            (4, 6): 1, (5, 1): a, (5, 2): a - 1, (6, 1): b - a, (6, 2): b - a + 1,
        }.items():
            adj[s - 1][t - 1] = n
        return tuple(map(tuple, adj))

    def test_edge_families_on_grid(self):
        # on every pair 1 <= A <= B <= 60 the graph has exactly the ten edge
        # families, ordered_extension's orders are the sorted orders of
        # states 1..3 and their digit flips, and for every state and letter
        # the letter table's edge_at, out_count and prefix_counts read the
        # sorted out-edges (states 4..6 reversed) of the family edge list.
        # The two closed forms of the family rule read the edge list too:
        # adjacency() counts its edges, and, for B <= 30 (A = 1 and A = B
        # are the edge cases, at every B), has_edge(s, a, t) holds exactly
        # for its edges s -a-> t, at every digit -1..B of every state pair
        for b in range(2, 61):
            for a in range(1, b + 1):
                graph = build_contact_graph(TileParams(a, b))
                assert graph.adjacency() == self.edge_families(a, b), (a, b)
                counts = [[0] * 6 for _ in range(6)]
                digits = {}
                for s, x, _, t in reference.graph_edges(graph):
                    counts[s - 1][t - 1] += 1
                    digits.setdefault((s, t), set()).add(x)
                assert graph.adjacency() == tuple(map(tuple, counts)), (a, b)
                if b <= 30:
                    for s, t in product(range(1, 7), repeat=2):
                        edge_digits = {x for x in range(-1, b + 1) if graph.has_edge(s, x, t)}
                        assert edge_digits == digits.get((s, t), set()), (a, b, s, t)
                o = ordered_extension(graph)
                sorted_orders = [tuple(sorted(reference.out_edges(graph, i))) for i in (1, 2, 3)]
                flips = [tuple(contact._flip_edge(e, b) for e in order) for order in sorted_orders]
                assert o.orders == tuple(sorted_orders + flips), (a, b)
                for s in range(1, 7):
                    order = sorted(reference.out_edges(graph, s), reverse=s > 3)
                    assert o.out_count(s) == len(order), (a, b, s)
                    below = dict.fromkeys(range(1, 7), 0)
                    for k, e in enumerate([*order, None], start=1):
                        counts = dict.fromkeys(range(1, 7), 0)
                        for t, n in o.prefix_counts(s, k):
                            counts[t] += n
                        assert counts == below, (a, b, s, k)
                        if e is not None:
                            assert o.edge_at(s, k) == e, (a, b, s, k)
                            below[e[3]] += 1

    @pytest.mark.parametrize("a,b", [(2, 2), (4, 5), (5, 5), (6, 9)])
    def test_flip_symmetry(self, a, b):
        g = build_contact_graph(TileParams(a, b))
        flip_state = {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}
        edges = set(reference.graph_edges(g))
        for (i, x, xp, j) in edges:
            assert (flip_state[i], b - 1 - x, b - 1 - xp, flip_state[j]) in edges

    def test_exports_are_stable(self):
        o = ordered(4, 5)
        assert graph_to_dot(o) == graph_to_dot(o)
        assert graph_to_json(o) == graph_to_json(o)
        assert "digraph" in graph_to_dot(o)


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
        pd = reference.lengths(perron_data(g))
        incidence = tuple(zip(*g.adjacency()))
        for j in range(6):
            lhs = reference.zero(pd.field)
            for i in range(6):
                lhs = lhs + reference.lift(pd.u[i]) * pd.field.rational(incidence[i][j])
            assert (lhs - reference.lift(pd.beta) * pd.u[j]).is_zero()
        total = reference.lift(pd.u[0])
        for x in pd.u[1:]:
            total = total + x
        assert (total - reference.one(pd.field)).is_zero()
        assert all(x.sign() > 0 for x in pd.u)
        assert (reference.lift(pd.beta) - reference.one(pd.field)).sign() > 0

    def test_beta_matches_power_iteration(self):
        g = build_contact_graph(TileParams(4, 5))
        pd = reference.lengths(perron_data(g))
        d = np.array(tuple(zip(*g.adjacency())), dtype=float)
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
                g = build_contact_graph(TileParams(a, b))
                pd = reference.lengths(perron_data(g))
                eig = np.linalg.eigvals(np.array(tuple(zip(*g.adjacency())), dtype=float))
                assert abs(float(pd.beta) - abs(eig).max()) < 1e-9, (a, b)

    def test_perron_golden_digest(self):
        # sha256 of repr(minpoly) + repr(beta) + repr(u) and the parameters
        # of each state's minimal and maximal walk over all 209 pairs
        # 1 <= A <= B <= 20, recorded with the Fraction field arithmetic the
        # integer form replaced, whose minpoly was a tuple of Fractions
        h = hashlib.sha256()
        for b in range(2, 21):
            for a in range(1, b + 1):
                o = ordered(a, b)
                pd = perron_data(o.graph)
                mp, ref = tuple(map(Fraction, pd.field.minpoly)), reference.lengths(pd)
                text = repr(mp) + repr(ref.beta) + repr(ref.u)
                for s in range(1, 7):
                    for w in (Walk(s, (), (1,)), maximal_walk(o, s)):
                        text += str(walk_to_param(w, pd, o))
                h.update(text.encode())
        assert h.hexdigest() == (
            "782035c4006c471192f4ea8a83ca883baf669c78fe657897002a1b9d1a8e452c"
        )

    def test_perron_golden_digest_large_b(self):
        # sha256 of repr(minpoly) + repr(beta) + repr(u) over the 610 pairs
        # 21 <= B <= 40, recorded with the 6x6 elimination the flip-folded
        # 3x3 system replaced, whose minpoly was a tuple of Fractions
        h = hashlib.sha256()
        for b in range(21, 41):
            for a in range(1, b + 1):
                pd = reference.lengths(perron_data(build_contact_graph(TileParams(a, b))))
                mp = tuple(map(Fraction, pd.field.minpoly))
                h.update((repr(mp) + repr(pd.beta) + repr(pd.u)).encode())
        assert h.hexdigest() == (
            "afd2e47cb195164bdfe7401f5de9cbb1c2bf031b429a30a8d81be953c9fc3187"
        )

    def test_closed_form_rows_on_grid(self):
        # on every pair 1 <= A <= B <= 60, each of the six rows of
        # (adj v)_i - beta v_i, for v = (beta - A + 1, A, beta (beta - A + 1))
        # repeated on K4..K6, is a multiple of the boundary cubic: the check
        # perron_data ran on every graph, as integer polynomials in beta
        for b in range(2, 61):
            for a in range(1, b + 1):
                cubic = (-b, a - b, 1 - a, 1)  # low degree first
                v = [(1 - a, 1, 0, 0), (a, 0, 0, 0), (0, 1 - a, 1, 0)]
                for i, row in enumerate(build_contact_graph(TileParams(a, b)).adjacency()):
                    adj_v = [sum(row[j] * v[j % 3][k] for j in range(6)) for k in range(4)]
                    diff = [x - y for x, y in zip(adj_v, (0, *v[i % 3][:3]))]
                    assert diff == [diff[3] * c for c in cubic], (a, b, i)

    def test_negative_root_is_not_positive(self, monkeypatch):
        # x^3 - 10x - 11, the boundary cubic of (1,11), is irreducible and has
        # two negative roots; the closed form is an eigenvector for each of
        # its roots, but beta - A + 1 = beta < 0 there
        field = NumberField([-11, -10, 0, 1], -3, -2)
        monkeypatch.setattr(contact, "dominant_root_field", lambda _: field)
        with pytest.raises(CertificateFailure, match=r"not strictly positive for \(A,B\)=\(1,11\)$"):
            perron_data(build_contact_graph(TileParams(1, 11)))

    def test_zero_entry_is_not_positive(self):
        # for A = 0 the closed form v = (beta + 1, 0, beta (beta + 1)) solves
        # beta v = adj v on a hand-built graph with beta = sqrt(2): state 2
        # leads only to state 5, whose entry is 0 too
        p = TileParams(0, 2)
        edges = ((1, 0, 0, 3), (2, 0, 0, 5), (3, 0, 0, 1), (3, 1, 1, 1))
        graph = reference.HandBuiltGraph(
            p, contact_states(p), edges + tuple(contact._flip_edge(e, 2) for e in edges)
        )
        with pytest.raises(CertificateFailure, match=r"not strictly positive for \(A,B\)=\(0,2\)$"):
            perron_data(graph)

    @staticmethod
    def _folded_graph(rows):
        # rows 4-6 are the flips of rows 1-3; k parallel edges i -> j carry
        # the digits 0..k-1
        adj = [*rows, *([r[(j + 3) % 6] for j in range(6)] for r in rows)]
        edges = tuple(
            (i + 1, k, k, j + 1) for i in range(6) for j in range(6) for k in range(adj[i][j])
        )
        graph = reference.HandBuiltGraph(TileParams(4, 5), (), edges)
        assert reference.is_strongly_connected(graph)
        return graph

    # the cofactor branches of the oracle, which the closed form replaced;
    # folded matrix [[2,0,1],[0,2,1],[1,1,1]]: its column sums are all 3, so
    # every eigenvector of its roots 2 and 0 sums to 0
    MIXED_SIGNS = [[1, 0, 1, 1, 0, 0], [0, 2, 1, 0, 0, 0], [1, 1, 1, 0, 0, 0]]
    # folded matrix all ones: its root 0 has a 2-dimensional eigenspace
    ALL_ONES = [[0, 1, 1, 1, 0, 0], [1, 1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 0]]

    @pytest.mark.parametrize("root", [2, 0])
    def test_mixed_signs_are_a_failure_not_a_division_by_zero(self, monkeypatch, root):
        field = NumberField([-root, 1], root, root)
        monkeypatch.setattr(reference, "dominant_root_field", lambda _: field)
        with pytest.raises(CertificateFailure, match=r"not strictly positive for \(A,B\)=\(4,5\)$"):
            reference.perron_data(self._folded_graph(self.MIXED_SIGNS))

    def test_multiple_eigenvalue_is_not_simple(self, monkeypatch):
        monkeypatch.setattr(reference, "dominant_root_field", lambda _: NumberField([0, 1], 0, 0))
        with pytest.raises(reference.NotIrreducible, match="not simple"):
            reference.perron_data(self._folded_graph(self.ALL_ONES))

    @pytest.mark.parametrize("rows", [MIXED_SIGNS, ALL_ONES], ids=["mixed", "ones"])
    def test_perron_root_of_a_folded_graph(self, monkeypatch, rows):
        monkeypatch.setattr(reference, "dominant_root_field", lambda _: NumberField([-3, 1], 3, 3))
        pd = reference.perron_data(self._folded_graph(rows))
        assert all((reference.lift(x) - pd.field.rational(Fraction(1, 6))).is_zero() for x in pd.u)

    # folded matrix [[0,1,1],[1,0,1],[1,0,1]]: at its root 0 rows 1 and 2 of
    # C are equal, so every cofactor of row 0 vanishes, while row 1's,
    # (-1, -1, 1), do not
    EQUAL_ROWS = [[0, 1, 0, 0, 0, 1], [1, 0, 1, 0, 0, 0], [0, 0, 1, 1, 0, 0]]

    def test_vanishing_first_cofactors_read_the_next_row(self, monkeypatch):
        # the eigenspace of 0 has dimension 1, so the solution comes from row
        # 1's cofactors and fails the sign check; it is not "not simple"
        monkeypatch.setattr(reference, "dominant_root_field", lambda _: NumberField([0, 1], 0, 0))
        with pytest.raises(CertificateFailure, match=r"not strictly positive for \(A,B\)=\(4,5\)$"):
            reference.perron_data(self._folded_graph(self.EQUAL_ROWS))

    def test_integer_forms_match_field_sums_large_b(self):
        # u, beta and each state's minimal, maximal and seeded walk parameter
        # over the 610 pairs 21 <= B <= 40, which the walk parameters of the
        # golden digest do not reach; includes quadratic and rational fields
        mismatched = [
            (a, b) for b in range(21, 41) for a in range(1, b + 1) if not matches_field_sums(a, b)
        ]
        assert mismatched == []

    @given(st.integers(41, 200).flatmap(lambda b: st.tuples(st.integers(1, b), st.just(b))))
    @settings(max_examples=15, deadline=None)
    def test_integer_forms_match_field_sums_drawn(self, pair):
        # the same comparison on drawn pairs past the fixed grid's B = 40
        assert matches_field_sums(*pair)

    @pytest.mark.parametrize(
        "a,b,degree", [(1, 10, 2), (1, 15, 2), (2, 16, 2), (2, 6, 1), (3, 15, 1)]
    )
    def test_integer_forms_match_field_sums_small_fields(self, a, b, degree):
        # beta is quadratic for (1,10), (1,15), (2,16) and an integer for
        # (2,6), (3,15), where times beta is a multiplication
        assert perron_data(build_contact_graph(TileParams(a, b))).field.degree == degree
        assert matches_field_sums(a, b)


class TestOrdering:
    def test_table_decodings_4_5(self):
        o = ordered(4, 5)
        assert psi(Walk(3, (2, 1, 3), (2,)), o) == parse_address("440(04)")
        assert psi(Walk(5, (2,), (6,)), o) == parse_address("4(2)")
        assert psi(Walk(6, (1, 6, 4), (2,)), o) == parse_address("123(04)")

    def test_psi_needs_a_periodic_tail(self):
        o = ordered(4, 5)
        for walk in (Walk(3, (2, 1, 3)), Walk(3)):
            with pytest.raises(ValueError, match=r"^an infinite walk needs a periodic tail$"):
                psi(walk, o)

    def test_minimal_walk_is_periodic_vertex(self):
        o = ordered(4, 5)
        for i in range(1, 7):
            addr = psi(Walk(i, (), (1,)), o)
            assert addr.preperiod == ()
            assert point_eval(addr, o.graph.params) == o.vertex(i)

    def test_psi_concatenation(self):
        from reference import prepend_digits

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
                firsts, lasts = ap.point_array.tolist(), ap.last_array.tolist()
                m = len(firsts)
                for k in range(m):
                    # each walk ends where the next starts, and not where it
                    # starts itself, so the polygon repeats no vertex
                    assert lasts[k] == firsts[(k + 1) % m] != firsts[k]

    @pytest.mark.parametrize("dropped", [(2, 0, 1, 4), (3, 4, 1, 5)])
    def test_missing_edge_has_no_ordering(self, dropped):
        # without one edge no flip-equivariant map threads every state
        g = build_contact_graph(TileParams(4, 5))
        assert dropped in reference.graph_edges(g)
        edges = tuple(e for e in reference.graph_edges(g) if e != dropped)
        with pytest.raises(reference.NoConsistentOrdering, match=r"\(A,B\)=\(4,5\)"):
            reference.order_search(reference.HandBuiltGraph(g.params, g.states, edges))

    def test_orderings_golden_digest(self, order_fn=reference.order_search):
        # sha256 of repr(orders) + repr(vertices) over all 209 pairs
        # 1 <= A <= B <= 20, recorded with the Fraction search the integer
        # search replaced; the search runs here, the closed form in the twin
        h = hashlib.sha256()
        for b in range(2, 21):
            for a in range(1, b + 1):
                o = order_fn(build_contact_graph(TileParams(a, b)))
                h.update((repr(o.orders) + repr(o.vertices)).encode())
        assert h.hexdigest() == (
            "7ea669d463a8af8a58187cb65e1e0e244e823ddfc0ea80415b35a25aebac6210"
        )

    def test_orderings_golden_digest_first_map(self):
        self.test_orderings_golden_digest(ordered_extension)

    def test_orderings_golden_digest_large_b(self, order_fn=reference.order_search):
        # the same digest over the 610 pairs 21 <= B <= 40, the rest of the
        # param benchmark's grid, recorded with the search that solved all six
        # junctions of every map
        h = hashlib.sha256()
        for b in range(21, 41):
            for a in range(1, b + 1):
                o = order_fn(build_contact_graph(TileParams(a, b)))
                h.update((repr(o.orders) + repr(o.vertices)).encode())
        assert h.hexdigest() == (
            "c7d93d77cf5c1ceb2eb67f7f673a28b1579af9b6f61ff25e49bd5daca9249e92"
        )

    def test_orderings_golden_digest_large_b_first_map(self):
        self.test_orderings_golden_digest_large_b(ordered_extension)

    def test_search_matches_closed_form(self):
        # the lemma of ordered_extension on every pair B <= 40: the search
        # over every flip-equivariant first-edge map finds one ordering, in
        # which no state threads two ways, and it is the closed form's
        for b in range(2, 41):
            for a in range(1, b + 1):
                graph = build_contact_graph(TileParams(a, b))
                assert reference.order_search(graph) == ordered_extension(graph), (a, b)

    def test_start_point_table_matches_decide_map(self):
        # the lemma of ordered_extension on every pair B <= 60: its orders
        # and closed-form junctions are the threading routine's for phi_0
        for b in range(2, 61):
            for a in range(1, b + 1):
                graph = build_contact_graph(TileParams(a, b))
                outs, steps = reference.edge_tables(graph)
                firsts = tuple(min(edges) for edges in outs[:3])
                phi = firsts + tuple(contact._flip_edge(e, b) for e in firsts)
                o = ordered_extension(graph)
                decided = reference.decide_map(phi, outs, steps, graph.params, {}, "")
                assert (o.orders, o.junctions) == decided, (a, b)

    @given(st.integers(61, 10**4).flatmap(lambda b: st.tuples(st.integers(1, b), st.just(b))))
    @settings(max_examples=12, deadline=None, database=None)
    def test_closed_form_matches_checked_orders_drawn(self, pair):
        # past the grid the lemma against its oracle, the edge-to-edge check
        # of the sorted orders on phi_0's solved junctions; the threading
        # routine takes seconds per pair at B = 10^4
        graph = build_contact_graph(TileParams(*pair))
        o = ordered_extension(graph)
        assert (o.orders, o.junctions) == reference.checked_sorted_orders(graph)

    @given(st.integers(61, 300).flatmap(lambda b: st.tuples(st.integers(1, b), st.just(b))))
    @settings(max_examples=6, deadline=None)
    def test_closed_form_matches_search_drawn(self, pair):
        # past the grids the closed form is the ordering that the search
        # certifies unique
        graph = build_contact_graph(TileParams(*pair))
        assert ordered_extension(graph) == reference.order_search(graph)

    @staticmethod
    def family_junctions(a, b):
        """The junctions (V_1, V_2, V_3) under the first-edge maps whose
        edges of states 1..3 are (0, 3), (a2, t2) and (a3, t3), written
        (digit, target), and whose edges of 4..6 are their flips, by target
        family (t2, t3), each solved once as an affine function of the
        digits: (x, y, den) with x and y the coefficient triples of 1, a2
        and a3.  A and B may be ints or object arrays of them.

        V_s = f_d(V_t) reads M V_s = V_t + (d, 0), M = [[0, -B], [1, -A]],
        and V_{s+3} = T - V_s with T = ((A+1)(1-B), 1-B)/n (step 2 of the
        lemma).  So states 1..3 close into one 2x2 system per family:
        (M + I) V_2 = T + (a2, 0) where t2 = 5, (M^2 + I) V_1 = T + (a3, 0)
        where t3 = 4, and (M^3 - I) V_1 = (M - I) T - (a2, 0) + (0, a3)
        where the three states cycle, (t2, t3) = (4, 5).  The others follow
        from M V_3 = T - V_2 + (a3, 0) (t3 = 5), M V_2 = T - V_1 + (a2, 0)
        (t2 = 4) and M V_1 = V_3."""
        n = a + b + 1
        tx, ty = (a + 1) * (1 - b), 1 - b

        def m(p):  # M (x, y) = (-B y, x - A y)
            x, y, d = p
            return tuple(-b * v for v in y), tuple(u - a * v for u, v in zip(x, y)), d

        def m_inv(p):  # M^-1 (x, y) = (B y - A x, -x) / B
            x, y, d = p
            return tuple(b * v - a * u for u, v in zip(x, y)), tuple(-u for u in x), d * b

        def t_minus(p, k):  # T - p + (a_k, 0), with a_1 = a2 and a_2 = a3
            x, y, d = p
            x, y = [-n * u for u in x], [-n * v for v in y]
            x[0], y[0], x[k] = x[0] + tx * d, y[0] + ty * d, x[k] + n * d
            return tuple(x), tuple(y), n * d

        def solve(k, p):  # k z = p, k a 2x2 integer matrix, by Cramer's rule
            ((k11, k12), (k21, k22)), (x, y, d) = k, p
            return (
                tuple(k22 * u - k12 * v for u, v in zip(x, y)),
                tuple(k11 * v - k21 * u for u, v in zip(x, y)),
                d * (k11 * k22 - k12 * k21),
            )

        v2 = solve(((1, -b), (1, 1 - a)), ((tx, n, 0), (ty, 0, 0), n))
        v1 = solve(((1 - b, a * b), (-a, a * a - b + 1)), ((tx, 0, n), (ty, 0, 0), n))
        m3_minus_i = ((a * b - 1, b * b - a * a * b), (a * a - b, 2 * a * b - a**3 - 1))
        cycle = solve(m3_minus_i, ((-b * ty - tx, -n, 0), (tx - a * ty - ty, 0, n), n))
        v3 = m_inv(t_minus(v2, 2))
        return {
            (5, 4): (v1, v2, m(v1)),
            (4, 4): (v1, m_inv(t_minus(v1, 1)), m(v1)),
            (5, 5): (m_inv(v3), v2, v3),
            (4, 5): (cycle, m_inv(t_minus(cycle, 1)), m(cycle)),
        }

    @staticmethod
    def junction_at(junction, a2, a3):
        """One junction of ``family_junctions`` at the digits (a2, a3), as
        an integer triple (x, y, den); a zero digit adds nothing."""
        x, y, d = junction
        point = []
        for c0, c2, c3 in (x, y):
            if a2:
                c0 = c0 + a2 * c2
            if a3:
                c0 = c0 + a3 * c3
            point.append(c0)
        return point[0], point[1], d

    @classmethod
    def junction_gaps(cls, junctions, a2, a3, pairs):
        """V_s - V_t for each (s, t) of ``pairs``, s and t in 4..6, as an
        integer triple (x, y, den), from the junctions (V_1, V_2, V_3) of
        ``family_junctions`` at the digits (a2, a3): by the flip,
        V_s - V_t = V_{t-3} - V_{s-3}.  Only the junctions named are read."""
        flip = {s: cls.junction_at(junctions[s - 4], a2, a3) for pair in pairs for s in pair}
        gaps = []
        for s, t in pairs:  # V_{t-3} - V_{s-3}
            (xa, ya, da), (xb, yb, db) = flip[t], flip[s]
            gaps.append((xa * db - xb * da, ya * db - yb * da, da * db))
        return gaps

    def test_family_junctions_match_the_orbit_walk(self):
        # the closed systems against the oracle's orbit walk of each map, on
        # every pair B <= 12, every target family and digits from -1 to 2
        for b in range(2, 13):
            for a in range(1, b + 1):
                p = TileParams(a, b)
                for (t2, t3), junctions in self.family_junctions(a, b).items():
                    for a2, a3 in product(range(-1, 3), repeat=2):
                        firsts = ((1, 0, 0, 3), (2, a2, 0, t2), (3, a3, 0, t3))
                        phi = firsts + tuple(contact._flip_edge(e, b) for e in firsts)
                        values = [None] * 6
                        for s, junction in enumerate(junctions):
                            x, y, d = reference.map_junction(s, phi, p, {}, values)
                            u, v, e = self.junction_at(junction, a2, a3)
                            where = (a, b, t2, t3, a2, a3, s)
                            assert Fraction(u, e) == Fraction(x, d), where
                            assert Fraction(v, e) == Fraction(y, d), where

    @staticmethod
    def affine_root(g0, g1, k):
        """The a at which coordinate k of the affine g0 + a (g1 - g0) is 0,
        for triples g0 and g1, or None where that coordinate is constant."""
        n0, n1 = g0[k] * g1[2], g1[k] * g0[2]
        return None if n0 == n1 else Fraction(n0, n0 - n1)

    def test_uniqueness_identities_on_grid(self):
        # step 5 of the lemma of ordered_extension on every pair B <= 200:
        # each equation is affine in the free digits, so its coefficients
        # come from the junctions at digits 0 and 1, and its one solution
        # must be the closed form and lie out of range, or (case t = 4,
        # t3 = 5, not solved here) be phi_0.  Edges are written (digit,
        # target).  The junctions of each target family are solved once,
        # over the whole grid, as affine functions of the digits, and read
        # at the maps named here: one list over the grid per gap
        grid = [(a, b) for b in range(2, 201) for a in range(1, b + 1)]
        family = self.family_junctions(*(np.array(c, dtype=object) for c in zip(*grid)))

        def read(t2, t3, a2, a3, pairs):
            gaps = self.junction_gaps(family[t2, t3], a2, a3, pairs)
            return [list(zip(*(c.tolist() for c in g))) for g in gaps]

        digits = ((0, 0), (1, 0), (0, 1))
        to_5 = {t3: [read(5, t3, a2, a3, [(4, 5)])[0] for a2, a3 in digits] for t3 in (4, 5)}
        to_4_4 = [read(4, 4, 0, x, [(6, 4), (5, 4)]) for x in (0, 1)]
        to_4_5 = [read(4, 5, 0, x, [(6, 5)])[0] for x in (0, 1)]
        root = self.affine_root
        for i, (a, b) in enumerate(grid):
            gap = Fraction(b - 1, a * (b - a) + b - 1)  # in (0, 1]
            # a: state 1 ends at f_0(V_4) = f_a2(V_5), so
            # V_4 - V_5 - (a2, 0) = 0, two equations in (a2, a3), solved
            # by Cramer's rule over a common denominator, for either t3
            for t3 in (4, 5):
                e = []
                for (a2, a3), gaps in zip(digits, to_5[t3]):
                    x, y, d = gaps[i]
                    e.append((x - a2 * d, y, d))
                den = e[0][2] * e[1][2] * e[2][2]
                (x0, y0), (x1, y1), (x2, y2) = ((x * den // d, y * den // d) for x, y, d in e)
                (ux, uy), (wx, wy) = (x1 - x0, y1 - y0), (x2 - x0, y2 - y0)
                det = ux * wy - wx * uy
                assert det != 0, (a, b, t3)
                assert Fraction(wx * y0 - x0 * wy, det) == -gap, (a, b, t3)
            # b: state 2's last edge (b', t) ends at f_b'(V_{t+1}), which
            # must be V_3 = f_a3(V_t3).  t = 5, t3 = 4: y(V_6) = y(V_4)
            # only below A; t = 4, t3 = 4: y(V_5) = y(V_4) fixes a3, and
            # then a3 - b' = x(V_5) - x(V_4) is the gap
            g0, g1 = ([gaps[i] for gaps in by_pair] for by_pair in to_4_4)
            r = root(g0[0], g1[0], 1)
            assert r == Fraction(a * (b - 1), a + b - 1) < a, (a, b)
            r = root(g0[1], g1[1], 1)
            assert r is not None and gap == (
                Fraction(g0[1][0], g0[1][2]) * (1 - r) + Fraction(g1[1][0], g1[1][2]) * r
            ), (a, b)
            assert (gap == 1) == (a == b), (a, b)
            # t = 5, t3 = 5: y(V_6) = y(V_5) only below A - 1, wherever
            # state 2 has an edge to 5
            g0, g1 = (gaps[i] for gaps in to_4_5)
            r = root(g0, g1, 1)
            assert r == Fraction((b - 1) * (a * a - b), a * (a - 1) + b * (b - 1)), (a, b)
            assert a == 1 or r < a - 1, (a, b)

    def test_thread_state_matches_fraction_threading(self):
        # every state of every first-edge map of every pair B <= 7, decided
        # by the oracle's thread_state and by a brute-force Fraction search
        # whose junctions are point_eval of each state's phi-walk address
        verdicts = []
        for b in range(2, 8):
            for a in range(1, b + 1):
                graph = build_contact_graph(TileParams(a, b))
                outs = [reference.out_edges(graph, i) for i in range(1, 7)]
                cycles = {}
                for firsts in product(*(sorted(outs[i]) for i in range(3))):
                    phi = firsts + tuple(contact._flip_edge(e, b) for e in firsts)
                    junction = [phi_junction(i, phi, graph.params) for i in range(1, 7)]
                    values = [None] * 6
                    for state, edges in enumerate(outs, start=1):
                        steps = {}
                        for e in edges:
                            steps.setdefault(e[3], {}).setdefault(e[1], []).append(e)
                        expected = fraction_threadings(state, edges, junction, graph.params)
                        try:
                            got = reference.thread_state(
                                state, edges, steps, phi, graph.params, cycles, values, ""
                            )
                            got = [] if got is None else [got]
                        except CertificateFailure:
                            got = ["two ways"]
                        want = expected if len(expected) < 2 else ["two ways"]
                        assert got == want, (a, b, phi, state)
                        verdicts.append(len(expected))
                    for value, v in zip(values, junction):
                        if value is not None:
                            assert (Fraction(value[0], value[2]), Fraction(value[1], value[2])) == v
        assert len(verdicts) == 6 * 531
        assert verdicts.count(0) > 0 and verdicts.count(1) > 0

    def test_state_threading_two_ways_is_a_failure(self, monkeypatch):
        # first edges all of digit 0 put V_1 = V_2 = V_3 at 0.(0), so both
        # edges of state 1 have the one-point subpiece f_0(0) = 0 and chain
        # from V_1 to V_2 in either order; the search visits phi_0 first and
        # raises there
        p = TileParams(4, 5)
        edges = ((1, 0, 0, 1), (1, 0, 0, 2), (2, 0, 0, 2), (3, 0, 0, 3))
        graph = reference.HandBuiltGraph(p, contact_states(p), edges)
        decide, maps = reference.decide_map, []
        monkeypatch.setattr(reference, "decide_map", lambda *args: maps.append(args[0]) or decide(*args))
        two_ways = r"state 1 threads two ways for \(A,B\)=\(4,5\)"
        with pytest.raises(CertificateFailure, match=two_ways):
            reference.order_search(graph)
        firsts = ((1, 0, 0, 1), (2, 0, 0, 2), (3, 0, 0, 3))
        assert maps == [firsts + tuple(contact._flip_edge(e, 5) for e in firsts)]

    @ORDERINGS
    def test_calibration_failure(self, order_fn, monkeypatch):
        # (4,5) is in the 2A - B = 3 regime, so the chain setup checks that
        # the ordering it is given, the closed form or the search's, decodes
        # the tabulated walks; a wrong tabulated address is a failure
        walk, _ = chains.alpha_calibration_rows(TileParams(4, 5))[0]
        monkeypatch.setattr(
            chains, "alpha_calibration_rows", lambda params: [(walk, Address((), (), (0,)))]
        )
        monkeypatch.setattr(chains, "ordered_extension", order_fn)
        wrong = r"^walk .* does not decode to the tabulated 0\.\(0\) for \(A,B\)=\(4,5\)$"
        with pytest.raises(CertificateFailure, match=wrong):
            chains.ChainSetup.build(TileParams(4, 5))

    def test_ordering_off_the_table_is_a_failure(self, monkeypatch):
        # a map decision that completes phi_0 alone, with state 2's letters
        # reversed: one ordering, but not the letter table's
        decide, maps = reference.decide_map, []

        def first_map_reversed(phi, outs, *rest):
            maps.append(phi)
            if len(maps) > 1:
                return None
            orders, junctions = decide(phi, outs, *rest)
            return (orders[0], orders[1][::-1], *orders[2:]), junctions

        monkeypatch.setattr(reference, "decide_map", first_map_reversed)
        off_table = r"^the ordering found is not the table's for \(A,B\)=\(4,5\)$"
        with pytest.raises(CertificateFailure, match=off_table):
            reference.order_search(build_contact_graph(TileParams(4, 5)))

    def test_two_complete_orderings_are_a_failure(self, monkeypatch):
        # a map decision that succeeds on every map, in sorted and reversed
        # edge order on alternate maps, completes two distinct orderings
        maps = []

        def decide_alternately(phi, outs, *rest):
            maps.append(phi)
            orders = tuple(tuple(sorted(edges, reverse=len(maps) % 2 == 0)) for edges in outs)
            return orders, ((Fraction(0), Fraction(0)),) * 6

        monkeypatch.setattr(reference, "decide_map", decide_alternately)
        two_orderings = r"^2 continuous edge orderings for \(A,B\)=\(4,5\)"
        with pytest.raises(CertificateFailure, match=two_orderings):
            reference.order_search(build_contact_graph(TileParams(4, 5)))

    @pytest.mark.parametrize("a,b", [(4, 5), (5, 5), (7, 11), (19, 38)])
    def test_every_first_edge_map_is_visited(self, a, b, monkeypatch):
        # "exactly one ordering" certifies only if no map is skipped
        graph = build_contact_graph(TileParams(a, b))
        decide = reference.decide_map
        maps = []

        def counting(*args):
            maps.append(args[0])
            return decide(*args)

        monkeypatch.setattr(reference, "decide_map", counting)
        reference.order_search(graph)
        assert len(maps) == len(set(maps))
        assert len(maps) == math.prod(len(reference.out_edges(graph, i)) for i in (1, 2, 3))

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
            assert (reference.lift(walk_to_param(back, pd, o)) - t).is_zero()

    def test_lex_order_matches_parameter_order(self, rng):
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
                cmp = reference.walk_compare(w1, w2)
                diff = reference.lift(walk_to_param(w1, pd, o)) - walk_to_param(w2, pd, o)
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

    def test_errors_name_their_inputs(self, monkeypatch):
        from tiletopo.algebraic import NumberField
        from tiletopo.errors import NonPeriodicWalk

        o = ordered(4, 5)
        with pytest.raises(OutOfRange, match=r"^state 1 has no edge #99 for \(A,B\)=\(4,5\)$"):
            o.edge_at(1, 99)
        pd = perron_data(o.graph)
        with pytest.raises(NonPeriodicWalk, match=r"within 64 steps for \(A,B\)=\(4,5\)$"):
            param_to_walk(Fraction(1, 3), pd, o, max_steps=64)
        # at the root 2 of x - 2, beta - A + 1 = -1 for (4,5)
        monkeypatch.setattr(contact, "dominant_root_field", lambda c: NumberField([-2, 1], 2, 2))
        with pytest.raises(CertificateFailure, match=r"not strictly positive for \(A,B\)=\(4,5\)$"):
            perron_data(o.graph)
        with pytest.raises(OutOfRange, match=r"^parameter t=3/2 must lie in \[0, 1\] for \(A,B\)=\(4,5\)$"):
            param_to_walk(Fraction(3, 2), pd, o)
        with pytest.raises(OutOfRange, match=r"^level must be nonnegative, got -1 for \(A,B\)=\(4,5\)$"):
            approx_boundary(o, -1)
        with pytest.raises(BudgetExceeded, match=r"at level 9 exceed budget 100 for \(A,B\)=\(4,5\)$"):
            approx_boundary(o, 9, budget=100)
        with pytest.raises(OutOfRange, match=r"^contact graph requires A >= 1 for \(A,B\)=\(0,5\)$"):
            build_contact_graph(TileParams(0, 5))

    def test_lengths_that_do_not_add_up_are_a_failure(self):
        # v_6 set to 0 with total kept, so the lengths add up to 1 - u_6 and
        # t = 1 lies in no state's interval
        o = ordered(4, 5)
        pd = perron_data(o.graph)
        short = PerronData(pd.field, pd.v[:5] + ((0,) * pd.field.degree,), pd.total)
        with pytest.raises(CertificateFailure, match=r"^interval lengths do not add up to 1 for \(A,B\)=\(4,5\)$"):
            param_to_walk(Fraction(1), short, o)

    def test_regime_errors_name_their_inputs(self):
        from tiletopo.errors import WrongRegime
        from reference import adjacent_singleton_point
        from tiletopo.render import cutpoint_scene
        from tiletopo.topology import build_d1_d2, cut_point_address, verify_cut_point

        p = TileParams(4, 5)
        for fn in (cutpoint_scene, cut_point_address, build_d1_d2, verify_cut_point):
            args = (p, 1) if fn is cutpoint_scene else (p,)
            with pytest.raises(WrongRegime, match=r"2A - B >= 5 for \(A,B\)=\(4,5\)$"):
                fn(*args)
        with pytest.raises(WrongRegime, match=r"2A - B = 3 for \(A,B\)=\(5,5\)$"):
            adjacent_singleton_point((1, 2, 0), (0, 0, 1), TileParams(5, 5))

    def test_midpoint_is_an_interval_boundary(self):
        # the flip symmetry pairs the interval lengths, so 1/2 is exactly the
        # boundary between states 3 and 4 and resolves to the left max walk
        o = ordered(4, 5)
        pd = perron_data(o.graph)
        w = param_to_walk(Fraction(1, 2), pd, o)
        assert w.start == 3
        assert boundary_point(Fraction(1, 2), pd, o) == o.vertex(4)

    def test_greedy_walk_matches_field_oracle(self):
        # the greedy walk on integer vectors against the FieldElement one it
        # replaced: the same walk, or the same error and message, over the
        # 77 pairs 1 <= A <= B <= 12
        for b in range(2, 13):
            for a in range(1, b + 1):
                o = ordered(a, b)
                pd = perron_data(o.graph)
                probes = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
                for period, start in (((2,), 2), ((1, 3), 5), ((3, 1, 2), 1)):
                    probes.append(walk_to_param(cyclic_walk(o, start, period), pd, o))
                ref = reference.lengths(pd)
                for t in probes:
                    got = outcome(param_to_walk, t, pd, o)
                    assert got == outcome(reference.param_to_walk, t, ref, o), (a, b, t)
                for t in (Fraction(1, 3), Fraction(2, 7)):
                    got = outcome(param_to_walk, t, pd, o, max_steps=40)
                    want = outcome(reference.param_to_walk, t, ref, o, max_steps=40)
                    assert got == want, (a, b, t)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_matches_field_oracle(self, data):
        # a walk's parameter comes back from its greedy walk, which is the
        # FieldElement oracle's walk too
        b = data.draw(st.integers(2, 60), label="B")
        a = data.draw(st.integers(1, b), label="A")
        letters = st.integers(1, 64)
        start = data.draw(st.integers(1, 6), label="start")
        pre = data.draw(st.lists(letters, max_size=4), label="pre")
        period = data.draw(st.lists(letters, min_size=1, max_size=3), label="period")
        o = ordered_extension(build_contact_graph(TileParams(a, b)))
        pd = perron_data(o.graph)
        t = walk_to_param(cyclic_walk(o, start, tuple(period), tuple(pre)), pd, o)
        back = param_to_walk(t, pd, o)
        assert back == reference.param_to_walk(t, reference.lengths(pd), o)
        got = walk_to_param(back, pd, o)
        assert (got.num, got.den) == (t.num, t.den)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_half_turn_adds_one_half(self, data):
        # the digit flip is the half turn: it maps K_s onto K_{s+3}, and the
        # lengths u_1 + u_2 + u_3 = 1/2 precede K_4, so a walk from s + 3
        # has the parameter of the same letters from s, plus 1/2 exactly
        b = data.draw(st.integers(2, 40), label="B")
        a = data.draw(st.integers(1, b), label="A")
        letters = st.integers(1, 64)
        start = data.draw(st.integers(1, 3), label="start")
        pre = data.draw(st.lists(letters, max_size=4), label="pre")
        period = data.draw(st.lists(letters, min_size=1, max_size=3), label="period")
        o = ordered_extension(build_contact_graph(TileParams(a, b)))
        pd = perron_data(o.graph)
        w = cyclic_walk(o, start, tuple(period), tuple(pre))
        got = walk_to_param(Walk(start + 3, w.pre, w.period), pd, o)
        want = reference.lift(walk_to_param(w, pd, o)) + pd.field.rational(Fraction(1, 2))
        assert (got.num, got.den) == (want.num, want.den)

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

    @pytest.mark.parametrize(
        "a,b,n", [(2, 2, 6), (4, 5, 4), (1, 12, 3), (7, 11, 3), (5, 5, 8)]
    )
    def test_python_int_expansion_matches_int64(self, monkeypatch, a, b, n):
        # no level within the default budget reaches the int64 bound, so
        # the Python-int expansion is forced by lowering the bound
        o = ordered(a, b)
        narrow = approx_boundary(o, n)
        monkeypatch.setattr(contact, "_INT64_MAX", -1)
        wide = approx_boundary(o, n)
        assert narrow.point_array.dtype == np.int64 and wide.point_array.dtype == object
        assert narrow.scale == wide.scale
        for name in ("point_array", "last_array"):
            assert np.array_equal(getattr(narrow, name), getattr(wide, name)), name

    def test_stored_junctions_are_reduced(self):
        # on every pair 1 <= A <= B <= 40 the ordering keeps its junctions in
        # lowest terms, so the LCM of their denominators is D, the LCM of the
        # vertices' coordinate denominators, and level 1 has the scale D*B
        for b in range(2, 41):
            for a in range(1, b + 1):
                o = ordered_extension(build_contact_graph(TileParams(a, b)))
                for x, y, den in o.junctions:
                    assert den > 0 and math.gcd(x, y, den) == 1, (a, b, o.junctions)
                assert o.vertices is o.vertices  # a view, built once
                d = math.lcm(*(den for _, _, den in o.junctions))
                assert d == math.lcm(*(c.denominator for v in o.vertices for c in v)), (a, b)
                assert approx_boundary(o, 1).scale == d * b, (a, b)

    def test_views_are_built_once(self):
        ap = approx_boundary(ordered(4, 5), 3)
        for name in ("firsts", "vertices"):
            assert getattr(ap, name) is getattr(ap, name), name
        assert ap.firsts == tuple(map(tuple, ap.point_array.tolist()))
        assert ap.vertices == tuple(
            (Fraction(x, ap.scale), Fraction(y, ap.scale)) for (x, y) in ap.point_array.tolist()
        )


class TestWalkCompare:
    def test_orderings(self):
        a = Walk(3, (1,), (2,))
        b = Walk(3, (2,), (2,))
        assert reference.walk_compare(a, b) == -1
        assert reference.walk_compare(b, a) == 1
        assert reference.walk_compare(a, Walk(3, (1, 2), (2,))) == 0
        assert reference.walk_compare(Walk(2, (9,), (9,)), Walk(3, (1,), (1,))) == -1

    def test_first_difference(self):
        first_difference = reference.first_difference
        assert first_difference(Walk(3, (1,), (2,)), Walk(3, (1, 2), (2,))) is None
        assert first_difference(Walk(3, (1,), (2,)), Walk(3, (2,), (2,))) == 1
        # same preperiod, parting inside the period
        assert first_difference(Walk(5, (2,), (2, 2)), Walk(5, (2,), (2, 4))) == 3
