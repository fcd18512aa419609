import copy
import dataclasses
import hashlib
import json
from fractions import Fraction
from itertools import count
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiletopo import Address, TileParams, WrongRegime, chains, cli, parse_address, point_eval
from tiletopo.automata import (
    BRANCHING,
    EMPTY,
    FINITE_POINTS,
    UNIQUE_POINT,
    ProductMoves,
    Run,
    accepts_address,
    live_nodes,
    nfa_flip,
    product_intersection,
)
from tiletopo.errors import ChainViolation, IdentityFailure, OutOfRange
from tiletopo.chains import (
    ChainReport,
    ChainSetup,
    _chain_matrix,
    _check_cycle_pattern,
    alpha_calibration_rows,
    alpha_curves,
    alpha_table,
    circular_chain_report,
    expected_chain_junctions,
    flipped_languages,
    gamma_arcs,
    symmetry_and_junctions,
)
from tiletopo.neighbors import neighbor_set_formula
from tiletopo.numsys import flip
from tiletopo.topology import build_d1_d2
from tiletopo.contact import (
    Walk,
    build_contact_graph,
    ordered_extension,
    psi,
)

from reference import (
    DigitNFA,
    HandBuiltGraph,
    chain_report,
    chain_report_text,
    chain_report_to_json,
    dfa_renumbered,
    first_difference,
    graph_edges,
    graph_language,
    lex_interval_language,
    nfa_accepts_address,
    nfa_determinize,
    nfa_prefixes,
    nfa_remap_first_digit,
    nfa_single_address,
    nfa_union,
    reference_chain_matrix,
    verify_chain,
    verify_circular_chain,
    walk_compare,
    walk_letter,
)


SETUPS: dict = {}


def setup_for(a, b) -> ChainSetup:
    if (a, b) not in SETUPS:
        SETUPS[(a, b)] = ChainSetup.build(TileParams(a, b))
    return SETUPS[(a, b)]


class TestAlphaTable:
    def test_last_row_endpoints_4_5(self):
        s = setup_for(4, 5)
        curves = alpha_curves(s)
        assert curves[-1].endpoint_addresses == (
            parse_address("440(04)"),
            parse_address("4(2)"),
        )

    def test_penultimate_starts_at_junction_4_5(self):
        s = setup_for(4, 5)
        curves = alpha_curves(s)
        assert curves[-2].endpoint_addresses[0] == parse_address("4(2)")

    def test_first_row_5_7(self):
        s = setup_for(5, 7)
        curves = alpha_curves(s)
        assert curves[0].endpoint_addresses[0] == parse_address("106(60)")

    def test_row_count(self):
        for a, b in [(4, 5), (5, 7), (6, 9)]:
            assert len(alpha_table(TileParams(a, b))) == b

    def test_calibration_rows_decode(self):
        for a, b in [(4, 5), (5, 7)]:
            s = setup_for(a, b)
            for walk, addr in alpha_calibration_rows(TileParams(a, b), s.table):
                assert psi(walk, s.ordered) == addr

    def test_one_table_and_one_regime_check_per_setup(self, monkeypatch):
        """``ChainSetup.build`` builds the walk table once, and its one
        regime check is the table's: the curves and their calibration read
        the setup's table."""
        tables, checks = [], []
        table, require = chains.alpha_table, chains._require_regime
        monkeypatch.setattr(chains, "alpha_table", lambda p: tables.append(p) or table(p))
        monkeypatch.setattr(chains, "_require_regime", lambda p: checks.append(p) or require(p))
        params = TileParams(12, 21)
        setup = ChainSetup.build(params)
        assert (tables, checks) == ([params], [params])
        assert setup.table == table(params)
        assert [c.endpoint_addresses for c in setup.curves] == [
            (psi(s, setup.ordered), psi(t, setup.ordered)) for s, t in setup.table
        ]

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            alpha_table(TileParams(5, 5))
        with pytest.raises(WrongRegime):
            alpha_table(TileParams(3, 3))


def _k_prefixes(setup, state, depth):
    return nfa_prefixes(graph_language(setup.ordered.graph, state), depth)


def _family(setup, head, states, depth=4):
    """Depth-limited prefixes of 0.head[K_s1 u K_s2 ...]."""
    head = tuple(head)
    out = set()
    if len(head) >= depth:
        out.add(head[:depth])
        return out
    rest = depth - len(head)
    for st in states:
        for tail in _k_prefixes(setup, st, rest):
            out.add(head + tail)
    return out


class TestAlphaLanguage:
    def test_contains_lower_junction(self):
        s = setup_for(4, 5)
        lang = alpha_curves(s)[0].language
        assert accepts_address(lang, parse_address("104(40)"))

    def test_depth4_matches_explicit_decomposition(self):
        # alpha_1 for (4,5): expand the explicit union of cylinder families
        # truncated to depth 4 and compare with the automaton prefixes
        s = setup_for(4, 5)
        a, b = 4, 5
        i = 1
        fam: set = set()
        fam.add((i, 0, b - 1, b - 1))  # the point 0.i0(B-1)((B-1)0)bar
        for p in (0, 1):
            base = (i, 0, b - 1) + (b - 1, 0) * p
            fam |= _family(s, base + (b - a,), (1,))
            for k in range(b - a + 1, b - 1):
                fam |= _family(s, base + (k,), (1, 2))
            base2 = (i, 0, b - 1, b - 1) + (0, b - 1) * p
            for k in range(1, a - 1):
                fam |= _family(s, base2 + (k,), (4, 5))
            fam |= _family(s, base2 + (a - 1,), (4,))
        for k in range(0, a - 2):
            fam |= _family(s, (i, k), (4, 5))
        fam |= _family(s, (i, a - 2), (4,))
        fam |= _family(s, (i, a - 2, b - 2), (1,))
        fam |= _family(s, (i, a - 2, b - 1), (1, 2))
        for p in (0, 1):
            fam |= _family(s, (i, a - 2, b - 2) + (0, b - 1) * p + (0,), (4,))
            fam |= _family(s, (i, a - 2, b - 2, 0) + (b - 1, 0) * p + (b - 1,), (1,))
        fam.add((i, a - 2, b - 2, 0))  # the point 0.i(A-2)(B-2)(0(B-1))bar
        fam = {w[:4] for w in fam}
        auto = nfa_prefixes(alpha_curves(s)[0].language, 4)
        assert auto == fam

    def test_language_inside_boundary_language(self):
        s = setup_for(4, 5)
        boundary = nfa_union([graph_language(s.ordered.graph, i) for i in range(1, 7)])
        bprefixes = nfa_prefixes(boundary, 5)
        for c in alpha_curves(s):
            assert nfa_prefixes(c.language, 5) <= bprefixes


def reference_lex_interval_language(ordered, lo, hi):
    """The walk-interval language as first written, in three cases: tight
    chains built per side, a shared-prefix chain into a divergence state
    when both bounds start in the same state, and the single address when
    the bounds are equal."""
    cmp = walk_compare(lo, hi)
    if cmp > 0:
        lo, hi = hi, lo
    if cmp == 0:
        return nfa_single_address(psi(lo, ordered))
    tight = {"lo": ordered.walk_steps(lo), "hi": ordered.walk_steps(hi)}

    def advance(side, idx, steps):
        nodes, wrap = tight[side]
        for _ in range(steps):
            idx = idx + 1 if idx + 1 < len(nodes) else wrap
        return idx

    trans = {("free", i): {} for i in range(1, 7)}

    def add(key, digit, target):
        trans[key][digit] = trans[key].get(digit, ()) + (target,)

    for e in graph_edges(ordered.graph):
        add(("free", e[0]), e[1], ("free", e[3]))

    def ensure(side, idx):
        key = (side, idx)
        if key in trans:
            return
        trans[key] = {}
        letter, edge = tight[side][0][idx]
        for k, e in enumerate(ordered.orders[edge[0] - 1], start=1):
            if (k < letter) if side == "lo" else (k > letter):
                continue
            if k == letter:
                nxt = advance(side, idx, 1)
                ensure(side, nxt)
                add(key, e[1], (side, nxt))
            else:
                add(key, e[1], ("free", e[3]))

    initials = []
    if lo.start < hi.start:
        ensure("lo", 0)
        ensure("hi", 0)
        initials.append(("lo", 0))
        initials.extend(("free", s) for s in range(lo.start + 1, hi.start))
        initials.append(("hi", 0))
    else:
        n = first_difference(lo, hi) - 1
        state = lo.start
        for m in range(n):
            e = ordered.edge_at(state, walk_letter(lo, m + 1))
            trans[("both", m)] = {e[1]: (("both", m + 1) if m + 1 < n else ("div",),)}
            state = e[3]
        trans[("div",)] = {}
        lo_div, hi_div = walk_letter(lo, n + 1), walk_letter(hi, n + 1)
        for k, e in enumerate(ordered.orders[state - 1], start=1):
            if k in (lo_div, hi_div):
                side = "lo" if k == lo_div else "hi"
                idx = advance(side, 0, n + 1)
                ensure(side, idx)
                add(("div",), e[1], (side, idx))
            elif lo_div < k < hi_div:
                add(("div",), e[1], ("free", e[3]))
        initials.append(("both", 0) if n > 0 else ("div",))
    return nfa_determinize(DigitNFA(tuple(initials), trans))


def same_language(left, right):
    """Do two DFAs, every state accepting, accept the same infinite words?
    Both are trimmed to their live states and walked in step; at each
    state pair the digits that lead to live states must agree."""

    def live_rows(dfa):
        alive = live_nodes({q: list(row.values()) for q, row in dfa.trans.items()})

        def row(q):
            return {d: t for d, t in dfa.trans.get(q, {}).items() if t in alive}

        return alive, row

    (alive_l, row_l), (alive_r, row_r) = live_rows(left), live_rows(right)
    start = (left.initial, right.initial)
    if (start[0] in alive_l) != (start[1] in alive_r):
        return False
    seen = {start} if start[0] in alive_l else set()
    frontier = list(seen)
    while frontier:
        p, q = frontier.pop()
        rl, rr = row_l(p), row_r(q)
        if rl.keys() != rr.keys():
            return False
        for d in rl:
            pair = (rl[d], rr[d])
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return True


class TestLexIntervalLanguage:
    @staticmethod
    def _walk_prefixes(ordered, lo, hi, depth):
        """Digit words of the depth-letter walk prefixes p from lo's start
        with lo[:depth] <= p <= hi[:depth]: exactly the prefixes of the
        infinite walks between lo and hi, since every state has out-edges."""
        lo_word = tuple(walk_letter(lo, n) for n in range(1, depth + 1))
        hi_word = tuple(walk_letter(hi, n) for n in range(1, depth + 1))
        out = set()

        def rec(state, letters, digits):
            if len(letters) == depth:
                if lo_word <= letters <= hi_word:
                    out.add(digits)
                return
            for k, e in enumerate(ordered.orders[state - 1], start=1):
                rec(e[3], letters + (k,), digits + (e[1],))

        rec(lo.start, (), ())
        return out

    def test_bounds_diverging_inside_the_period(self):
        # both bounds read the preperiod (2) and the first period letter 2,
        # and part at letter 3, the second letter of the period
        ordered = setup_for(4, 5).ordered
        lo, hi = Walk(5, (2,), (2, 2)), Walk(5, (2,), (2, 4))
        lang = lex_interval_language(ordered, lo, hi)
        assert lang.trans == lex_interval_language(ordered, hi, lo).trans
        for depth in range(1, 7):
            assert nfa_prefixes(lang, depth) == self._walk_prefixes(ordered, lo, hi, depth)
        assert accepts_address(lang, psi(lo, ordered))
        assert accepts_address(lang, psi(hi, ordered))

    def test_same_language_helper(self):
        ordered = setup_for(4, 5).ordered
        lo, hi = Walk(5, (2,), (2, 2)), Walk(5, (2,), (2, 4))
        lang = lex_interval_language(ordered, lo, hi)
        assert same_language(lang, lang)
        assert not same_language(lang, lex_interval_language(ordered, lo, lo))
        assert not same_language(lex_interval_language(ordered, hi, hi), lang)

    @pytest.mark.parametrize("b", range(5, 24, 2))
    def test_alpha_rows_match_reference(self, b):
        params = TileParams((b + 3) // 2, b)
        ordered = ordered_extension(build_contact_graph(params))
        for s, t in alpha_table(params):
            for lo, hi in ((s, t), (t, s)):
                assert same_language(
                    lex_interval_language(ordered, lo, hi),
                    reference_lex_interval_language(ordered, lo, hi),
                )

    def test_equal_and_same_start_bounds_match_reference(self):
        ordered = setup_for(4, 5).ordered
        pairs = [
            # the same letters, unrolled with different preperiods
            (Walk(5, (2,), (2, 2)), Walk(5, (2, 2), (2,))),
            (Walk(6, (1, 6, 4), (2,)), Walk(6, (1, 6, 4), (2,))),
            # same start, parting inside the period
            (Walk(5, (2,), (2, 2)), Walk(5, (2,), (2, 4))),
        ]
        for lo, hi in pairs:
            lang = lex_interval_language(ordered, lo, hi)
            assert same_language(lang, reference_lex_interval_language(ordered, lo, hi))
        lo, hi = pairs[0]
        assert same_language(
            lex_interval_language(ordered, lo, hi), nfa_single_address(psi(lo, ordered))
        )


def drawn_walk(data, ordered, start, head=()):
    """A walk from ``start`` that reads the letters ``head`` and then drawn
    letters, each taken among the out-edges of the state it leaves.  The
    period's letters are chosen on its first pass, so a period that does not
    fit a state it meets later is rejected."""
    state = start
    for letter in head:
        state = ordered.edge_at(state, letter)[3]
    letters = []
    for c in data.draw(st.lists(st.integers(0, 10), max_size=4), label="pre choices"):
        letters.append(c % ordered.out_count(state) + 1)
        state = ordered.edge_at(state, letters[-1])[3]
    pre = tuple(head) + tuple(letters)
    per = []
    for c in data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=3), label="period"):
        per.append(c % ordered.out_count(state) + 1)
        state = ordered.edge_at(state, per[-1])[3]
    walk = Walk(start, pre, tuple(per))
    try:
        ordered.walk_steps(walk)
    except OutOfRange:
        assume(False)
    return walk


class TestWalkOrder:
    """``lex_interval_languages`` reads each interval low bound first, and
    gives a pair with its high bound first the empty language.
    ``alpha_curves`` hands over row B-1 of ``alpha_table``, the one row that
    lists its high bound first, as (t, s); ``reference.walk_compare`` reads
    the letters by index."""

    @staticmethod
    def is_empty(lang):
        alive = live_nodes({q: list(row.values()) for q, row in lang.trans.items()})
        return lang.initial not in alive

    @pytest.mark.parametrize("a", range(4, 22))
    def test_alpha_bounds_ascend(self, monkeypatch, a):
        b = 2 * a - 3
        params = TileParams(a, b)
        table = alpha_table(params)
        assert [k for k, (s, t) in enumerate(table) if walk_compare(s, t) > 0] == [b - 2]
        passed = []

        def record(ordered, bounds):
            passed.extend(bounds)
            return [None] * len(bounds)

        monkeypatch.setattr(chains, "lex_interval_languages", record)
        ordered = ordered_extension(build_contact_graph(params))
        alpha_curves(SimpleNamespace(params=params, ordered=ordered, table=table))
        assert passed == [(t, s) if k == b - 2 else (s, t) for k, (s, t) in enumerate(table)]
        assert all(walk_compare(lo, hi) < 0 for lo, hi in passed)

    def test_one_sequence_spelled_two_ways(self):
        ordered = setup_for(4, 5).ordered
        pairs = [
            (Walk(3, (1,), (2,)), Walk(3, (1, 2), (2,))),
            (Walk(5, (2,), (2, 2)), Walk(5, (2, 2), (2,))),
            (Walk(5, (2,), (2, 2)), Walk(5, (2,), (2, 4))),
            (Walk(2, (1,), (1,)), Walk(3, (1,), (1,))),
        ]
        assert [walk_compare(x, y) for x, y in pairs] == [0, 0, -1, -1]
        for x, y in pairs:
            for lo, hi in ((x, y), (y, x)):
                lang = chains.lex_interval_languages(ordered, [(lo, hi)])[0]
                assert self.is_empty(lang) == (walk_compare(lo, hi) > 0)

    @given(st.sampled_from([(4, 5), (5, 7)]), st.data())
    @settings(max_examples=300, deadline=None, database=None)
    def test_matches_walk_compare(self, ab, data):
        # a drawn pair, in both orders: the empty language exactly when
        # walk_compare puts the high bound first, the reference one otherwise
        ordered = setup_for(*ab).ordered
        x = drawn_walk(data, ordered, data.draw(st.integers(1, 6), label="start"))
        kind = data.draw(st.sampled_from(["respelled", "branch", "any"]), label="kind")
        if kind == "respelled":
            # the same letters: part of the period moved into the
            # preperiod, and the period repeated
            k = data.draw(st.integers(0, len(x.period)), label="k")
            r = data.draw(st.integers(1, 2), label="r")
            y = Walk(x.start, x.pre + x.period[:k], (x.period[k:] + x.period[:k]) * r)
        elif kind == "branch":
            m = data.draw(st.integers(0, 6), label="shared letters")
            y = drawn_walk(data, ordered, x.start, [walk_letter(x, n) for n in range(1, m + 1)])
        else:
            y = drawn_walk(data, ordered, data.draw(st.integers(1, 6), label="other start"))
        for lo, hi in ((x, y), (y, x)):
            lang = chains.lex_interval_languages(ordered, [(lo, hi)])[0]
            if walk_compare(lo, hi) > 0:
                assert self.is_empty(lang)
            else:
                assert same_language(lang, reference_lex_interval_language(ordered, lo, hi))
        if kind == "respelled":
            assert walk_compare(x, y) == 0


class TestChain:
    def test_4_5_chain(self):
        report = verify_chain(setup_for(4, 5))
        assert report.ok

    def test_4_5_junction_dual_addresses(self):
        s = setup_for(4, 5)
        report = chain_report(s)
        cell = report.entry("a1", "a2")
        assert cell["kind"] == "UNIQUE_POINT"
        v1 = point_eval(parse_address("223(04)"), s.params)
        v2 = point_eval(parse_address("104(40)"), s.params)
        assert v1 == v2 == cell["value"]

    def test_4_5_far_pair_empty(self):
        report = chain_report(setup_for(4, 5))
        assert report.entry("a5", "a3")["kind"] == "EMPTY"

    def test_5_7_chain(self):
        assert verify_chain(setup_for(5, 7)).ok


class TestCurveLanguages:
    def test_curve_dfa_golden_digest(self):
        # sha256 of every alpha-curve and flipped-curve DFA (label, initial
        # state, rows by state) of (A, 2A - 3) for odd B from 5 to 39,
        # recorded when each curve ran a subset construction of its own and
        # a DFA held an initials tuple and 1-tuple targets: the digest reads
        # that form, (label, (initial,), rows with each target t as (t,)).
        # A setup's curves now share one table, so each curve is read in
        # the breadth-first renumbering from its own initial state, which is
        # the numbering of its own subset construction (and of its flip)
        h = hashlib.sha256()
        for b in range(5, 40, 2):
            s = setup_for((b + 3) // 2, b)
            for label, lang in [(c.label, c.language) for c in s.curves] + flipped_languages(s):
                lang = dfa_renumbered(lang)
                rows = sorted(
                    (q, {d: (t,) for d, t in row.items()}) for q, row in lang.trans.items()
                )
                h.update(repr((label, (lang.initial,), rows)).encode())
        assert h.hexdigest() == (
            "87d250bf525b3f93941759bdaf7c6442fc2bbb3927bc5865327c5a209c340bfa"
        )


class TestChainMatrix:
    """The matrix with one move table and no product for a dead start is
    the per-pair loop of ``reference_chain_matrix``: the same kinds, values,
    addresses and witnesses, in the same key order."""

    @pytest.mark.parametrize("b", range(5, 40, 2))
    def test_chain_cells_match_reference(self, b):
        s = setup_for((b + 3) // 2, b)
        labeled = [(c.label, c.language) for c in s.curves]
        flipped = flipped_languages(s)
        matrix = _chain_matrix(s, labeled, flipped)
        assert list(matrix.items()) == list(reference_chain_matrix(s, labeled + flipped).items())

    def test_several_first_digits_match_reference(self, monkeypatch):
        # every chain curve starts with one digit; the boundary pieces
        # K_1..K_6 of (4,5) and their flips start with one to four, so some
        # cells die at the start, some after a first step, some branch
        s = setup_for(4, 5)
        labeled = [
            (f"K{q}", nfa_determinize(graph_language(s.ordered.graph, q))) for q in range(1, 7)
        ]
        flipped = [(f"{label}'", nfa_flip(lang, 5)) for label, lang in labeled]
        built = []
        real = chains.product_intersection
        monkeypatch.setattr(
            chains, "product_intersection", lambda l, r, m: built.append((l, r)) or real(l, r, m)
        )
        matrix = _chain_matrix(s, labeled, flipped)
        labeled += flipped
        assert list(matrix.items()) == list(reference_chain_matrix(s, labeled).items())
        moves = ProductMoves(s.sset, s.params)
        firsts = {label: moves.first_digits(lang) for label, lang in labeled}
        dead = [(l1, l2) for l1, l2 in matrix if moves.partners(firsts[l1]).isdisjoint(firsts[l2])]
        assert dead and all(matrix[pair] == {"kind": EMPTY} for pair in dead)
        assert any(cell["kind"] == EMPTY for pair, cell in matrix.items() if pair not in dead)
        assert any(cell["kind"] == BRANCHING for cell in matrix.values())
        assert max(len(f) for f in firsts.values()) > 1
        # each branch of the flipped half is taken: a cell of two flips is
        # built exactly when its source branches, and is read off otherwise,
        # several runs included; a mixed cell (K_i, K_j'), i > j, whose
        # start is live is EMPTY without a product when (K_j, K_i') is
        name = {id(lang): label for label, lang in labeled}
        built = {(name[id(l)], name[id(r)]) for l, r in built}
        unprimed = [pair for pair in matrix if "'" not in pair[0] + pair[1]]
        assert {pair for pair in built if pair[0].endswith("'")} == {
            (l1 + "'", l2 + "'") for l1, l2 in unprimed if matrix[(l1, l2)]["kind"] == BRANCHING
        }
        assert any(matrix[pair]["kind"] == FINITE_POINTS for pair in unprimed)
        swapped = [
            (l1, l2)
            for l1, l2 in matrix
            if l2.endswith("'") and "'" not in l1 and l1 > l2[:-1] and (l1, l2) not in dead
        ]
        read = [(l1, l2) for l1, l2 in swapped if matrix[(l2[:-1], l1 + "'")]["kind"] == EMPTY]
        assert read and all(matrix[pair] == {"kind": EMPTY} for pair in read)
        assert {pair for pair in swapped if pair in built} == set(swapped) - set(read)

    @staticmethod
    def assert_flipped_product_mirrors(params, q1, q2):
        # the lemma the flipped half is read off by: the product of the flips
        # of K_q1 and K_q2 is their product renamed (p, q, delta) ->
        # (p, q, -delta) with every digit flipped, so it has the same kind,
        # its runs are the runs flipped and in reverse order, and each value
        # v becomes top - v
        b = params.b
        graph = build_contact_graph(params)
        left, right = (nfa_determinize(graph_language(graph, q)) for q in (q1, q2))
        moves = ProductMoves(neighbor_set_formula(params).members, params)
        res = product_intersection(left, right, moves)
        mirror = product_intersection(nfa_flip(left, b), nfa_flip(right, b), moves)

        def renamed(state):
            p, q, (x, y) = state
            return (p, q, (-x, -y))

        top = point_eval(Address((), (), (b - 1,)), params)
        assert mirror.kind == res.kind
        assert mirror.live == set(map(renamed, res.live))
        assert {q: sorted(edges) for q, edges in mirror.transitions.items()} == {
            renamed(q): sorted((b - 1 - a, b - 1 - ap, renamed(t)) for a, ap, t in edges)
            for q, edges in res.transitions.items()
        }
        assert mirror.runs == tuple(
            Run(flip(r.left, params), flip(r.right, params), (top[0] - x, top[1] - y))
            for r in reversed(res.runs)
            for x, y in [r.value]
        )
        values = [r.value for r in mirror.runs]
        assert list(mirror.points) == [v for k, v in enumerate(values) if v not in values[:k]]
        return res.kind

    def test_flipped_products_mirror_at_4_5(self):
        # every pair of K_1..K_6 at (4, 5): all four kinds
        kinds = {
            self.assert_flipped_product_mirrors(TileParams(4, 5), q1, q2)
            for q1 in range(1, 7)
            for q2 in range(1, 7)
        }
        assert kinds == {EMPTY, UNIQUE_POINT, FINITE_POINTS, BRANCHING}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_flipped_products_mirror_drawn(self, data):
        b = data.draw(st.integers(2, 9), label="B")
        params = TileParams(data.draw(st.integers(1, b), label="A"), b)
        q1, q2 = (data.draw(st.integers(1, 6), label=side) for side in ("left", "right"))
        self.assert_flipped_product_mirrors(params, q1, q2)

    # (products one circular_chain_report builds, rows of the setup's
    # shared curve table) for (A, 2A - 3), measured when the curves came to
    # share one subset table and the flipped half came to be read off by
    # symmetry.  The counts are exact and the same on every machine, so the
    # margin is 0: a change that needs more work fails here and says why.
    # Before that change each curve numbered its own subsets and every cell
    # with a live start was built: 31 products and 189 rows at B = 7, 101
    # and 581 at B = 21.
    WORK = {
        5: (12, 65), 7: (17, 87), 9: (22, 109), 11: (27, 131), 13: (32, 153),
        15: (37, 175), 17: (42, 197), 19: (47, 219), 21: (52, 241), 23: (57, 263),
    }
    WORK_MARGIN = 0

    @pytest.mark.parametrize("b", sorted(WORK))
    def test_work_counts(self, monkeypatch, b):
        s = setup_for((b + 3) // 2, b)
        assert all(c.language.trans is s.curves[0].language.trans for c in s.curves)
        built = []
        real = chains.product_intersection
        monkeypatch.setattr(
            chains, "product_intersection", lambda *args: built.append(args) or real(*args)
        )
        circular_chain_report(s)
        products, rows = self.WORK[b]
        assert len(built) <= products + self.WORK_MARGIN
        assert len(s.curves[0].language.trans) <= rows + self.WORK_MARGIN

    def test_non_dfa_language_raises_even_when_every_cell_dies(self):
        s = setup_for(4, 5)
        nfa = DigitNFA((0, 1), {0: {0: (0,)}, 1: {0: (1,)}})
        dfa = nfa_determinize(DigitNFA((0,), {0: {4: (0,)}}))
        with pytest.raises(TypeError):
            _chain_matrix(s, [("n", nfa)], [("d", dfa)])


class TestCircularChain:
    def test_4_5(self):
        s = setup_for(4, 5)
        report = verify_circular_chain(s)
        assert report.ok
        cell = report.entry("a5", "a1'")
        assert cell["kind"] == "UNIQUE_POINT"
        assert cell["value"] == point_eval(parse_address("440(04)"), s.params)
        assert report.entry("a1", "a2'")["kind"] == "EMPTY"

    def test_4_5_appendix_pair(self):
        # alpha_1 against alpha_{B-3}' = a2' is the appendix case for (4,5)
        report = circular_chain_report(setup_for(4, 5))
        assert report.entry("a1", "a2'")["kind"] == "EMPTY"

    def test_5_7(self):
        assert verify_circular_chain(setup_for(5, 7)).ok

    def test_report_golden_digest(self):
        # sha256 of the JSON chain report of (A, 2A - 3) for odd B from 5 to
        # 13, recorded with the product that tried every digit pair
        h = hashlib.sha256()
        for b in range(5, 14, 2):
            report = circular_chain_report(setup_for((b + 3) // 2, b))
            h.update(report.json_text().encode())
        assert h.hexdigest() == (
            "e3b885aa8a37b64d16ae59cb4bde94f4a40bcf0c7f3e0668ade9f8e47379c8ed"
        )

    def test_open_chain_report_golden_digest(self):
        # sha256 of the JSON open-chain report over the same pairs, recorded
        # when the open chain still had a report path of its own; the report
        # read off the circular one must give the same bytes
        h = hashlib.sha256()
        for b in range(5, 14, 2):
            report = chain_report(setup_for((b + 3) // 2, b))
            h.update(report.json_text().encode())
        assert h.hexdigest() == (
            "a3b264b0eb402f55917ba53246c139b735dc3e1d96b59cbfc33c00b0f52a6e8d"
        )

    def test_report_and_arcs_read_junction_values_off_the_setup(self, monkeypatch):
        # the setup evaluates every junction address once; the report then
        # evaluates none, and each arc only its two ends
        s = setup_for(5, 7)
        calls = []
        monkeypatch.setattr(chains, "point_eval", lambda ad, p: calls.append(ad) or point_eval(ad, p))
        assert circular_chain_report(s).ok
        assert calls == []
        gamma_arcs(s)
        assert len(calls) == 2 * (7 - 2)

    def test_junction_statement_variants_agree(self):
        # the two equivalent spellings of the a_B n a_1' junction
        for a, b in [(4, 5), (5, 7), (6, 9)]:
            p = TileParams(a, b)
            j = expected_chain_junctions(p)[(f"a{b}", "a1'")]
            vals = {point_eval(ad, p) for ad in j}
            assert len(vals) == 1

    def test_flip_coherence(self):
        s = setup_for(4, 5)
        top = point_eval(parse_address("(4)"), s.params)
        assert s.top == top
        for c, (label, lang) in zip(s.curves, flipped_languages(s)):
            assert label == c.label + "'"
            for ca in c.endpoint_addresses:
                cv, fv = point_eval(ca, s.params), point_eval(flip(ca, s.params), s.params)
                assert (cv[0] + fv[0], cv[1] + fv[1]) == top
                assert accepts_address(c.language, ca)
                assert accepts_address(lang, flip(ca, s.params))
            cpre = nfa_prefixes(c.language, 5)
            fpre = nfa_prefixes(lang, 5)
            assert fpre == {tuple(4 - d for d in w) for w in cpre}


class TestGamma:
    def test_4_5_through_points(self):
        # gamma_1 passes through P_1 = 0.1(A-2)bar, whose value the symmetry
        # check evaluates and checks against f_1(S)
        s = setup_for(4, 5)
        assert len(gamma_arcs(s)) == 3
        p_1 = symmetry_and_junctions(s.params)["contact_points"][1]
        assert p_1 == point_eval(parse_address("1(2)"), s.params)

    def test_4_5_endpoints(self):
        s = setup_for(4, 5)
        g2 = gamma_arcs(s)[1]
        assert g2.endpoints == (
            point_eval(parse_address("223(04)"), s.params),
            point_eval(parse_address("240(04)"), s.params),
        )

    @pytest.mark.parametrize("a", [4, 5, 8])
    def test_endpoint_walks_checked(self, monkeypatch, a):
        # 0.i w is on gamma_i exactly when 0.(B-1) w is on alpha_{B-1} or
        # alpha_B, so those two curves are asked, in that order, for
        # P_{B-1} = 0.(B-1)(A-2)bar, then the end t of alpha_{B-1} and the
        # start s of alpha_B, each with its leading digit set to B-1
        b = 2 * a - 3
        s = setup_for(a, b)
        lower, upper = s.curves[b - 2].language, s.curves[b - 1].language
        seen = []

        def record(lang, addr):
            seen.append((lang, addr))
            return accepts_address(lang, addr)

        monkeypatch.setattr(chains, "accepts_address", record)
        gamma_arcs(s)
        table = alpha_table(s.params)
        ends = [psi(table[b - 2][1], s.ordered), psi(table[b - 1][0], s.ordered)]
        assert list(dict.fromkeys(addr for _, addr in seen)) == [
            Address((), (b - 1,), (a - 2,))
        ] + [Address((), (b - 1,) + e.preperiod[1:], e.period) for e in ends]
        # each address goes to alpha_{B-1} first, and to alpha_B only when
        # alpha_{B-1} does not hold it; no other language is asked
        asked: dict = {}
        for lang, addr in seen:
            asked.setdefault(addr, []).append(lang)
        for addr, langs in asked.items():
            assert langs == ([lower] if accepts_address(lower, addr) else [lower, upper])

    def test_containment_fact_4_5(self):
        # i=2 > B-A=1, so 0.2[K2] sits inside K5, realized by the edge 5 -2-> 2
        s = setup_for(4, 5)
        assert s.ordered.graph.has_edge(5, 2, 2)
        assert not s.ordered.graph.has_edge(6, 2, 2)

    def test_5_7(self):
        assert len(gamma_arcs(setup_for(5, 7))) == 5

    @staticmethod
    def union_and_arc(s, i):
        """alpha_{B-1} u alpha_B, and gamma_i built from it as its own
        automaton, by the definition f_i f_{B-1}^{-1}."""
        b = s.params.b
        union = nfa_union([s.curves[b - 2].language, s.curves[b - 1].language])
        return union, nfa_remap_first_digit(union, {b - 1: i})

    @pytest.mark.parametrize("a", range(4, 14))
    def test_union_decides_every_arc(self, a):
        # each arc's own automaton answers the three membership questions
        # of every arc, led by i, as the union answers them led by B-1
        b = 2 * a - 3
        s = setup_for(a, b)
        ends = (s.curves[b - 2].endpoint_addresses[1], s.curves[b - 1].endpoint_addresses[0])
        for i in range(1, b - 1):
            union, gamma = self.union_and_arc(s, i)
            for lead, lang in ((i, gamma), (b - 1, union)):
                answers = [nfa_accepts_address(lang, Address((), (lead,), (a - 2,)))] + [
                    nfa_accepts_address(lang, Address((), (lead,) + e.preperiod[1:], e.period))
                    for e in ends
                ]
                assert answers == [True, True, True], (i, lead)

    @staticmethod
    def accepted_address(dfa, pre, per):
        """A word the DFA accepts: the n-th step takes the (c mod k)-th of
        the k moves into live states, c being pre[n], then the period per
        over and over, cut where a (state, phase) pair repeats."""
        live = live_nodes({q: list(row.values()) for q, row in dfa.trans.items()})
        digits, seen, q = [], {}, dfa.initial
        for n in count():
            if n < len(pre):
                c = pre[n]
            else:
                key = (q, (n - len(pre)) % len(per))
                if key in seen:
                    k = seen[key]
                    return Address((), tuple(digits[:k]), tuple(digits[k:]))
                seen[key] = n
                c = per[key[1]]
            moves = sorted((d, t) for d, t in dfa.trans[q].items() if t in live)
            d, q = moves[c % len(moves)]
            digits.append(d)

    @given(st.sampled_from(range(4, 8)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_substitution_on_drawn_tails(self, a, data):
        # 0.i w is on gamma_i exactly when 0.(B-1) w is on alpha_{B-1} u
        # alpha_B, for tails w drawn at random or read off accepted words
        b = 2 * a - 3
        s = setup_for(a, b)
        i = data.draw(st.integers(1, b - 2), label="i")
        union, gamma = self.union_and_arc(s, i)
        digits = st.lists(st.integers(0, b - 1), max_size=6)
        pre = tuple(data.draw(digits, label="pre"))
        per = tuple(data.draw(digits.filter(bool), label="per"))
        curve = data.draw(st.sampled_from([None, b - 2, b - 1]), label="accepted by")
        if curve is not None:
            word = self.accepted_address(s.curves[curve].language, pre, per)
            if word.preperiod:
                head, pre, per = word.preperiod[0], word.preperiod[1:], word.period
            else:
                head, pre, per = word.period[0], (), word.period[1:] + word.period[:1]
        led = Address((), (b - 1,) + pre, per)
        on_union = nfa_accepts_address(union, led)
        assert nfa_accepts_address(gamma, Address((), (i,) + pre, per)) == on_union
        # on the union exactly when on one of the two curves, as the
        # package asks it
        assert on_union == any(accepts_address(c.language, led) for c in s.curves[b - 2 :])
        if curve is not None and head == b - 1:
            assert on_union

    def test_three_questions_per_setup(self, monkeypatch):
        # three membership questions at (13,23), each of the curves
        # alpha_{B-1} and alpha_B and of no union, not 21 arc automata and
        # 63 questions
        s = setup_for(13, 23)
        asked = []
        monkeypatch.setattr(
            chains, "accepts_address", lambda lang, addr: asked.append((lang, addr)) or True
        )
        assert len(gamma_arcs(s)) == 21
        assert len({addr for _, addr in asked}) == len(asked) == 3
        # each answered True by alpha_{B-1}, so alpha_B is never asked
        assert all(lang is s.curves[21].language for lang, _ in asked)


class TestAcceptsAddress:
    """The DFA run ``accepts_address`` against the NFA x position graph of
    ``reference.nfa_accepts_address``, over the alpha DFAs, their flips and
    the halves D1, D2."""

    LANGUAGES: list = []

    @classmethod
    def languages(cls):
        if not cls.LANGUAGES:
            for a, b in ((4, 5), (5, 7)):
                s = setup_for(a, b)
                cls.LANGUAGES += [(b, c.language) for c in s.curves]
                cls.LANGUAGES += [(b, lang) for _, lang in flipped_languages(s)]
            for a, b in ((5, 5), (6, 7), (8, 11)):
                cls.LANGUAGES += [(b, half) for half in build_d1_d2(TileParams(a, b))]
        return cls.LANGUAGES

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_nfa_test(self, data):
        b, dfa = data.draw(st.sampled_from(self.languages()), label="language")
        digits = st.lists(st.integers(0, b - 1), max_size=6)
        pre = tuple(data.draw(digits, label="pre"))
        per = tuple(data.draw(digits.filter(bool), label="per"))
        how = data.draw(st.sampled_from(["drawn", "accepted", "one digit off"]), label="how")
        addr = Address((), pre, per)
        if how != "drawn":
            addr = TestGamma.accepted_address(dfa, pre, per)
        if how == "one digit off":
            word = list(addr.preperiod + addr.period)
            k = data.draw(st.integers(0, len(word) - 1), label="position")
            word[k] = (word[k] + data.draw(st.integers(1, b - 1), label="shift")) % b
            cut = len(addr.preperiod)
            addr = Address((), tuple(word[:cut]), tuple(word[cut:]))
        answer = accepts_address(dfa, addr)
        assert answer == nfa_accepts_address(dfa, addr)
        if how == "accepted":
            assert answer


class TestReportWriters:
    """The chain report's fixed-layout JSON against ``json.dumps`` of the
    reference dict, and its text grid against the per-pair lookup."""

    @staticmethod
    def dumps(report):
        return json.dumps(chain_report_to_json(report), indent=2, sort_keys=True)

    @pytest.mark.parametrize("a", range(4, 14))
    def test_circular_and_open_reports(self, a):
        s = setup_for(a, 2 * a - 3)
        for report in (circular_chain_report(s), chain_report(s)):
            assert report.json_text() == self.dumps(report)
            assert report.to_text() == chain_report_text(report)

    def test_every_cell_shape(self):
        cells = {
            ("x", "y"): {"kind": BRANCHING, "witness": "w"},
            ("x", "z"): {"kind": FINITE_POINTS, "value": (Fraction(1, 2), Fraction(-3)),
                         "addresses": []},
            ("y", "z"): {"kind": UNIQUE_POINT, "value": (Fraction(0), Fraction(5, 7)),
                         "addresses": [parse_address("1(2)")]},
        }
        report = ChainReport(TileParams(4, 5), ["x", "y", "z"], cells, ["bad"])
        assert report.json_text() == self.dumps(report)
        assert report.to_text() == chain_report_text(report)
        empty = ChainReport(TileParams(4, 5), [], {}, [])
        assert empty.json_text() == self.dumps(empty)

    # quotes, backslashes, control characters and non-ASCII, among drawn text
    ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀'

    @given(st.lists(st.text(st.sampled_from(ESCAPED) | st.characters()), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_violation_text_escaped_as_json_dumps(self, violations):
        base = circular_chain_report(setup_for(4, 5))
        report = ChainReport(base.params, base.labels, base.matrix, violations)
        assert report.json_text() == self.dumps(report)
        assert report.to_text() == chain_report_text(report)


class TestTheoremGrid:
    """The 2A - B = 3 construction over every pair (A, 2A-3), B = 5..23: the
    circular chain, the gamma arcs and the symmetry identities all hold."""

    @pytest.mark.parametrize("a", range(4, 14))
    def test_circular_chain_gamma_and_symmetry(self, a):
        b = 2 * a - 3
        s = setup_for(a, b)
        assert verify_circular_chain(s).ok
        assert [g.index for g in gamma_arcs(s)] == list(range(1, b - 1))
        assert len(symmetry_and_junctions(s.params)["contact_points"]) == b


class TestSymmetry:
    def test_4_5_center(self):
        rep = symmetry_and_junctions(TileParams(4, 5))
        p45 = TileParams(4, 5)
        assert rep["center"] == point_eval(parse_address("(2)"), p45)
        top = point_eval(parse_address("(4)"), p45)
        assert (rep["center"][0] * 2, rep["center"][1] * 2) == top

    def test_4_5_p4_is_curve_endpoint(self):
        s = setup_for(4, 5)
        rep = symmetry_and_junctions(s.params)
        endpoint = alpha_curves(s)[-2].endpoint_addresses[0]
        assert rep["contact_points"][4] == point_eval(endpoint, s.params)

    def test_5_7_center(self):
        rep = symmetry_and_junctions(TileParams(5, 7))
        p57 = TileParams(5, 7)
        assert rep["center"] == point_eval(parse_address("(3)"), p57)
        half = point_eval(parse_address("(6)"), p57)
        assert (rep["center"][0] * 2, rep["center"][1] * 2) == half

    def test_flipped_curve_endpoint_is_p0(self):
        # alpha_{B-1} starts at 0.(B-1)(A-2)bar = P_{B-1}, and the digit flip
        # takes it to 0.0(B+1-A)bar, which is P_0 = 0.0(A-2)bar exactly when
        # 2A - B = 3
        for a in range(4, 9):
            b = 2 * a - 3
            s = setup_for(a, b)
            start = alpha_curves(s)[-2].endpoint_addresses[0]
            assert start == Address((), (b - 1,), (a - 2,))
            assert flip(start, s.params) == Address((), (0,), (a - 2,))
            rep = symmetry_and_junctions(s.params)
            assert point_eval(flip(start, s.params), s.params) == rep["contact_points"][0]


class TestIdentityFailures:
    """The two identity checks of ``symmetry_and_junctions`` seen to fail,
    each on one corrupted value, directly and through ``verify-chains``."""

    @staticmethod
    def shift_top(monkeypatch):
        # 0.(B-1)bar evaluated one unit off at (4, 5)
        real = chains.point_eval

        def shifted(addr, params):
            x, y = real(addr, params)
            return (x + 1, y) if addr == Address((), (), (4,)) else (x, y)

        monkeypatch.setattr(chains, "point_eval", shifted)

    @staticmethod
    def shift_f1(monkeypatch):
        # f_1(S) one unit off at (4, 5)
        real = chains.apply_contraction

        def shifted(i, p, params):
            x, y = real(i, p, params)
            return (x, y + 1) if i == 1 else (x, y)

        monkeypatch.setattr(chains, "apply_contraction", shifted)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            ("shift_top", "symmetry center is not half the top point"),
            ("shift_f1", "P_1 != f_1(S)"),
        ],
    )
    def test_raised_and_reported(self, monkeypatch, capsys, corrupt, message):
        getattr(self, corrupt)(monkeypatch)
        with pytest.raises(IdentityFailure) as info:
            symmetry_and_junctions(TileParams(4, 5))
        assert str(info.value) == f"{message} for (A,B)=(4,5)"
        code = cli.main(["verify-chains", "--A", "4", "--B", "5"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"verification failure: {message} for (A,B)=(4,5)\n"


class TestGammaFailures:
    """Each ``ChainViolation`` of ``gamma_arcs`` seen to fire at (4, 5), on
    one corrupted upstream result: a question answered False, junction
    values moved off the arc ends, and each containment edge missing."""

    WHERE = " for (A,B)=(4,5)"

    @staticmethod
    def without_edges(src, digit, dst):
        # a copy of the (4, 5) setup whose contact graph lacks the edges
        # src -digit-> dst
        s = copy.copy(setup_for(4, 5))
        graph = s.ordered.graph
        edges = tuple(e for e in graph_edges(graph) if (e[0], e[1], e[3]) != (src, digit, dst))
        hand_built = HandBuiltGraph(graph.params, graph.states, edges)
        s.ordered = dataclasses.replace(s.ordered, graph=hand_built)
        return s

    def test_question_answered_false(self, monkeypatch):
        monkeypatch.setattr(chains, "accepts_address", lambda lang, addr: False)
        with pytest.raises(ChainViolation) as info:
            gamma_arcs(setup_for(4, 5))
        assert str(info.value) == (
            "the gamma arcs' interior contact point is not on alpha_4 u alpha_5" + self.WHERE
        )

    def test_arc_end_off_the_junction_set(self):
        s = copy.copy(setup_for(4, 5))
        s.junction_values = {
            pair: [(x + 1, y) for x, y in values] for pair, values in s.junction_values.items()
        }
        with pytest.raises(ChainViolation) as info:
            gamma_arcs(s)
        assert str(info.value) == "gamma_1 endpoints leave the junction set" + self.WHERE

    @pytest.mark.parametrize(
        "edge,message",
        [
            # i = 1 <= B - A, so 0.1[K2] sits inside K6
            ((6, 1, 2), "0.1[K2] not inside K6"),
            ((2, 1, 4), "0.1[K4] not inside K2"),
            ((2, 1, 5), "0.1[K5] not inside K2"),
        ],
    )
    def test_containment_edge_missing(self, edge, message):
        with pytest.raises(ChainViolation) as info:
            gamma_arcs(self.without_edges(*edge))
        assert str(info.value) == message + self.WHERE

    def test_reported_by_the_cli(self, monkeypatch, capsys):
        monkeypatch.setattr(chains, "accepts_address", lambda lang, addr: False)
        code = cli.main(["verify-chains", "--A", "4", "--B", "5"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == (
            "verification failure: the gamma arcs' interior contact point is not on"
            " alpha_4 u alpha_5" + self.WHERE + "\n"
        )


class TestCyclePatternFailures:
    """Each violation line of ``_check_cycle_pattern`` seen to fire at
    (4, 5), on one corrupted cell of the chain matrix or one corrupted
    junction table.  The check only reads the matrix, so every test shares
    one, and a corrupted cell replaces its cell in a copy."""

    @pytest.fixture(scope="class")
    def shared(self):
        s = setup_for(4, 5)
        labeled = [(c.label, c.language) for c in s.curves]
        flipped = flipped_languages(s)
        return [label for label, _ in labeled + flipped], _chain_matrix(s, labeled, flipped)

    @staticmethod
    def violations(shared, s, cells={}):
        labels, matrix = shared
        return _check_cycle_pattern(s, labels, {**matrix, **cells})[0]

    def test_uncorrupted(self, shared):
        assert self.violations(shared, setup_for(4, 5)) == []

    def test_check_only_reads_the_matrix(self, shared):
        # a corrupted junction table leaves some adjacent cells without
        # expected addresses; checking twice gives the same verdict, and the
        # matrix is as it was
        labels, matrix = shared
        s = copy.copy(setup_for(4, 5))
        s.junctions = {pair: ads for pair, ads in s.junctions.items() if pair != ("a1", "a2")}
        before = copy.deepcopy(matrix)
        first = _check_cycle_pattern(s, labels, matrix)
        assert first == _check_cycle_pattern(s, labels, matrix)
        assert first[0] == ["a1 & a2: no expected junction value"]
        assert matrix == before

    def test_adjacent_pair_not_a_point(self, shared):
        cells = {("a1", "a2"): {"kind": EMPTY}}
        assert self.violations(shared, setup_for(4, 5), cells) == [
            "a1 & a2: expected UNIQUE_POINT, got EMPTY"
        ]

    def test_junction_pair_dropped(self, shared):
        s = copy.copy(setup_for(4, 5))
        s.junctions = {pair: ads for pair, ads in s.junctions.items() if pair != ("a1", "a2")}
        assert self.violations(shared, s) == ["a1 & a2: no expected junction value"]

    def test_dual_addresses_disagree(self, shared):
        s = copy.copy(setup_for(4, 5))
        (x, y), _ = s.junction_values[("a1", "a2")]
        s.junction_values = {**s.junction_values, ("a1", "a2"): [(x, y), (x + 1, y)]}
        assert self.violations(shared, s) == ["a1 & a2: dual junction addresses disagree"]

    def test_junction_value_mismatch(self, shared):
        want = setup_for(4, 5).junction_values[("a1", "a2")][0]
        got = (want[0] + 1, want[1])
        cells = {("a1", "a2"): {**shared[1][("a1", "a2")], "value": got}}
        assert self.violations(shared, setup_for(4, 5), cells) == [
            f"a1 & a2: junction value mismatch (got {got}, want {want})"
        ]

    def test_far_pair_not_empty(self, shared):
        cells = {("a1", "a3"): {"kind": BRANCHING, "witness": "w"}}
        assert self.violations(shared, setup_for(4, 5), cells) == [
            "a1 & a3: expected EMPTY, got BRANCHING (w)"
        ]

    def test_reported_by_the_cli(self, monkeypatch, capsys):
        # a junction table without the pair (a3, a4), whose value no gamma
        # arc end needs: the report names it, the gamma arcs and identities
        # still pass, and the command exits 3
        real = chains.expected_chain_junctions

        def dropped(params):
            table = real(params)
            del table[("a3", "a4")]
            return table

        monkeypatch.setattr(chains, "expected_chain_junctions", dropped)
        code = cli.main(["verify-chains", "--A", "4", "--B", "5"])
        out, err = capsys.readouterr()
        assert code == 3 and err == ""
        assert out.endswith("violations:\n  a3 & a4: no expected junction value\n")
