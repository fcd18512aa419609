import hashlib
import json

import pytest

from tiletopo import TileParams, WrongRegime, parse_address, point_eval
from tiletopo.automata import (
    DigitNFA,
    live_nodes,
    nfa_accepts_address,
    nfa_determinize,
)
from tiletopo.chains import (
    ChainSetup,
    alpha_calibration_rows,
    alpha_curves,
    alpha_table,
    circular_chain_report,
    expected_chain_junctions,
    flipped_curves,
    gamma_arcs,
    lex_interval_language,
    symmetry_and_junctions,
)
from tiletopo.contact import (
    Walk,
    build_contact_graph,
    derive_order_extension,
    first_difference,
    psi,
    walk_compare,
)

from reference import (
    chain_report,
    nfa_prefixes,
    nfa_single_address,
    verify_chain,
    verify_circular_chain,
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
            for walk, addr in alpha_calibration_rows(TileParams(a, b)):
                assert psi(walk, s.ordered) == addr

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            alpha_table(TileParams(5, 5))
        with pytest.raises(WrongRegime):
            alpha_table(TileParams(3, 3))


def _k_prefixes(setup, state, depth):
    return nfa_prefixes(setup.graph.language(state), depth)


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
        assert nfa_accepts_address(lang, parse_address("104(40)"))

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
        from tiletopo.automata import nfa_union

        boundary = nfa_union([s.graph.language(i) for i in range(1, 7)])
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

    for e in ordered.graph.edges:
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
            e = ordered.edge_at(state, lo.letter(m + 1))
            trans[("both", m)] = {e[1]: (("both", m + 1) if m + 1 < n else ("div",),)}
            state = e[3]
        trans[("div",)] = {}
        lo_div, hi_div = lo.letter(n + 1), hi.letter(n + 1)
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
        alive = live_nodes(
            {q: [t for ts in row.values() for t in ts] for q, row in dfa.trans.items()}
        )

        def row(q):
            return {d: ts[0] for d, ts in dfa.trans.get(q, {}).items() if ts[0] in alive}

        return alive, row

    (alive_l, row_l), (alive_r, row_r) = live_rows(left), live_rows(right)
    start = (left.initials[0], right.initials[0])
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
        lo_word = tuple(lo.letter(n) for n in range(1, depth + 1))
        hi_word = tuple(hi.letter(n) for n in range(1, depth + 1))
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
        assert nfa_accepts_address(lang, psi(lo, ordered))
        assert nfa_accepts_address(lang, psi(hi, ordered))

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
        ordered = derive_order_extension(build_contact_graph(params))
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
            h.update(json.dumps(report.to_json(), indent=2, sort_keys=True).encode())
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
            h.update(json.dumps(report.to_json(), indent=2, sort_keys=True).encode())
        assert h.hexdigest() == (
            "a3b264b0eb402f55917ba53246c139b735dc3e1d96b59cbfc33c00b0f52a6e8d"
        )

    def test_junction_statement_variants_agree(self):
        # the two equivalent spellings of the a_B n a_1' junction
        for a, b in [(4, 5), (5, 7), (6, 9)]:
            p = TileParams(a, b)
            j = expected_chain_junctions(p)[(f"a{b}", "a1'")]
            vals = {point_eval(ad, p) for ad in j}
            assert len(vals) == 1

    def test_flip_coherence(self):
        s = setup_for(4, 5)
        curves = alpha_curves(s)
        flipped = flipped_curves(s, curves)
        top = point_eval(parse_address("(4)"), s.params)
        for c, f in zip(curves, flipped):
            for ca, fa in zip(c.endpoint_addresses, f.endpoint_addresses):
                cv, fv = point_eval(ca, s.params), point_eval(fa, s.params)
                assert (cv[0] + fv[0], cv[1] + fv[1]) == top
            cpre = nfa_prefixes(c.language, 5)
            fpre = nfa_prefixes(f.language, 5)
            assert fpre == {tuple(4 - d for d in w) for w in cpre}


class TestGamma:
    def test_4_5_through_points(self):
        s = setup_for(4, 5)
        arcs = gamma_arcs(s)
        assert len(arcs) == 3
        assert arcs[0].through == point_eval(parse_address("1(2)"), s.params)

    def test_4_5_endpoints(self):
        s = setup_for(4, 5)
        g2 = gamma_arcs(s)[1]
        assert g2.endpoints == (
            point_eval(parse_address("223(04)"), s.params),
            point_eval(parse_address("240(04)"), s.params),
        )

    def test_containment_fact_4_5(self):
        # i=2 > B-A=1, so 0.2[K2] sits inside K5, realized by the edge 5 -2-> 2
        s = setup_for(4, 5)
        assert s.graph.has_edge(5, 2, 2)
        assert not s.graph.has_edge(6, 2, 2)

    def test_5_7(self):
        assert len(gamma_arcs(setup_for(5, 7))) == 5


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
