import random
from collections import Counter

import pytest

from tiletopo import TileParams, automata, chains, parse_address
from tiletopo.automata import (
    BRANCHING,
    EMPTY,
    UNIQUE_POINT,
    DigitDFA,
    FINITE_POINTS,
    IntersectionAutomaton,
    ProductMoves,
    Run,
    _classify_product,
    accepts_address,
    nfa_flip,
    product_intersection,
)
from tiletopo.chains import ChainSetup, flipped_languages
from tiletopo.contact import build_contact_graph
from tiletopo.errors import BudgetExceeded, CertificateFailure
from tiletopo.neighbors import neighbor_set_formula
from tiletopo.numsys import Address, point_eval
from tiletopo.topology import build_d1_d2

from conftest import fractional_digit, random_address
from reference import (
    DigitNFA,
    dfa_renumbered,
    graph_language,
    mat_vec,
    nfa_cylinder,
    nfa_determinize,
    nfa_full,
    nfa_prefixes,
    nfa_single_address,
    nfa_union,
)


def members(params):
    return neighbor_set_formula(params).members


def moves(params):
    return ProductMoves(members(params), params)


class TestConstructions:
    def test_full(self):
        nfa = nfa_full(3)
        assert nfa_prefixes(nfa, 2) == {(a, b) for a in range(3) for b in range(3)}

    def test_cylinder(self):
        nfa = nfa_cylinder((2, 0), 3)
        assert nfa_prefixes(nfa, 3) == {(2, 0, d) for d in range(3)}

    def test_single_address(self):
        nfa = nfa_single_address(parse_address("10(21)"))
        assert nfa_prefixes(nfa, 5) == {(1, 0, 2, 1, 2)}
        assert accepts_address(nfa, parse_address("10(21)"))
        assert not accepts_address(nfa, parse_address("10(12)"))
        # same point, different spelling of the tail start
        assert accepts_address(nfa, parse_address("102(12)"))

    def test_flip(self):
        nfa = nfa_flip(nfa_cylinder((0, 4), 5), 5)
        assert (4, 0, 2) in nfa_prefixes(nfa, 3)

    def test_union(self):
        u = nfa_union([nfa_cylinder((0,), 3), nfa_cylinder((2,), 3)])
        assert {w[0] for w in nfa_prefixes(u, 1)} == {0, 2}


class TestDigitDFA:
    def test_flip_keeps_determinism(self):
        flipped = nfa_flip(nfa_cylinder((0, 4), 5), 5)
        assert isinstance(flipped, DigitDFA)
        assert nfa_prefixes(flipped, 2) == {(4, 0)}


class TestDeterminize:
    def test_language_preserved(self):
        graph_langs = []
        from tiletopo.contact import build_contact_graph

        g = build_contact_graph(TileParams(4, 5))
        for start in (1, 3, 6):
            nfa = graph_language(g, start)
            det = nfa_determinize(nfa)
            for depth in (1, 3, 5):
                assert nfa_prefixes(nfa, depth) == nfa_prefixes(det, depth)

    def test_already_deterministic_untouched(self):
        nfa = nfa_cylinder((1, 2), 4)
        assert nfa_determinize(nfa) is nfa

    def test_deterministic_nfa_is_renumbered(self):
        # no output prints subset states, so a deterministic NFA goes
        # through the one construction like any other
        nfa = DigitNFA(("p",), {"p": {0: ("q",), 1: ("p",)}, "q": {1: ("p",)}})
        det = nfa_determinize(nfa)
        assert isinstance(det, DigitDFA)
        assert det.initial == 0
        assert det.trans == {0: {0: 1, 1: 0}, 1: {1: 0}}

    def test_matches_reference_construction(self, monkeypatch):
        nfas = [
            graph_language(build_contact_graph(TileParams(a, b)), start)
            for b in range(2, 9)
            for a in range(1, b + 1)
            for start in range(1, 7)
        ]
        captured = []
        real = chains.determinize_starts

        def bits(mask):
            return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)

        def capture(rows, starts):
            # one NFA per curve: its start set and the states it reaches in
            # the table that all curves of the setup share, with the bitmask
            # targets read as tuples; each curve's DFA, renumbered from its
            # own initial state, is that NFA's own subset construction
            starts = list(starts)
            dfas = real(rows, starts)
            assert all(dfa.trans is dfas[0].trans for dfa in dfas)
            for start, dfa in zip(starts, dfas):
                seen, frontier = set(bits(start)), list(bits(start))
                while frontier:
                    for mask in rows[frontier.pop()].values():
                        new = set(bits(mask)) - seen
                        seen |= new
                        frontier.extend(new)
                trans = {q: {d: bits(mask) for d, mask in rows[q].items()} for q in seen}
                nfa = DigitNFA(bits(start), trans)
                assert dfa_renumbered(dfa).trans == nfa_determinize(nfa).trans
                captured.append(nfa)
            return dfas

        monkeypatch.setattr(chains, "determinize_starts", capture)
        for b in range(5, 14, 2):
            ChainSetup.build(TileParams((b + 3) // 2, b))
        assert len(captured) == 5 + 7 + 9 + 11 + 13
        for nfa in nfas + captured:
            det = nfa_determinize(nfa)
            assert det.initial == 0
            assert list(det.trans) == list(range(len(det.trans)))
            assert_isomorphic(det, reference_determinize(nfa))


def reference_determinize(nfa: DigitNFA) -> DigitDFA:
    """The subset construction as first written: states are repr-sorted
    tuples of original states, and a deterministic NFA keeps its own."""
    if isinstance(nfa, DigitDFA):
        return nfa
    rows = nfa.trans.values()
    if len(nfa.initials) == 1 and all(len(ts) == 1 for row in rows for ts in row.values()):
        trans = {q: {d: t for d, (t,) in row.items()} for q, row in nfa.trans.items()}
        return DigitDFA(nfa.initials[0], trans)
    # subset states as repr-sorted tuples: canonical and hash-seed independent
    start = tuple(sorted(set(nfa.initials), key=repr))
    trans: dict = {}
    frontier = [start]
    seen = {start}
    while frontier:
        subset = frontier.pop()
        row: dict = {}
        digits = sorted({d for q in subset for d in nfa.trans.get(q, {})})
        for d in digits:
            members = {t for q in subset for t in nfa.successors(q, d)}
            if members:
                target = tuple(sorted(members, key=repr))
                row[d] = target
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        trans[subset] = row
    return DigitDFA(start, trans)


def assert_isomorphic(left: DigitDFA, right: DigitDFA) -> None:
    """Walk both DFAs in lockstep from their initial states, building a
    bijection between their states; every pair must have the same digits."""
    pairs = {left.initial: right.initial}
    frontier = [left.initial]
    while frontier:
        p = frontier.pop()
        q = pairs[p]
        lrow, rrow = left.trans.get(p, {}), right.trans.get(q, {})
        assert lrow.keys() == rrow.keys(), (p, q)
        for d, pt in lrow.items():
            qt = rrow[d]
            if pt in pairs:
                assert pairs[pt] == qt, (p, d)
            else:
                pairs[pt] = qt
                frontier.append(pt)
    assert len(set(pairs.values())) == len(pairs)
    assert len(pairs) == len(left.trans) == len(right.trans)


class TestProduct:
    def test_initial_diff_outside_neighbors(self):
        params = TileParams(4, 5)
        res = product_intersection(
            nfa_full(5), nfa_full(5), moves(params), initial_diff=(2, 0)
        )
        assert res.kind == EMPTY

    def test_single_addresses_equal_value(self):
        # 0.120(04) and 0.001(40) denote one point; the product of the two
        # singleton languages must certify it
        params = TileParams(4, 5)
        res = product_intersection(
            nfa_single_address(parse_address("120(04)")),
            nfa_single_address(parse_address("001(40)")),
            moves(params),
        )
        assert res.kind == UNIQUE_POINT

    def test_single_addresses_distinct_value(self):
        params = TileParams(4, 5)
        res = product_intersection(
            nfa_single_address(parse_address("120(04)")),
            nfa_single_address(parse_address("100(40)")),
            moves(params),
        )
        assert res.kind == EMPTY

    def test_full_tile_self_overlap_is_branching(self):
        params = TileParams(4, 5)
        res = product_intersection(
            nfa_full(5), nfa_full(5), moves(params)
        )
        assert res.kind == BRANCHING

    def test_run_budget(self):
        # two distinct points, so two runs: a budget of zero must raise
        params = TileParams(4, 5)
        shared = nfa_single_address(parse_address("3(1)"))
        left = nfa_determinize(
            nfa_union([nfa_single_address(parse_address("120(04)")), shared])
        )
        right = nfa_determinize(
            nfa_union([nfa_single_address(parse_address("001(40)")), shared])
        )
        res = product_intersection(left, right, moves(params))
        assert len(res.runs) == 2
        with pytest.raises(BudgetExceeded):
            product_intersection(left, right, moves(params), max_runs=0)

    def test_run_budget_counts_the_first_run(self):
        params = TileParams(4, 5)
        left = nfa_single_address(parse_address("120(04)"))
        right = nfa_single_address(parse_address("001(40)"))
        with pytest.raises(BudgetExceeded, match=r"^run enumeration exceeded 0 runs for \(A,B\)=\(4,5\)$"):
            product_intersection(left, right, moves(params), max_runs=0)
        res = product_intersection(left, right, moves(params), max_runs=1)
        assert len(res.runs) == 1

    def test_difference_tracking_failure(self, monkeypatch):
        # the left run's value one unit off: the run's two addresses no
        # longer differ by the tracked difference
        params = TileParams(4, 5)
        left = parse_address("120(04)")
        real = automata.point_eval

        def shifted(addr, p):
            x, y = real(addr, p)
            return (x + (addr == left), y)

        monkeypatch.setattr(automata, "point_eval", shifted)
        right = nfa_single_address(parse_address("001(40)"))
        with pytest.raises(CertificateFailure, match=r"^difference tracking broken for \(A,B\)=\(4,5\)$"):
            product_intersection(nfa_single_address(left), right, moves(params))

    def test_run_budget_counts_every_run(self):
        params = TileParams(4, 5)
        shared = nfa_single_address(parse_address("3(1)"))
        left = nfa_determinize(
            nfa_union([nfa_single_address(parse_address("120(04)")), shared])
        )
        right = nfa_determinize(
            nfa_union([nfa_single_address(parse_address("001(40)")), shared])
        )
        with pytest.raises(BudgetExceeded):
            product_intersection(left, right, moves(params), max_runs=1)
        res = product_intersection(left, right, moves(params), max_runs=2)
        assert len(res.runs) == 2

    def test_rejects_nondeterministic_language(self):
        params = TileParams(4, 5)
        union = nfa_union([nfa_cylinder((0,), 5), nfa_cylinder((1,), 5)])
        with pytest.raises(TypeError):
            product_intersection(union, nfa_full(5), moves(params))

    def test_json_stable(self):
        params = TileParams(5, 5)
        from tiletopo.topology import build_d1_d2

        d1, d2 = build_d1_d2(params)
        r1 = product_intersection(d1, d2, moves(params))
        r2 = product_intersection(d1, d2, moves(params))
        assert r1.to_json() == r2.to_json()


def brute_product(left, right, sset, params, initial_diff=(0, 0)):
    """The product as first written: a dense step table over every
    difference in S u {0} and every digit difference |d| <= B - 1, and
    every digit pair (a, a') of every state."""
    b = params.b
    allowed = frozenset(sset) | {(0, 0)}
    initial = (left.initial, right.initial, initial_diff)
    if initial_diff not in allowed:
        return IntersectionAutomaton(initial, {}, set(), EMPTY)
    step = {}
    for delta in allowed:
        md = mat_vec(params.matrix, delta)
        for d in range(-(b - 1), b):
            t = (md[0] + d, md[1])
            step[(delta, d)] = t if t in allowed else None
    trans = {}
    seen = {initial}
    frontier = [initial]
    while frontier:
        node = frontier.pop()
        p, q, delta = node
        edges = []
        for a, pt in left.trans.get(p, {}).items():
            for ap, qt in right.trans.get(q, {}).items():
                nd = step.get((delta, a - ap))
                if nd is None:
                    continue
                child = (pt, qt, nd)
                edges.append((a, ap, child))
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        trans[node] = edges
    return _classify_product(params, initial, trans, initial_diff, 20000)


def reference_classification(res, params):
    """Classify a product over ``params`` from its raw edges by the
    definitions alone: the live states are left when states without a
    successor are removed until none is, a live state is on a cycle when it
    reaches itself through live edges, a cycle state with two live edges
    means BRANCHING, and otherwise every run is a prefix plus the cycle it
    ends on.  Returns the kind, the live states reachable from the initial
    state, the runs, the distinct points and the states reachable from a
    cycle state."""
    live = set(res.transitions)
    while True:
        kept = {q for q in live if any(t in live for _, _, t in res.transitions[q])}
        if kept == live:
            break
        live = kept
    edges = {q: sorted(e for e in res.transitions[q] if e[2] in live) for q in live}

    def reach(starts):
        seen, stack = set(), list(starts)
        while stack:
            for _, _, t in edges[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    inits = [res.initial] if res.initial in live else []
    if not inits:
        return EMPTY, set(), (), (), set()
    kept = set(inits) | reach(inits)
    on_cycle = {q for q in kept if q in reach([q])}
    after_cycle = reach(on_cycle)
    if any(len(edges[q]) > 1 for q in on_cycle):
        return BRANCHING, kept, (), (), after_cycle
    runs = []

    def walk(q, left, right):
        if q not in on_cycle:
            for a, ap, t in edges[q]:
                walk(t, left + (a,), right + (ap,))
            return
        start, lper, rper = q, [], []
        while not lper or q != start:
            a, ap, q = edges[q][0]
            lper.append(a)
            rper.append(ap)
        la = Address((), left, tuple(lper))
        runs.append(Run(la, Address((), right, tuple(rper)), point_eval(la, params)))

    for q in inits:
        walk(q, (), ())
    points = tuple(dict.fromkeys(r.value for r in runs))
    kind = UNIQUE_POINT if len(points) == 1 else FINITE_POINTS
    return kind, kept, tuple(runs), points, after_cycle


class TestProductReference:
    """``product_intersection`` tries only the digit pairs whose difference
    step stays in S u {0}; the brute-force product tries them all.  The two
    must agree on every state's edges and on everything derived from them,
    and the classification must agree with ``reference_classification``."""

    @staticmethod
    def _compare(left, right, sset, params, initial_diff=(0, 0)):
        res = product_intersection(left, right, ProductMoves(sset, params), initial_diff)
        ref = brute_product(left, right, sset, params, initial_diff)
        assert res.initial == ref.initial
        assert res.transitions.keys() == ref.transitions.keys()
        for q, edges in ref.transitions.items():
            assert Counter(res.transitions[q]) == Counter(edges), (params, q)
        assert res.live == ref.live
        assert res.kind == ref.kind
        assert res.runs == ref.runs
        assert res.points == ref.points
        assert res.branch_witness == ref.branch_witness
        assert res.to_json() == ref.to_json()
        kind, live, runs, points, after_cycle = reference_classification(res, params)
        assert (res.kind, res.live, res.runs, res.points) == (kind, live, runs, points)
        if kind == BRANCHING:
            witness = res.branch_witness
            assert sum(t in live for _, _, t in res.transitions[witness]) >= 2
            assert witness in after_cycle
        return res.kind

    def test_full_languages_at_every_initial_difference(self):
        for b in range(2, 9):
            for a in range(0, b + 1):
                params = TileParams(a, b)
                sset = members(params)
                for c in sset | {(0, 0)}:
                    self._compare(nfa_full(b), nfa_full(b), sset, params, c)

    def test_wider_alphabet_keeps_the_digit_difference_bound(self):
        # DigitDFA does not check its digits against {0..B-1}; over a wider
        # alphabet the step table's bound |d| <= B - 1 is what cuts moves
        for a, b in [(0, 3), (4, 5), (5, 7)]:
            params = TileParams(a, b)
            sset = members(params)
            wide = DigitDFA(0, {0: {d: 0 for d in range(-b, 2 * b)}})
            for c in sset | {(0, 0)}:
                self._compare(wide, wide, sset, params, c)

    def test_cylinders_and_single_addresses(self):
        rng = random.Random(20261018)
        kinds = set()
        for b in range(2, 9):
            for a in range(0, b + 1):
                params = TileParams(a, b)
                sset = members(params)
                for _ in range(4):
                    addr = random_address(rng, b)
                    single = nfa_single_address(addr)
                    own = tuple(fractional_digit(addr, i) for i in range(1, rng.randint(1, 3) + 1))
                    other = tuple(rng.randrange(b) for _ in range(rng.randint(1, 3)))
                    for word in (own, other):
                        cylinder = nfa_cylinder(word, b)
                        kinds.add(self._compare(cylinder, single, sset, params))
                        kinds.add(self._compare(single, cylinder, sset, params))
        assert {EMPTY, UNIQUE_POINT} <= kinds

    def test_halves(self):
        for b in range(2, 13):
            for a in range(1, b + 1):
                if 2 * a - b >= 5:
                    params = TileParams(a, b)
                    d1, d2 = build_d1_d2(params)
                    assert self._compare(d1, d2, members(params), params) == UNIQUE_POINT

    @pytest.mark.parametrize("a,b", [(4, 5), (5, 7)])
    def test_alpha_curve_cells(self, a, b):
        setup = ChainSetup.build(TileParams(a, b))
        langs = [c.language for c in setup.curves]
        langs += [lang for _, lang in flipped_languages(setup)]
        kinds = set()
        for i, l1 in enumerate(langs):
            for l2 in langs[i + 1 :]:
                kinds.add(self._compare(l1, l2, setup.sset, setup.params))
        assert {EMPTY, UNIQUE_POINT} <= kinds
