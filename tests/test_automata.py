import pytest

from tiletopo import TileParams, parse_address
from tiletopo.automata import (
    BRANCHING,
    EMPTY,
    UNIQUE_POINT,
    DigitDFA,
    DigitNFA,
    nfa_accepts_address,
    nfa_cylinder,
    nfa_determinize,
    nfa_flip,
    nfa_full,
    nfa_prefixes,
    nfa_single_address,
    nfa_union,
    product_intersection,
)
from tiletopo.errors import BudgetExceeded
from tiletopo.neighbors import neighbor_set_formula


def members(params):
    return neighbor_set_formula(params).members


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
        assert nfa_accepts_address(nfa, parse_address("10(21)"))
        assert not nfa_accepts_address(nfa, parse_address("10(12)"))
        # same point, different spelling of the tail start
        assert nfa_accepts_address(nfa, parse_address("102(12)"))

    def test_flip(self):
        nfa = nfa_flip(nfa_cylinder((0, 4), 5), 5)
        assert (4, 0, 2) in nfa_prefixes(nfa, 3)

    def test_union(self):
        u = nfa_union([nfa_cylinder((0,), 3), nfa_cylinder((2,), 3)])
        assert {w[0] for w in nfa_prefixes(u, 1)} == {0, 2}


class TestDigitDFA:
    def test_rejects_two_initial_states(self):
        with pytest.raises(ValueError):
            DigitDFA(("p", "q"), {"p": {0: ("p",)}, "q": {1: ("q",)}})

    def test_rejects_two_targets_on_a_digit(self):
        with pytest.raises(ValueError):
            DigitDFA(("p",), {"p": {0: ("p", "q")}, "q": {1: ("q",)}})

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
            nfa = g.language(start)
            det = nfa_determinize(nfa)
            for depth in (1, 3, 5):
                assert nfa_prefixes(nfa, depth) == nfa_prefixes(det, depth)

    def test_already_deterministic_untouched(self):
        nfa = nfa_cylinder((1, 2), 4)
        assert nfa_determinize(nfa) is nfa

    def test_deterministic_nfa_keeps_its_states(self):
        nfa = DigitNFA(("p",), {"p": {0: ("q",), 1: ("p",)}, "q": {1: ("p",)}})
        det = nfa_determinize(nfa)
        assert isinstance(det, DigitDFA)
        assert det.initials == ("p",)
        assert det.trans == nfa.trans


class TestProduct:
    def test_initial_diff_outside_neighbors(self):
        params = TileParams(4, 5)
        res = product_intersection(
            nfa_full(5), nfa_full(5), members(params), params, initial_diff=(2, 0)
        )
        assert res.kind == EMPTY

    def test_single_addresses_equal_value(self):
        # 0.120(04) and 0.001(40) denote one point; the product of the two
        # singleton languages must certify it
        params = TileParams(4, 5)
        res = product_intersection(
            nfa_single_address(parse_address("120(04)")),
            nfa_single_address(parse_address("001(40)")),
            members(params),
            params,
        )
        assert res.kind == UNIQUE_POINT

    def test_single_addresses_distinct_value(self):
        params = TileParams(4, 5)
        res = product_intersection(
            nfa_single_address(parse_address("120(04)")),
            nfa_single_address(parse_address("100(40)")),
            members(params),
            params,
        )
        assert res.kind == EMPTY

    def test_full_tile_self_overlap_is_branching(self):
        params = TileParams(4, 5)
        res = product_intersection(
            nfa_full(5), nfa_full(5), members(params), params
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
        res = product_intersection(left, right, members(params), params)
        assert len(res.runs) == 2
        with pytest.raises(BudgetExceeded):
            product_intersection(left, right, members(params), params, max_runs=0)

    def test_rejects_nondeterministic_language(self):
        params = TileParams(4, 5)
        union = nfa_union([nfa_cylinder((0,), 5), nfa_cylinder((1,), 5)])
        with pytest.raises(TypeError):
            product_intersection(union, nfa_full(5), members(params), params)

    def test_json_stable(self):
        params = TileParams(5, 5)
        from tiletopo.topology import build_d1_d2

        d1, d2 = build_d1_d2(params)
        r1 = product_intersection(d1.nfa, d2.nfa, members(params), params)
        r2 = product_intersection(d1.nfa, d2.nfa, members(params), params)
        assert r1.to_json() == r2.to_json()
