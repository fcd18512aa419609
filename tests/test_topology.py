import dataclasses
import hashlib
import json

import pytest

from tiletopo import (
    Address,
    RawInstance,
    TileParams,
    WrongRegime,
    normalize,
    parse_address,
    point_eval,
)
from tiletopo.automata import (
    BRANCHING,
    EMPTY,
    UNIQUE_POINT,
    DigitDFA,
    accepts_address,
)
from tiletopo import cli, topology
from tiletopo.errors import CertificateFailure
from tiletopo.neighbors import NeighborSet
from tiletopo.numsys import alt_flip
from tiletopo.topology import (
    Classification,
    build_d1_d2,
    classify,
    cut_point_address,
    cylinder_levels,
    union_is_universal,
    verify_cut_point,
)

from conftest import close, fractional_digit, series_value
from reference import (
    intersect_languages,
    nfa_cylinder,
    nfa_full,
    nfa_single_address,
    product_prefix_agreement,
    subdivision_diff,
)


class TestClassify:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (2, 2, Classification.DISK_LIKE),
            (4, 5, Classification.NO_CUT_POINT_INTERIOR_DISCONNECTED),
            (5, 6, Classification.NO_CUT_POINT_INTERIOR_DISCONNECTED),
            (5, 5, Classification.HAS_CUT_POINT),
            (4, 4, Classification.SQUARE_SPECIAL_CASE),
            (0, 7, Classification.DEGENERATE_RECTANGLE),
            (1, 12, Classification.DISK_LIKE),
        ],
    )
    def test_examples(self, a, b, expected):
        assert classify(TileParams(a, b)) is expected

    def test_thresholds_on_grid(self):
        for b in range(2, 13):
            for a in range(1, b + 1):
                cls = classify(TileParams(a, b))
                d = 2 * a - b
                if (a, b) == (4, 4):
                    assert cls is Classification.SQUARE_SPECIAL_CASE
                elif d <= 2:
                    assert cls is Classification.DISK_LIKE
                elif d in (3, 4):
                    assert cls is Classification.NO_CUT_POINT_INTERIOR_DISCONNECTED
                else:
                    assert cls is Classification.HAS_CUT_POINT

    def test_reflection_invariance(self):
        # classifying the normalization of a reflected instance agrees with
        # the unreflected twin
        for a, b in [(3, 5), (4, 5), (5, 7)]:
            raw = RawInstance(((0, -b), (1, a)), (1, 0))  # trace a => A = -a
            params, _ = normalize(raw)
            assert params.reflected
            assert classify(params) is classify(TileParams(a, b))


class TestCutPointAddress:
    def test_examples(self):
        assert cut_point_address(TileParams(5, 5)) == parse_address("(2)")
        assert cut_point_address(TileParams(6, 6)) == parse_address("(32)")
        assert cut_point_address(TileParams(6, 7)) == parse_address("(3)")

    def test_value_against_series(self):
        params = TileParams(5, 5)
        addr = cut_point_address(params)
        assert close(point_eval(addr, params), series_value(addr, params), 1e-12)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            cut_point_address(TileParams(4, 5))

    def test_middle_word_is_the_address_prefix(self):
        # verify_cut_point's middle cylinder word alternates A-3 with its
        # flip, which is the cut point's own expansion digit by digit
        for b in range(2, 31):
            for a in range(1, b + 1):
                if 2 * a - b >= 5:
                    p = TileParams(a, b)
                    addr = cut_point_address(p)
                    for i in range(12):
                        assert alt_flip(i, a - 3, p) == fractional_digit(addr, i + 1), (a, b, i)


class TestHalves:
    def test_alternating_word_in_both(self):
        params = TileParams(6, 6)
        d1, d2 = build_d1_d2(params)
        addr = cut_point_address(params)  # (A-3)(B-A+2) repeated
        assert accepts_address(d1, addr)
        assert accepts_address(d2, addr)

    def test_strictly_below_in_d1_only(self):
        params = TileParams(5, 5)
        d1, d2 = build_d1_d2(params)
        addr = Address((), (0,), (1,))  # 0 1 1 1 ...
        assert accepts_address(d1, addr)
        assert not accepts_address(d2, addr)

    def test_union_universal_on_grid(self):
        for b in range(2, 13):
            for a in range(1, b + 1):
                if 2 * a - b >= 5:
                    params = TileParams(a, b)
                    d1, d2 = build_d1_d2(params)
                    assert union_is_universal(d1, d2, params)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            build_d1_d2(TileParams(4, 5))


class TestIntersectLanguages:
    def test_d1_d2_unique_point(self):
        params = TileParams(5, 5)
        d1, d2 = build_d1_d2(params)
        res = intersect_languages(d1, d2, params)
        assert res.kind == UNIQUE_POINT
        assert res.points[0] == point_eval(parse_address("(2)"), params)

    def test_full_language_through_neighbor(self):
        params = TileParams(5, 5)
        res = intersect_languages(
            nfa_full(5), nfa_full(5), params, initial_diff=(1, 0)
        )
        assert res.kind == BRANCHING

    def test_disjoint_first_digits(self):
        params = TileParams(5, 5)
        res = intersect_languages(
            nfa_cylinder((3,), 5), nfa_cylinder((0,), 5), params
        )
        assert res.kind == EMPTY

    def test_membership_helper(self):
        # the point of an address lies in the subdivision piece T_word
        # exactly when the cylinder x single-address product is not empty
        params = TileParams(5, 5)
        z = nfa_single_address(cut_point_address(params))

        def kind(word):
            return intersect_languages(nfa_cylinder(word, 5), z, params).kind

        assert kind((2,)) != EMPTY
        assert kind((1,)) == EMPTY
        assert kind((2, 2)) != EMPTY


class TestCertificates:
    def test_5_5(self):
        cert = verify_cut_point(TileParams(5, 5))
        assert cert.address == parse_address("(2)")
        assert cert.value == point_eval(parse_address("(2)"), TileParams(5, 5))

    def test_6_7(self):
        cert = verify_cut_point(TileParams(6, 7), depth=6)
        assert cert.address == parse_address("(3)")

    def test_7_9(self):
        cert = verify_cut_point(TileParams(7, 9), depth=6)
        assert cert.address == parse_address("(4)")

    def test_grid_certificates(self):
        for b in range(2, 13):
            for a in range(1, b + 1):
                if 2 * a - b >= 5:
                    params = TileParams(a, b)
                    cert = verify_cut_point(params, depth=6)
                    assert cert.value == point_eval(cut_point_address(params), params)

    def test_deep_middle_cylinder_membership(self):
        # the certificate replay keeps the point inside the shrinking middle
        # cylinder; run it deep for one pair
        verify_cut_point(TileParams(5, 5), depth=20)

    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            verify_cut_point(TileParams(4, 5))

    def test_one_product_per_certificate(self, monkeypatch):
        # the middle cylinders are read off the point's digits, so the
        # D1 x D2 product is the only product a certificate builds
        calls = []
        real = topology.product_intersection

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(topology, "product_intersection", counted)
        verify_cut_point(TileParams(5, 5))
        assert len(calls) == 1

    def test_certificate_golden_digest(self):
        # sha256 of the JSON certificate of every pair 2A - B >= 5, B <= 20
        # (72 pairs), recorded with the product that tried every digit pair
        h = hashlib.sha256()
        for b in range(2, 21):
            for a in range(1, b + 1):
                if 2 * a - b >= 5:
                    cert = verify_cut_point(TileParams(a, b))
                    h.update(json.dumps(cert.to_json(), indent=2, sort_keys=True).encode())
        assert h.hexdigest() == (
            "2a832ff70f98fe89d4d9b6e673ef0b7e41e4c7409230bd21aa7f81d8cd3e3e92"
        )


class TestCylinderLevels:
    def test_vectors_match_subdivision_diff(self):
        # the three words of a level share the point's first n digits, so
        # each separating vector is read off their last digits; against the
        # digit-by-digit sum, on every cut-point pair B <= 20 to depth 12
        pairs = [(a, b) for b in range(1, 21) for a in range(1, b + 1) if 2 * a - b >= 5]
        assert len(pairs) == 72
        for a, b in pairs:
            params = TileParams(a, b)
            period = cut_point_address(params).period
            levels = list(cylinder_levels(params, 12))
            assert len(levels) == 13
            for n, ((lo, mid, hi), vectors) in enumerate(levels):
                assert mid == tuple(period[i % len(period)] for i in range(n + 1))
                assert lo[:n] == hi[:n] == mid[:n]
                assert vectors == (
                    subdivision_diff(lo, mid, params),
                    subdivision_diff(hi, mid, params),
                    subdivision_diff(lo, hi, params),
                )


class TestCertificateFailures:
    """Each ``CertificateFailure`` of ``verify_cut_point`` seen to fire at
    (6, 7), on one corrupted upstream result."""

    P = TileParams(6, 7)

    @staticmethod
    def halves_missing_digit(monkeypatch):
        # D1 loses digit 0 once free, so a word led by 0 is in neither half
        real = topology.build_d1_d2

        def halves(params):
            d1, d2 = real(params)
            trans = {q: dict(row) for q, row in d1.trans.items()}
            del trans[topology.FREE][0]
            return DigitDFA(d1.initial, trans), d2

        monkeypatch.setattr(topology, "build_d1_d2", halves)

    @staticmethod
    def patch_product(monkeypatch, change):
        real = topology.product_intersection
        monkeypatch.setattr(
            topology, "product_intersection", lambda *args: change(real(*args))
        )

    @classmethod
    def branching(cls, monkeypatch):
        cls.patch_product(monkeypatch, lambda res: dataclasses.replace(res, kind=BRANCHING))

    @classmethod
    def shifted_point(cls, monkeypatch):
        def shift(res):
            (x, y), = res.points
            return dataclasses.replace(res, points=((x + 1, y),))

        cls.patch_product(monkeypatch, shift)

    @classmethod
    def live_pair_off_the_words(cls, monkeypatch):
        # one more live edge reads the digit pair (0, 0), which no word of
        # level 0 (2, 3 or 4 at (6, 7)) starts with
        def detour(res):
            init = res.initial
            trans = dict(res.transitions)
            trans[init] = trans[init] + [(0, 0, init)]
            return dataclasses.replace(res, transitions=trans)

        cls.patch_product(monkeypatch, detour)

    @staticmethod
    def neighbor_missing(monkeypatch):
        # (-1, 0) separates the left side word from the middle one at level 0
        real = topology.neighbor_set_formula

        def formula(params):
            found = real(params)
            return NeighborSet(found.members - {(-1, 0)}, found.j)

        monkeypatch.setattr(topology, "neighbor_set_formula", formula)

    @staticmethod
    def outer_words_touch(monkeypatch):
        # (2, 0) and (-2, 0) read as neighbors: the outer words of level 0,
        # whose last digits differ by 2, now touch each other
        real = topology.neighbor_set_formula

        def formula(params):
            found = real(params)
            return NeighborSet(found.members | {(2, 0), (-2, 0)}, found.j)

        monkeypatch.setattr(topology, "neighbor_set_formula", formula)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            ("halves_missing_digit", "the two halves do not cover the digit space"),
            ("branching", "halves intersect with kind BRANCHING"),
            ("shifted_point", "intersection value differs from the formula"),
            ("live_pair_off_the_words", "live cylinder pair ((0,), (0,)) escapes level 0"),
            ("neighbor_missing", "side cylinder (2,) loses contact with the middle one"),
            ("outer_words_touch", "outer cylinders must not touch each other"),
        ],
    )
    def test_raised(self, monkeypatch, corrupt, message):
        getattr(self, corrupt)(monkeypatch)
        with pytest.raises(CertificateFailure) as info:
            verify_cut_point(self.P)
        assert str(info.value) == f"{message} for (A,B)=(6,7)"

    def test_reported_by_the_cli(self, monkeypatch, capsys):
        self.shifted_point(monkeypatch)
        code = cli.main(["cutpoint", "--A", "6", "--B", "7"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == (
            "verification failure: intersection value differs from the formula"
            " for (A,B)=(6,7)\n"
        )


class TestPrefixAgreement:
    @pytest.mark.parametrize("a,b", [(5, 5), (6, 7), (7, 9)])
    def test_depth_4(self, a, b):
        assert product_prefix_agreement(TileParams(a, b), depth=4)
