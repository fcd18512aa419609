from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiletopo import (
    Address,
    BadDeterminant,
    DegenerateBasis,
    NotExpanding,
    RawInstance,
    TileParams,
    alt_flip,
    apply_contraction,
    flip,
    format_address,
    normalize,
    parse_address,
    point_eval,
)
from tiletopo.numsys import periodic_tail_scaled

from conftest import close, pairs, random_address, series_value
from reference import (
    IDENTITY,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
    periodic_tail_value,
    prepend_digits,
    solve2,
)


class TestNormalize:
    def test_companion_input_is_identity_basis(self):
        raw = RawInstance(((0, -5), (1, -5)), (1, 0))
        params, record = normalize(raw)
        assert (params.a, params.b, params.reflected) == (5, 5, False)
        assert record.basis_change == IDENTITY
        assert record.reflection == IDENTITY

    def test_reflected_translation_matches_series(self):
        # A = -4, B = 5; the recorded translation solves (M2^2 - I) y = M2 (4,0)
        raw = RawInstance(((0, -5), (1, 4)), (1, 0))
        params, record = normalize(raw)
        assert (params.a, params.b, params.reflected) == (4, 5, True)
        m2 = ((0, -5), (1, 4))
        acc = (Fraction(0), Fraction(0))
        pw = mat_pow(m2, -1)
        step = mat_pow(m2, -2)
        for _ in range(60):
            acc = (acc[0] + pw[0][0] * 4, acc[1] + pw[1][0] * 4)
            pw = mat_mul(pw, step)
        assert close(acc, record.translation)

    def test_basis_change_conjugates_to_companion(self):
        raw = RawInstance(((0, -2), (1, -2)), (0, 1))
        params, record = normalize(raw)
        assert (params.a, params.b) == (2, 2)
        assert record.basis_change == ((0, -2), (1, -2))
        c = record.basis_change
        assert mat_mul(mat_inv(c), mat_mul(raw.m0, c)) == ((0, -2), (1, -2))

    def test_digit_images(self):
        # C * (k, 0) must reproduce the raw digit set {k v}
        raw = RawInstance(((1, -3), (2, -3)), (1, 1))
        params, record = normalize(raw)
        assert (params.a, params.b) == (2, 3)
        for k in range(params.b):
            assert mat_vec(record.basis_change, (k, 0)) == (k * raw.v[0], k * raw.v[1])

    def test_errors(self):
        with pytest.raises(NotExpanding):
            normalize(RawInstance(((0, -5), (1, 7)), (1, 0)))
        with pytest.raises(BadDeterminant):
            normalize(RawInstance(((0, 1), (1, 0)), (1, 0)))
        with pytest.raises(DegenerateBasis):
            normalize(RawInstance(((2, 0), (0, 3)), (1, 0)))

    def test_a_zero_accepted(self):
        raw = RawInstance(((0, -2), (1, 0)), (1, 0))
        params, _ = normalize(raw)
        assert params.a == 0 and not params.reflected


class TestPointEval:
    def test_zero_address(self):
        params = TileParams(4, 5)
        assert point_eval(Address(), params) == (0, 0)

    def test_period_two_bar_5_5(self):
        params = TileParams(5, 5)
        addr = parse_address("(2)")
        val = point_eval(addr, params)
        assert val == (Fraction(-12, 11), Fraction(-2, 11))
        assert close(val, series_value(addr, params))

    def test_half_of_four_bar_equals_two_bar(self):
        params = TileParams(4, 5)
        v4 = point_eval(parse_address("(4)"), params)
        v2 = point_eval(parse_address("(2)"), params)
        assert (v4[0] / 2, v4[1] / 2) == v2

    def test_periodic_tail_is_linear_solve(self):
        params = TileParams(4, 5)
        m = params.matrix
        lhs = ((m[0][0] - 1, m[0][1]), (m[1][0], m[1][1] - 1))
        assert periodic_tail_value((2,), params) == solve2(lhs, (2, 0))

    def test_periodic_tail_is_a_fixed_point_of_the_first_digit(self, rng):
        # 0.(w1 w2 ... wn) = f_{w1}(0.(w2 ... wn w1)), exactly, from the
        # integer solve over a positive denominator in lowest terms
        for _ in range(200):
            b = rng.randint(2, 30)
            params = TileParams(rng.randint(0, b), b)
            word = tuple(rng.randrange(b) for _ in range(rng.randint(1, 6)))
            x, y, d = periodic_tail_scaled(word, params)
            assert d > 0 and gcd(x, y, d) == 1, (params, word)
            value = periodic_tail_value(word, params)
            assert value == (Fraction(x, d), Fraction(y, d))
            shifted = periodic_tail_value(word[1:] + word[:1], params)
            assert value == apply_contraction(word[0], shifted, params), (params, word)

    def test_integer_part(self):
        params = TileParams(4, 5)
        addr = parse_address("13.2(0)")
        m = params.matrix
        expect = mat_vec(m, (1, 0))
        expect = (expect[0] + 3, expect[1])
        frac = point_eval(parse_address("2(0)"), params)
        assert point_eval(addr, params) == (expect[0] + frac[0], expect[1] + frac[1])

    def test_random_against_series(self, rng):
        for params in (TileParams(4, 5), TileParams(5, 5), TileParams(2, 2)):
            for _ in range(25):
                addr = random_address(rng, params.b)
                assert close(point_eval(addr, params), series_value(addr, params))


def fraction_point_eval(addr, params):
    """The Fraction evaluation the integer one replaced: M^-1 as a Fraction
    matrix, applied once per preperiod digit."""
    m, minv = params.matrix, mat_inv(params.matrix)
    val = (Fraction(0), Fraction(0))
    for d in addr.integer_part:
        val = mat_vec(m, val)
        val = (val[0] + d, val[1])
    frac = periodic_tail_value(addr.period, params)
    for d in reversed(addr.preperiod):
        frac = mat_vec(minv, (frac[0] + d, frac[1]))
    return (val[0] + frac[0], val[1] + frac[1])


class TestPointEvalReference:
    @staticmethod
    def _address(rng, b, pre_len):
        integer = tuple(rng.randrange(b) for _ in range(rng.randint(0, 3)))
        pre = tuple(rng.randrange(b) for _ in range(pre_len))
        per = tuple(rng.randrange(b) for _ in range(rng.randint(1, 5)))
        return Address(integer, pre, per)

    def _check(self, addr, params):
        value = point_eval(addr, params)
        assert all(type(c) is Fraction for c in value)
        assert value == fraction_point_eval(addr, params), (params, addr)

    def test_every_pair_up_to_b_12(self, rng):
        for b in range(2, 13):
            for a in range(0, b + 1):
                params = TileParams(a, b)
                for _ in range(12):
                    self._check(self._address(rng, b, rng.randint(0, 8)), params)

    def test_large_pair_and_long_preperiod(self, rng):
        for params in (TileParams(20, 40), TileParams(7, 9), TileParams(0, 3)):
            for _ in range(20):
                self._check(self._address(rng, params.b, 30), params)
        self._check(self._address(rng, 40, 8), TileParams(20, 40))

    @pytest.mark.parametrize(
        "addr", [Address((5,), (), (0,)), Address((), (1, 5, 0), (2,)), Address((), (), (1, 5))]
    )
    def test_digit_out_of_range_raises_before_arithmetic(self, addr, monkeypatch):
        def no_arithmetic(*args):
            raise AssertionError("point_eval computed before checking its digits")

        monkeypatch.setattr("tiletopo.numsys.periodic_tail_scaled", no_arithmetic)
        with pytest.raises(ValueError, match="out of range for B=5"):
            point_eval(addr, TileParams(4, 5))


@st.composite
def pairs_and_addresses(draw):
    params = draw(pairs())
    digits = st.integers(0, params.b - 1)
    addr = Address(
        tuple(draw(st.lists(digits, max_size=3))),
        tuple(draw(st.lists(digits, max_size=8))),
        tuple(draw(st.lists(digits, min_size=1, max_size=5))),
    )
    return params, addr


class TestDrawnOracles:
    """The integer cores against their Fraction oracles, on drawn pairs up to
    B = 200 and drawn eventually periodic addresses."""

    @given(pairs_and_addresses())
    @settings(max_examples=100, deadline=None)
    def test_point_eval(self, case):
        params, addr = case
        value = point_eval(addr, params)
        assert all(type(c) is Fraction for c in value)
        assert value == fraction_point_eval(addr, params)

    @given(pairs_and_addresses(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_apply_contraction(self, case, data):
        params, addr = case
        digit = data.draw(st.integers(0, params.b - 1))
        p = point_eval(addr, params)
        got = apply_contraction(digit, p, params)
        assert all(type(c) is Fraction for c in got)
        assert got == mat_vec(mat_inv(params.matrix), (p[0] + digit, p[1]))

    @given(
        m0=st.tuples(*[st.integers(-12, 12)] * 4).map(lambda e: ((e[0], e[1]), (e[2], e[3]))),
        v=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    )
    @settings(max_examples=100, deadline=None)
    def test_normalize(self, m0, v):
        raw = RawInstance(m0, v)
        try:
            raw.validate()
        except (BadDeterminant, NotExpanding, DegenerateBasis):
            assume(False)
        params, record = normalize(raw)
        a, b = raw.char_pair()
        assert (params.a, params.b, params.reflected) == (abs(a), b, a < 0)
        c = record.basis_change
        assert c == ((v[0], mat_vec(m0, v)[0]), (v[1], mat_vec(m0, v)[1]))
        assert mat_mul(mat_inv(c), mat_mul(m0, c)) == ((0, -b), (1, -a))
        if a >= 0:
            assert record.reflection == IDENTITY
            assert record.translation == (0, 0)
        else:
            m2 = ((0, -b), (1, -a))
            sq = mat_mul(m2, m2)
            lhs = ((sq[0][0] - 1, sq[0][1]), (sq[1][0], sq[1][1] - 1))
            assert record.translation == solve2(lhs, mat_vec(m2, (b - 1, 0)))
            assert all(type(c) is Fraction for c in record.translation)


class TestFlip:
    def test_digitwise(self):
        params = TileParams(4, 5)
        assert flip(parse_address("440(04)"), params) == parse_address("004(40)")

    def test_fixed_digit(self):
        params = TileParams(5, 5)
        assert flip(parse_address("(2)"), params) == parse_address("(2)")

    def test_reflection_identity(self, rng):
        # point_eval(flip(w)) + point_eval(w) = point_eval(0.(B-1)bar)
        for params in (TileParams(4, 5), TileParams(3, 7)):
            top = point_eval(Address((), (), (params.b - 1,)), params)
            for _ in range(100):
                addr = random_address(rng, params.b)
                v = point_eval(addr, params)
                w = point_eval(flip(addr, params), params)
                assert (v[0] + w[0], v[1] + w[1]) == top


class TestAltFlip:
    def test_examples(self):
        assert alt_flip(0, 3, TileParams(5, 7)) == 3
        assert alt_flip(1, 3, TileParams(5, 7)) == 3
        assert alt_flip(1, 0, TileParams(4, 5)) == 4


class TestApplyContraction:
    def test_fixed_point_of_f0(self):
        params = TileParams(4, 5)
        assert apply_contraction(0, (Fraction(0), Fraction(0)), params) == (0, 0)

    def test_fixed_point_of_f2(self):
        params = TileParams(4, 5)
        p = point_eval(parse_address("(2)"), params)
        assert apply_contraction(2, p, params) == p

    def test_prefix_shift_identity(self, rng):
        params = TileParams(5, 5)
        for _ in range(100):
            addr = random_address(rng, params.b)
            a1 = rng.randrange(params.b)
            lhs = apply_contraction(a1, point_eval(addr, params), params)
            rhs = point_eval(prepend_digits((a1,), addr), params)
            assert lhs == rhs


class TestEqualPointsIdentity:
    @pytest.mark.parametrize("a,b", [(4, 5), (5, 7), (6, 9)])
    def test_dual_addresses(self, a, b, rng):
        # whenever a1-a1'=1, a2-a2'=A-2, a3-a3'=-1:
        #   0.a1a2a3(0 (B-1))bar == 0.a1'a2'a3'((B-1) 0)bar
        params = TileParams(a, b)
        for _ in range(100):
            a1 = rng.randint(1, b - 1)
            a2 = rng.randint(a - 2, b - 1)
            a3 = rng.randint(0, b - 2)
            u = Address((), (a1, a2, a3), (0, b - 1))
            v = Address((), (a1 - 1, a2 - (a - 2), a3 + 1), (b - 1, 0))
            assert point_eval(u, params) == point_eval(v, params)


class TestAddressCanonical:
    def test_primitive_period(self):
        assert Address((), (), (2, 2, 2)).period == (2,)
        assert Address((), (), (1, 2, 1, 2)).period == (1, 2)

    def test_preperiod_absorbed_into_rotation(self):
        a = Address((), (2,), (1, 2))
        assert a.preperiod == () and a.period == (2, 1)

    def test_leading_zeros_stripped(self):
        assert Address((0, 0, 1), (), (0,)).integer_part == (1,)

    @given(
        pre=st.lists(st.integers(0, 4), max_size=6),
        per=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_canonicalization_preserves_value(self, pre, per):
        params = TileParams(4, 5)
        canonical = Address((), tuple(pre), tuple(per))
        # evaluate the raw (non-canonical) expansion by brute truncation
        raw = SimpleNamespace(integer_part=(), preperiod=tuple(pre), period=tuple(per))
        assert close(point_eval(canonical, params), series_value(raw, params))

    @given(
        pre=st.lists(st.integers(0, 4), max_size=5),
        per=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, pre, per):
        a = Address((), tuple(pre), tuple(per))
        b = Address(a.integer_part, a.preperiod, a.period)
        assert a == b


class TestAddressText:
    @pytest.mark.parametrize(
        "text,addr",
        [
            ("440(04)", Address((), (4, 4, 0), (0, 4))),
            ("(2)", Address((), (), (2,))),
            ("0.2(0)", Address((), (2,), (0,))),
            ("12.3(45)", Address((1, 2), (3,), (4, 5))),
            ("[4,4,0]([0,4])", Address((), (4, 4, 0), (0, 4))),
            ("[11]([10])", Address((), (11,), (10,))),
        ],
    )
    def test_parse(self, text, addr):
        assert parse_address(text) == addr

    def test_roundtrip(self, rng):
        for b in (5, 12):
            for _ in range(50):
                addr = random_address(rng, b)
                assert parse_address(format_address(addr)) == addr

    def test_bracket_form_for_large_digits(self):
        addr = Address((), (11, 0), (10,))
        text = format_address(addr)
        assert text.startswith("[")
        assert parse_address(text) == addr

    def test_integer_part_is_formatted(self):
        addr = Address((1, 2), (3,), (4, 5))
        assert format_address(addr) == "12.3(45)"
        # the bracket form writes an empty preperiod as [] too, and reads it
        large = Address((11,), (), (0,))
        assert format_address(large) == "[11].[]([0])"
        assert parse_address("[11].[]([0])") == large

    def test_missing_period_terminates(self):
        assert parse_address("12") == Address((), (1, 2), (0,))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1,a](0)", "malformed digit word '[1,a]'"),
            ("1x(0)", "malformed digit word '1x'"),
            ("12(3", "unterminated period group"),
            ("12()", "empty period group"),
        ],
    )
    def test_malformed_text_is_rejected(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_address(text)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "parts,message",
        [
            (((), (1,), ()), "period must be nonempty"),
            (((), (-1,), (0,)), "digits must be nonnegative"),
        ],
    )
    def test_invalid_address_is_rejected(self, parts, message):
        with pytest.raises(ValueError) as info:
            Address(*parts)
        assert str(info.value) == message
