from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiletopo.algebraic import NumberField, dominant_root_field

from reference import lift, one, zero

FIELDS = {
    # incidence cubic for (4,5): x^3 - 3x^2 - x - 5, dominant root ~3.6494
    "cubic": ([-5, -1, -3, 1], 3.6494359144894918),
    # cubic of (1,10): (x + 2)(x^2 - 2x - 5), dominant root 1 + sqrt(6)
    "quadratic": ([-10, -9, 0, 1], 1 + 6**0.5),
    # x^2 - 4: the positive root 2 is rational
    "rational": ([-4, 0, 1], 2.0),
}

VECTORS = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=60), min_size=3, max_size=3
)


@pytest.fixture(scope="module")
def cubic() -> NumberField:
    return dominant_root_field(FIELDS["cubic"][0])


@pytest.fixture(scope="module")
def fields() -> dict[str, tuple[NumberField, float]]:
    """A field of each degree 3, 2 and 1, with the float value of beta."""
    return {name: (dominant_root_field(c), beta) for name, (c, beta) in FIELDS.items()}


def reference_product(f: NumberField, x, y) -> list[Fraction]:
    """Coefficients of x * y from Fraction polynomials: product, then
    remainder modulo the minimal polynomial."""
    xs = [Fraction(n, x.den) for n in x.num]
    ys = [Fraction(n, y.den) for n in y.num]
    prod = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            prod[i + j] += a * b
    mp = f.minpoly
    for k in range(len(prod) - 1, f.degree - 1, -1):
        c = prod.pop()
        for i in range(f.degree):
            prod[k - f.degree + i] -= c * mp[i]
    return prod


def is_canonical(x) -> bool:
    return x.den > 0 and gcd(x.den, *x.num) == 1 and len(x.num) == x.field.degree


class TestField:
    def test_minpoly_satisfied(self, cubic):
        b = lift(cubic.beta())
        val = b * b * b - lift(cubic.rational(3)) * b * b - b - cubic.rational(5)
        assert val.is_zero()

    def test_float_value(self, cubic):
        assert abs(float(cubic.beta()) - 3.6494359144894918) < 1e-12

    def test_sign_and_comparisons(self, cubic):
        b = lift(cubic.beta())
        assert (b - cubic.rational(Fraction(36494, 10000))).sign() == 1
        assert (b - cubic.rational(Fraction(36495, 10000))).sign() == -1
        assert b < b * b and b <= b and not b * b <= b
        assert cubic.rational(0).sign() == 0

    @given(
        name=st.sampled_from(sorted(FIELDS)),
        c0=st.fractions(min_value=-3, max_value=3),
        c1=st.fractions(min_value=-3, max_value=3),
        c2=st.fractions(min_value=-3, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, fields, name, c0, c1, c2):
        f, _ = fields[name]
        x = lift(f.element([c0, c1, c2]))
        if x.is_zero():
            return
        assert (x * x.inverse() - one(f)).is_zero()

    @given(
        name=st.sampled_from(sorted(FIELDS)),
        c0=st.fractions(min_value=-2, max_value=2),
        c1=st.fractions(min_value=-2, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_matches_float(self, fields, name, c0, c1):
        f, beta = fields[name]
        x = f.element([c0, c1])
        approx = float(c0) + float(c1) * beta
        if abs(approx) > 1e-6:
            assert x.sign() == (1 if approx > 0 else -1)

    def test_arithmetic_consistency(self, fields):
        for f, _ in fields.values():
            b = lift(f.beta())
            x = (b + one(f)) * (b - one(f))
            assert (x - (b * b - one(f))).is_zero()

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @given(xs=VECTORS, ys=VECTORS, zs=VECTORS)
    @settings(max_examples=60, deadline=None)
    def test_integer_form(self, fields, name, xs, ys, zs):
        f, _ = fields[name]
        x, y, z = (lift(f.element(v)) for v in (xs, ys, zs))
        # products agree with the Fraction reference
        xy = x * y
        assert [Fraction(n, xy.den) for n in xy.num] == reference_product(f, x, y)
        # every result is in lowest terms over a positive denominator
        results = [x, y, z, xy, x + y, x - y, -x, (x - y) * z]
        if not y.is_zero():
            results += [y.inverse(), x / y]
        assert all(is_canonical(r) for r in results)
        # one value computed two ways is one element with one hash
        for u, v in [((x + y) * z, x * z + y * z), (xy, y * x), (x - x, zero(f))]:
            assert u == v and hash(u) == hash(v)
        if not y.is_zero():
            q = (x / y) * y
            assert q == x and hash(q) == hash(x)


class TestRationalDegenerate:
    def test_degree_one_field(self):
        f = dominant_root_field([-4, 0, 1])  # roots ±2
        assert f.degree == 1
        assert float(f.beta()) == 2.0
        x = lift(f.rational(Fraction(3, 7)))
        assert (x * x.inverse() - one(f)).is_zero()
        assert (lift(f.beta()) - f.rational(2)).sign() == 0


class TestDominantRootFieldContract:
    @pytest.mark.parametrize(
        "coeffs",
        [
            [-5, -1, -3, 2],  # not monic
            [-5, 0, -1, -3, 1],  # degree 4
            [-6, 11, -6, 1],  # (x-1)(x-2)(x-3): three sign changes
            [1, 2, 1],  # no sign change
        ],
    )
    def test_rejects(self, coeffs):
        with pytest.raises(ValueError):
            dominant_root_field(coeffs)

    def test_quadratic_factor(self):
        # x^3 - 9x - 10 = (x + 2)(x^2 - 2x - 5), the cubic of (A,B) = (1,10)
        f = dominant_root_field([-10, -9, 0, 1])
        assert f.minpoly == (-5, -2, 1)
        assert abs(float(f.beta()) - (1 + 6**0.5)) < 1e-12

    def test_trailing_zero_coefficients_are_dropped(self):
        # the high coefficients past the leading 1 are zero, not a degree
        assert dominant_root_field([-5, -1, -3, 1, 0, 0]).minpoly == (-5, -1, -3, 1)


class TestNumberFieldContract:
    @pytest.mark.parametrize(
        "minpoly",
        [
            [-5, -1, -3, 2],  # not monic
            [Fraction(1, 2), 0, 1],  # monic, not over the integers
        ],
    )
    def test_rejects_non_monic_integer_minpoly(self, minpoly):
        with pytest.raises(ValueError, match="not monic over Z"):
            NumberField(minpoly, 0, 10)

    def test_accepts_monic_integer_minpoly(self):
        f = NumberField([-2, 0, 1], 1, 2)
        assert f.minpoly == (-2, 0, 1)
        assert (lift(f.beta()) * f.beta() - f.rational(2)).is_zero()

    def test_trailing_zero_coefficients_are_dropped(self):
        f = NumberField([-2, 0, 1, 0], 1, 2)
        assert (f.minpoly, f.degree) == ((-2, 0, 1), 2)

    @pytest.mark.parametrize("minpoly", [[], [0, 0], [3], [3, 0]])
    def test_rejects_constant_minpoly(self, minpoly):
        with pytest.raises(ValueError, match=r"^minimal polynomial must have degree >= 1$"):
            NumberField(minpoly, 0, 10)

    def test_division_by_zero_element(self, cubic):
        # the zero element written with a multiple of the minimal polynomial
        with pytest.raises(ZeroDivisionError, match=r"^division by the zero element of Q\(beta\)$"):
            cubic.quotients([[1, 0, 0]], [-5, -1, -3, 1])
        with pytest.raises(ZeroDivisionError, match=r"^division by the zero element of Q\(beta\)$"):
            cubic.quotients([[1, 0, 0]], [0, 0, 0])


class TestIntervalRefinement:
    def test_refinement_narrows(self, cubic):
        lo0, hi0 = cubic.interval()
        cubic.refine_interval()
        lo1, hi1 = cubic.interval()
        assert lo0 <= lo1 <= hi1 <= hi0
        assert hi1 - lo1 <= (hi0 - lo0) / 2 or lo1 == hi1
