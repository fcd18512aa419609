from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiletopo.algebraic import NumberField, dominant_root_field


@pytest.fixture(scope="module")
def cubic() -> NumberField:
    # incidence cubic for (4,5): x^3 - 3x^2 - x - 5, dominant root ~3.6494
    return dominant_root_field([-5, -1, -3, 1])


class TestField:
    def test_minpoly_satisfied(self, cubic):
        b = cubic.beta()
        val = b * b * b - cubic.rational(3) * b * b - b - cubic.rational(5)
        assert val.is_zero()

    def test_float_value(self, cubic):
        assert abs(float(cubic.beta()) - 3.6494359144894918) < 1e-12

    def test_sign_and_comparisons(self, cubic):
        b = cubic.beta()
        assert (b - cubic.rational(Fraction(36494, 10000))).sign() == 1
        assert (b - cubic.rational(Fraction(36495, 10000))).sign() == -1
        assert b < b * b
        assert cubic.zero().sign() == 0

    @given(
        c0=st.fractions(min_value=-3, max_value=3),
        c1=st.fractions(min_value=-3, max_value=3),
        c2=st.fractions(min_value=-3, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trip(self, cubic, c0, c1, c2):
        x = cubic.element([c0, c1, c2])
        if x.is_zero():
            return
        assert (x * x.inverse() - cubic.one()).is_zero()

    @given(
        c0=st.fractions(min_value=-2, max_value=2),
        c1=st.fractions(min_value=-2, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_matches_float(self, cubic, c0, c1):
        x = cubic.element([c0, c1])
        approx = float(c0) + float(c1) * 3.6494359144894918
        if abs(approx) > 1e-6:
            assert x.sign() == (1 if approx > 0 else -1)

    def test_arithmetic_consistency(self, cubic):
        b = cubic.beta()
        x = (b + cubic.one()) * (b - cubic.one())
        assert (x - (b * b - cubic.one())).is_zero()


class TestRationalDegenerate:
    def test_degree_one_field(self):
        f = dominant_root_field([-4, 0, 1])  # roots ±2
        assert f.degree == 1
        assert float(f.beta()) == 2.0
        x = f.rational(Fraction(3, 7))
        assert (x * x.inverse() - f.one()).is_zero()
        assert (f.beta() - f.rational(2)).sign() == 0


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


class TestIntervalRefinement:
    def test_refinement_narrows(self, cubic):
        lo0, hi0 = cubic.interval()
        cubic.refine_interval()
        lo1, hi1 = cubic.interval()
        assert lo0 <= lo1 <= hi1 <= hi0
        assert hi1 - lo1 <= (hi0 - lo0) / 2 or lo1 == hi1
