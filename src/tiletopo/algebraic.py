"""Exact arithmetic in a real algebraic number field Q(beta).

The field is presented as Q[x] modulo the minimal polynomial of beta, which
must be monic with integer coefficients, with a rational isolating interval
selecting the intended real root.  An element is an integer coefficient
vector over one positive denominator in lowest terms, so one value has one
form: equal values are equal elements with equal hashes.  Q(beta) has one
arithmetic, on bare integer vectors over one denominator: ``reduce`` takes a
product (an integer convolution) modulo the monic minimal polynomial,
``times_beta`` shifts and rewrites the one top entry, ``sign_of`` decides
a sign, and ``quotients`` divides by the cofactors of the integer matrix of
multiplication by the divisor (Cramer's rule), building one element per
quotient.  A ``FieldElement`` is only built, signed (``sign``), converted to
a float and printed; it has no arithmetic operators.  The element-by-element sums, products and inverses
that the tests' oracles compute with live in ``tests/reference.py``.

The isolating interval is kept as integer endpoints over one denominator.
Sign determination evaluates the numerator vector over it by interval Horner
in integers, bisecting the interval (an integer sign test of the minimal
polynomial at the midpoint) until the sign is certain; a rational field has
the interval of one point.  ``Fraction`` appears only where rationals enter
or leave (``element``, ``rational``, ``interval``, ``repr``), and no floating
point enters any comparison.

``dominant_root_field`` builds the field of a cubic's positive root in exact
arithmetic too: Descartes' rule of signs, integer root tests and integer
synthetic division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from .errors import CertificateFailure


def _poly_eval(c: Sequence[int], m: int, d: int = 1) -> int:
    """d**(len(c) - 1) * p(m / d) for p = c (low degree first)."""
    acc, scale = 0, 1
    for coef in reversed(c):
        acc = acc * m + coef * scale
        scale *= d
    return acc


def _cofactors(m: Sequence[Sequence[int]]) -> list[int]:
    """Cofactors of the first row of a small square integer matrix."""
    if len(m) == 1:
        return [1]
    return [(-1) ** j * _det([r[:j] + r[j + 1 :] for r in m[1:]]) for j in range(len(m))]


def _det(m: Sequence[Sequence[int]]) -> int:
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(x * c for x, c in zip(m[0], _cofactors(m)))


class NumberField:
    """Q(beta) for a fixed real algebraic beta with isolating interval."""

    def __init__(self, minpoly: Sequence, lo, hi):
        mp = [Fraction(c) for c in minpoly]
        while mp and mp[-1] == 0:
            mp.pop()
        if len(mp) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if mp[-1] != 1 or any(c.denominator != 1 for c in mp):
            raise ValueError(f"minimal polynomial {list(map(str, mp))} is not monic over Z")
        self.minpoly = tuple(int(c) for c in mp)
        self.degree = len(mp) - 1
        if self.degree == 1:
            lo = hi = -mp[0]
        lo, hi = Fraction(lo), Fraction(hi)
        # the interval is [_lo / _den, _hi / _den]
        self._den = lcm(lo.denominator, hi.denominator)
        self._lo = lo.numerator * (self._den // lo.denominator)
        self._hi = hi.numerator * (self._den // hi.denominator)

    # -- element construction ------------------------------------------------

    def reduce(self, vec: list[int]) -> list[int]:
        """Integer vector modulo the monic minimal polynomial, padded to
        ``degree`` entries."""
        d, mp = self.degree, self.minpoly
        for k in range(len(vec) - 1, d - 1, -1):
            c = vec[k]
            if c:
                for i in range(d):
                    vec[k - d + i] -= c * mp[i]
        del vec[d:]
        vec += [0] * (d - len(vec))
        return vec

    def times_beta(self, vec: Sequence[int]) -> list[int]:
        """beta times an integer vector of ``degree`` entries: a shift, and
        its one new top entry c beta^degree written as -c times the lower
        terms of the minimal polynomial."""
        c = vec[-1]
        if not c:
            return [0, *vec[:-1]]
        return [x - c * m for x, m in zip((0, *vec[:-1]), self.minpoly)]

    def quotients(
        self, nums: Sequence[Sequence[int]], den: Sequence[int]
    ) -> list["FieldElement"]:
        """num / den for each integer vector of ``nums``, over one nonzero
        integer vector ``den``.

        Cramer's rule: the matrix of multiplication by den has column j equal
        to den * x**j, and the cofactors y of its first row give den * y = det.
        So num / den = num * y / det: one product and one canonical form per
        numerator, and one cofactor expansion in all.
        """
        cols = [self.reduce(list(den))]
        if not any(cols[0]):
            raise ZeroDivisionError("division by the zero element of Q(beta)")
        for _ in range(self.degree - 1):
            cols.append(self.times_beta(cols[-1]))
        rows = list(zip(*cols))
        cof = _cofactors(rows)
        det = sum(x * c for x, c in zip(rows[0], cof))
        return [_canonical(self, self.reduce(_convolve(num, cof)), det) for num in nums]

    def element(self, coeffs: Sequence) -> "FieldElement":
        vec = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        return _canonical(self, self.reduce(num), den)

    def rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def beta(self) -> "FieldElement":
        return self.element([0, 1])

    # -- root interval -------------------------------------------------------

    def refine_interval(self) -> None:
        """Halve the isolating interval once (exact bisection).  Only a field
        of degree >= 2 is refined: a degree-1 field's interval is its root,
        over which ``sign_of`` signs every nonzero vector it is given at
        once and ``to_float`` does not loop.  An irreducible minimal
        polynomial of degree >= 2 has no rational root, so no midpoint is
        one."""
        mid = self._lo + self._hi
        self._lo, self._hi, self._den = 2 * self._lo, 2 * self._hi, 2 * self._den
        fmid = _poly_eval(self.minpoly, mid, self._den)
        if (_poly_eval(self.minpoly, self._lo, self._den) < 0) == (fmid < 0):
            self._lo = mid
        else:
            self._hi = mid

    def interval(self) -> tuple[Fraction, Fraction]:
        return Fraction(self._lo, self._den), Fraction(self._hi, self._den)

    def sign_of(self, num: Sequence[int]) -> int:
        """Sign of sum(num[i] * beta**i)."""
        k = len(num)
        while k and not num[k - 1]:
            k -= 1
        if not k:
            return 0
        for _ in range(20000):
            lo, hi, den = self._lo, self._hi, self._den
            # interval Horner on the values times den**j
            alo = ahi = num[k - 1]
            scale = 1
            for c in reversed(num[: k - 1]):
                scale *= den
                cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
                alo, ahi = min(cands) + c * scale, max(cands) + c * scale
            if alo > 0:
                return 1
            if ahi < 0:
                return -1
            self.refine_interval()
        raise CertificateFailure(
            "sign determination did not converge for the root of the minimal "
            f"polynomial {list(self.minpoly)} (low degree first)"
        )

    def to_float(self, num: Sequence[int], den: int) -> float:
        """sum(num[i] * beta**i) / den, from the interval's midpoint once the
        interval is at most 2**-60 wide."""
        while (self._hi - self._lo) << 60 > self._den:
            self.refine_interval()
        d = 2 * self._den
        return _poly_eval(num, self._lo + self._hi, d) / (d ** (len(num) - 1) * den)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two integer polynomials."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return prod


def _canonical(field: NumberField, num: Sequence[int], den: int) -> "FieldElement":
    """The element num / den with den > 0 and gcd(den, *num) = 1."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [n // g for n in num]
        den //= g
    return FieldElement(field, tuple(num), den)


@dataclass(frozen=True)
class FieldElement:
    """sum(num[i] * beta**i) / den, with num reduced modulo the minimal
    polynomial, den > 0 and gcd(den, *num) = 1."""

    field: NumberField
    num: tuple[int, ...]
    den: int

    def sign(self) -> int:
        return self.field.sign_of(self.num)

    def __float__(self) -> float:
        return self.field.to_float(self.num, self.den)

    def __repr__(self) -> str:
        terms = []
        for i, n in enumerate(self.num):
            if n == 0:
                continue
            c = Fraction(n, self.den)
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*b")
            else:
                terms.append(f"{c}*b^{i}")
        return " + ".join(terms) if terms else "0"


def dominant_root_field(int_coeffs: Sequence[int]) -> NumberField:
    """Field of the positive root of a monic integer polynomial of degree at
    most 3 (low degree first) whose signs change once: by Descartes' rule its
    only positive root, so (0, 1 + max|c_i|] isolates it.  Rational roots are
    integers dividing the constant term, found among its divisors by trial
    division up to its square root; with the negative ones divided out, no
    rational root is left, so what is left is the minimal polynomial."""
    poly = [int(c) for c in int_coeffs]
    while poly and poly[-1] == 0:
        poly.pop()
    signs = [c > 0 for c in poly if c]
    changes = sum(s != t for s, t in zip(signs, signs[1:]))
    if not poly or poly[-1] != 1 or len(poly) > 4 or changes != 1:
        raise ValueError("need a monic integer polynomial of degree <= 3 with one sign change")
    hi = 1 + max(abs(c) for c in poly)
    poly = poly[next(i for i, c in enumerate(poly) if c):]  # divide out the roots at 0
    # dividing out a root leaves a constant term that divides this one, so
    # its divisors in increasing order, all below hi, are every candidate
    c0 = abs(poly[0])
    small = [r for r in range(1, isqrt(c0) + 1) if c0 % r == 0]
    for r in small + [c0 // r for r in reversed(small) if r * r != c0]:
        if poly[0] % r == 0 and _poly_eval(poly, r) == 0:
            return NumberField([-r, 1], r, r)
        while poly[0] % r == 0 and _poly_eval(poly, -r) == 0:
            # synthetic division by x + r, high degree first
            quot, carry = [], 0
            for c in reversed(poly[1:]):
                carry = c - r * carry
                quot.append(carry)
            poly = quot[::-1]
    return NumberField(poly, 0, hi)
