"""Exact arithmetic in a real algebraic number field Q(beta).

The field is presented as Q[x] modulo the minimal polynomial of beta, with a
rational isolating interval selecting the intended real root.  Elements are
coefficient vectors; sign determination evaluates the representing polynomial
over the isolating interval with interval arithmetic, bisecting the interval
(a sign test of the minimal polynomial at the midpoint) until the sign is
certain.  No floating point enters any comparison.

``dominant_root_field`` builds the field of a cubic's positive root in exact
arithmetic too: Descartes' rule of signs and integer root tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateFailure


def _poly_trim(c: list[Fraction]) -> tuple[Fraction, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, y in enumerate(b):
            a[k + i] -= f * y
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_eval(c: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _poly_eval_interval(
    c: Sequence[Fraction], lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Interval Horner: encloses {p(x) : lo <= x <= hi}."""
    alo, ahi = Fraction(0), Fraction(0)
    for coef in reversed(c):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + coef, max(cands) + coef
    return alo, ahi


class NumberField:
    """Q(beta) for a fixed real algebraic beta with isolating interval."""

    def __init__(self, minpoly: Sequence[Fraction], lo: Fraction, hi: Fraction):
        mp = _poly_trim([Fraction(c) for c in minpoly])
        if len(mp) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        lead = mp[-1]
        self.minpoly = tuple(c / lead for c in mp)
        self.degree = len(self.minpoly) - 1
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)
        if self.degree == 1:
            root = -self.minpoly[0]
            self._lo = self._hi = root

    # -- element construction ------------------------------------------------

    def element(self, coeffs: Sequence) -> "FieldElement":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            rem = _poly_divmod(vec, list(self.minpoly))[1]
            vec = list(rem)
        vec += [Fraction(0)] * (self.degree - len(vec))
        return FieldElement(self, tuple(vec))

    def rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    def beta(self) -> "FieldElement":
        if self.degree == 1:
            return self.rational(-self.minpoly[0])
        return self.element([0, 1])

    def zero(self) -> "FieldElement":
        return self.rational(0)

    def one(self) -> "FieldElement":
        return self.rational(1)

    # -- root interval -------------------------------------------------------

    def refine_interval(self) -> None:
        """Halve the isolating interval once (exact bisection)."""
        if self._lo == self._hi:
            return
        mid = (self._lo + self._hi) / 2
        fmid = _poly_eval(self.minpoly, mid)
        if fmid == 0:
            # cannot happen for an irreducible minpoly of degree >= 2
            self._lo = self._hi = mid
            return
        flo = _poly_eval(self.minpoly, self._lo)
        if (flo < 0) == (fmid < 0):
            self._lo = mid
        else:
            self._hi = mid

    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def sign_of(self, coeffs: Sequence[Fraction]) -> int:
        vec = _poly_trim(list(coeffs))
        if not vec:
            return 0
        if self.degree == 1:
            v = _poly_eval(vec, self._lo)
            return (v > 0) - (v < 0)
        for _ in range(20000):
            lo, hi = _poly_eval_interval(vec, self._lo, self._hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine_interval()
        raise CertificateFailure("sign determination did not converge")

    def to_float(self, coeffs: Sequence[Fraction], bits: int = 60) -> float:
        if self.degree == 1:
            return float(_poly_eval(list(coeffs), self._lo))
        target = Fraction(1, 2**bits)
        while self._hi - self._lo > target:
            self.refine_interval()
        mid = (self._lo + self._hi) / 2
        return float(_poly_eval(list(coeffs), mid))


@dataclass(frozen=True)
class FieldElement:
    """A value in Q(beta), reduced modulo the minimal polynomial."""

    field: NumberField
    coeffs: tuple[Fraction, ...]

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        prod = _poly_mul(self.coeffs, other.coeffs)
        rem = _poly_divmod(list(prod), list(self.field.minpoly))[1]
        vec = list(rem) + [Fraction(0)] * (self.field.degree - len(rem))
        return FieldElement(self.field, tuple(vec))

    def inverse(self) -> "FieldElement":
        """Extended Euclid against the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        r0, r1 = list(self.field.minpoly), _poly_trim(list(self.coeffs))
        s0: tuple[Fraction, ...] = ()
        s1: tuple[Fraction, ...] = (Fraction(1),)
        while r1:
            q, r = _poly_divmod(r0, r1)
            s = _poly_trim(
                [
                    (s0[i] if i < len(s0) else Fraction(0))
                    - sum(
                        q[j] * s1[i - j]
                        for j in range(len(q))
                        if 0 <= i - j < len(s1)
                    )
                    for i in range(max(len(s0), len(q) + len(s1) - 1))
                ]
            )
            r0, r1 = list(r1), list(r)
            s0, s1 = s1, s
        # r0 is the gcd, a nonzero constant since minpoly is irreducible
        c = r0[0]
        inv = [x / c for x in s0]
        return self.field.element(inv)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        return self.field.sign_of(self.coeffs)

    def __lt__(self, other: "FieldElement") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "FieldElement") -> bool:
        return (self - other).sign() <= 0

    def __float__(self) -> float:
        return self.field.to_float(self.coeffs)

    def as_rational(self) -> Fraction | None:
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
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
    integers dividing the constant term; with the negative ones divided out,
    no rational root is left, so what is left is the minimal polynomial."""
    poly = _poly_trim([Fraction(int(c)) for c in int_coeffs])
    signs = [c > 0 for c in poly if c]
    changes = sum(s != t for s, t in zip(signs, signs[1:]))
    if not poly or poly[-1] != 1 or len(poly) > 4 or changes != 1:
        raise ValueError("need a monic integer polynomial of degree <= 3 with one sign change")
    hi = 1 + max(abs(c) for c in poly)
    poly = poly[next(i for i, c in enumerate(poly) if c):]  # divide out the roots at 0
    for r in range(1, int(hi)):
        if poly[0].numerator % r == 0 and _poly_eval(poly, Fraction(r)) == 0:
            return NumberField([-r, 1], r, r)
        while poly[0].numerator % r == 0 and _poly_eval(poly, Fraction(-r)) == 0:
            poly = _poly_divmod(poly, (Fraction(r), Fraction(1)))[0]
    return NumberField(poly, Fraction(0), hi)
