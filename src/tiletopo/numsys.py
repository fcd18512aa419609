"""Exact arithmetic for the planar matrix number system with collinear digits.

A parameter pair (A, B) with 0 <= A <= B and B >= 2 fixes the companion
matrix M = [[0, -B], [1, -A]] and the digit set {(a, 0) : 0 <= a < B}.  A
radix expansion  d_{-l} ... d_0 . a_1 a_2 ...  denotes the plane point
sum_i M^{-i} (a_i, 0).  Eventually periodic expansions evaluate to exact
rational points: the periodic tail is the unique solution of a linear system
against M^p - I, which is invertible because M is expanding.

Inside the package an exact point is an integer triple (x, y, den), the point
(x/den, y/den) with den > 0: B*M^{-1} = adj(M) is an integer matrix, so the
contractions f_a(p) = M^{-1}(p + (a, 0)) keep a point integer over a
denominator.  Fractions are built only for the public results that hold
them: ``point_eval``, ``apply_contraction`` and the ``normalize`` record.

Arbitrary integer instances (M0, v) are reduced to this companion form by a
recorded change of basis, and negative trace parameters by an additional
reflection and translation, so that all topological questions are answered on
the normalized pair.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadDeterminant, CertificateFailure, DegenerateBasis, NotExpanding

Digit = int
DigitWord = tuple[int, ...]
RationalPoint = tuple[Fraction, Fraction]
Mat2 = tuple[tuple[int, int], tuple[int, int]]
Triple = tuple[int, int, int]  # the point (x/den, y/den), den > 0


@dataclass(frozen=True)
class TileParams:
    """Normalized parameter pair (a, b) plus a flag recording an input reflection.

    Invariants: b >= 2 and 0 <= a <= b.  The companion matrix and digit set
    are derived properties, never stored.
    """

    a: int
    b: int
    reflected: bool = False

    def __post_init__(self) -> None:
        if self.b < 2:
            raise BadDeterminant(f"need B >= 2, got B={self.b}")
        if not 0 <= self.a <= self.b:
            raise NotExpanding(f"need 0 <= A <= B, got A={self.a}, B={self.b}")

    @property
    def matrix(self) -> Mat2:
        return ((0, -self.b), (1, -self.a))

    @property
    def digits(self) -> range:
        return range(self.b)

    def check_digit(self, d: int) -> None:
        if not 0 <= d < self.b:
            raise ValueError(f"digit {d} out of range for B={self.b}")


@dataclass(frozen=True)
class RawInstance:
    """An arbitrary integer matrix M0 with char poly x^2+Ax+B and digit spread v."""

    m0: Mat2
    v: tuple[int, int]

    @property
    def trace(self) -> int:
        return self.m0[0][0] + self.m0[1][1]

    @property
    def det(self) -> int:
        (p, q), (r, s) = self.m0
        return p * s - q * r

    def char_pair(self) -> tuple[int, int]:
        """Return (A, B) with char poly x^2 + A x + B."""
        return (-self.trace, self.det)

    def validate(self) -> None:
        a, b = self.char_pair()
        if b < 2:
            raise BadDeterminant(f"det(M0) = {b} < 2 is unsupported")
        if abs(a) > b:
            raise NotExpanding(f"|A| = {abs(a)} > B = {b}: matrix is not expanding")
        m0v = _mat_vec(self.m0, self.v)
        if self.v[0] * m0v[1] - self.v[1] * m0v[0] == 0:
            raise DegenerateBasis("v and M0*v are linearly dependent")


@dataclass(frozen=True)
class AffineNormalization:
    """Record of the affinity mapping companion-form tile data onto the raw input.

    The raw tile is basis_change @ (reflection @ T_normalized + translation);
    reflection is the identity unless the input trace had the opposite sign.
    """

    basis_change: Mat2
    reflection: Mat2
    translation: RationalPoint


REFLECTION_P: Mat2 = ((1, 0), (0, -1))


def _mat_vec(m: Mat2, v: tuple[int, int]) -> tuple[int, int]:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def normalize(raw: RawInstance) -> tuple[TileParams, AffineNormalization]:
    """Reduce an arbitrary instance to normalized (A, B) with the affinity record.

    The change of basis C = [v | M0 v] always conjugates M0 to companion form;
    this is checked in integers as M0 C = C [[0, -B], [1, -A]], with no
    inverse.  When the instance has A < 0, the parameters are mapped to
    (-A, B) and the recorded reflection/translation relate the two companion
    tiles; the translation solves (M2^2 - I) y = M2 (B-1, 0)^T where M2 is
    the companion matrix of the un-reflected input.
    """
    raw.validate()
    a, b = raw.char_pair()
    v = raw.v
    m0v = _mat_vec(raw.m0, v)
    basis = ((v[0], m0v[0]), (v[1], m0v[1]))
    # the first columns of M0 C and C companion are both M0 v
    if _mat_vec(raw.m0, m0v) != (-b * v[0] - a * m0v[0], -b * v[1] - a * m0v[1]):
        raise CertificateFailure("basis change must yield companion form")

    if a >= 0:
        params = TileParams(a, b, reflected=False)
        record = AffineNormalization(basis, ((1, 0), (0, 1)), (Fraction(0), Fraction(0)))
        return params, record

    # a < 0: reflect.  M2 = [[0,-B],[1,-a]] is the companion matrix of the
    # input, so M2^2 - I = [[-B-1, aB], [-a, a^2-B-1]] and M2 (B-1, 0) =
    # (0, B-1); Cramer's rule solves it over the determinant
    (l00, l01), (l10, l11) = (-b - 1, a * b), (-a, a * a - b - 1)
    det = l00 * l11 - l01 * l10
    translation = (Fraction(-l01 * (b - 1), det), Fraction(l00 * (b - 1), det))
    params = TileParams(-a, b, reflected=True)
    record = AffineNormalization(basis, REFLECTION_P, translation)
    return params, record


def _primitive(word: DigitWord) -> DigitWord:
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


@dataclass(frozen=True)
class Address:
    """Eventually periodic radix expansion: integer_part . preperiod (period).

    Canonical form is established on construction: the period is primitive,
    the preperiod never ends with a digit that could be rotated into the
    period, and the integer part carries no leading zeros.  Two canonical
    addresses may still denote one point; value equality via point_eval is
    the authoritative test.
    """

    integer_part: DigitWord = ()
    preperiod: DigitWord = ()
    period: DigitWord = (0,)

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        for d in self.integer_part + self.preperiod + self.period:
            if d < 0:
                raise ValueError("digits must be nonnegative")
        ip = self.integer_part
        while ip and ip[0] == 0:
            ip = ip[1:]
        pre = self.preperiod
        per = _primitive(self.period)
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "integer_part", ip)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def max_digit(self) -> int:
        return max(self.integer_part + self.preperiod + self.period)

    def __str__(self) -> str:
        return format_address(self)


def _fmt_word(word: DigitWord, bracket: bool) -> str:
    if bracket:
        return "[" + ",".join(str(d) for d in word) + "]"
    return "".join(str(d) for d in word)


def format_address(addr: Address) -> str:
    """Render in the CLI text syntax, e.g. ``440(04)`` or ``[4,4,0]([0,4])``.

    The bracketed comma form is used as soon as any digit exceeds 9.
    """
    bracket = addr.max_digit() > 9
    out = ""
    if addr.integer_part:
        out += _fmt_word(addr.integer_part, bracket) + "."
    out += _fmt_word(addr.preperiod, bracket)
    out += "(" + _fmt_word(addr.period, bracket) + ")"
    return out


_BRACKET_RE = re.compile(r"\[([0-9,\s]*)\]")


def _parse_word(text: str) -> DigitWord:
    text = text.strip()
    if not text:
        return ()
    if text.startswith("["):
        m = _BRACKET_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"malformed digit word {text!r}")
        body = m.group(1).strip()
        if not body:
            return ()
        return tuple(int(part) for part in body.split(","))
    if not text.isdigit():
        raise ValueError(f"malformed digit word {text!r}")
    return tuple(int(ch) for ch in text)


def parse_address(text: str) -> Address:
    """Parse the text syntax: optional integer part and dot, preperiod digits,
    then a parenthesized period.  A missing period means a terminating
    expansion, i.e. period (0)."""
    text = text.strip()
    integer: DigitWord = ()
    if "." in text:
        head, text = text.split(".", 1)
        integer = _parse_word(head)
    if "(" in text:
        if not text.endswith(")"):
            raise ValueError("unterminated period group")
        pre_text, per_text = text[:-1].split("(", 1)
        pre = _parse_word(pre_text)
        per = _parse_word(per_text)
        if not per:
            raise ValueError("empty period group")
    else:
        pre = _parse_word(text)
        per = (0,)
    return Address(integer, pre, per)


def _reduced(p: Triple) -> Triple:
    """The triple in lowest terms, gcd(x, y, den) = 1; den > 0 stays so."""
    g = math.gcd(*p)
    return (p[0] // g, p[1] // g, p[2] // g)


def _contract(digit: int, p: Triple, params: TileParams) -> Triple:
    """f_digit(p) = M^-1 (p + (digit, 0)) on a triple: adj(M) (x + digit den, y)
    over B den, with adj(M) = B M^-1 = [[-A, B], [-1, 0]].  The result is not
    reduced."""
    x, y, den = p
    x += digit * den
    return (params.b * y - params.a * x, -x, params.b * den)


def periodic_tail_scaled(period: DigitWord, params: TileParams) -> Triple:
    """The purely periodic expansion 0.(period) as (x, y, d): the point
    (x/d, y/d) with integers x, y and d > 0 and gcd(x, y, d) = 1.

    Solves (M^p - I) x = sum_i M^(p-i) (c_i, 0) by the adjugate of the
    integer matrix M^p - I.  Its determinant is the product of lambda^p - 1
    over the eigenvalues of M, which are a conjugate pair or, as A >= 0, two
    negative reals below -1; either way it is positive.
    """
    a, b = params.a, params.b
    rx, ry = 0, 0
    cx, cy = 1, 0  # M^k (1, 0)
    for d in period:
        rx, ry = -b * ry + d, rx - a * ry
        cx, cy = -b * cy, cx - a * cy
    # M^p (0, 1) = M^(p+1) (1, 0), as M (1, 0) = (0, 1)
    (l00, l01), (l10, l11) = (cx - 1, -b * cy), (cy, cx - a * cy - 1)
    det = l00 * l11 - l01 * l10
    return _reduced((l11 * rx - l01 * ry, l00 * ry - l10 * rx, det))


def point_eval(addr: Address, params: TileParams) -> RationalPoint:
    """Exact rational value of an eventually periodic address.

    Runs on integers: the periodic tail is the triple (x, y, den) from
    ``periodic_tail_scaled``, and each preperiod digit d, last to first,
    applies f_d to it.  The integer part is a lattice point; the two
    Fractions are built once, at the end.
    """
    for d in addr.integer_part + addr.preperiod + addr.period:
        params.check_digit(d)
    a, b = params.a, params.b
    ix, iy = 0, 0
    for d in addr.integer_part:
        ix, iy = -b * iy + d, ix - a * iy
    point = periodic_tail_scaled(addr.period, params)
    for d in reversed(addr.preperiod):
        point = _contract(d, point, params)
    x, y, den = point
    return (Fraction(ix * den + x, den), Fraction(iy * den + y, den))


def flip(addr: Address, params: TileParams) -> Address:
    """Exchange every digit a with B-1-a (canonical form restored)."""
    top = params.b - 1
    return Address(
        tuple(top - d for d in addr.integer_part),
        tuple(top - d for d in addr.preperiod),
        tuple(top - d for d in addr.period),
    )


def alt_flip(n: int, a: int, params: TileParams) -> int:
    """Digit a itself at even n, its flip B-1-a at odd n."""
    params.check_digit(a)
    return a if n % 2 == 0 else params.b - 1 - a


def apply_contraction(a: int, p: RationalPoint, params: TileParams) -> RationalPoint:
    """f_a(p) = M^{-1}(p + (a, 0)), exactly."""
    params.check_digit(a)
    den = math.lcm(p[0].denominator, p[1].denominator)
    x, y, den = _contract(a, (int(p[0] * den), int(p[1] * den), den), params)
    return (Fraction(x, den), Fraction(y, den))
