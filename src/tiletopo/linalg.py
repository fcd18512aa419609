"""Small exact linear algebra helpers on 2x2 matrices and 2-vectors.

Matrices are tuples of row tuples, vectors plain 2-tuples.  Entries may be
ints or Fractions; all operations stay exact.
"""

from __future__ import annotations

from fractions import Fraction

Mat2 = tuple[tuple, tuple]
Vec2 = tuple

IDENTITY: Mat2 = ((1, 0), (0, 1))


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_vec(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_sub(m: Mat2, n: Mat2) -> Mat2:
    return (
        (m[0][0] - n[0][0], m[0][1] - n[0][1]),
        (m[1][0] - n[1][0], m[1][1] - n[1][1]),
    )


def mat_det(m: Mat2):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inv(m: Mat2) -> Mat2:
    d = mat_det(m)
    if d == 0:
        raise ZeroDivisionError("singular 2x2 matrix")
    d = Fraction(d)
    return (
        (m[1][1] / d, -m[0][1] / d),
        (-m[1][0] / d, m[0][0] / d),
    )


def mat_pow(m: Mat2, k: int) -> Mat2:
    if k < 0:
        return mat_pow(mat_inv(m), -k)
    out: Mat2 = IDENTITY
    base = m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def solve2(m: Mat2, rhs: Vec2) -> Vec2:
    """Solve m @ x = rhs exactly."""
    d = mat_det(m)
    if d == 0:
        raise ZeroDivisionError("singular system")
    d = Fraction(d)
    x = (m[1][1] * rhs[0] - m[0][1] * rhs[1]) / d
    y = (-m[1][0] * rhs[0] + m[0][0] * rhs[1]) / d
    return (x, y)


def vec_neg(u: Vec2) -> Vec2:
    return (-u[0], -u[1])
