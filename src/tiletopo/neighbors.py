"""Neighbor sets of the tile, computed two independent ways.

The closed form lists J pairs of P/Q vectors plus R.  The search
characterizes neighbors as nonzero integer vectors s admitting an infinite
path under s -> M s + (d, 0), |d| <= B-1, inside a certified ball: every
difference series sum M^{-i} (d_i, 0) is bounded in an exact conjugated norm,
so pruning states without successors leaves exactly the representable
vectors.  No floating point enters any decision; floats only suggest the
conjugation basis, whose induced bound is then certified with rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .automata import live_nodes
from .errors import CertificateFailure, LengthMismatch, OutOfRange, WrongRegime
from .numsys import Address, DigitWord, TileParams

IntVec = tuple[int, int]


@dataclass(frozen=True)
class NeighborSet:
    """The set of nonzero integer translations s with T meeting T + s."""

    members: frozenset[IntVec]
    j: int | None

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list[IntVec]:
        return sorted(self.members, key=lambda s: (s[1], s[0]))

    def to_json(self) -> dict:
        return {
            "schema": "tiletopo/neighbor-set@1",
            "count": len(self.members),
            "j": self.j,
            "members": [list(s) for s in self.sorted_members()],
        }


def neighbor_vectors(params: TileParams, n: int) -> tuple[IntVec, IntVec]:
    """The n-th P/Q pair, n >= 1."""
    a = params.a
    return ((n - (n - 1) * a, -(n - 1)), (-n + n * a, n))


def neighbor_set_formula(params: TileParams) -> NeighborSet:
    """Closed-form neighbor set {±P_1..±P_J, ±Q_1..±Q_J, ±R} of size 2+4J."""
    if params.a < 0:
        raise OutOfRange("neighbor formula requires A >= 0")
    a, b = params.a, params.b
    j = max(1, (b - 1) // (b - a + 1))
    members: set[IntVec] = set()
    for n in range(1, j + 1):
        p, q = neighbor_vectors(params, n)
        members.update({p, linalg.vec_neg(p), q, linalg.vec_neg(q)})
    r = (-a, -1)
    members.update({r, linalg.vec_neg(r)})
    return NeighborSet(frozenset(members), j)


def _float_conjugation(a: int, b: int) -> linalg.Mat2:
    """A rational basis, close to the eigenbasis of M, in which M^{-1} is
    nearly optimally contracting.  Any invertible choice keeps the bound
    exact; a good choice keeps it small."""
    disc = a * a - 4 * b
    if disc > 0:
        root = math.sqrt(disc)
        col1 = ((a + root) / 2.0, 1.0)
        col2 = ((a - root) / 2.0, 1.0)
    elif disc < 0:
        root = math.sqrt(-disc)
        col1 = (a / 2.0, 1.0)
        col2 = (root / 2.0, 0.0)
    else:
        # double eigenvalue -A/2; generalized eigenvector (1, 0)
        col1 = (a / 2.0, 1.0)
        col2 = (1.0, 0.0)
    approx = lambda x: Fraction(x).limit_denominator(10**4)
    w = ((approx(col1[0]), approx(col2[0])), (approx(col1[1]), approx(col2[1])))
    if linalg.mat_det(w) == 0:
        w = linalg.IDENTITY
    return w


def certified_series_bound(params: TileParams, max_block: int = 120) -> tuple[linalg.Mat2, Fraction]:
    """Return (W_inv, c) such that every vector of the form
    sum_{i>=1} M^{-i} (d_i, 0) with |d_i| <= B-1 satisfies
    ||W_inv @ s||_inf <= c.  Entirely exact given the rational W."""
    w = _float_conjugation(params.a, params.b)
    w_inv = linalg.mat_inv(w)
    t_inv = linalg.mat_mul(w_inv, linalg.mat_mul(params.matrix_inv, w))
    e1 = linalg.mat_vec(w_inv, (Fraction(params.b - 1), Fraction(0)))

    def norm_mat(m):
        return max(abs(m[0][0]) + abs(m[0][1]), abs(m[1][0]) + abs(m[1][1]))

    def norm_vec(v):
        return max(abs(v[0]), abs(v[1]))

    partial = Fraction(0)
    power = linalg.IDENTITY
    for k in range(1, max_block + 1):
        power = linalg.mat_mul(power, t_inv)
        partial += norm_vec(linalg.mat_vec(power, e1))
        rho = norm_mat(power)
        if rho < 1:
            return w_inv, partial / (1 - rho)
    raise CertificateFailure("no contracting power found; matrix not expanding?")


def _candidate_ball(params: TileParams) -> set[IntVec]:
    w_inv, bound = certified_series_bound(params)
    w = linalg.mat_inv(w_inv)
    x_max = math.ceil(float(bound * (abs(w[0][0]) + abs(w[0][1]))))
    y_max = math.ceil(float(bound * (abs(w[1][0]) + abs(w[1][1]))))
    ball: set[IntVec] = set()
    for x in range(-x_max, x_max + 1):
        for y in range(-y_max, y_max + 1):
            t = linalg.mat_vec(w_inv, (x, y))
            if max(abs(t[0]), abs(t[1])) <= bound:
                ball.add((x, y))
    return ball


def neighbor_set_search(params: TileParams) -> NeighborSet:
    """Neighbors as the nonzero states of the trimmed difference graph.

    States outside the certified ball cannot be difference-representable, so
    restricting transitions to the ball and repeatedly deleting states with
    no remaining successor leaves exactly the representable vectors.
    """
    if params.a < 0:
        raise OutOfRange("neighbor search requires A >= 0")
    b = params.b
    m = params.matrix
    ball = _candidate_ball(params)
    succ: dict[IntVec, list[IntVec]] = {}
    for s in ball:
        x, y = linalg.mat_vec(m, s)
        succ[s] = [(x + d, y) for d in range(-(b - 1), b) if (x + d, y) in ball]
    alive = live_nodes(succ)
    alive.discard((0, 0))
    n = len(alive)
    j = (n - 2) // 4 if n >= 2 and (n - 2) % 4 == 0 else None
    return NeighborSet(frozenset(alive), j)


def reflect_neighbor_set(sset: NeighborSet) -> NeighborSet:
    """Neighbor set of the mirror tile (original input had A < 0)."""
    return NeighborSet(frozenset((x, -y) for (x, y) in sset.members), sset.j)


@lru_cache(maxsize=256)
def neighbor_members(params: TileParams) -> frozenset[IntVec]:
    """Cached membership set of the closed-form neighbor set."""
    return neighbor_set_formula(params).members


@lru_cache(maxsize=64)
def candidate_ball(params: TileParams) -> frozenset[IntVec]:
    """Cached certified ball of difference-representable integer vectors."""
    return frozenset(_candidate_ball(params))


def subdivision_diff(u: DigitWord, v: DigitWord, params: TileParams) -> IntVec:
    """The integer vector sum_i M^(m-i) (u_i - v_i, 0) separating two
    depth-m cylinders."""
    if len(u) != len(v):
        raise LengthMismatch(f"|u|={len(u)} != |v|={len(v)}")
    m = params.matrix
    s: linalg.Vec2 = (0, 0)
    for du, dv in zip(u, v):
        params.check_digit(du)
        params.check_digit(dv)
        s = linalg.mat_vec(m, s)
        s = (s[0] + du - dv, s[1])
    return s


def subdivision_intersects(u: DigitWord, v: DigitWord, params: TileParams) -> bool:
    """Decide T_u meets T_v: the separating vector must be 0 or a neighbor."""
    s = subdivision_diff(u, v, params)
    if s == (0, 0):
        return True
    return s in neighbor_members(params)


def adjacent_singleton_point(
    u: DigitWord, v: DigitWord, params: TileParams
) -> tuple[Address, Address] | None:
    """For 2A-B=3 and |u|=|v|=3 with difference pattern (1, A-2, -1), the two
    addresses of the single point shared by T_u and T_v."""
    if 2 * params.a - params.b != 3:
        raise WrongRegime("requires 2A - B = 3")
    if len(u) != 3 or len(v) != 3:
        raise LengthMismatch("digit words must have length 3")
    a, b = params.a, params.b
    diffs = tuple(x - y for x, y in zip(u, v))
    if diffs != (1, a - 2, -1):
        return None
    left = Address((), u, (0, b - 1))
    right = Address((), v, (b - 1, 0))
    return (left, right)
