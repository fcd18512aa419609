"""Neighbor sets of the tile, computed two independent ways.

The closed form lists J pairs of P/Q vectors plus R.  The search
characterizes neighbors as nonzero integer vectors s admitting an infinite
path under s -> M s + (d, 0), |d| <= B-1, inside a certified ball, so pruning
states without successors leaves exactly the representable vectors.

The ball is a parallelogram bounded coordinate by coordinate.  In an integer
basis W close to a multiple of the eigenbasis of M, split a difference series
s = sum_{i>=1} M^{-i} (d_i, 0) after k terms: |W^{-1} s| <= partial_k +
P_k |W^{-1} s'| entrywise, with partial_k the summed absolute value of the
first k terms in the worst case, P_k = |W^{-1} M^{-k} W| and s' another
difference series.  The entrywise supremum U over all series then satisfies
(I - P_k) U <= partial_k, and once (I - P_k)^{-1} >= 0 this gives
U <= (I - P_k)^{-1} partial_k.  As N = B M^{-1} is an integer matrix,
W^{-1} M^{-k} W = adj(W) N^k W / (det W B^k), and every quantity of the
bound is an integer over a known denominator.  The ball is kept as its
rows, one x-interval per y cut by floor division, and the search never
lists its points.  The successors of a state in the ball are one range of
one row, so its successor count is the length of that range; a dead state
has its predecessors in at most two rows, one in each, and trimming takes
one from each of their counts, killing those that reach 0.  No float
enters: W itself is integer, its one irrational entry 2^30 sqrt|A^2 - 4B|
rounded down by ``math.isqrt``, and it is invertible for every pair (see
``certified_series_bound``).  The neighbor-set document is written directly
in the fixed layout that ``json.dumps(..., indent=2, sort_keys=True)``
gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, count
from json.encoder import encode_basestring_ascii

from .numsys import Mat2, TileParams

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

    def json_text(self, reflected: bool) -> str:
        """The neighbor-set document of ``neighbors --format json``, which
        notes whether the input was reflected, in the fixed layout of
        ``json.dumps(doc, indent=2, sort_keys=True)``: every entry is an
        int, and the schema is the one string."""
        members = self.sorted_members()
        items = ("    [\n      %d,\n      %d\n    ],\n" * len(members)) % tuple(
            chain.from_iterable(members)
        )
        listing = f"[\n{items[:-2]}\n  ]" if members else "[]"
        return (
            f'{{\n  "count": {len(members)},\n'
            f'  "j": {"null" if self.j is None else self.j},\n'
            f'  "members": {listing},\n'
            f'  "reflected": {"true" if reflected else "false"},\n'
            f'  "schema": {encode_basestring_ascii("tiletopo/neighbor-set@1")}\n}}'
        )


def neighbor_vectors(params: TileParams, n: int) -> tuple[IntVec, IntVec]:
    """The n-th P/Q pair, n >= 1."""
    a = params.a
    return ((n - (n - 1) * a, -(n - 1)), (-n + n * a, n))


def neighbor_set_formula(params: TileParams) -> NeighborSet:
    """Closed-form neighbor set {±P_1..±P_J, ±Q_1..±Q_J, ±R} of size 2+4J;
    at A = 0 it is the eight unit vectors, with no J."""
    a, b = params.a, params.b
    if a == 0:
        units = {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)} - {(0, 0)}
        return NeighborSet(frozenset(units), None)
    j = max(1, (b - 1) // (b - a + 1))
    halves = [(-a, -1)] + [v for n in range(1, j + 1) for v in neighbor_vectors(params, n)]
    return NeighborSet(frozenset(halves + [(-x, -y) for (x, y) in halves]), j)


def _eigenbasis(a: int, b: int) -> Mat2:
    """M's real Jordan basis at the scale 2^30, as an integer matrix W.
    With D = A^2 - 4B, the columns are 2^31 times ((A + sqrt D)/2, 1) and
    ((A - sqrt D)/2, 1) for D > 0, 2^31 times (A/2, 1) and (sqrt(-D)/2, 0)
    for D < 0, and twice (A/2, 1) and (1, 0) for D = 0, where 2^30 sqrt|D|
    is rounded down to r = isqrt(|D| 2^60).  Any invertible W keeps the
    bound exact; one close to the eigenbasis keeps it small."""
    disc = a * a - 4 * b
    r = math.isqrt(abs(disc) << 60)
    if disc > 0:
        return ((a << 30) + r, (a << 30) - r), (1 << 31, 1 << 31)
    if disc < 0:
        return (a << 30, r), (1 << 31, 0)
    return (a, 2), (2, 0)


def certified_series_bound(params: TileParams) -> tuple[Mat2, int]:
    """Return an integer matrix R and an integer c > 0 such that every
    vector of the form s = sum_{i>=1} M^{-i} (d_i, 0) with |d_i| <= B-1
    satisfies ||R @ s||_inf <= c.  Entirely exact given the integer W.

    The bound is entrywise.  In the basis W, with T^{-1} = W^{-1} M^{-1} W
    and e = W^{-1} (B-1, 0), split a series after k terms:
    |W^{-1} s| <= partial_k + P_k |W^{-1} s'| entrywise, where
    partial_k = sum_{i<=k} |T^{-i} e|, P_k = |T^{-k}| and s' is another
    series of the same kind.  So the entrywise supremum U over all series
    satisfies (I - P_k) U <= partial_k.  Once p_00 < 1 and det(I - P_k) > 0,
    (I - P_k)^{-1} is entrywise nonnegative and U <= u = (I - P_k)^{-1}
    partial_k, so |row_j(W^{-1}) s| <= u_j.

    All of it is integer.  With N = B M^{-1} = [[-A, B], [-1, 0]] and
    F = adj(W), T^{-k} = F N^k W / (det W B^k) and T^{-k} e =
    (B-1) F N^k (1, 0) / (det W B^k).  Over the denominator |det W| B^k,
    I - P_k is Q = |det W| B^k I - |F N^k W| and partial_k is (B-1) S_k with
    S_k = sum_{i<=k} B^(k-i) |F N^i (1, 0)|, so u = (B-1) adj(Q) S_k / det Q.
    Row j's bound |F_j s| det Q <= |det W| (B-1) v_j, v = adj(Q) S_k, is
    brought to one c by multiplying through by the other row's v.

    The loop over k = 1, 2, ... ends for every ``TileParams``.  W is
    invertible: with D = A^2 - 4B and r = isqrt(|D| 2^60) >= 2^30 when
    D != 0, det W is 2^32 r for D > 0, -2^31 r for D < 0 and -4 for D = 0
    (see ``_eigenbasis``), none of them zero.  M is expanding: its
    characteristic polynomial is p(x) = x^2 + A x + B.
    With complex or equal roots, |lambda|^2 = B >= 2.  With distinct real
    roots, both are negative (their sum is -A <= 0 and their product B > 0),
    and p(-1) = 1 - A + B > 0 puts both on the same side of -1; their
    product B >= 2 rules out (-1, 0), so both lie below -1.  So M^{-k} -> 0,
    hence P_k = |W^{-1} M^{-k} W| -> 0 entrywise, Q / (|det W| B^k) = I - P_k
    -> I, and q_00 > 0 and det Q > 0 hold for some k.  Over every pair
    0 <= A <= B <= 400 that k is 1, except (2, 2), which needs k = 2.
    """
    a, b = params.a, params.b
    w = _eigenbasis(a, b)
    (w00, w01), (w10, w11) = w
    det_w = w00 * w11 - w01 * w10
    f = ((w11, -w01), (-w10, w00))  # adj(W)
    (g00, g01), (g10, g11) = w  # N^k W
    nx, ny = 1, 0  # N^k (1, 0)
    s0 = s1 = 0
    scale = abs(det_w)  # |det W| B^k
    for _ in count(1):
        (g00, g01), (g10, g11) = (b * g10 - a * g00, b * g11 - a * g01), (-g00, -g01)
        nx, ny = b * ny - a * nx, -nx
        scale *= b
        s0 = b * s0 + abs(f[0][0] * nx + f[0][1] * ny)
        s1 = b * s1 + abs(f[1][0] * nx + f[1][1] * ny)
        q00 = scale - abs(f[0][0] * g00 + f[0][1] * g10)
        q01 = -abs(f[0][0] * g01 + f[0][1] * g11)
        q10 = -abs(f[1][0] * g00 + f[1][1] * g10)
        q11 = scale - abs(f[1][0] * g01 + f[1][1] * g11)
        det_q = q00 * q11 - q01 * q10
        # for a 2x2 matrix, q_00 > 0 and det Q > 0 make Q^{-1} >= 0
        if q00 > 0 and det_q > 0:
            v0, v1 = q11 * s0 - q01 * s1, q00 * s1 - q10 * s0
            rows = (
                tuple(x * det_q * v1 for x in f[0]),
                tuple(x * det_q * v0 for x in f[1]),
            )
            c = abs(det_w) * (b - 1) * v0 * v1
            g = math.gcd(c, *rows[0], *rows[1])
            return tuple(tuple(x // g for x in row) for row in rows), c // g


def _ball_rows(params: TileParams) -> dict[int, tuple[int, int]]:
    """The certified ball by rows: y -> (lo, hi) for every row y that holds
    an integer point s = (x, y) with ||R @ s||_inf <= c, whose points are
    then the x of lo..hi.  |s| <= c |R^{-1}| entrywise bounds the rows, and
    each row is the x-interval cut out by the slabs, by floor division.  R
    is invertible, so at least one slab cuts x and every row is bounded.  A
    slab with cx = 0 cuts no x: it is a row (0, cy) of R, so r00 = 0 or
    r10 = 0, and then y_max is c // |cy|, the slab's own bound."""
    r, c = certified_series_bound(params)
    (r00, r01), (r10, r11) = r
    y_max = c * (abs(r10) + abs(r00)) // abs(r00 * r11 - r01 * r10)
    # each slab |cx x + cy y| <= c that cuts x, with cx > 0; y_max bounds
    # the one with cx = 0
    (cx, cy), *others = [(cx, cy) if cx > 0 else (-cx, -cy) for cx, cy in r if cx]
    rows = {}
    for y in range(-y_max, y_max + 1):
        lo, hi = -((c + cy * y) // cx), (c - cy * y) // cx
        for dx, dy in others:
            low, high = -((c + dy * y) // dx), (c - dy * y) // dx
            lo, hi = (low if low > lo else lo), (high if high < hi else hi)
        if lo <= hi:
            rows[y] = (lo, hi)
    return rows


def _predecessor_rows(t: int, b: int) -> range:
    """The rows y with |t + B y| <= B - 1: from the ceiling of
    (1 - B - t) / B to the floor of (B - 1 - t) / B, an interval of length
    (2B - 2) / B < 2, so at most two rows."""
    return range(-((t + b - 1) // b), (b - 1 - t) // b + 1)


def neighbor_set_search(params: TileParams) -> NeighborSet:
    """Neighbors as the nonzero states of the trimmed difference graph.

    States outside the certified ball cannot be difference-representable, so
    restricting transitions to the ball and repeatedly deleting states with
    no remaining successor leaves exactly the representable vectors.  The
    search works on the ball's rows {y: (lo, hi)} (``_ball_rows``) and
    decides liveness by counting.  A state (x, y) has Ms = (-B y, x - A y),
    so its successors (Ms)_x + d, |d| <= B - 1, in the ball are the overlap
    of row x - A y with the window -B y +- (B - 1), and its successor count
    is hi - lo + 1 of that overlap, at most 0 when it is empty.  A state
    whose count is at most 0 is dead, and takes one from the count of each
    of its predecessors, which this lemma finds:

        (x, y) has the successor (t, r) exactly when x - A y = r and
        |t + B y| <= B - 1.  So the predecessors of (t, r) in the ball are
        the states (r + A y, y) in the at most two rows y with
        |t + B y| <= B - 1 (``_predecessor_rows``).

    The states left with a positive count are the live ones.  The search
    gives no J; commands print the closed form's.
    """
    a, b = params.a, params.b
    rows = _ball_rows(params)
    counts: dict[int, list[int]] = {}
    dead: list[IntVec] = []
    for y, (lo, hi) in rows.items():
        first, last = -b * y - b + 1, -b * y + b - 1  # the window of (Ms)_x
        row = counts[y] = []
        for x in range(lo, hi + 1):
            t_lo, t_hi = rows.get(x - a * y, (1, 0))  # (1, 0): a row without points
            row.append((t_hi if t_hi < last else last) - (t_lo if t_lo > first else first) + 1)
            if row[-1] <= 0:
                dead.append((x, y))
    while dead:
        t, r = dead.pop()
        for y in _predecessor_rows(t, b):
            lo, hi = rows.get(y, (1, 0))
            x = r + a * y
            if lo <= x <= hi:
                counts[y][x - lo] -= 1
                if not counts[y][x - lo]:
                    dead.append((x, y))
    live = [(lo + i, y) for y, (lo, _) in rows.items() for i, n in enumerate(counts[y]) if n > 0]
    return NeighborSet(frozenset(live) - {(0, 0)}, None)


def reflect_neighbor_set(sset: NeighborSet) -> NeighborSet:
    """Neighbor set of the mirror tile (original input had A < 0)."""
    return NeighborSet(frozenset((x, -y) for (x, y) in sset.members), sset.j)
