"""Topological classification and cut-point certificates.

The trichotomy is decided by thresholds on 2A - B.  In the cut-point regime
(2A - B >= 5) the tile splits into two halves D1, D2 cut out by an
alternating lexicographic comparison of the digits against the constant
(A-3); their intersection is decided by the one D1 x D2 product automaton
and certified to be the single point 0.(A-3)(B-A+2)bar, whose expansion
alternates the comparison digit with its flip.  The middle cylinders around
the point are the prefixes of that expansion, so the point's membership in
them is read off its digits rather than decided by further products.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .automata import (
    UNIQUE_POINT,
    DigitDFA,
    IntersectionAutomaton,
    ProductMoves,
    product_intersection,
)
from .errors import CertificateFailure, OutOfRange, WrongRegime
from .neighbors import neighbor_set_formula, subdivision_diff
from .numsys import Address, RationalPoint, TileParams, alt_flip, point_eval


class Classification(Enum):
    DISK_LIKE = "DiskLike"
    NO_CUT_POINT_INTERIOR_DISCONNECTED = "NoCutPointInteriorDisconnected"
    HAS_CUT_POINT = "HasCutPoint"
    DEGENERATE_RECTANGLE = "DegenerateRectangle"
    SQUARE_SPECIAL_CASE = "SquareSpecialCase"


def classify(params: TileParams) -> Classification:
    """Trichotomy on 2A - B, with the two degenerate flags."""
    a, b = params.a, params.b
    if a == 0:
        return Classification.DEGENERATE_RECTANGLE
    if a == 4 and b == 4:
        return Classification.SQUARE_SPECIAL_CASE
    d = 2 * a - b
    if d <= 2:
        return Classification.DISK_LIKE
    if d in (3, 4):
        return Classification.NO_CUT_POINT_INTERIOR_DISCONNECTED
    return Classification.HAS_CUT_POINT


def cut_point_address(params: TileParams) -> Address:
    """The certified cut point 0.(A-3)(B-A+2)(A-3)(B-A+2)..., canonical."""
    a, b = params.a, params.b
    if 2 * a - b < 5:
        raise WrongRegime(f"cut point address requires 2A - B >= 5 for (A,B)=({a},{b})")
    lo = params.a - 3
    hi = params.b - params.a + 2
    return Address((), (), (lo, hi))


TIGHT_EVEN = "TightEven"
TIGHT_ODD = "TightOdd"
FREE = "Free"


def build_d1_d2(params: TileParams) -> tuple[DigitDFA, DigitDFA]:
    """The halves as three-state automata comparing digits alternately
    against A-3: D1 accepts the expansions lexicographically below the
    alternating threshold word, D2 those above it.  All states accept;
    rejection is the absence of a transition."""
    a, b = params.a, params.b
    if 2 * a - b < 5:
        raise WrongRegime(f"halves require 2A - B >= 5 for (A,B)=({a},{b})")
    even = a - 3  # compare digit at even positions (0-based)
    odd = b - a + 2  # flipped comparison at odd positions

    def automaton(side: str) -> DigitDFA:
        trans: dict = {TIGHT_EVEN: {}, TIGHT_ODD: {}, FREE: {}}
        for d in range(b):
            trans[FREE][d] = FREE
            if d == even:
                trans[TIGHT_EVEN][d] = TIGHT_ODD
            elif (d < even) == (side == "<="):
                trans[TIGHT_EVEN][d] = FREE
            if d == odd:
                trans[TIGHT_ODD][d] = TIGHT_EVEN
            elif (d > odd) == (side == "<="):
                trans[TIGHT_ODD][d] = FREE
        return DigitDFA(TIGHT_EVEN, trans)

    return automaton("<="), automaton(">=")


def union_is_universal(d1: DigitDFA, d2: DigitDFA, params: TileParams) -> bool:
    """Every digit sequence must fall in at least one half: the synchronized
    pair (state1, state2) never reaches (dead, dead), a dead half being None."""
    seen = {(d1.initial, d2.initial)}
    frontier = [(d1.initial, d2.initial)]
    while frontier:
        q1, q2 = frontier.pop()
        row1, row2 = d1.trans.get(q1, {}), d2.trans.get(q2, {})
        for d in params.digits:
            n1, n2 = row1.get(d), row2.get(d)
            if n1 is None and n2 is None:
                return False
            if (n1, n2) not in seen:
                seen.add((n1, n2))
                frontier.append((n1, n2))
    return True


@dataclass
class CutPointCertificate:
    params: TileParams
    address: Address
    value: RationalPoint
    automaton: IntersectionAutomaton
    shrinking_depth: int

    def to_json(self) -> dict:
        return {
            "schema": "tiletopo/cut-point-certificate@1",
            "params": {"A": self.params.a, "B": self.params.b},
            "address": str(self.address),
            "value": [str(self.value[0]), str(self.value[1])],
            "automaton": self.automaton.to_json(),
            "shrinking_depth": self.shrinking_depth,
        }


def verify_cut_point(params: TileParams, depth: int = 12) -> CutPointCertificate:
    """Certify that the two halves meet in exactly the claimed point.

    Also replays the inductive containment of the intersection in the union
    of three shrinking cylinders: at every level n <= depth, every cylinder
    pair still reachable in the live product is drawn from the three words
    around the point, and the adjacency structure of the three words
    matches the subdivision criterion (the two side words touch the middle
    one but not each other).  The middle word is the point's own expansion
    cut to n + 1 digits, so the point lies in the middle cylinder without a
    check.  The D1 x D2 product is the only product built.
    """
    a, b = params.a, params.b
    where = f"(A,B)=({a},{b})"
    if depth < 0:
        raise OutOfRange(f"shrinking depth must be >= 0, got {depth} for {where}")
    if 2 * a - b < 5:
        raise WrongRegime(f"cut point certificates require 2A - B >= 5 for {where}")
    d1, d2 = build_d1_d2(params)
    if not union_is_universal(d1, d2, params):
        raise CertificateFailure(f"the two halves do not cover the digit space for {where}")
    members = neighbor_set_formula(params).members
    res = product_intersection(d1, d2, ProductMoves(members, params))
    if res.kind != UNIQUE_POINT:
        raise CertificateFailure(f"halves intersect with kind {res.kind} for {where}")
    addr = cut_point_address(params)
    value = point_eval(addr, params)
    if res.points[0] != value:
        raise CertificateFailure(f"intersection value differs from the formula for {where}")

    # two cylinders meet exactly when their separating vector is 0 or a
    # neighbor
    touching = members | {(0, 0)}
    # the point is UNIQUE_POINT's one run, so the initial state is live
    frontier: dict = {(res.initial, (), ()): None}
    for n in range(depth + 1):
        prefix = tuple(alt_flip(i, a - 3, params) for i in range(n))
        lo_word = prefix + (alt_flip(n, a - 4, params),)
        mid_word = prefix + (alt_flip(n, a - 3, params),)
        hi_word = prefix + (alt_flip(n, a - 2, params),)
        level = (lo_word, mid_word, hi_word)
        nxt: dict = {}
        for (node, u, v) in frontier:
            for (x, y, t) in res.transitions.get(node, []):
                if t in res.live:
                    nxt[(t, u + (x,), v + (y,))] = None
        frontier = nxt
        for (_, u, v) in frontier:
            if u not in level or v not in level:
                raise CertificateFailure(
                    f"live cylinder pair ({u}, {v}) escapes level {n} for {where}"
                )
        for side in (lo_word, hi_word):
            if subdivision_diff(side, mid_word, params) not in touching:
                raise CertificateFailure(
                    f"side cylinder {side} loses contact with the middle one for {where}"
                )
        if subdivision_diff(lo_word, hi_word, params) in touching:
            raise CertificateFailure(f"outer cylinders must not touch each other for {where}")
    return CutPointCertificate(params, addr, value, res, depth)
