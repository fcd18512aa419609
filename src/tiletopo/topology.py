"""Topological classification and cut-point certificates.

The trichotomy is decided by thresholds on 2A - B.  In the cut-point regime
(2A - B >= 5) the tile splits into two halves D1, D2 cut out by an
alternating lexicographic comparison of the digits against the constant
(A-3); their intersection is decided by the product automaton and certified
to be the single point 0.(A-3)(B-A+2)bar, whose expansion alternates the
comparison digit with its flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .automata import (
    EMPTY,
    UNIQUE_POINT,
    DigitDFA,
    IntersectionAutomaton,
    nfa_cylinder,
    nfa_single_address,
    product_intersection,
)
from .errors import CertificateFailure, WrongRegime
from .neighbors import neighbor_set_formula, subdivision_intersects
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
    if 2 * params.a - params.b < 5:
        raise WrongRegime("cut point address requires 2A - B >= 5")
    lo = params.a - 3
    hi = params.b - params.a + 2
    return Address((), (), (lo, hi))


@dataclass(frozen=True)
class LexGifs:
    """Three-state automaton comparing digits alternately against A-3.

    side "<=" accepts expansions lexicographically below the alternating
    threshold word (the lower half D1), side ">=" the upper half D2.
    All states accept; rejection is the absence of a transition.
    """

    side: str
    threshold_even: int
    threshold_odd: int
    nfa: DigitDFA


TIGHT_EVEN = "TightEven"
TIGHT_ODD = "TightOdd"
FREE = "Free"


def build_d1_d2(params: TileParams) -> tuple[LexGifs, LexGifs]:
    if 2 * params.a - params.b < 5:
        raise WrongRegime("halves are defined for 2A - B >= 5")
    a, b = params.a, params.b
    even = a - 3  # compare digit at even positions (0-based)
    odd = b - a + 2  # flipped comparison at odd positions

    def automaton(side: str) -> DigitDFA:
        trans: dict = {TIGHT_EVEN: {}, TIGHT_ODD: {}, FREE: {}}
        for d in range(b):
            trans[FREE][d] = (FREE,)
            if d == even:
                trans[TIGHT_EVEN][d] = (TIGHT_ODD,)
            elif (d < even) == (side == "<="):
                trans[TIGHT_EVEN][d] = (FREE,)
            if d == odd:
                trans[TIGHT_ODD][d] = (TIGHT_EVEN,)
            elif (d > odd) == (side == "<="):
                trans[TIGHT_ODD][d] = (FREE,)
        return DigitDFA((TIGHT_EVEN,), trans)

    d1 = LexGifs("<=", even, odd, automaton("<="))
    d2 = LexGifs(">=", even, odd, automaton(">="))
    return d1, d2


def union_is_universal(d1: LexGifs, d2: LexGifs, params: TileParams) -> bool:
    """Every digit sequence must fall in at least one half: the synchronized
    pair (state1, state2) never reaches (dead, dead)."""
    dead = "DEAD"
    seen = {(TIGHT_EVEN, TIGHT_EVEN)}
    frontier = [(TIGHT_EVEN, TIGHT_EVEN)]
    while frontier:
        q1, q2 = frontier.pop()
        for d in params.digits:
            n1 = d1.nfa.successors(q1, d)[0] if q1 != dead and d1.nfa.successors(q1, d) else dead
            n2 = d2.nfa.successors(q2, d)[0] if q2 != dead and d2.nfa.successors(q2, d) else dead
            if n1 == dead and n2 == dead:
                return False
            if (n1, n2) not in seen:
                seen.add((n1, n2))
                frontier.append((n1, n2))
    return True


def intersect_languages(
    l1: DigitDFA | LexGifs,
    l2: DigitDFA | LexGifs,
    params: TileParams,
    initial_diff: tuple[int, int] = (0, 0),
) -> IntersectionAutomaton:
    """Product with difference-state tracking over the neighbor set."""
    nfa1 = l1.nfa if isinstance(l1, LexGifs) else l1
    nfa2 = l2.nfa if isinstance(l2, LexGifs) else l2
    sset = neighbor_set_formula(params).members
    return product_intersection(nfa1, nfa2, sset, params, initial_diff)


def address_in_cylinder(addr: Address, word: tuple[int, ...], params: TileParams) -> bool:
    """Exact membership of the point of ``addr`` in the subdivision piece
    T_word: some expansion of the same value starts with the word."""
    res = intersect_languages(
        nfa_cylinder(word, params.b), nfa_single_address(addr), params
    )
    return res.kind != EMPTY


@dataclass
class CutPointCertificate:
    params: TileParams
    address: Address
    value: RationalPoint
    automaton: IntersectionAutomaton
    shrinking_depth: int
    shrinking_words: list[tuple[tuple[int, ...], ...]] = field(default_factory=list)

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
    around the point, the point's own membership in the middle cylinder is
    confirmed through the automaton, and the adjacency structure of the
    three words matches the subdivision criterion (the two side words touch
    the middle one but not each other).
    """
    if 2 * params.a - params.b < 5:
        raise WrongRegime("cut point certificates require 2A - B >= 5")
    a, b = params.a, params.b
    d1, d2 = build_d1_d2(params)
    if not union_is_universal(d1, d2, params):
        raise CertificateFailure("the two halves do not cover the digit space")
    res = intersect_languages(d1, d2, params)
    if res.kind != UNIQUE_POINT:
        raise CertificateFailure(f"halves intersect with kind {res.kind}")
    addr = cut_point_address(params)
    value = point_eval(addr, params)
    if res.points[0] != value:
        raise CertificateFailure("intersection value differs from the formula")

    words: list[tuple[tuple[int, ...], ...]] = []
    frontier: dict = {}
    for init in res.initials:
        if init in res.live:
            frontier[(init, (), ())] = None
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
                    f"live cylinder pair ({u}, {v}) escapes level {n}"
                )
        if not address_in_cylinder(addr, mid_word, params):
            raise CertificateFailure(
                f"cut point escapes its middle cylinder at depth {n}"
            )
        for side in (lo_word, hi_word):
            if not subdivision_intersects(side, mid_word, params):
                raise CertificateFailure(
                    f"side cylinder {side} loses contact with the middle one"
                )
        if subdivision_intersects(lo_word, hi_word, params):
            raise CertificateFailure(
                "outer cylinders must not touch each other"
            )
        words.append(level)
    return CutPointCertificate(params, addr, value, res, depth, words)


def product_prefix_agreement(params: TileParams, depth: int = 4) -> bool:
    """Cross-check: reachable prefix pairs of the D1 x D2 product coincide
    with the pairs surviving the subdivision-difference pruning.

    Reachability, not liveness: a pair of intersecting cylinders need not
    contain a point of D1 n D2, but it must correspond to a difference path
    inside the neighbor ball, and conversely.
    """
    d1, d2 = build_d1_d2(params)
    res = intersect_languages(d1, d2, params)
    from_product: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def walk(node, u, v):
        if len(u) == depth:
            from_product.add((u, v))
            return
        for (x, y, t) in res.transitions.get(node, []):
            walk(t, u + (x,), v + (y,))

    for init in res.initials:
        walk(init, (), ())

    # independent enumeration: prefix pairs of the two halves whose running
    # difference stays inside the certified ball (anything escaping the ball
    # is unrepresentable and, by depth monotonicity, never comes back)
    from .neighbors import candidate_ball
    from . import linalg

    ball = candidate_ball(params)
    m = params.matrix
    brute: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def crawl(q1, q2, diff, u, v):
        if len(u) == depth:
            if subdivision_intersects(u, v, params):
                brute.add((u, v))
            return
        for x in params.digits:
            t1 = d1.nfa.successors(q1, x)
            if not t1:
                continue
            md = linalg.mat_vec(m, diff)
            for y in params.digits:
                t2 = d2.nfa.successors(q2, y)
                if not t2:
                    continue
                nd = (md[0] + x - y, md[1])
                if nd in ball:
                    crawl(t1[0], t2[0], nd, u + (x,), v + (y,))

    crawl(TIGHT_EVEN, TIGHT_EVEN, (0, 0), (), ())
    return brute == from_product
