"""Constructions and cross-checks that only the tests use.

The package keeps what a command or the documented library reaches; the
helpers here build test languages, evaluate addresses another way, and
cross-check the certificates.  pytest does not collect this module (its name
has no ``test_`` prefix); the tests import it as ``reference``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from tiletopo import linalg
from tiletopo.automata import (
    DigitDFA,
    DigitNFA,
    IntersectionAutomaton,
    State,
    live_nodes,
    product_intersection,
)
from tiletopo.chains import ChainReport, ChainSetup, circular_chain_report
from tiletopo.errors import ChainViolation, LengthMismatch, WrongRegime
from tiletopo.neighbors import (
    IntVec,
    _candidate_ball,
    neighbor_set_formula,
    subdivision_intersects,
)
from tiletopo.numsys import (
    Address,
    DigitWord,
    RationalPoint,
    TileParams,
    periodic_tail_scaled,
)
from tiletopo.topology import TIGHT_EVEN, build_d1_d2


# ---------------------------------------------------------------------------
# digit languages


def nfa_full(b: int) -> DigitDFA:
    """All digit sequences."""
    return DigitDFA(("*",), {"*": {d: ("*",) for d in range(b)}})


def nfa_cylinder(word: tuple[int, ...], b: int) -> DigitDFA:
    """Sequences starting with the given word, anything afterwards."""
    trans: dict[State, dict[int, tuple[State, ...]]] = {}
    for i, d in enumerate(word):
        trans[("p", i)] = {d: (("p", i + 1) if i + 1 < len(word) else "*",)}
    trans["*"] = {d: ("*",) for d in range(b)}
    start: State = ("p", 0) if word else "*"
    return DigitDFA((start,), trans)


def nfa_single_address(addr: Address) -> DigitDFA:
    """Exactly the one eventually periodic digit sequence of the address."""
    if addr.integer_part:
        raise ValueError("only fractional addresses describe digit sequences")
    pre, per = addr.preperiod, addr.period
    trans: dict[State, dict[int, tuple[State, ...]]] = {}
    for i, d in enumerate(pre):
        nxt: State = ("pre", i + 1) if i + 1 < len(pre) else ("per", 0)
        trans[("pre", i)] = {d: (nxt,)}
    for i, d in enumerate(per):
        trans[("per", i)] = {d: (("per", (i + 1) % len(per)),)}
    start: State = ("pre", 0) if pre else ("per", 0)
    return DigitDFA((start,), trans)


def nfa_prefixes(nfa: DigitNFA, depth: int) -> set[tuple[int, ...]]:
    """All digit words of the given length extendable to an infinite run."""
    live = live_nodes(
        {q: [t for targets in row.values() for t in targets] for q, row in nfa.trans.items()}
    )
    out: set[tuple[int, ...]] = set()

    def rec(states: frozenset, word: tuple[int, ...]) -> None:
        if len(word) == depth:
            out.add(word)
            return
        digits = sorted({d for q in states for d in nfa.trans.get(q, {})})
        for d in digits:
            nxt = frozenset(
                t for q in states for t in nfa.successors(q, d) if t in live
            )
            if nxt:
                rec(nxt, word + (d,))

    start = frozenset(q for q in nfa.initials if q in live)
    if start:
        rec(start, ())
    return out


# ---------------------------------------------------------------------------
# addresses


def periodic_tail_value(period: DigitWord, params: TileParams) -> RationalPoint:
    """Exact value of the purely periodic expansion 0.(period)."""
    x, y, d = periodic_tail_scaled(period, params)
    return (Fraction(x, d), Fraction(y, d))


def prepend_digits(word: DigitWord, addr: Address) -> Address:
    """Address of 0.w a1 a2 ... given the address of 0.a1 a2 ...

    Only valid for purely fractional addresses.
    """
    if addr.integer_part:
        raise ValueError("cannot prepend to an address with an integer part")
    return Address((), word + addr.preperiod, addr.period)


# ---------------------------------------------------------------------------
# neighbors


@lru_cache(maxsize=64)
def candidate_ball(params: TileParams) -> frozenset[IntVec]:
    """Cached certified ball of difference-representable integer vectors."""
    return frozenset(_candidate_ball(params))


def adjacent_singleton_point(
    u: DigitWord, v: DigitWord, params: TileParams
) -> tuple[Address, Address] | None:
    """For 2A-B=3 and |u|=|v|=3 with difference pattern (1, A-2, -1), the two
    addresses of the single point shared by T_u and T_v."""
    a, b = params.a, params.b
    if 2 * a - b != 3:
        raise WrongRegime(f"adjacent singleton points require 2A - B = 3 for (A,B)=({a},{b})")
    if len(u) != 3 or len(v) != 3:
        raise LengthMismatch("digit words must have length 3")
    diffs = tuple(x - y for x, y in zip(u, v))
    if diffs != (1, a - 2, -1):
        return None
    left = Address((), u, (0, b - 1))
    right = Address((), v, (b - 1, 0))
    return (left, right)


# ---------------------------------------------------------------------------
# products and the halves D1, D2


def intersect_languages(
    l1: DigitDFA,
    l2: DigitDFA,
    params: TileParams,
    initial_diff: tuple[int, int] = (0, 0),
) -> IntersectionAutomaton:
    """Product with difference-state tracking over the neighbor set."""
    sset = neighbor_set_formula(params).members
    return product_intersection(l1, l2, sset, params, initial_diff)


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
    ball = candidate_ball(params)
    m = params.matrix
    brute: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def crawl(q1, q2, diff, u, v):
        if len(u) == depth:
            if subdivision_intersects(u, v, params):
                brute.add((u, v))
            return
        for x in params.digits:
            t1 = d1.successors(q1, x)
            if not t1:
                continue
            md = linalg.mat_vec(m, diff)
            for y in params.digits:
                t2 = d2.successors(q2, y)
                if not t2:
                    continue
                nd = (md[0] + x - y, md[1])
                if nd in ball:
                    crawl(t1[0], t2[0], nd, u + (x,), v + (y,))

    crawl(TIGHT_EVEN, TIGHT_EVEN, (0, 0), (), ())
    return brute == from_product


# ---------------------------------------------------------------------------
# chain reports


def chain_report(setup: ChainSetup) -> ChainReport:
    """The open chain alpha_1..alpha_B, read off the circular report.

    The open chain's expected pattern is a sub-pattern of the circular one:
    the same adjacent pairs with the same junction addresses, every other
    pair EMPTY.  So its report keeps the circular report's cells among the
    labels a1..aB and the violations that name only those labels."""
    full = circular_chain_report(setup)
    labels = [c.label for c in setup.curves]
    keep = set(labels)
    matrix = {pair: cell for pair, cell in full.matrix.items() if keep.issuperset(pair)}
    violations = [
        v for v in full.violations if keep.issuperset(v.split(":", 1)[0].split(" & "))
    ]
    return ChainReport(setup.params, labels, matrix, violations)


def verify_chain(setup: ChainSetup) -> ChainReport:
    report = chain_report(setup)
    if not report.ok:
        raise ChainViolation("; ".join(report.violations))
    return report


def verify_circular_chain(setup: ChainSetup) -> ChainReport:
    report = circular_chain_report(setup)
    if not report.ok:
        raise ChainViolation("; ".join(report.violations))
    return report
