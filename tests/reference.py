"""Constructions and cross-checks that only the tests use.

The package keeps what a command or the documented library reaches; the
helpers here build test languages, evaluate addresses another way, and
cross-check the certificates.  ``Element`` is a ``FieldElement`` with the
sums, products, inverse and comparisons that left the package, which
computes Q(beta) on integer vectors only; ``zero`` and ``one`` build its
constants.  ``perron_data``, ``walk_to_param`` and the greedy
``param_to_walk`` here are that element arithmetic, which the package's
integer forms replaced, kept as their oracles; they compute with
``Lengths``, beta and the normalized lengths u as elements, and
``lengths`` reads those off the package's unnormalized Perron data as
v_i / total.  ``perron_data`` is the cofactor solve of the flip-folded
system that the package's closed form replaced, and
``is_strongly_connected``, the reachability test it runs, left the package
with it.  ``checked_sorted_orders`` is the edge-to-edge check of
the sorted orders on phi_0's solved junctions, which the package ran on
every ordering until the lemma of ``ordered_extension`` replaced it; it is
that lemma's oracle past the grid where the search is affordable, and
returns the checked orders and junctions.  ``HandBuiltGraph`` is a contact
graph that carries an edge tuple of its own, as the tests that remove or
invent edges build it, and reads its edge test and counts off it; the
package's graph reads its edges, edge test and counts off (A, B).
``subdivision_intersects`` is the cylinder-pair criterion that
``verify_cut_point`` reads off the neighbor set it already holds; here it
builds the closed form itself.  ``subdivision_diff``, the separating vector
summed digit by digit, is the oracle of the vectors that ``cylinder_levels``
reads off the words' last digits.  ``segments_intersect`` is the scalar
closed-segment test that the array signs of the simple-closed test replaced,
kept as the oracle of its all-pairs checks.  ``reference_chain_matrix`` is
the chain matrix's per-pair loop, one product with a move table of its own
for every cell, kept as the oracle of the shared-table matrix.
``nfa_determinize`` and ``lex_interval_language`` are the one-language cases
of the package's subset construction and walk-interval languages, which the
package itself only runs for whole setups; ``nfa_bit_rows`` numbers an NFA's
states into the bitmask rows the construction reads, and ``dfa_renumbered``
reads one curve's DFA out of a setup's shared table in the numbering of a
construction of its own.  ``DigitNFA``, ``nfa_union``,
``nfa_accepts_address`` (an NFA x position graph trimmed by ``live_nodes``)
and ``graph_language``, the contact graph's language of one start state,
are the nondeterministic automata that left the package, whose one
automaton type is ``DigitDFA``; the tests build NFAs with them, and
``nfa_accepts_address`` is the oracle of the DFA run ``accepts_address``.
``as_nfa`` reads a DFA's bare targets as 1-tuples, so the NFA oracles
(``nfa_accepts_address``, ``nfa_union``, ``nfa_prefixes``,
``nfa_remap_first_digit`` and ``product_prefix_agreement``) take either
type.  The test languages ``nfa_full``, ``nfa_cylinder`` and
``nfa_single_address`` are DFAs whose states are ints, so the states of a
product built from them sort.
``walk_letter``, ``first_difference`` and ``walk_compare`` read walks
letter by letter, the oracle of the bound order that ``chains`` reads off
``walk_steps``.  ``nfa_remap_first_digit`` builds the arc gamma_i as its
own automaton, the definition that the package's gamma arcs, decided once
on alpha_{B-1} and alpha_B, are tested against.  ``neighbor_set_to_json`` and
``chain_report_to_json`` are the documents as dicts, which the package now
writes in their fixed JSON layout; ``json.dumps`` of them is the writers'
oracle.  ``chain_report_text`` is the text report with a lookup per ordered
pair of labels, the oracle of the grid that reads each cell once.  The 2x2 ``Fraction`` matrix
helpers are the linear algebra the package's integer forms replaced; the
tests use them to build M^{-1}, its powers and linear solves independently.
``candidate_ball`` is the certified ball as a point set, read off the
package's rows, and ``point_set_search`` the search that regrouped that
set into rows, listed each state's successors and trimmed them with
``live_nodes``; it is the oracle of the package's counting search.
pytest does not collect this
module (its name has no ``test_`` prefix); the tests import it as
``reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from tiletopo.algebraic import (
    FieldElement,
    NumberField,
    _canonical,
    _convolve,
    dominant_root_field,
)
from tiletopo.automata import (
    BRANCHING,
    FINITE_POINTS,
    UNIQUE_POINT,
    DigitDFA,
    IntersectionAutomaton,
    ProductMoves,
    State,
    determinize_starts,
    live_nodes,
    product_intersection,
)
from tiletopo.chains import (
    ChainReport,
    ChainSetup,
    circular_chain_report,
    lex_interval_languages,
)
from tiletopo.contact import (
    ContactGraph,
    Edge,
    OrderedContactGraph,
    PerronData,
    Walk,
    _flip_edge,
    _junction,
)
from tiletopo.errors import (
    CertificateFailure,
    ChainViolation,
    LengthMismatch,
    NonPeriodicWalk,
    NotIrreducible,
    OutOfRange,
    WrongRegime,
)
from tiletopo.geometry import Point
from tiletopo.neighbors import (
    IntVec,
    NeighborSet,
    _ball_rows,
    neighbor_set_formula,
)
from tiletopo.numsys import (
    Address,
    DigitWord,
    RationalPoint,
    TileParams,
    Triple,
    _reduced,
    periodic_tail_scaled,
)
from tiletopo.topology import TIGHT_EVEN, build_d1_d2


# ---------------------------------------------------------------------------
# exact 2x2 linear algebra: matrices are tuples of row tuples, vectors
# 2-tuples, entries ints or Fractions

Mat2 = tuple[tuple, tuple]

IDENTITY: Mat2 = ((1, 0), (0, 1))


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat_vec(m: Mat2, v: tuple) -> tuple:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_inv(m: Mat2) -> Mat2:
    d = Fraction(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    if d == 0:
        raise ZeroDivisionError("singular 2x2 matrix")
    return ((m[1][1] / d, -m[0][1] / d), (-m[1][0] / d, m[0][0] / d))


def mat_pow(m: Mat2, k: int) -> Mat2:
    if k < 0:
        return mat_pow(mat_inv(m), -k)
    out, base = IDENTITY, m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def solve2(m: Mat2, rhs: tuple) -> tuple:
    """Solve m @ x = rhs exactly."""
    return mat_vec(mat_inv(m), rhs)


# ---------------------------------------------------------------------------
# digit languages


@dataclass(frozen=True)
class DigitNFA:
    """Nondeterministic automaton over digits; all states accepting, the
    language being the infinite words that never die."""

    initials: tuple[State, ...]
    trans: Mapping[State, Mapping[int, tuple[State, ...]]]

    def successors(self, state: State, digit: int) -> tuple[State, ...]:
        return self.trans.get(state, {}).get(digit, ())


def as_nfa(lang: DigitNFA | DigitDFA) -> DigitNFA:
    """The language as an NFA: a DFA's bare targets become 1-tuples."""
    if isinstance(lang, DigitNFA):
        return lang
    trans = {q: {d: (t,) for d, t in row.items()} for q, row in lang.trans.items()}
    return DigitNFA((lang.initial,), trans)


def nfa_union(nfas: Iterable[DigitNFA | DigitDFA]) -> DigitNFA:
    """Disjoint union; the language is the union of languages."""
    trans: dict[State, dict[int, tuple[State, ...]]] = {}
    inits: list[State] = []
    for tag, nfa in enumerate(map(as_nfa, nfas)):
        for q, row in nfa.trans.items():
            trans[(tag, q)] = {
                d: tuple((tag, t) for t in targets) for d, targets in row.items()
            }
        inits.extend((tag, q) for q in nfa.initials)
    return DigitNFA(tuple(inits), trans)


def nfa_accepts_address(nfa: DigitNFA | DigitDFA, addr: Address) -> bool:
    """Does the automaton admit an infinite run over the address digits?"""
    nfa = as_nfa(nfa)
    pre, per = addr.preperiod, addr.period
    total = len(pre) + len(per)

    def advance(pos: int) -> int:
        return pos + 1 if pos + 1 < total else len(pre)

    def digit(pos: int) -> int:
        return pre[pos] if pos < len(pre) else per[pos - len(pre)]

    nodes = {(q, 0) for q in nfa.initials}
    frontier = list(nodes)
    succ: dict[tuple[State, int], list[tuple[State, int]]] = {}
    while frontier:
        q, pos = frontier.pop()
        outs = []
        for t in nfa.successors(q, digit(pos)):
            node = (t, advance(pos))
            outs.append(node)
            if node not in nodes:
                nodes.add(node)
                frontier.append(node)
        succ[(q, pos)] = outs
    alive = live_nodes(succ)
    return any((q, 0) in alive for q in nfa.initials)


def graph_language(graph: ContactGraph, start: int) -> DigitNFA:
    """Runs of the contact graph from a state, read as digit sequences."""
    trans: dict[int, dict[int, tuple[int, ...]]] = {}
    for i in range(1, 7):
        row: dict[int, list[int]] = {}
        for (src, a, _, dst) in graph.edges:
            if src == i:
                row.setdefault(a, []).append(dst)
        trans[i] = {a: tuple(sorted(t)) for a, t in sorted(row.items())}
    return DigitNFA((start,), trans)


def nfa_full(b: int) -> DigitDFA:
    """All digit sequences."""
    return DigitDFA(0, {0: {d: 0 for d in range(b)}})


def nfa_cylinder(word: tuple[int, ...], b: int) -> DigitDFA:
    """Sequences starting with the given word, anything afterwards: state i
    has read i digits of the word, state len(word) is free."""
    trans: dict[int, dict[int, int]] = {i: {d: i + 1} for i, d in enumerate(word)}
    trans[len(word)] = {d: len(word) for d in range(b)}
    return DigitDFA(0, trans)


def nfa_single_address(addr: Address) -> DigitDFA:
    """Exactly the one eventually periodic digit sequence of the address:
    state i reads its i-th digit, and the last state returns to the first
    state of the period."""
    if addr.integer_part:
        raise ValueError("only fractional addresses describe digit sequences")
    digits = addr.preperiod + addr.period
    trans = {i: {d: i + 1} for i, d in enumerate(digits)}
    trans[len(digits) - 1] = {digits[-1]: len(addr.preperiod)}
    return DigitDFA(0, trans)


def nfa_prefixes(nfa: DigitNFA | DigitDFA, depth: int) -> set[tuple[int, ...]]:
    """All digit words of the given length extendable to an infinite run."""
    nfa = as_nfa(nfa)
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


def nfa_remap_first_digit(nfa: DigitNFA | DigitDFA, mapping: Mapping[int, int]) -> DigitNFA:
    """Substitute the leading digit through ``mapping`` (other first digits
    are dropped); the tail language is unchanged."""
    nfa = as_nfa(nfa)
    trans: dict[State, dict[int, tuple[State, ...]]] = dict(nfa.trans)
    inits = []
    for k, q in enumerate(nfa.initials):
        wrapped: State = ("first", k)
        row: dict[int, tuple[State, ...]] = {}
        for d, targets in nfa.trans.get(q, {}).items():
            if d in mapping:
                row.setdefault(mapping[d], ())
                row[mapping[d]] = row[mapping[d]] + targets
        trans[wrapped] = row
        inits.append(wrapped)
    return DigitNFA(tuple(inits), trans)


# ---------------------------------------------------------------------------
# walks read letter by letter


def walk_letter(walk: Walk, n: int) -> int:
    """The n-th letter, 1-based; infinite walks only."""
    if n <= len(walk.pre):
        return walk.pre[n - 1]
    if not walk.period:
        raise IndexError("finite walk exhausted")
    return walk.period[(n - 1 - len(walk.pre)) % len(walk.period)]


def first_difference(a: Walk, b: Walk) -> int | None:
    """The first n at which the n-th letters of two infinite walks differ,
    or None when the letter sequences are equal.  Eventually periodic
    sequences that agree past both preperiods and a common period agree
    forever, so a finite horizon decides."""
    horizon = (
        len(a.pre)
        + len(b.pre)
        + 2 * math.lcm(max(1, len(a.period)), max(1, len(b.period)))
        + 2
    )
    return next(
        (n for n in range(1, horizon + 1) if walk_letter(a, n) != walk_letter(b, n)), None
    )


def walk_compare(a: Walk, b: Walk) -> int:
    """Lexicographic comparison of infinite walks: start state first."""
    if a.start != b.start:
        return -1 if a.start < b.start else 1
    n = first_difference(a, b)
    if n is None:
        return 0
    return -1 if walk_letter(a, n) < walk_letter(b, n) else 1


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
# Q(beta) element by element: the package computes on integer vectors and
# its FieldElement has no operators; the oracles below add, multiply, invert
# and compare elements one at a time


class Element(FieldElement):
    """A ``FieldElement`` with field arithmetic.  Every result is a canonical
    ``Element``.  Dataclass ``==`` is False between an ``Element`` and a
    package ``FieldElement`` of the same value, so compare ``(num, den)``
    across the two, or ``lift`` the package's value first."""

    def __add__(self, other: FieldElement) -> Element:
        a, b = self.den, other.den
        return canonical(self.field, [x * b + y * a for x, y in zip(self.num, other.num)], a * b)

    def __sub__(self, other: FieldElement) -> Element:
        a, b = self.den, other.den
        return canonical(self.field, [x * b - y * a for x, y in zip(self.num, other.num)], a * b)

    def __neg__(self) -> Element:
        return Element(self.field, tuple(-x for x in self.num), self.den)

    def __mul__(self, other: FieldElement) -> Element:
        prod = self.field.reduce(_convolve(self.num, other.num))
        return canonical(self.field, prod, self.den * other.den)

    def inverse(self) -> Element:
        """den / num, by ``NumberField.quotients``."""
        (inv,) = self.field.quotients([(self.den,)], self.num)
        return lift(inv)

    def __truediv__(self, other: FieldElement) -> Element:
        return self * lift(other).inverse()

    def is_zero(self) -> bool:
        return not any(self.num)

    def __lt__(self, other: FieldElement) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: FieldElement) -> bool:
        return (self - other).sign() <= 0


def lift(x: FieldElement) -> Element:
    """A package ``FieldElement`` as an ``Element`` of the same value."""
    return Element(x.field, x.num, x.den)


def canonical(field: NumberField, num: list[int], den: int) -> Element:
    return lift(_canonical(field, num, den))


def zero(field: NumberField) -> Element:
    return lift(field.rational(0))


def one(field: NumberField) -> Element:
    return lift(field.rational(1))


# ---------------------------------------------------------------------------
# the edge ordering by its run-time check


@dataclass(frozen=True)
class HandBuiltGraph(ContactGraph):
    """A contact graph with an edge tuple of its own, which no (A, B) gives;
    its edges come grouped by source, in increasing order, as
    ``ContactGraph.out_edges`` reads them, and its edge test and counts read
    that tuple, not the family rule of (A, B)."""

    edges: tuple[Edge, ...] = ()

    def has_edge(self, src: int, digit: int, dst: int) -> bool:
        return any(e[1] == digit and e[3] == dst for e in self.out_edges(src))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        counts = [[0] * 6 for _ in range(6)]
        for e in self.edges:
            counts[e[0] - 1][e[3] - 1] += 1
        return tuple(map(tuple, counts))


def checked_sorted_orders(
    graph: ContactGraph,
) -> tuple[tuple[tuple[Edge, ...], ...], tuple[Triple, ...]] | None:
    """The sorted orders (states 4..6 reversed) and phi_0's junctions solved
    by ``_junction``, once they pass the edge-to-edge check that the lemma of
    ``contact.ordered_extension`` replaced; None where the first edges are
    not phi_0 or the check fails.

    The junctions are read as integer pairs (X_t, Y_t) = S*V_t over their
    common denominator S, so that the subpiece of an edge (s, b, ., t) runs
    from the key (X_t + b*S, Y_t) to (X_{t+1} + b*S, Y_{t+1}).  Read in
    order, states 1..6 one after the other, each edge's end key must be the
    next edge's start key, and the last edge's end the first edge's start.
    """
    params = graph.params
    b = params.b
    outs = [graph.out_edges(i) for i in range(1, 7)]
    orders = [tuple(sorted(edges, reverse=i > 2)) for i, edges in enumerate(outs)]
    if not all(orders) or any(orders[i + 3][0] != _flip_edge(orders[i][0], b) for i in range(3)):
        return None
    phi = tuple(order[0] for order in orders)
    values: list = [None] * 6
    junctions = tuple(_reduced(_junction(i, phi, params, {}, values)) for i in range(6))
    scale = math.lcm(*(den for _, _, den in junctions))
    xs = [x * (scale // den) for (x, _, den) in junctions]
    ys = [y * (scale // den) for (_, y, den) in junctions]
    edges = [e for order in orders for e in order]
    starts = [(xs[t - 1] + a * scale, ys[t - 1]) for _, a, _, t in edges]
    ends = [(xs[t % 6] + a * scale, ys[t % 6]) for _, a, _, t in edges]
    if ends != starts[1:] + starts[:1]:
        return None
    return tuple(orders), junctions


# ---------------------------------------------------------------------------
# Perron data and walk parameters as sums of field elements


def is_strongly_connected(graph: ContactGraph) -> bool:
    adj = graph.adjacency()

    def reach(flip: bool) -> set[int]:
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(6):
                linked = adj[j][i] if flip else adj[i][j]
                if linked and j not in seen:
                    seen.add(j)
                    frontier.append(j)
        return seen

    return len(reach(False)) == 6 and len(reach(True)) == 6


@dataclass(frozen=True)
class Lengths:
    """The Perron root beta and the interval-length vector u, sum u = 1, as
    elements: what the oracles below compute with."""

    field: NumberField
    beta: Element
    u: tuple[Element, ...]


def lengths(data: PerronData) -> Lengths:
    """beta and u = v / total of the package's unnormalized Perron data."""
    field = data.field
    total = canonical(field, list(data.total), 1)
    u = tuple(canonical(field, list(v), 1) / total for v in data.v)
    return Lengths(field, lift(field.beta()), u)


def perron_data(graph: ContactGraph) -> Lengths:
    """The Perron root beta of the boundary cubic and the interval-length
    vector u, read off a row of cofactors of the flip-folded 3x3 system.

    The digit flip maps contact edges onto contact edges and state i onto
    state i+3 (mod 6), so adj[i][j] = adj[i+3][j+3].  The eigenvector of the
    simple Perron root is unique up to scale, and its flip is one too, so
    u_i = u_{i+3}, and beta u = adj u reduces to C u = 0 for the folded
    C[i][j] = adj[i][j] + adj[i][j+3] - beta [i = j], i, j < 3.  Since
    C adj(C) = det(C) I, a nonzero row of cofactors of a singular C solves
    it.  Its three entries must share one strict sign before it is
    normalized to sum 1.  A positive solution certifies that beta is the
    Perron root of the strongly connected graph (Perron-Frobenius), so the
    fold loses no certificate.
    """
    if not is_strongly_connected(graph):
        raise NotIrreducible("incidence matrix is reducible")
    a, b = graph.params.a, graph.params.b
    where = f"(A,B)=({a},{b})"
    adj = graph.adjacency()
    if any(adj[i][j] != adj[(i + 3) % 6][(j + 3) % 6] for i in range(6) for j in range(6)):
        raise CertificateFailure(f"contact graph is not symmetric under the digit flip for {where}")
    # boundary cubic; by Perron-Frobenius the positive eigenvector below
    # certifies that its root is the Perron root
    field = dominant_root_field([-b, a - b, 1 - a, 1])
    beta = lift(field.beta())

    # the folded C = adj - beta I acting on (u_1, u_2, u_3)
    rows = [
        [
            lift(field.rational(adj[i][j] + adj[i][j + 3])) - (beta if i == j else zero(field))
            for j in range(3)
        ]
        for i in range(3)
    ]

    def cofactors(k: int) -> list[Element]:
        r, s = rows[(k + 1) % 3], rows[(k + 2) % 3]
        return [
            r[(j + 1) % 3] * s[(j + 2) % 3] - r[(j + 2) % 3] * s[(j + 1) % 3] for j in range(3)
        ]

    # C adj(C) = det(C) I: row 0 times its cofactors is det(C), and once that
    # is zero every row of cofactors solves C u = 0; all of them vanish
    # exactly when C has rank 1 or less
    first = cofactors(0)
    if not sum((x * y for x, y in zip(rows[0], first)), zero(field)).is_zero():
        raise CertificateFailure(f"the boundary cubic's root is not an eigenvalue for {where}")
    candidates = (first if k == 0 else cofactors(k) for k in range(3))
    sol = next((row for row in candidates if not all(v.is_zero() for v in row)), None)
    if sol is None:
        raise NotIrreducible("Perron eigenvalue is not simple")
    # one strict sign before normalizing, so the sum is nonzero
    signs = {v.sign() for v in sol}
    if len(signs) > 1 or 0 in signs:
        raise CertificateFailure(f"left eigenvector is not strictly positive for {where}")
    half = sum(sol[1:], sol[0])
    inv_total = (half + half).inverse()
    u = tuple(v * inv_total for v in sol) * 2  # u_{i+3} = u_i
    return Lengths(field, beta, u)


def walk_to_param(walk: Walk, data: Lengths, ordered: OrderedContactGraph) -> Element:
    """Exact parameter of an eventually periodic walk."""
    field = data.field
    beta_inv = lift(data.beta).inverse()

    def below(state: int, letter: int) -> Element:
        total = zero(field)
        for e in ordered.orders[state - 1][: letter - 1]:
            total = total + data.u[e[3] - 1]
        return total

    t = zero(field)
    for i in range(walk.start - 1):
        t = t + data.u[i]
    steps, k = ordered.walk_steps(walk)
    scale = beta_inv
    for letter, edge in steps[:k]:
        t = t + below(edge[0], letter) * scale
        scale = scale * beta_inv
    # the periodic block sums to block / (1 - beta^-p), p its length
    block = zero(field)
    power = one(field)
    for letter, edge in steps[k:]:
        block = block + below(edge[0], letter) * power
        power = power * beta_inv
    return t + scale * block * (one(field) - power).inverse()


def param_to_walk(
    t: FieldElement | Fraction | int,
    data: Lengths,
    ordered: OrderedContactGraph,
    max_steps: int = 2048,
) -> Walk:
    """Greedy subdivision walk of a parameter in [0, 1]; boundary parameters
    resolve to the left interval's maximal walk."""
    field = data.field
    t = lift(t if isinstance(t, FieldElement) else field.rational(t))
    where = f"(A,B)=({ordered.graph.params.a},{ordered.graph.params.b})"
    if t.sign() < 0 or (t - one(field)).sign() > 0:
        raise OutOfRange(f"parameter t={t} must lie in [0, 1] for {where}")
    beta = data.beta

    # choose the start state: first i with t <= L_{i+1}
    cum = zero(field)
    for state in range(1, 7):
        nxt = cum + data.u[state - 1]
        if (t - nxt).sign() <= 0:
            break
        cum = nxt
    else:
        raise CertificateFailure(f"interval lengths do not add up to 1 for {where}")
    tau = t - cum
    start_state = state
    beta_inv = lift(beta).inverse()
    letters: list[int] = []
    # field elements are canonical, so equal remainders are equal keys
    seen: dict[tuple[int, Element], int] = {}
    for step in range(max_steps):
        key = (state, tau)
        if key in seen:
            k = seen[key]
            return Walk(start_state, tuple(letters[:k]), tuple(letters[k:]))
        seen[key] = step
        order = ordered.orders[state - 1]
        run = zero(field)
        chosen = None
        for idx, e in enumerate(order, start=1):
            nxt = run + beta_inv * data.u[e[3] - 1]
            if (tau - nxt).sign() <= 0 or idx == len(order):
                chosen = (idx, e, run)
                break
            run = nxt
        idx, e, low = chosen
        letters.append(idx)
        tau = (tau - low) * beta
        state = e[3]
    raise NonPeriodicWalk(
        f"greedy expansion did not become periodic within {max_steps} steps for {where}"
    )


# ---------------------------------------------------------------------------
# neighbors


@lru_cache(maxsize=64)
def candidate_ball(params: TileParams) -> frozenset[IntVec]:
    """The certified ball as a point set, every x of every row of
    ``_ball_rows``: the set the package's search read its rows off until it
    kept the rows alone."""
    return frozenset(
        (x, y) for y, (lo, hi) in _ball_rows(params).items() for x in range(lo, hi + 1)
    )


def point_set_search(params: TileParams) -> NeighborSet:
    """The search as it ran on the point set, the oracle of the package's
    counting search: the ball regrouped into rows, every state's successors
    listed as the range of its row (Ms)_y that the window (Ms)_x +- (B - 1)
    leaves, and the lists trimmed by ``live_nodes``."""
    a, b = params.a, params.b
    xs: dict[int, list[int]] = {}
    for x, y in candidate_ball(params):
        xs.setdefault(y, []).append(x)
    rows = {y: (min(row), max(row)) for y, row in xs.items()}
    succ: dict[IntVec, list[IntVec]] = {}
    for y, (lo, hi) in rows.items():
        mx = -b * y  # (Ms)_x along the whole row
        for x in range(lo, hi + 1):
            my = x - a * y
            target = rows.get(my)
            if target is None:
                succ[(x, y)] = []
                continue
            first, last = max(target[0], mx - b + 1), min(target[1], mx + b - 1)
            succ[(x, y)] = [(t, my) for t in range(first, last + 1)]
    alive = live_nodes(succ)
    alive.discard((0, 0))
    return NeighborSet(frozenset(alive), None)


def subdivision_diff(u: DigitWord, v: DigitWord, params: TileParams) -> IntVec:
    """The integer vector sum_i M^(m-i) (u_i - v_i, 0) separating two
    depth-m cylinders."""
    if len(u) != len(v):
        raise LengthMismatch(f"|u|={len(u)} != |v|={len(v)}")
    a, b = params.a, params.b
    x, y = 0, 0
    for du, dv in zip(u, v):
        params.check_digit(du)
        params.check_digit(dv)
        x, y = -b * y + du - dv, x - a * y
    return (x, y)


def subdivision_intersects(u: DigitWord, v: DigitWord, params: TileParams) -> bool:
    """Decide T_u meets T_v: the separating vector must be 0 or a neighbor."""
    s = subdivision_diff(u, v, params)
    return s == (0, 0) or s in neighbor_set_formula(params).members


def neighbor_set_to_json(sset: NeighborSet, reflected: bool) -> dict:
    """The ``neighbors --format json`` document as a dict, for
    ``json.dumps(..., indent=2, sort_keys=True)``."""
    return {
        "schema": "tiletopo/neighbor-set@1",
        "count": len(sset.members),
        "j": sset.j,
        "members": [list(s) for s in sset.sorted_members()],
        "reflected": reflected,
    }


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
    return product_intersection(l1, l2, ProductMoves(sset, params), initial_diff)


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

    walk(res.initial, (), ())

    # independent enumeration: prefix pairs of the two halves whose running
    # difference stays inside the certified ball (anything escaping the ball
    # is unrepresentable and, by depth monotonicity, never comes back)
    n1, n2 = as_nfa(d1), as_nfa(d2)
    ball = candidate_ball(params)
    m = params.matrix
    brute: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def crawl(q1, q2, diff, u, v):
        if len(u) == depth:
            if subdivision_intersects(u, v, params):
                brute.add((u, v))
            return
        for x in params.digits:
            t1 = n1.successors(q1, x)
            if not t1:
                continue
            md = mat_vec(m, diff)
            for y in params.digits:
                t2 = n2.successors(q2, y)
                if not t2:
                    continue
                nd = (md[0] + x - y, md[1])
                if nd in ball:
                    crawl(t1[0], t2[0], nd, u + (x,), v + (y,))

    crawl(TIGHT_EVEN, TIGHT_EVEN, (0, 0), (), ())
    return brute == from_product


# ---------------------------------------------------------------------------
# one-language cases of the package's constructions


def nfa_bit_rows(nfa: DigitNFA) -> tuple[list[dict[int, int]], int]:
    """The NFA in the input form of ``determinize_starts``: its states
    numbered 0, 1, 2, ... as they are reached from the initial states, each
    row a map from digit to the bitmask of its targets, and the bitmask of
    the initial states."""
    number: dict[State, int] = {}
    states: list[State] = []

    def bit(q: State) -> int:
        if q not in number:
            number[q] = len(states)
            states.append(q)
        return 1 << number[q]

    start = 0
    for q in nfa.initials:
        start |= bit(q)
    rows: list[dict[int, int]] = []
    while len(rows) < len(states):
        row = nfa.trans.get(states[len(rows)], {})
        rows.append({d: sum(set(map(bit, targets))) for d, targets in row.items() if targets})
    return rows, start


def nfa_determinize(nfa: DigitNFA) -> DigitDFA:
    """The language as a DFA: a DFA comes back unchanged, any other NFA is
    the one-start case of the subset construction."""
    if isinstance(nfa, DigitDFA):
        return nfa
    rows, start = nfa_bit_rows(nfa)
    return determinize_starts(rows, [start])[0]


def dfa_renumbered(dfa: DigitDFA) -> DigitDFA:
    """The states reachable from the initial state, renumbered 0, 1, 2, ...
    in breadth-first order, each row's digits in the order the row lists
    them.  On a table of ``determinize_starts``, whose rows list their
    digits ascending, this is the numbering of a subset construction run
    from this start alone; on its ``nfa_flip``, whose rows list them
    descending, it is the flip of that numbering."""
    number = {dfa.initial: 0}
    order = [dfa.initial]
    trans: dict[int, dict[int, int]] = {}
    for k, q in enumerate(order):  # the list grows as states are found
        row: dict[int, int] = {}
        for d, t in dfa.trans.get(q, {}).items():
            if t not in number:
                number[t] = len(order)
                order.append(t)
            row[d] = number[t]
        trans[k] = row
    return DigitDFA(0, trans)


def lex_interval_language(ordered: OrderedContactGraph, lo: Walk, hi: Walk) -> DigitDFA:
    """The walk-interval language of one interval."""
    return lex_interval_languages(ordered, [(lo, hi)])[0]


# ---------------------------------------------------------------------------
# chain reports


def reference_chain_matrix(
    setup: ChainSetup, labeled: list[tuple[str, DigitDFA]]
) -> dict[tuple[str, str], dict]:
    """The chain matrix as first written: one ``product_intersection`` call,
    with a move table of its own, for every pair of labeled languages."""
    matrix: dict[tuple[str, str], dict] = {}
    for i, (l1, g1) in enumerate(labeled):
        for l2, g2 in labeled[i + 1 :]:
            res = product_intersection(g1, g2, ProductMoves(setup.sset, setup.params))
            cell: dict = {"kind": res.kind}
            if res.kind in (UNIQUE_POINT, FINITE_POINTS):
                cell["value"] = res.points[0]
                cell["addresses"] = [r.left for r in res.runs[:4]]
            if res.kind == BRANCHING:
                cell["witness"] = repr(res.branch_witness)
            matrix[(l1, l2)] = cell
    return matrix


def chain_report_to_json(report: ChainReport) -> dict:
    """The chain report document as a dict, for ``json.dumps(...,
    indent=2, sort_keys=True)``."""
    cells = []
    for (l1, l2), cell in sorted(report.matrix.items()):
        row = {"pair": [l1, l2], "kind": cell["kind"]}
        if "value" in cell:
            row["value"] = [str(cell["value"][0]), str(cell["value"][1])]
        if "addresses" in cell:
            row["addresses"] = [str(ad) for ad in cell["addresses"]]
        cells.append(row)
    return {
        "schema": "tiletopo/chain-report@1",
        "params": {"A": report.params.a, "B": report.params.b},
        "labels": report.labels,
        "cells": cells,
        "ok": report.ok,
        "violations": report.violations,
    }


def chain_report_text(report: ChainReport) -> str:
    """The text report as first written, one ``entry`` lookup for each
    ordered pair of labels."""
    lines = [f"chain report (A={report.params.a}, B={report.params.b})"]
    width = max(len(l) for l in report.labels) + 1
    lines.append(" " * width + " ".join(f"{l:>{width}}" for l in report.labels))
    for l1 in report.labels:
        row = [f"{l1:>{width}}"]
        for l2 in report.labels:
            if l1 == l2:
                row.append(f"{'-':>{width}}")
                continue
            mark = {"EMPTY": ".", "UNIQUE_POINT": "1"}.get(report.entry(l1, l2)["kind"], "?")
            row.append(f"{mark:>{width}}")
        lines.append(" ".join(row))
    if report.violations:
        lines.append("violations:")
        lines.extend(f"  {v}" for v in report.violations)
    else:
        lines.append("all pairs match the expected pattern")
    return "\n".join(lines) + "\n"


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


# ---------------------------------------------------------------------------
# segments


def orientation(p: Point, q: Point, r: Point) -> int:
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """r collinear with pq assumed; is r within the closed box of pq?"""
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Closed-segment intersection, exact."""
    d1 = orientation(q1, q2, p1)
    d2 = orientation(q1, q2, p2)
    d3 = orientation(p1, p2, q1)
    d4 = orientation(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False
