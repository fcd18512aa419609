"""Contact graph, its ordered extension, and the boundary parametrization.

The boundary of the tile decomposes into six pieces K_s indexed by the
contact neighbors R = {±P1, ±Q1, ±R}; the subdivision K_s = U M^{-1}(K_s' + a)
is encoded by a strongly connected graph whose edges s -a|a'-> s' satisfy
M s + (a', 0) = s' + (a, 0).  Ordering the states 1..6 and the edges out of
each state turns lexicographic walk order into a continuous traversal of the
boundary; the interval [0, 1] is subdivided proportionally to the Perron
eigenvector of the incidence matrix, giving a parametrization t -> C(t) whose
vertices live in Q(beta).

The edge ordering is proved, not searched for.  A flip-equivariant choice
of first edges (states 4..6 take the digit flips of the choices for 1..3)
fixes the six traversal junctions V_i = psi(i; 1bar) as exact fixed points
of the chosen contractions f_a(p) = M^{-1}(p + (a, 0)), and each state's
subpieces must then thread from its junction to the next by exact endpoint
equality.  ``ordered_extension`` proves that exactly one choice, phi_0,
threads every state, and each state in one way only: states 1..3 take
their out-edges sorted, states 4..6 the digit flips of those orders (their
own out-edges in reverse order), and the six junctions are read off
(A, B).  So nothing is checked at run time, and every command, including
``contact-graph``, calls it.  The orders follow the edge families, so the
ordered graph reads every letter by index off a six-row table of (A, B):
``edge_at``, ``out_count``, the letters before a letter counted by target,
and the steps of a walk; ``orders`` is a view built from the table on first
use.  A ``ContactGraph`` is (A, B) and its six states; ``has_edge`` and the
adjacency counts read the family rule, and no edge list is ever built: the
exports list the edges off the ordered rows, and a ``param`` walk reads
only the letters it takes.

The Perron vector of the incidence matrix is read off the edge families of
the contact graph, v = (beta - A + 1, A, beta (beta - A + 1)) on K1..K3 and
again on K4..K6, as integer polynomials in beta; its one run-time check is
that v is positive.  It is never normalized: the interval lengths are
u = v / total, total = sum v, and each use folds total into its own terms.
A walk's parameter is two integer Horner passes in Q(beta) on v, over the
prefix and over the period, and one division, which divides by total too;
the length below a letter is a count per target times v_t.
The greedy walk of a parameter t keeps its remainder as an integer vector,
scaled by the denominator D of t and by total: each step multiplies it by
beta and subtracts D times the v-lengths before the chosen letter, found by
bisection on those counts, so equal remainders are equal vectors and a
dictionary lookup finds the cycle; it divides nowhere.  FieldElement values
are built only at the ends: a walk's parameter, and a rational t.

The level-n boundary polygon, ``BoundaryApprox``, holds (m, 2) integer
arrays over one common scale: int64 when the walk expansion's largest
partial sum and the scale fit, Python ints otherwise.  The simple-closed
test and the SVG and JSON writers read those arrays.  Its two views, the
``Fraction`` vertices of the library sketch and the int pairs of
``firsts``, are built only on request.  numpy is imported by
``approx_boundary`` alone, so the commands that never build a polygon
start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .algebraic import FieldElement, NumberField, _convolve, dominant_root_field
from .errors import (
    BudgetExceeded,
    CertificateFailure,
    NonPeriodicWalk,
    OutOfRange,
)
from .numsys import (
    Address,
    RationalPoint,
    TileParams,
    Triple,
    _reduced,
    point_eval,
)

if TYPE_CHECKING:
    import numpy as np

IntVec = tuple[int, int]
Edge = tuple[int, int, int, int]  # (source 1..6, a, a', target 1..6)


def contact_states(params: TileParams) -> tuple[IntVec, ...]:
    """States in the fixed cyclic order K1..K6 = -R, Q1, -P1, R, -Q1, P1."""
    a = params.a
    return ((a, 1), (a - 1, 1), (-1, 0), (-a, -1), (1 - a, -1), (1, 0))


@dataclass(frozen=True)
class ContactGraph:
    """The contact graph of (A, B) and its six states; its edges are the
    family rule's, which ``has_edge`` and ``adjacency`` read, and no edge
    list is built."""

    params: TileParams
    states: tuple[IntVec, ...]

    def _offset(self, src: int, dst: int) -> int | None:
        """a' - a on the edges src -> dst, or None if no edge joins them.

        M s = (-B s_y, s_x - A s_y), so s -> t needs t_y = s_x - A s_y, and
        then a' = a + t_x + B s_y: one offset per pair, so the edges of a
        pair are one family, the digits a with a and a + offset in [0, B-1].
        """
        s, t = self.states[src - 1], self.states[dst - 1]
        if t[1] != s[0] - self.params.a * s[1]:
            return None
        return t[0] + self.params.b * s[1]

    def has_edge(self, src: int, digit: int, dst: int) -> bool:
        """Whether src -digit|.-> dst is an edge, off the family rule."""
        delta, b = self._offset(src, dst), self.params.b
        return delta is not None and 0 <= digit < b and 0 <= digit + delta < b

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The edge counts source-by-target, off the family rule: a family
        of offset delta has B - |delta| digits where that is positive."""
        b = self.params.b
        counts = [[0] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(6):
                delta = self._offset(i + 1, j + 1)
                if delta is not None:
                    counts[i][j] = max(0, b - abs(delta))
        return tuple(map(tuple, counts))


def build_contact_graph(params: TileParams) -> ContactGraph:
    """The contact graph of (A, B).

    The graph is strongly connected, as its edge families show.  For each
    target t of a state s the rule fixes a' - a, so the edges s -> t number
    B - |a' - a| where that is positive: 1->3: 1, 2->4: A, 2->5: A-1,
    3->4: B-A, 3->5: B-A+1, 4->6: 1, 5->1: A, 5->2: A-1, 6->1: B-A,
    6->2: B-A+1, and no others.  With 1 <= A <= B, 1->3->5->1 and
    2->4->6->2 are cycles; 3->4 and 6->1 link them both ways when A < B,
    and 2->5 and 5->2 when A = B >= 2.  For A = B the two P1/-R links drop
    out on their own: they would need a' - a = A, infeasible within
    [0, B-1].
    """
    if params.a < 1:
        raise OutOfRange(f"contact graph requires A >= 1 for (A,B)=({params.a},{params.b})")
    return ContactGraph(params, contact_states(params))


# ---------------------------------------------------------------------------
# walks


@dataclass(frozen=True)
class Walk:
    """A walk (start; o1 o2 ...) in the ordered graph: 1-based edge-order
    letters, finite prefix plus optional periodic tail."""

    start: int
    pre: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.start <= 6:
            raise OutOfRange(f"walk start {self.start} is not a state 1..6")


# ---------------------------------------------------------------------------
# ordered extension


# a state's row of the ordered graph: (out-degree, letter offset, digit
# step, the step-0 edge of the even letters, of the odd ones)
Row = tuple[int, int, int, Edge, Edge]


@dataclass(frozen=True)
class OrderedContactGraph:
    """The contact graph with its edge orders, read by index off (A, B).

    Letter k of a state is the edge row[3 + p] shifted by q digit steps,
    with q, p = divmod(k + offset, 2): a shift adds q * step to both digits
    and keeps the target.  k + offset >= 0, so q and p are a shift and a
    mask.  Edges written (digit, target), the rows are those of the lemma
    of ``ordered_extension``: state 1 has the one letter (0, 3); state 2's
    2A - 1 letters read (0,4), (0,5), (1,4), ..., (A-1,4); state 3's
    2(B-A) + 1 letters read (A-1,5), (A,4), (A,5), ..., (B-1,5); states 4..6
    are the digit flips of 1..3, letter for letter.  So ``edge_at``,
    ``out_count``, ``prefix_counts`` and ``walk_steps`` read no edge list,
    and ``orders`` is a view built from the rows on first use.
    """

    graph: ContactGraph
    # V_1..V_6, junction of K_{i-1} and K_i, as reduced triples (x, y, den):
    # gcd(x, y, den) = 1 and den > 0
    junctions: tuple[Triple, ...]

    @cached_property
    def _rows(self) -> tuple[Row, ...]:
        a, b = self.graph.params.a, self.graph.params.b
        rows = (
            (1, -1, 1, (1, 0, b - 1, 3), (1, 0, b - 1, 3)),
            (2 * a - 1, -1, 1, (2, 0, b - a, 4), (2, 0, b - a + 1, 5)),
            (2 * (b - a) + 1, 0, 1, (3, a - 1, -1, 4), (3, a - 1, 0, 5)),
        )
        return rows + tuple((n, k, -1, _flip_edge(e, b), _flip_edge(f, b)) for n, k, _, e, f in rows)

    @cached_property
    def orders(self) -> tuple[tuple[Edge, ...], ...]:
        """Per state 1..6, its edges in letter order, read by ``edge_at``."""
        return tuple(
            tuple(self.edge_at(s, k) for k in range(1, self.out_count(s) + 1)) for s in range(1, 7)
        )

    @cached_property
    def vertices(self) -> tuple[RationalPoint, ...]:
        """V_1..V_6 as exact rational pairs, built once, on first use."""
        return tuple((Fraction(x, den), Fraction(y, den)) for (x, y, den) in self.junctions)

    def out_count(self, state: int) -> int:
        return self._rows[state - 1][0]

    def _no_edge(self, state: int, letter: int) -> OutOfRange:
        params = self.graph.params
        return OutOfRange(f"state {state} has no edge #{letter} for (A,B)=({params.a},{params.b})")

    def edge_at(self, state: int, letter: int) -> Edge:
        row = self._rows[state - 1]
        if not 1 <= letter <= row[0]:
            raise self._no_edge(state, letter)
        k = letter + row[1]
        src, a, ap, dst = row[3 + (k & 1)]
        q = (k >> 1) * row[2]
        return src, a + q, ap + q, dst

    def prefix_counts(self, state: int, letter: int) -> tuple[IntVec, IntVec]:
        """The state's letters before ``letter``, counted by target: the
        pairs (target, count) of the letters k with k + offset even, and of
        those with k + offset odd."""
        _, offset, _, even, odd = self._rows[state - 1]
        n = (letter - 1 - offset) // 2  # the even ones among 1..letter-1; offset is -1 or 0
        return (even[3], n), (odd[3], letter - 1 - n)

    def vertex(self, i: int) -> RationalPoint:
        return self.vertices[(i - 1) % 6]

    def walk_steps(self, walk: Walk) -> tuple[list[tuple[int, Edge]], int]:
        """The (letter, edge) steps of an eventually periodic walk: the
        prefix, then the period until (state, phase) repeats; and the index
        of the step where the cycle starts.  Each edge is read off its row
        here, as ``edge_at`` reads it."""
        rows, pre, period = self._rows, walk.pre, walk.period
        steps: list[tuple[int, Edge]] = []
        seen: dict[tuple[int, int], int] = {}
        state, i, n = walk.start, 0, len(pre)
        while True:
            if i < n:
                o = pre[i]
            else:
                if not period:
                    raise ValueError("an infinite walk needs a periodic tail")
                key = (state, (i - n) % len(period))
                if key in seen:
                    return steps, seen[key]
                seen[key] = i
                o = period[key[1]]
            row = rows[state - 1]
            if not 1 <= o <= row[0]:
                raise self._no_edge(state, o)
            k = o + row[1]
            src, a, ap, state = row[3 + (k & 1)]
            q = (k >> 1) * row[2]
            steps.append((o, (src, a + q, ap + q, state)))
            i += 1


def psi(walk: Walk, ordered: OrderedContactGraph) -> Address:
    """Digit address read along a walk; infinite walks must be eventually
    periodic, which edge-order letters guarantee."""
    steps, k = ordered.walk_steps(walk)
    digits = [edge[1] for _, edge in steps]
    return Address((), tuple(digits[:k]), tuple(digits[k:]))


def _flip_edge(e: Edge, b: int) -> Edge:
    """Digit flip a -> B-1-a; it exchanges state i with state i+3 (mod 6)."""
    return ((e[0] + 2) % 6 + 1, b - 1 - e[1], b - 1 - e[2], (e[3] + 2) % 6 + 1)


def ordered_extension(graph: ContactGraph) -> OrderedContactGraph:
    """The continuous edge ordering in closed form: the letter table of
    ``OrderedContactGraph``, which gives states 1..3 their out-edges sorted
    (tuple order) and states 4..6 theirs in reverse order, and the junctions
    V_1..V_6, over n = A + B + 1,

        (A+1, 1), (A^2+A-B, A+1), (-B, 1),
        (-(A+1)B, -B), (1-A^2-AB, -(A+B)), (1+A-AB, -B).

    A flip-equivariant first-edge map phi picks one out-edge of each of
    states 1..3, and states 4..6 take their digit flips (a -> B-1-a, state
    s -> s+3).  Its junctions follow phi: V_s = f_a(V_t) for phi's edge
    (a, t) of s, six affine equations with one solution, as M expands.  The
    subpiece of an edge (b, t) runs from f_b(V_t) to f_b(V_{t+1}), and a
    state threads when its edges, in some order, chain from V_s to V_{s+1}:
    the first starts at V_s, each next one where the last ended, and the
    last ends at V_{s+1}.  M^{-1} is injective, so f_b(V_t) = f_a(V_j)
    exactly when V_t + (b, 0) = V_j + (a, 0).

    Lemma: on a graph of ``build_contact_graph``, phi_0, the first edges
    (0,3), (0,4), (A-1,5) of states 1..3 and their flips, is the only
    first-edge map under which every state threads; these orders thread it,
    each state in one way only, and these are its junctions.  Proof, with
    edges written (digit, target):

    1. The orders.  By the edge families, state 1 has the one edge (0, 3);
       state 2 has (a, 4) for a < A and (a, 5) for a < A-1; state 3 has
       (a, 4) for A <= a < B and (a, 5) for A-1 <= a < B; on one digit the
       edge to 4 has the smaller a'.  So state 2 reads (0,4), (0,5), (1,4),
       ..., (A-1,4): letter k is (floor((k-1)/2), 4 if k is odd, else 5).
       State 3 reads (A-1,5), (A,4), (A,5), ..., (B-1,5): letter k >= 2 is
       (A-1+floor(k/2), 4 if k is even, else 5).  These are the table's
       rows.  The digit flip a -> B-1-a maps state s's edges onto state
       s+3's and reverses their tuple order, so the reverse orders of 4..6
       are the flips of the sorted orders of 1..3, letter for letter, which
       are the rows of 4..6.  The first edges are phi_0: (0,3), (0,4),
       (A-1,5), and their flips (B-1,6), (B-1,1), (B-A,2).
    2. The junctions.  V_s = psi(s; 1bar) follows phi_0, so V_1 = f_0(V_3),
       V_3 = f_{A-1}(V_5) and V_5 = f_{B-1}(V_1), where
       B f_a(x, y) = (B y - A(x+a), -(x+a)).  The closed forms solve these:
       f_0(V_3) = ((AB+B)/n, B/n)/B = V_1; V_1 + (B-1, 0) = (B(A+B), 1)/n, so
       f_{B-1}(V_1) = (1 - A(A+B), -(A+B))/n = V_5; and
       V_5 + (A-1, 0) = (-B, -(A+B))/n, so f_{A-1}(V_5) = V_3.  M expands,
       so f_0 f_{A-1} f_{B-1} has one fixed point, and these are the
       junctions.  The walk from s+3 reads the flipped digits of the walk
       from s, so V_{s+3} = T - V_s with T = ((A+1)(1-B), 1-B)/n, the value
       of 0.(B-1)bar; V_4 = T - V_1, V_2 = T - V_5 and V_6 = T - V_3 are the
       other three closed forms.  V_{s+3} = T - V_s holds under every
       first-edge map, by the same flip.
    3. The threading.  An edge (b, t) followed by (b', t') chains when
       V_{t+1} + (b, 0) = V_{t'} + (b', 0).  In states 2 and 3, (a,4) then
       (a,5) asks V_5 = V_5, and (a,5) then (a+1,4) (or state 3's (A-1,5)
       then (A,4)) asks V_6 = V_4 + (1, 0), which holds:
       V_6 - V_4 = (1+A+B, 0)/n.  Each state's first edge starts at V_s by
       phi_0, and its last edge ends at the start of the next state's first
       edge, again by phi_0: f_0(V_4) = V_2, f_{A-1}(V_5) = V_3 and
       f_{B-1}(V_6) = V_4.  States 4..6 are the flips: they ask the flipped
       identity V_3 = V_1 - (1, 0), and end at V_5, V_6 and V_1.  The cases
       A = 1 (state 2 has one edge) and A = B (state 3 has one edge) only
       drop steps.
    4. No state threads two ways under phi_0.  A chain's start V_s, and the
       end of each of its edges, is a point f_a(V_j).  An edge (b, t) of the
       state starts there when V_t + (b, 0) = V_j + (a, 0): one digit b for
       each target t, and two targets t, t' only if V_t and V_t' have equal
       y parts.  States 1 and 4 have one edge; states 2 and 3 target 4 and
       5, whose y parts -B/n and -(A+B)/n differ, and states 5 and 6 target
       1 and 2, with 1/n and (A+1)/n.  So at most one edge starts at each
       point, and a chain that takes every edge once is fixed by its start.
    5. No other map threads every state.  Let phi's edges of states 1..3 be
       (0,3), (a2,t2) and (a3,t3).  For fixed targets the six junction
       equations are affine in (a2, a3), and so is their solution.
       a. State 1's one edge starts at V_1 = f_0(V_3) and ends at f_0(V_4),
          which must be V_2 = f_{a2}(V_{t2}): V_4 = V_{t2} + (a2, 0).  For
          t2 = 4 this asks a2 = 0.  For t2 = 5, with either t3, the two
          coordinates of V_4 = V_5 + (a2, 0) solve to the one point
          a2 = -(B-1)/(A(B-A)+B-1), which lies in [-1, 0): no digit.  So
          phi's edge of state 2 is (0, 4).
       b. State 2's last edge (b, t), b <= A-1, ends at f_b(V_{t+1}), which
          must be V_3 = f_{a3}(V_{t3}): V_{t+1} + (b, 0) = V_{t3} + (a3, 0).
          State 3's edges to 4 have a3 >= A, those to 5 have a3 >= A-1.
          - t = 4, t3 = 5: both are images of V_5, so this asks a3 = b,
            and b <= A-1 <= a3 gives a3 = A-1: phi_0.
          - t = 5, t3 = 4: the y parts of V_6 and V_4 agree only at
            a3 = A(B-1)/(A+B-1) < A.
          - t = 5, t3 = 5: the y parts of V_6 and V_5 agree only at
            a3 = (B-1)(A^2-B)/(A(A-1)+B(B-1)), below A-1: A >= 2, as state
            2 has an edge to 5, and (B-1)(A^2-B) <= (A-1)B(B-1), as A <= B.
          - t = 4, t3 = 4: the two coordinates solve to one point with
            a3 - b = (B-1)/(A(B-A)+B-1), in (0, 1]: an integer only for
            A = B, where state 3 has no edge to 4.
          So phi is phi_0.

    The grid test ``test_uniqueness_identities_on_grid`` solves each
    equation of step 5 from the junctions of the maps it names and checks
    the closed forms and their ranges; the search over every map, which
    certified uniqueness before this proof, is the tests' oracle.  The
    graph is trusted to be ``build_contact_graph``'s: (A, B) alone give the
    table and the junctions, kept as reduced triples, and no edge is read.
    """
    a, b = graph.params.a, graph.params.b
    n = a + b + 1
    junctions = (
        (a + 1, 1, n),
        (a * a + a - b, a + 1, n),
        (-b, 1, n),
        (-(a + 1) * b, -b, n),
        (1 - a * a - a * b, -(a + b), n),
        (1 + a - a * b, -b, n),
    )
    return OrderedContactGraph(graph, tuple(map(_reduced, junctions)))


# the name under which the benchmark's ``perfbench/ops.py``, ``record.py``,
# ``selftest.py`` and ``layer_probe.py``, and ``tests/test_acceptance.py``,
# import the ordering
derive_order_extension = ordered_extension


# ---------------------------------------------------------------------------
# Perron data and the interval subdivision


@dataclass(frozen=True)
class PerronData:
    """The Perron vector of the boundary cubic's root beta, unnormalized:
    with the incidence D counting edges target-by-source (the transpose of
    ``ContactGraph.adjacency``), v is a left eigenvector, v @ D = beta v,
    v > 0, and the interval lengths are u = v / total.  ``v`` holds the six
    integer vectors of v_1..v_6 in ``field`` (low degree first, reduced by
    the minimal polynomial) and ``total`` their sum, so no division made
    them."""

    field: NumberField
    v: tuple[tuple[int, ...], ...]
    total: tuple[int, ...]


def perron_data(graph: ContactGraph) -> PerronData:
    """The Perron vector of the boundary cubic's root beta, in closed form
    and unnormalized.

    On the edge families of ``build_contact_graph``, beta v = adj v with
    v_i = v_{i+3} reads v_3 = beta v_1, beta v_2 = A v_1 + (A-1) v_2 and
    beta v_3 = (B-A) v_1 + (B-A+1) v_2: rows 4..6 are the flips of rows
    1..3, as the families pair up under i -> i+3.  Its solution
    v = (beta - A + 1, A, beta (beta - A + 1)) turns the last row into the
    boundary cubic, so beta is an eigenvalue with eigenvector v; checking
    the rows on the graph would compare the family counts with themselves.
    v is kept as integer polynomials in beta, repeated for K4..K6, and one
    check on the field certifies it: A >= 1 and beta - A + 1 > 0, so
    v_1 > 0, v_2 = A > 0, and v_3 = beta v_1 > 0 as beta > A - 1 >= 0.  A
    positive eigenvector of a nonnegative matrix belongs to its spectral
    radius, so beta is the Perron root.  v is not normalized and no beta
    element is built: the one division of a walk's parameter is
    ``walk_to_param``'s.  Only the parameters of the graph are read.
    """
    a, b = graph.params.a, graph.params.b
    # boundary cubic; the positive eigenvector v certifies that its root is
    # the Perron root
    field = dominant_root_field([-b, a - b, 1 - a, 1])
    if a < 1 or field.sign_of([1 - a, 1]) <= 0:
        raise CertificateFailure(f"left eigenvector is not strictly positive for (A,B)=({a},{b})")
    # low degree first; v_{i+3} = v_i
    v = tuple(tuple(field.reduce(vi)) for vi in ([1 - a, 1, 0], [a, 0, 0], [0, 1 - a, 1]))
    return PerronData(field, v * 2, tuple(2 * sum(col) for col in zip(*v)))


def _below(
    ordered: OrderedContactGraph, v: Sequence[Sequence[int]], state: int, letter: int
) -> list[int]:
    """The sum of the lengths of the state's letters before ``letter``: each
    target's count times the integer vector v_t, in the scale of v."""
    (t0, n0), (t1, n1) = ordered.prefix_counts(state, letter)
    return [n0 * x + n1 * y for x, y in zip(v[t0 - 1], v[t1 - 1])]


def walk_to_param(
    walk: Walk, data: PerronData, ordered: OrderedContactGraph
) -> FieldElement:
    """Exact parameter of an eventually periodic walk.

    A walk of K prefix steps and then a period of p steps has the parameter
    t = sum_{i < start} u_i + sum_k c_k beta^-(k+1) + beta^-K x, where c_k is
    the length below the k-th step's letter and the periodic part
    x = sum_k c'_k beta^-(k+1) + beta^-p x.  With u = v / total, each
    total*c is read off the letter table as a count per target times v_t
    (``OrderedContactGraph.prefix_counts``), so no edge list is read.
    y = total (sum_{i < start} u_i beta^K + sum_k c_k beta^(K-1-k)) and
    z = total sum_k c'_k beta^(p-1-k) are Horner passes on v, and
    t = (y (beta^p - 1) + z) / (total beta^K (beta^p - 1)), whose divisor
    is total itself run through the same passes.  Multiplying by beta is a
    shift reduced by the monic minimal polynomial; the one division and the
    one canonical form come at the end.
    """
    field, v = data.field, data.v
    steps, k = ordered.walk_steps(walk)
    y = [0] * field.degree
    for vi in v[: walk.start - 1]:
        y = [a + b for a, b in zip(y, vi)]
    power = list(data.total)  # total beta^K
    for letter, edge in steps[:k]:
        y = [a + b for a, b in zip(field.times_beta(y), _below(ordered, v, edge[0], letter))]
        power = field.times_beta(power)
    z = [0] * field.degree
    y_p, power_p = y, power  # times beta^p
    for letter, edge in steps[k:]:
        z = [a + b for a, b in zip(field.times_beta(z), _below(ordered, v, edge[0], letter))]
        y_p, power_p = field.times_beta(y_p), field.times_beta(power_p)
    num = [a - b + c for a, b, c in zip(y_p, y, z)]
    (t,) = field.quotients([num], [a - b for a, b in zip(power_p, power)])
    return t


def param_to_walk(
    t: FieldElement | Fraction | int,
    data: PerronData,
    ordered: OrderedContactGraph,
    max_steps: int = 2048,
) -> Walk:
    """Greedy subdivision walk of a parameter in [0, 1]; boundary parameters
    resolve to the left interval's maximal walk.

    With D the denominator of t and u = v / total, the remainder tau is
    kept as the integer vector D*total*tau: it starts as D*t*total, one
    product, and the lengths it is compared with are the integer vectors
    D*v.  The start state is the first whose running sum of lengths reaches
    t.  Each step then reads beta*tau, whose subintervals are the lengths u
    of the state's edges in order: the chosen letter is the first whose
    running sum reaches beta*tau, or the state's last letter, and the new
    tau is beta*tau less the lengths before it.  The running sums grow with
    the letter (v > 0), so the letter is found by bisection on the table's
    prefix counts, with O(log B) sign tests per step.  As D*total is fixed,
    equal remainders are equal vectors, so the pair (state, vector) detects
    the cycle.  Nothing is divided.
    """
    field = data.field
    if not isinstance(t, FieldElement):
        t = field.rational(t)
    where = f"(A,B)=({ordered.graph.params.a},{ordered.graph.params.b})"
    d = t.den
    if field.sign_of(t.num) < 0 or field.sign_of([t.num[0] - d, *t.num[1:]]) > 0:
        raise OutOfRange(f"parameter t={t} must lie in [0, 1] for {where}")
    tau = field.reduce(_convolve(t.num, data.total))
    v = [[d * c for c in vi] for vi in data.v]

    # the start state: the first i with t <= u_1 + ... + u_i
    for state in range(1, 7):
        rest = [x - y for x, y in zip(tau, v[state - 1])]
        if field.sign_of(rest) <= 0:
            break
        tau = rest
    else:
        raise CertificateFailure(f"interval lengths do not add up to 1 for {where}")
    start_state = state
    letters: list[int] = []
    seen: dict[tuple[int, tuple[int, ...]], int] = {}
    for step in range(max_steps):
        key = (state, tuple(tau))
        if key in seen:
            k = seen[key]
            return Walk(start_state, tuple(letters[:k]), tuple(letters[k:]))
        seen[key] = step
        tau = field.times_beta(tau)
        # the first letter lo whose running sum reaches beta*tau, else the last
        lo, hi = 1, ordered.out_count(state)
        while lo < hi:
            mid = (lo + hi) // 2
            rest = [x - y for x, y in zip(tau, _below(ordered, v, state, mid + 1))]
            if field.sign_of(rest) <= 0:
                hi = mid
            else:
                lo = mid + 1
        tau = [x - y for x, y in zip(tau, _below(ordered, v, state, lo))]
        letters.append(lo)
        state = ordered.edge_at(state, lo)[3]
    raise NonPeriodicWalk(
        f"greedy expansion did not become periodic within {max_steps} steps for {where}"
    )


def boundary_point(
    t: FieldElement | Fraction | int,
    data: PerronData,
    ordered: OrderedContactGraph,
) -> RationalPoint:
    """C(t): evaluate the digit address of the greedy walk of t."""
    walk = param_to_walk(t, data, ordered)
    return point_eval(psi(walk, ordered), ordered.graph.params)


def count_walks(graph: ContactGraph, n: int, limit: int | None = None) -> int:
    """The number of length-n walks.  With a limit, the count stops at the
    first level whose count exceeds it and returns that count: every state
    has an out-edge, so counts never fall from one level to the next, and
    the level-n count exceeds the limit too."""
    adj = graph.adjacency()
    vec = [1] * 6
    for _ in range(n):
        if limit is not None and sum(vec) > limit:
            break
        vec = [sum(adj[i][j] * vec[j] for j in range(6)) for i in range(6)]
    return sum(vec)


_INT64_MAX = 2**63 - 1


@dataclass(frozen=True, eq=False)
class BoundaryApprox:
    """Level-n polygonal boundary approximation in integer coordinates.

    Every level-n vertex is an integer vector over ``scale`` = D*B^n, where D
    is the LCM of the junction denominators, because B*M^{-1} is an integer
    matrix.  ``point_array`` holds the first point of each length-n walk in
    lexicographic order, and ``last_array`` each walk's last point for
    continuity checks.  Each is one (m, 2) integer array, int64 or Python
    ints.  ``point_array`` is the polygon as it stands, with no vertex
    repeated: each walk's last point is the next walk's first (the lemma of
    ``ordered_extension``, cyclically), and differs from its own first, as
    f_w is injective and consecutive junctions differ in y.  ``vertices``
    views ``point_array`` as exact rational pairs and ``firsts`` as int
    pairs; each view is built once, on first use.
    """

    scale: int
    point_array: np.ndarray
    last_array: np.ndarray

    @cached_property
    def firsts(self) -> tuple[IntVec, ...]:
        return tuple(map(tuple, self.point_array.tolist()))

    @cached_property
    def vertices(self) -> tuple[RationalPoint, ...]:
        s = self.scale
        return tuple((Fraction(x, s), Fraction(y, s)) for (x, y) in self.point_array.tolist())


def approx_boundary(
    ordered: OrderedContactGraph, n: int, budget: int = 10**6
) -> BoundaryApprox:
    """Vertices psi(w & 1bar) of all length-n walks in lex order.

    A walk with digits a_1..a_n that ends in state s has the vertex
    sum_k M^{-k} (a_k, 0) + M^{-n} V_s.  Times D*B^n this is
    sum_k D*B^(n-k) N^k (a_k, 0) + N^n (D*V_s) with N = B*M^{-1}, all integer.

    The walks are expanded level by level: each walk is repeated once per
    out-edge of its state, and the edge's offset and target are read from
    one flat table of the ordered edges.  A state's children are contiguous
    and in order, so the walks stay in lex order.  Coordinates are int64
    when the largest partial sum and the scale fit, and Python ints
    otherwise.
    """
    import numpy as np

    graph = ordered.graph
    a, b = graph.params.a, graph.params.b
    if n < 0:
        raise OutOfRange(f"level must be nonnegative, got {n} for (A,B)=({a},{b})")
    if count_walks(graph, n, limit=budget) > budget:
        raise BudgetExceeded(
            f"the walks at level {n} exceed budget {budget} for (A,B)=({a},{b})"
        )
    # the junctions are reduced, so D is the LCM of their coordinates'
    # denominators
    d = math.lcm(*(den for _, _, den in ordered.junctions))
    # steps[k]: the offset a digit 1 adds at depth k+1; ends[i]: N^n (D*V_{i+1})
    (p00, p01), (p10, p11) = (1, 0), (0, 1)  # N^k, N = B*M^{-1} = [[-A, B], [-1, 0]]
    steps: list[IntVec] = []
    for k in range(1, n + 1):
        (p00, p01), (p10, p11) = (b * p10 - a * p00, b * p11 - a * p01), (-p00, -p01)
        w = d * b ** (n - k)
        steps.append((w * p00, w * p10))
    ends = []
    for x, y, den in ordered.junctions:
        x, y = x * (d // den), y * (d // den)
        ends.append((p00 * x + p01 * y, p10 * x + p11 * y))
    # every coordinate met is a partial sum of digit * step plus an end; the
    # scale fits too, so that a writer's gcds with it stay in the dtype
    reach = (b - 1) * sum(max(map(abs, s)) for s in steps) + max(abs(c) for e in ends for c in e)
    dtype = np.int64 if max(reach, d * b**n) <= _INT64_MAX else object
    edges = [e for order in ordered.orders for e in order]
    digits = [e[1] for e in edges]
    targets = np.array([e[3] - 1 for e in edges], dtype=np.int64)
    degree = np.array([len(order) for order in ordered.orders], dtype=np.int64)
    offset = np.cumsum(degree) - degree  # of each state's first edge
    state = np.arange(6, dtype=np.int64)  # of each walk, 0-based
    xy = np.zeros((6, 2), dtype=dtype)
    for sx, sy in steps:
        count = degree[state]
        start = np.cumsum(count) - count  # of each walk's children
        edge = np.arange(int(count.sum())) + np.repeat(offset[state] - start, count)
        moves = np.array([(c * sx, c * sy) for c in digits], dtype=dtype)
        xy = np.repeat(xy, count, axis=0) + moves[edge]
        state = targets[edge]
    end = np.array(ends, dtype=dtype)
    return BoundaryApprox(d * b**n, xy + end[state], xy + end[(state + 1) % 6])


# ---------------------------------------------------------------------------
# exports


def _state_label(graph: ContactGraph, i: int) -> str:
    v = graph.states[i - 1]
    return f"K{i} ({v[0]},{v[1]})"


def graph_to_dot(ordered: OrderedContactGraph) -> str:
    lines = ["digraph contact {"]
    for i in range(1, 7):
        lines.append(f'  s{i} [label="{_state_label(ordered.graph, i)}"];')
    for i in range(1, 7):
        for k, (src, a, ap, j) in enumerate(ordered.orders[i - 1], start=1):
            lines.append(f'  s{src} -> s{j} [label="{a}|{ap} #{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(ordered: OrderedContactGraph) -> dict:
    graph = ordered.graph
    return {
        "schema": "tiletopo/contact-graph@1",
        "params": {"A": graph.params.a, "B": graph.params.b},
        "states": [
            {"index": i, "vector": list(graph.states[i - 1])} for i in range(1, 7)
        ],
        # sorted by (source, a, a', target): states 1..3 in letter order and
        # 4..6 in reverse, by step 1 of the lemma of ``ordered_extension``
        "edges": [
            {"source": i, "target": j, "a": a, "a_prime": ap}
            for s, order in enumerate(ordered.orders)
            for (i, a, ap, j) in (order if s < 3 else reversed(order))
        ],
        "order": [
            {
                "state": i,
                "edges": [
                    {"a": a, "a_prime": ap, "target": j, "index": k}
                    for k, (_, a, ap, j) in enumerate(ordered.orders[i - 1], start=1)
                ],
            }
            for i in range(1, 7)
        ],
        "vertices": [[str(x), str(y)] for (x, y) in ordered.vertices],
    }
