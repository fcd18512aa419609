"""Contact graph, its ordered extension, and the boundary parametrization.

The boundary of the tile decomposes into six pieces K_s indexed by the
contact neighbors R = {±P1, ±Q1, ±R}; the subdivision K_s = U M^{-1}(K_s' + a)
is encoded by a strongly connected graph whose edges s -a|a'-> s' satisfy
M s + (a', 0) = s' + (a, 0).  Ordering the states 1..6 and the edges out of
each state turns lexicographic walk order into a continuous traversal of the
boundary; the interval [0, 1] is subdivided proportionally to the Perron
eigenvector of the incidence matrix, giving a parametrization t -> C(t) whose
vertices live in Q(beta).

The edge ordering is derived, not guessed: each flip-equivariant choice of
first edges (states 4..6 take the digit flips of the choices for 1..3)
fixes the six traversal junctions V_i = psi(i; 1bar) as exact fixed points
of the chosen contractions f_a(p) = M^{-1}(p + (a, 0)), and each state's
subpieces are then threaded between its two junctions by exact endpoint
equality.  Every point the threading meets is f_a(V_j) for a digit a and a
junction j, and is kept as the pair (a, j).  As M^{-1} is injective, two
such points are equal exactly when V_j + (a, 0) = V_k + (b, 0): a digit
comparison when j = k, else one cross-multiplied comparison of two
junctions.  Every map is decided, in integers: B*M^{-1} = [[-A, B], [-1, 0]]
is an integer matrix, so each junction is an integer pair over its own
denominator, solved only when a comparison reads it.  An ordering that comes
out keeps its junctions as reduced triples (x, y, den); Fractions are built
only when its ``vertices`` are read.  ``derive_order_extension`` decides
every map and is the certificate that the ordering is unique: none, two, or
a state that threads two ways raises, and so does an ordering that is not
the letter table's below; ``contact-graph`` runs it.

``ordered_extension`` is the ordering in closed form, the one ``param``,
``approx``, ``render`` and the chain setup of ``verify-chains`` call: states
1..3 take their out-edges sorted, states 4..6 the digit flips of those
orders (their own out-edges in reverse order), and the six junctions are
read off (A, B).  Its docstring proves that these orders thread the first
map of the search, phi_0, from junction to junction, so nothing is checked
at run time.  The orders follow the edge families, so the ordered graph
reads every letter by index off a six-row table of (A, B): ``edge_at``,
``out_count``, the letters before a letter counted by target, and the
steps of a walk; ``orders`` is a view built from the table on first use.
A ``ContactGraph`` is (A, B) and its six states; ``has_edge`` and the
adjacency counts read the family rule, and its 4B+2 edges are built only
when read: by the search and the exports.  So no op but ``contact-graph``
builds an edge list, and a ``param`` walk reads only the letters it takes.

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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product as iproduct
from typing import TYPE_CHECKING, Sequence

from .algebraic import FieldElement, NumberField, _convolve, dominant_root_field
from .errors import (
    BudgetExceeded,
    CertificateFailure,
    NoConsistentOrdering,
    NonPeriodicWalk,
    OutOfRange,
)
from .numsys import (
    Address,
    RationalPoint,
    TileParams,
    Triple,
    _contract,
    _reduced,
    periodic_tail_scaled,
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
    params: TileParams
    states: tuple[IntVec, ...]

    # the edges and each state's out-edges, built on first use; not fields,
    # so equality, hashing and repr read only the two above
    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """All edges s -a|a'-> s' with M s + (a', 0) = s' + (a, 0), digits in
        range: by source, then target, then digit."""
        b = self.params.b
        edges: list[Edge] = []
        for i in range(1, 7):
            for j in range(1, 7):
                delta = self._offset(i, j)
                if delta is not None:
                    for a in range(max(0, -delta), min(b, b - delta)):
                        edges.append((i, a, a + delta, j))
        return tuple(edges)

    @cached_property
    def _outs(self) -> tuple[tuple[Edge, ...], ...]:
        # the edges come grouped by source, in increasing order
        cuts = [bisect_left(self.edges, (i,)) for i in range(1, 8)]
        return tuple(self.edges[lo:hi] for lo, hi in zip(cuts, cuts[1:]))

    def out_edges(self, i: int) -> tuple[Edge, ...]:
        return self._outs[i - 1]

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
    """The contact graph of (A, B); its edges are built only when read.

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


def _junction(
    node: int,
    phi: tuple[Edge, ...],
    params: TileParams,
    cycles: dict[tuple[int, ...], Triple],
    values: list[Triple | None],
) -> Triple:
    """The junction V_{node+1} = psi(node+1; 1bar) of a first-edge map
    (phi[i-1] is the first edge of state i) as (x, y, den), the point
    (x/den, y/den).

    Only the nodes on the orbit of ``node`` under phi are solved, and each
    is stored in ``values`` (one list per map, None where unsolved).  A
    cycle's value comes from the integer periodic solve, cached in
    ``cycles`` by digit word; a tree node's is f_a of its successor's, where
    a is its first edge's digit.  Neither is reduced.
    """
    start = node
    path: list[int] = []
    while values[node] is None and node not in path:
        path.append(node)
        node = phi[node][3] - 1
    if values[node] is None:
        word = tuple(phi[i][1] for i in path[path.index(node):])
        if word not in cycles:
            cycles[word] = periodic_tail_scaled(word, params)
        values[node] = cycles[word]
    for node in reversed(path):
        if values[node] is None:
            values[node] = _contract(phi[node][1], values[phi[node][3] - 1], params)
    return values[start]


def _digit_onto(
    a: int,
    j: int,
    t: int,
    phi: tuple[Edge, ...],
    params: TileParams,
    cycles: dict[tuple[int, ...], Triple],
    values: list[Triple | None],
) -> int | None:
    """The digit b with f_b(V_t) = f_a(V_j), or None if no integer does it.

    M^{-1} is injective, so the equality is V_t + (b, 0) = V_j + (a, 0):
    b = a when t = j, with no junction solved, and otherwise the y parts of
    the two junctions must agree and their x parts differ by an integer.
    """
    if t == j:
        return a
    xj, yj, dj = values[j - 1] or _junction(j - 1, phi, params, cycles, values)
    xt, yt, dt = values[t - 1] or _junction(t - 1, phi, params, cycles, values)
    if yj * dt != yt * dj:
        return None
    b, r = divmod(xj * dt - xt * dj, dj * dt)
    return None if r else a + b


def _thread_state(
    state: int,
    edges: tuple[Edge, ...],
    steps: dict[int, dict[int, list[Edge]]],
    phi: tuple[Edge, ...],
    params: TileParams,
    cycles: dict[tuple[int, ...], Triple],
    values: list[Triple | None],
    where: str,
) -> tuple[Edge, ...] | None:
    """The ordering of the state's edges chaining endpoint-to-endpoint from
    V_state to V_{state+1}, or None if there is none.

    Every point of a chain is a pair (a, j), the point f_a(V_j): the start
    V_state is f_a(V_t) for phi's first edge (state, a, ., t), the subpiece
    of an edge (state, b, ., t) runs from f_b(V_t) to f_b(V_{t+1}), and the
    goal V_{state+1} is read off phi's next entry the same way.  From a
    point, ``_digit_onto`` gives for each target t the one digit b whose
    subpiece f_b(V_t) starts there, and ``steps`` holds the state's edges by
    target, then digit.  The chain is searched depth first on an explicit
    stack of untried edges.  A state whose one edge is phi's first edge
    (state, a, ., t) starts at (a, t), so its first step is the digit a
    itself and its test is the one comparison f_a(V_{t+1}) = V_{state+1}.
    """
    _, a, _, j = phi[state - 1]
    _, a_goal, _, t_goal = phi[state % 6]
    chain: list[Edge] = []
    stack: list[tuple[int, Edge]] = []  # (chain length before the edge, edge)
    found = None
    while True:
        depth = len(chain)
        if depth < len(edges):
            for t, by_digit in steps.items():
                for e in by_digit.get(_digit_onto(a, j, t, phi, params, cycles, values), ()):
                    if e not in chain:
                        stack.append((depth, e))
        elif _digit_onto(a, j, t_goal, phi, params, cycles, values) == a_goal:
            if found is not None:
                raise CertificateFailure(f"state {state} threads two ways for {where}")
            found = tuple(chain)
        if not stack:
            return found
        depth, e = stack.pop()
        del chain[depth:]
        chain.append(e)
        a, j = e[1], e[3] % 6 + 1


def _decide_map(
    phi: tuple[Edge, ...],
    outs: list[tuple[Edge, ...]],
    steps: list[dict[int, dict[int, list[Edge]]]],
    params: TileParams,
    cycles: dict[tuple[int, ...], Triple],
    where: str,
) -> tuple[tuple[tuple[Edge, ...], ...], tuple[Triple, ...]] | None:
    """The orders and the junctions V_1..V_6, as reduced triples, of a
    first-edge map whose states all thread, or None at the first state, in
    order 1..6, that does not.

    Every state goes to ``_thread_state``, which solves a junction into
    ``values`` (one list per map) only when a comparison reads it.  The
    junctions are reduced only for a map that completes.
    """
    values: list[Triple | None] = [None] * 6
    orders: list[tuple[Edge, ...]] = []
    for state in range(1, 7):
        order = _thread_state(
            state, outs[state - 1], steps[state - 1], phi, params, cycles, values, where
        )
        if order is None:
            return None
        orders.append(order)
    junctions = tuple(_reduced(_junction(i, phi, params, cycles, values)) for i in range(6))
    return tuple(orders), junctions


def _by_target(edges: tuple[Edge, ...]) -> dict[int, dict[int, list[Edge]]]:
    """A state's out-edges by target, then digit, as ``_thread_state`` reads
    them."""
    steps: dict[int, dict[int, list[Edge]]] = {}
    for e in edges:
        steps.setdefault(e[3], {}).setdefault(e[1], []).append(e)
    return steps


def _edge_tables(
    graph: ContactGraph,
) -> tuple[list[tuple[Edge, ...]], list[dict[int, dict[int, list[Edge]]]]]:
    """Each state's out-edges, and the same edges by target, then digit."""
    outs = [graph.out_edges(i) for i in range(1, 7)]
    return outs, [_by_target(edges) for edges in outs]


def derive_order_extension(graph: ContactGraph) -> OrderedContactGraph:
    """The continuous edge ordering, certified unique by deciding every
    flip-equivariant first-edge map.

    Each flip-equivariant first-edge map determines the six traversal
    junctions V_i = psi(i; 1bar) exactly, and every state's subpieces must
    chain from V_i to V_{i+1} by endpoint equality.  Orderings found this way
    already satisfy the cyclic closure (the chain's last point is V_{i+1} and
    the maximal-walk value is the unique fixed point through last edges).
    No ordering raises NoConsistentOrdering, more than one CertificateFailure.

    Every map is decided by ``_decide_map``, states in order 1..6, each by
    the one threading routine ``_thread_state`` on points f_a(V_j) kept as
    (digit, junction) pairs.  On all 819 pairs 1 <= A <= B <= 40 state 1 has
    the single edge (1, 0, B-1, 3), and its test f_0(V_4) = V_2 rejects 95%
    of the maps; on more than half of all maps it reduces to comparing two
    digits, with no junction solved.  ``ordered_extension`` proves that the
    sorted orders thread phi_0, the first map this search visits; what the
    search adds is that no other map completes and no state threads two
    ways, which is why ``contact-graph`` runs it.  It takes any graph,
    including hand-built ones that no pair gives, and returns the ordered
    graph of its junctions; the one ordering it finds must be the letter
    table's for the graph's (A, B), or it raises CertificateFailure.
    """
    params = graph.params
    where = f"(A,B)=({params.a},{params.b})"
    outs, steps = _edge_tables(graph)
    cycles: dict[tuple[int, ...], Triple] = {}
    complete: dict[tuple[tuple[Edge, ...], ...], tuple[Triple, ...]] = {}
    with_flips = [[(e, _flip_edge(e, params.b)) for e in sorted(outs[i])] for i in range(3)]
    for (e1, f1), (e2, f2), (e3, f3) in iproduct(*with_flips):
        phi = (e1, e2, e3, f1, f2, f3)
        found = _decide_map(phi, outs, steps, params, cycles, where)
        if found is not None:
            complete.setdefault(*found)
    if not complete:
        raise NoConsistentOrdering(f"no continuous edge ordering for {where}")
    if len(complete) > 1:
        raise CertificateFailure(f"{len(complete)} continuous edge orderings for {where}")
    ((orders, junctions),) = complete.items()
    ordered = OrderedContactGraph(graph, junctions)
    if orders != ordered.orders:
        raise CertificateFailure(f"the ordering found is not the table's for {where}")
    return ordered


def ordered_extension(graph: ContactGraph) -> OrderedContactGraph:
    """The continuous edge ordering in closed form: the letter table of
    ``OrderedContactGraph``, which gives states 1..3 their out-edges sorted
    (tuple order) and states 4..6 theirs in reverse order, and the junctions
    V_1..V_6, over n = A + B + 1,

        (A+1, 1), (A^2+A-B, A+1), (-B, 1),
        (-(A+1)B, -B), (1-A^2-AB, -(A+B)), (1+A-AB, -B).

    Lemma: on a graph of ``build_contact_graph`` these orders thread phi_0,
    the first map that ``derive_order_extension`` visits, and these are its
    junctions.  Proof, with edges written (digit, target):

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
       other three closed forms.
    3. The threading.  The subpiece of an edge (b, t) runs from f_b(V_t) to
       f_b(V_{t+1}); M^{-1} is injective, so an edge (b, t) followed by
       (b', t') chains when V_{t+1} + (b, 0) = V_{t'} + (b', 0).  In states 2
       and 3, (a,4) then (a,5) asks V_5 = V_5, and (a,5) then (a+1,4) (or
       state 3's (A-1,5) then (A,4)) asks V_6 = V_4 + (1, 0), which holds:
       V_6 - V_4 = (1+A+B, 0)/n.  Each state's first edge starts at V_s by
       phi_0, and its last edge ends at the start of the next state's first
       edge, again by phi_0: f_0(V_4) = V_2, f_{A-1}(V_5) = V_3 and
       f_{B-1}(V_6) = V_4.  States 4..6 are the flips: they ask the flipped
       identity V_3 = V_1 - (1, 0), and end at V_5, V_6 and V_1.

    So the orders complete phi_0 as ``_decide_map`` finds them; the cases
    A = 1 (state 2 has one edge) and A = B (state 3 has one edge) only drop
    steps.  Only the search certifies that no other map completes and that
    no state threads two ways.  The graph is trusted to be
    ``build_contact_graph``'s: (A, B) alone give the table and the
    junctions, kept as reduced triples, and no edge is read.
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
        "edges": [
            {"source": i, "target": j, "a": a, "a_prime": ap}
            for (i, a, ap, j) in sorted(graph.edges)
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
