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
a state that threads two ways raises; ``contact-graph`` runs it.
``ordered_extension`` is the ordering in closed form, the one ``param``,
``approx``, ``render`` and the chain setup of ``verify-chains`` call: states
1..3 take their out-edges sorted, states 4..6 the digit flips of those
orders (their own out-edges in reverse order), and the first edges form the
first map of that search, phi_0.  Its
six junctions are solved once, at one common scale S, so that each point
f_b(V_t) is the integer key (S*V_t + (b*S, 0)); the orders are then checked
edge to edge, each edge's end key against the next edge's start key.  A
graph that fails the check is left to the search; no pair B <= 60 does.
For the regime with tabulated endpoint data both check the ordering against
the known walk decodings.

The Perron vector of the incidence matrix is read off the edge families of
the contact graph, v = (beta - A + 1, A, beta (beta - A + 1)) on K1..K3 and
again on K4..K6, as integer polynomials in beta, and checked on the graph.
A walk's parameter is two integer Horner passes in Q(beta), over the prefix
and over the period, and one division.
The greedy walk of a parameter keeps its remainder as an integer vector
over the one denominator of t and u: each step multiplies it by beta and
subtracts the lengths before the chosen edge, so equal remainders are equal
vectors and a dictionary lookup finds the cycle.  FieldElement values are
built only at the ends: beta and u, a walk's parameter, and a rational t.

The level-n boundary polygon, ``BoundaryApprox``, holds (m, 2) integer
arrays over one common scale: int64 when the walk expansion's largest
partial sum fits, Python ints otherwise.  The simple-closed test and the
SVG and JSON writers read those arrays.  Its two views, the ``Fraction``
vertices of the library sketch and the int pairs of ``firsts``, are built
only on request.  numpy is
imported by ``approx_boundary`` alone, so the commands that never build a
polygon start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product as iproduct
from typing import TYPE_CHECKING

from .algebraic import FieldElement, NumberField, dominant_root_field
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
    edges: tuple[Edge, ...]

    # each state's out-edges and the edge counts source-by-target, read off
    # the edges at most once per graph; not fields, so equality, hashing and
    # repr read only the three above
    @cached_property
    def _outs(self) -> tuple[tuple[Edge, ...], ...]:
        outs: list[list[Edge]] = [[] for _ in range(6)]
        for e in self.edges:
            outs[e[0] - 1].append(e)
        return tuple(map(tuple, outs))

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        n = [[0] * 6 for _ in range(6)]
        for e in self.edges:
            n[e[0] - 1][e[3] - 1] += 1
        return tuple(map(tuple, n))

    def out_edges(self, i: int) -> tuple[Edge, ...]:
        return self._outs[i - 1]

    def has_edge(self, src: int, digit: int, dst: int) -> bool:
        return any(e[1] == digit and e[3] == dst for e in self.out_edges(src))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adjacency


def build_contact_graph(params: TileParams) -> ContactGraph:
    """All edges s -a|a'-> s' with M s + (a', 0) = s' + (a, 0), digits in range.

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
    states = contact_states(params)
    a_coef, b = params.a, params.b
    edges: list[Edge] = []
    for i, s in enumerate(states, start=1):
        ms = (-b * s[1], s[0] - a_coef * s[1])  # M s
        for j, t in enumerate(states, start=1):
            if t[1] != ms[1]:
                continue
            delta = t[0] - ms[0]  # a' - a
            for a in range(b):
                ap = a + delta
                if 0 <= ap < b:
                    edges.append((i, a, ap, j))
    return ContactGraph(params, states, tuple(edges))


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


@dataclass(frozen=True)
class OrderedContactGraph:
    graph: ContactGraph
    orders: tuple[tuple[Edge, ...], ...]  # per state 1..6, edges in order
    # V_1..V_6, junction of K_{i-1} and K_i, as reduced triples (x, y, den):
    # gcd(x, y, den) = 1 and den > 0
    junctions: tuple[Triple, ...]

    @cached_property
    def vertices(self) -> tuple[RationalPoint, ...]:
        """V_1..V_6 as exact rational pairs, built once, on first use."""
        return tuple((Fraction(x, den), Fraction(y, den)) for (x, y, den) in self.junctions)

    def out_count(self, state: int) -> int:
        return len(self.orders[state - 1])

    def edge_at(self, state: int, letter: int) -> Edge:
        order = self.orders[state - 1]
        if not 1 <= letter <= len(order):
            params = self.graph.params
            raise OutOfRange(
                f"state {state} has no edge #{letter} for (A,B)=({params.a},{params.b})"
            )
        return order[letter - 1]

    def vertex(self, i: int) -> RationalPoint:
        return self.vertices[(i - 1) % 6]

    def walk_steps(self, walk: Walk) -> tuple[list[tuple[int, Edge]], int]:
        """The (letter, edge) steps of an eventually periodic walk: the
        prefix, then the period until (state, phase) repeats; and the index
        of the step where the cycle starts."""
        steps: list[tuple[int, Edge]] = []
        state = walk.start
        for o in walk.pre:
            edge = self.edge_at(state, o)
            steps.append((o, edge))
            state = edge[3]
        if not walk.period:
            raise ValueError("an infinite walk needs a periodic tail")
        seen: dict[tuple[int, int], int] = {}
        phase = 0
        while (state, phase) not in seen:
            seen[(state, phase)] = len(steps)
            o = walk.period[phase]
            edge = self.edge_at(state, o)
            steps.append((o, edge))
            state = edge[3]
            phase = (phase + 1) % len(walk.period)
        return steps, seen[(state, phase)]


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


def _calibrated(ordered: OrderedContactGraph, where: str) -> OrderedContactGraph:
    """The ordering, once it decodes the tabulated walks of the 2A - B = 3
    regime (A != B) to their tabulated addresses."""
    params = ordered.graph.params
    if 2 * params.a - params.b == 3 and params.a != params.b:
        from .chains import alpha_calibration_rows

        for walk, addr in alpha_calibration_rows(params):
            if psi(walk, ordered) != addr:
                raise CertificateFailure(
                    f"walk {walk} does not decode to the tabulated "
                    f"0.{addr} for {where}"
                )
    return ordered


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
    digits, with no junction solved.  ``ordered_extension`` decides only the
    first map of this search.
    """
    params = graph.params
    where = f"(A,B)=({params.a},{params.b})"
    outs, steps = _edge_tables(graph)
    cycles: dict[tuple[int, ...], Triple] = {}
    complete: dict[tuple[tuple[Edge, ...], ...], OrderedContactGraph] = {}
    with_flips = [[(e, _flip_edge(e, params.b)) for e in sorted(outs[i])] for i in range(3)]
    for (e1, f1), (e2, f2), (e3, f3) in iproduct(*with_flips):
        phi = (e1, e2, e3, f1, f2, f3)
        found = _decide_map(phi, outs, steps, params, cycles, where)
        if found is not None and found[0] not in complete:
            complete[found[0]] = OrderedContactGraph(graph, *found)
    if not complete:
        raise NoConsistentOrdering(f"no continuous edge ordering for {where}")
    if len(complete) > 1:
        raise CertificateFailure(f"{len(complete)} continuous edge orderings for {where}")
    (ordered,) = complete.values()
    return _calibrated(ordered, where)


def ordered_extension(graph: ContactGraph) -> OrderedContactGraph:
    """The continuous edge ordering in closed form: states 1..3 take their
    out-edges sorted (tuple order), states 4..6 theirs in reverse order.

    On a contact graph the reverse orders are the digit flips of the sorted
    ones: the flip maps state s's edges onto state s+3's and reverses their
    digits, and an edge's digits (a, a') fix its target.  The first edges
    must form phi_0, the first map that ``derive_order_extension`` visits,
    whose entries for 4..6 are the flips of those for 1..3.  Its six
    junctions are solved and reduced once, and read as integer pairs
    (X_t, Y_t) = S*V_t over their common denominator S.  The subpiece of an
    edge (s, b, ., t) runs from f_b(V_t) to f_b(V_{t+1}), and as M^{-1} is
    injective two such points are equal exactly when their integer keys
    (X_t + b*S, Y_t) are.  The check: read in order, states 1..6 one after
    the other, each edge's end key is the next edge's start key, and the
    last edge's end is the start of the first, V_1.  The first edge of
    state s starts at V_s by the junctions' definition, so each state's
    chain runs through all its edges from V_s to V_{s+1}: the orders
    complete phi_0, as ``_decide_map`` would find them.  Its orders and
    junctions are then the ones the search returns, unless the search would
    raise for a state that threads two ways or a second ordering; only the
    search certifies uniqueness.  Where the first edges are not phi_0, or
    the check fails, the graph is left to the search.  That the check
    passes is an observation on every pair 1 <= A <= B <= 60, not a theorem.
    """
    params = graph.params
    b = params.b
    outs = [graph.out_edges(i) for i in range(1, 7)]
    orders = [tuple(sorted(edges)) for edges in outs[:3]]
    orders += [tuple(sorted(edges, reverse=True)) for edges in outs[3:]]
    if all(orders) and all(orders[i + 3][0] == _flip_edge(orders[i][0], b) for i in range(3)):
        phi = tuple(order[0] for order in orders)
        cycles: dict[tuple[int, ...], Triple] = {}
        values: list[Triple | None] = [None] * 6
        junctions = tuple(_reduced(_junction(i, phi, params, cycles, values)) for i in range(6))
        scale = math.lcm(*(den for _, _, den in junctions))
        xs = [x * (scale // den) for (x, _, den) in junctions]
        ys = [y * (scale // den) for (_, y, den) in junctions]
        edges = [e for order in orders for e in order]
        starts = [(xs[t - 1] + a * scale, ys[t - 1]) for _, a, _, t in edges]
        ends = [(xs[t % 6] + a * scale, ys[t % 6]) for _, a, _, t in edges]
        if ends == starts[1:] + starts[:1]:
            where = f"(A,B)=({params.a},{b})"
            return _calibrated(OrderedContactGraph(graph, tuple(orders), junctions), where)
    return derive_order_extension(graph)


# ---------------------------------------------------------------------------
# Perron data and the interval subdivision


@dataclass(frozen=True)
class PerronData:
    """The Perron root beta and the interval-length vector u: with the
    incidence D counting edges target-by-source (the transpose of
    ``ContactGraph.adjacency``), u is a left eigenvector, u @ D = beta u,
    sum u = 1, u > 0."""

    field: NumberField
    beta: FieldElement
    u: tuple[FieldElement, ...]


def perron_data(graph: ContactGraph) -> PerronData:
    """The Perron root beta of the boundary cubic and the interval-length
    vector u, in closed form.

    On the edge families of ``build_contact_graph``, beta v = adj v with
    v_i = v_{i+3} reads v_3 = beta v_1, beta v_2 = A v_1 + (A-1) v_2 and
    beta v_3 = (B-A) v_1 + (B-A+1) v_2.  Its solution
    v = (beta - A + 1, A, beta (beta - A + 1)) turns the last row into the
    boundary cubic.  v is kept as integer polynomials in beta, repeated for
    K4..K6, and certified on the graph it is given by two checks:
    (adj v)_i - beta v_i reduces to 0 modulo the minimal polynomial for each
    of the six rows, so beta is an eigenvalue with eigenvector v; and
    A >= 1 and beta - A + 1 > 0, so v_1 > 0, v_2 = A > 0, and
    v_3 = beta v_1 > 0 as beta > A - 1 >= 0.  A positive eigenvector of a
    nonnegative matrix belongs to its spectral radius, so beta is the Perron
    root.  v is normalized to sum 1 by one division in Q(beta).
    """
    a, b = graph.params.a, graph.params.b
    where = f"(A,B)=({a},{b})"
    # boundary cubic; the positive eigenvector below certifies that its root
    # is the Perron root
    field = dominant_root_field([-b, a - b, 1 - a, 1])
    v = [(1 - a, 1, 0), (a, 0, 0), (0, 1 - a, 1)]  # low degree first; v_{i+3} = v_i
    for i, row in enumerate(graph.adjacency()):
        # (adj v)_i = c0 v_1 + c1 v_2 + c2 v_3 with c_j = adj[i][j] + adj[i][j+3]
        c0, c1, c2 = row[0] + row[3], row[1] + row[4], row[2] + row[5]
        adj_v = (c0 * (1 - a) + c1 * a, c0 + c2 * (1 - a), c2, 0)
        if any(field.reduce([x - y for x, y in zip(adj_v, (0, *v[i % 3]))])):
            raise CertificateFailure(f"the boundary cubic's root is not an eigenvalue for {where}")
    if a < 1 or field.sign_of([1 - a, 1]) <= 0:
        raise CertificateFailure(f"left eigenvector is not strictly positive for {where}")
    sol = [field.reduce(list(vi)) for vi in v]
    total = [2 * sum(col) for col in zip(*sol)]
    u = tuple(field.quotients(sol, total)) * 2  # u_{i+3} = u_i
    return PerronData(field, field.beta(), u)


def _scaled_lengths(data: PerronData, den: int = 1) -> tuple[int, list[list[int]]]:
    """D = lcm(den, the denominators of u) and the integer vectors D*u."""
    d = math.lcm(den, *(x.den for x in data.u))
    return d, [[c * (d // x.den) for c in x.num] for x in data.u]


def walk_to_param(
    walk: Walk, data: PerronData, ordered: OrderedContactGraph
) -> FieldElement:
    """Exact parameter of an eventually periodic walk.

    A walk of K prefix steps and then a period of p steps has the parameter
    t = sum_{i < start} u_i + sum_k c_k beta^-(k+1) + beta^-K x, where c_k is
    the length below the k-th step's letter and the periodic part
    x = sum_k c'_k beta^-(k+1) + beta^-p x.  With u over one denominator D as
    integer vectors, so that every D*c is one entry of a state's prefix
    sums, y = D (sum_{i < start} u_i beta^K + sum_k c_k beta^(K-1-k)) and
    z = D sum_k c'_k beta^(p-1-k) are Horner passes, and
    t = (y (beta^p - 1) + z) / (D beta^K (beta^p - 1)).  Multiplying by beta
    is a shift reduced by the monic minimal polynomial; the one division and
    the one canonical form come at the end.
    """
    field = data.field
    d, u = _scaled_lengths(data)
    steps, k = ordered.walk_steps(walk)
    # a state's prefix sums stop at the largest letter the walk reads there:
    # a state has up to B out-edges, and the full sums made this function
    # 1.4x slower over the param benchmark's 2,457 walks
    top: dict[int, int] = {}
    for letter, edge in steps:
        top[edge[0]] = max(letter, top.get(edge[0], 0))
    below: dict[int, list[list[int]]] = {}  # state -> prefix sums of u by letter
    for state, letter in top.items():
        sums = [[0] * field.degree]
        for e in ordered.orders[state - 1][: letter - 1]:
            sums.append([x + y for x, y in zip(sums[-1], u[e[3] - 1])])
        below[state] = sums
    y = [0] * field.degree
    for v in u[: walk.start - 1]:
        y = [a + b for a, b in zip(y, v)]
    power = [1] + [0] * (field.degree - 1)  # beta^K
    for letter, edge in steps[:k]:
        y = [a + b for a, b in zip(field.times_beta(y), below[edge[0]][letter - 1])]
        power = field.times_beta(power)
    z = [0] * field.degree
    y_p, power_p = y, power  # times beta^p
    for letter, edge in steps[k:]:
        z = [a + b for a, b in zip(field.times_beta(z), below[edge[0]][letter - 1])]
        y_p, power_p = field.times_beta(y_p), field.times_beta(power_p)
    num = [a - b + c for a, b, c in zip(y_p, y, z)]
    (t,) = field.quotients([num], [d * (a - b) for a, b in zip(power_p, power)])
    return t


def param_to_walk(
    t: FieldElement | Fraction | int,
    data: PerronData,
    ordered: OrderedContactGraph,
    max_steps: int = 2048,
) -> Walk:
    """Greedy subdivision walk of a parameter in [0, 1]; boundary parameters
    resolve to the left interval's maximal walk.

    The remainder tau is kept as the integer vector D*tau over the one
    denominator D of t and u.  The start state is the first whose running
    sum of lengths reaches t.  Each step then reads beta*tau, whose
    subintervals are the lengths u of the state's edges in order: the
    chosen edge is the first whose running sum reaches beta*tau, or the
    state's last edge, and the new tau is beta*tau less the lengths before
    it.  As D is fixed, equal remainders are equal vectors, so the pair
    (state, vector) detects the cycle.
    """
    field = data.field
    if not isinstance(t, FieldElement):
        t = field.rational(t)
    where = f"(A,B)=({ordered.graph.params.a},{ordered.graph.params.b})"
    d, u = _scaled_lengths(data, t.den)
    tau = [c * (d // t.den) for c in t.num]
    if field.sign_of(tau) < 0 or field.sign_of([tau[0] - d, *tau[1:]]) > 0:
        raise OutOfRange(f"parameter t={t} must lie in [0, 1] for {where}")

    # the start state: the first i with t <= u_1 + ... + u_i
    for state in range(1, 7):
        rest = [x - y for x, y in zip(tau, u[state - 1])]
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
        order = ordered.orders[state - 1]
        tau = field.times_beta(tau)
        for idx, e in enumerate(order, start=1):
            rest = [x - y for x, y in zip(tau, u[e[3] - 1])]
            if idx == len(order) or field.sign_of(rest) <= 0:
                break
            tau = rest
        letters.append(idx)
        state = e[3]
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
    matrix.  ``point_array`` joins the first points of all length-n walks in
    lexicographic order (consecutive duplicates merged); ``first_array`` and
    ``last_array`` keep the unmerged per-walk endpoint pairs for continuity
    checks.  Each is one (m, 2) integer array, int64 or Python ints.
    ``vertices`` views ``point_array`` as exact rational pairs and
    ``firsts`` views ``first_array`` as int pairs; each view is built once,
    on first use.
    """

    scale: int
    point_array: np.ndarray
    first_array: np.ndarray
    last_array: np.ndarray

    @cached_property
    def firsts(self) -> tuple[IntVec, ...]:
        return tuple(map(tuple, self.first_array.tolist()))

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
    when the largest partial sum fits, and Python ints otherwise.
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
    # every coordinate met is a partial sum of digit * step plus an end
    reach = (b - 1) * sum(max(map(abs, s)) for s in steps) + max(abs(c) for e in ends for c in e)
    dtype = np.int64 if reach <= _INT64_MAX else object
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
    firsts = xy + end[state]
    lasts = xy + end[(state + 1) % 6]
    keep = np.ones(len(firsts), dtype=bool)
    keep[1:] = (firsts[1:] != firsts[:-1]).any(axis=1)
    points = firsts[keep]
    if len(points) > 1 and (points[0] == points[-1]).all():
        points = points[:-1]
    return BoundaryApprox(d * b**n, points, firsts, lasts)


# ---------------------------------------------------------------------------
# exports


def _state_label(graph: ContactGraph, i: int) -> str:
    v = graph.states[i - 1]
    return f"K{i} ({v[0]},{v[1]})"


def graph_to_dot(graph: ContactGraph, ordered: OrderedContactGraph | None = None) -> str:
    lines = ["digraph contact {"]
    for i in range(1, 7):
        lines.append(f'  s{i} [label="{_state_label(graph, i)}"];')
    if ordered is None:
        for (i, a, ap, j) in sorted(graph.edges):
            lines.append(f'  s{i} -> s{j} [label="{a}|{ap}"];')
    else:
        for i in range(1, 7):
            for k, (src, a, ap, j) in enumerate(ordered.orders[i - 1], start=1):
                lines.append(f'  s{src} -> s{j} [label="{a}|{ap} #{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: ContactGraph, ordered: OrderedContactGraph | None = None) -> dict:
    doc: dict = {
        "schema": "tiletopo/contact-graph@1",
        "params": {"A": graph.params.a, "B": graph.params.b},
        "states": [
            {"index": i, "vector": list(graph.states[i - 1])} for i in range(1, 7)
        ],
        "edges": [
            {"source": i, "target": j, "a": a, "a_prime": ap}
            for (i, a, ap, j) in sorted(graph.edges)
        ],
    }
    if ordered is not None:
        doc["order"] = [
            {
                "state": i,
                "edges": [
                    {"a": a, "a_prime": ap, "target": j, "index": k}
                    for k, (_, a, ap, j) in enumerate(ordered.orders[i - 1], start=1)
                ],
            }
            for i in range(1, 7)
        ]
        doc["vertices"] = [[str(x), str(y)] for (x, y) in ordered.vertices]
    return doc
