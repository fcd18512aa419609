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
of the chosen contractions, and each state's subpieces are then threaded
between its two junctions by exact endpoint equality.  Exactly one complete
ordering must come out of the search; none, two, or a state that threads
two ways raises.  For the regime with tabulated endpoint data the ordering
is then checked against the known walk decodings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from . import linalg
from .algebraic import FieldElement, NumberField, dominant_root_field
from .automata import DigitNFA
from .errors import (
    BudgetExceeded,
    CertificateFailure,
    NoConsistentOrdering,
    NotIrreducible,
    NonPeriodicWalk,
    OutOfRange,
)
from .numsys import Address, RationalPoint, TileParams, periodic_tail_value, point_eval

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

    def out_edges(self, i: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e[0] == i)

    def has_edge(self, src: int, digit: int, dst: int) -> bool:
        return any(e[0] == src and e[1] == digit and e[3] == dst for e in self.edges)

    def adjacency(self) -> list[list[int]]:
        n = [[0] * 6 for _ in range(6)]
        for (i, _, _, j) in self.edges:
            n[i - 1][j - 1] += 1
        return n

    def is_strongly_connected(self) -> bool:
        adj = self.adjacency()

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

    def language(self, start: int) -> DigitNFA:
        """Runs of the graph from a state, read as digit sequences."""
        trans: dict[int, dict[int, tuple[int, ...]]] = {}
        for i in range(1, 7):
            row: dict[int, list[int]] = {}
            for (src, a, _, dst) in self.edges:
                if src == i:
                    row.setdefault(a, []).append(dst)
            trans[i] = {a: tuple(sorted(t)) for a, t in sorted(row.items())}
        return DigitNFA((start,), trans)


def build_contact_graph(params: TileParams) -> ContactGraph:
    """All edges s -a|a'-> s' with M s + (a', 0) = s' + (a, 0), digits in range.

    For A = B the two P1/-R links drop out on their own: they would need
    a' - a = A, infeasible within [0, B-1].
    """
    if params.a < 1:
        raise OutOfRange("contact graph requires A >= 1")
    states = contact_states(params)
    m = params.matrix
    b = params.b
    edges: list[Edge] = []
    for i, s in enumerate(states, start=1):
        ms = linalg.mat_vec(m, s)
        for j, t in enumerate(states, start=1):
            if t[1] != ms[1]:
                continue
            delta = t[0] - ms[0]  # a' - a
            for a in range(b):
                ap = a + delta
                if 0 <= ap < b:
                    edges.append((i, a, ap, j))
    graph = ContactGraph(params, states, tuple(edges))
    if not graph.is_strongly_connected():
        raise CertificateFailure("contact graph must be strongly connected")
    return graph


# ---------------------------------------------------------------------------
# walks


@dataclass(frozen=True)
class Walk:
    """A walk (start; o1 o2 ...) in the ordered graph: 1-based edge-order
    letters, finite prefix plus optional periodic tail."""

    start: int
    pre: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def letter(self, n: int) -> int:
        """The n-th letter, 1-based; infinite walks only."""
        if n <= len(self.pre):
            return self.pre[n - 1]
        if not self.period:
            raise IndexError("finite walk exhausted")
        return self.period[(n - 1 - len(self.pre)) % len(self.period)]

    def __post_init__(self) -> None:
        if not 1 <= self.start <= 6:
            raise OutOfRange(f"walk start {self.start} is not a state 1..6")


def walk_compare(a: Walk, b: Walk) -> int:
    """Lexicographic comparison of infinite walks: start state first."""
    if a.start != b.start:
        return -1 if a.start < b.start else 1
    horizon = (
        len(a.pre)
        + len(b.pre)
        + 2 * math.lcm(max(1, len(a.period)), max(1, len(b.period)))
        + 2
    )
    for n in range(1, horizon + 1):
        la, lb = a.letter(n), b.letter(n)
        if la != lb:
            return -1 if la < lb else 1
    return 0


# ---------------------------------------------------------------------------
# ordered extension


@dataclass(frozen=True)
class OrderedContactGraph:
    graph: ContactGraph
    orders: tuple[tuple[Edge, ...], ...]  # per state 1..6, edges in order
    vertices: tuple[RationalPoint, ...]  # V_1..V_6, junction of K_{i-1} and K_i

    def out_count(self, state: int) -> int:
        return len(self.orders[state - 1])

    def edge_at(self, state: int, letter: int) -> Edge:
        order = self.orders[state - 1]
        if not 1 <= letter <= len(order):
            raise OutOfRange(f"state {state} has no edge #{letter}")
        return order[letter - 1]

    def vertex(self, i: int) -> RationalPoint:
        return self.vertices[(i - 1) % 6]


def psi(walk: Walk, ordered: OrderedContactGraph) -> Address:
    """Digit address read along a walk; infinite walks must be eventually
    periodic, which edge-order letters guarantee."""
    state = walk.start
    pre_digits: list[int] = []
    for o in walk.pre:
        edge = ordered.edge_at(state, o)
        pre_digits.append(edge[1])
        state = edge[3]
    if not walk.period:
        raise ValueError("psi needs an infinite walk")
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    phase = 0
    while (state, phase) not in seen:
        seen[(state, phase)] = len(digits)
        edge = ordered.edge_at(state, walk.period[phase])
        digits.append(edge[1])
        state = edge[3]
        phase = (phase + 1) % len(walk.period)
    k = seen[(state, phase)]
    return Address((), tuple(pre_digits) + tuple(digits[:k]), tuple(digits[k:]))


def _apply_f(a: int, p: RationalPoint, minv: linalg.Mat2) -> RationalPoint:
    return linalg.mat_vec(minv, (p[0] + a, p[1]))


def _flip_edge(e: Edge, b: int) -> Edge:
    """Digit flip a -> B-1-a; it exchanges state i with state i+3 (mod 6)."""
    return ((e[0] + 2) % 6 + 1, b - 1 - e[1], b - 1 - e[2], (e[3] + 2) % 6 + 1)


def _vertices_of_first_edges(
    phi: dict[int, Edge], params: TileParams
) -> tuple[RationalPoint, ...]:
    """Fixed points V_i = f_a(V_j) of a first-edge map: the values psi(i; 1bar).

    Each state feeds a functional graph on six nodes; cycle values come from
    the exact periodic solve, tree values by applying the contractions.
    """
    values: dict[int, RationalPoint] = {}
    minv = params.matrix_inv
    for start in range(1, 7):
        if start in values:
            continue
        path = [start]
        seen = {start: 0}
        while True:
            nxt = phi[path[-1]][3]
            if nxt in values:
                break
            if nxt in seen:
                cycle = path[seen[nxt]:]
                digits = tuple(phi[s][1] for s in cycle)
                val = periodic_tail_value(digits, params)
                values[cycle[0]] = val
                for s in cycle[1:][::-1]:
                    val = _apply_f(phi[s][1], val, minv)
                    values[s] = val
                break
            seen[nxt] = len(path)
            path.append(nxt)
        for s in path[::-1]:
            if s not in values:
                values[s] = _apply_f(phi[s][1], values[phi[s][3]], minv)
    return tuple(values[i] for i in range(1, 7))


def _thread_state(
    graph: ContactGraph, state: int, vertices: tuple[RationalPoint, ...]
) -> tuple[Edge, ...] | None:
    """The ordering of the state's edges chaining endpoint-to-endpoint from
    V_state to V_{state+1}, or None if there is none: the subpiece of edge e
    runs from f_a(V_target) to f_a(V_{target+1})."""
    minv = graph.params.matrix_inv
    edges = graph.out_edges(state)
    seg = {
        e: (
            _apply_f(e[1], vertices[e[3] - 1], minv),
            _apply_f(e[1], vertices[e[3] % 6], minv),
        )
        for e in edges
    }
    goal = vertices[state % 6]
    found: list[tuple[Edge, ...]] = []

    def rec(cur: RationalPoint, remaining: frozenset, acc: tuple[Edge, ...]) -> None:
        if not remaining:
            if cur == goal:
                if found:
                    raise CertificateFailure(
                        f"state {state} threads two ways for "
                        f"(A,B)=({graph.params.a},{graph.params.b})"
                    )
                found.append(acc)
            return
        for e in remaining:
            if seg[e][0] == cur:
                rec(seg[e][1], remaining - {e}, acc + (e,))

    rec(vertices[state - 1], frozenset(edges), ())
    return found[0] if found else None


def derive_order_extension(graph: ContactGraph) -> OrderedContactGraph:
    """The unique continuous edge ordering.

    Each flip-equivariant first-edge map determines the six traversal
    junctions V_i = psi(i; 1bar) exactly, and every state's subpieces must
    chain from V_i to V_{i+1} by endpoint equality.  Orderings found this way
    already satisfy the cyclic closure (the chain's last point is V_{i+1} and
    the maximal-walk value is the unique fixed point through last edges).
    No ordering raises NoConsistentOrdering, more than one CertificateFailure.
    """
    params = graph.params
    where = f"(A,B)=({params.a},{params.b})"
    outs = [sorted(graph.out_edges(i)) for i in (1, 2, 3)]
    complete: dict[tuple[tuple[Edge, ...], ...], OrderedContactGraph] = {}
    for firsts in iproduct(*outs):
        flips = tuple(_flip_edge(e, params.b) for e in firsts)
        vertices = _vertices_of_first_edges(dict(enumerate(firsts + flips, 1)), params)
        orders = []
        for state in range(1, 7):
            order = _thread_state(graph, state, vertices)
            if order is None:
                break
            orders.append(order)
        else:
            key = tuple(orders)
            complete.setdefault(key, OrderedContactGraph(graph, key, vertices))
    if not complete:
        raise NoConsistentOrdering(f"no continuous edge ordering for {where}")
    if len(complete) > 1:
        raise CertificateFailure(f"{len(complete)} continuous edge orderings for {where}")
    (ordered,) = complete.values()

    if 2 * params.a - params.b == 3 and params.a != params.b:
        from .chains import alpha_calibration_rows

        for walk, addr in alpha_calibration_rows(params):
            if psi(walk, ordered) != addr:
                raise CertificateFailure(
                    f"walk {walk} does not decode to the tabulated "
                    f"0.{addr} for {where}"
                )
    return ordered


# ---------------------------------------------------------------------------
# Perron data and the interval subdivision


@dataclass(frozen=True)
class PerronData:
    """Incidence counts edges target-by-source, so the interval-length vector
    u is a left eigenvector: u @ D = beta u, sum u = 1, u > 0."""

    incidence: tuple[tuple[int, ...], ...]
    field: NumberField
    beta: FieldElement
    u: tuple[FieldElement, ...]


def perron_data(graph: ContactGraph) -> PerronData:
    if not graph.is_strongly_connected():
        raise NotIrreducible("incidence matrix is reducible")
    adj = graph.adjacency()
    incidence = tuple(tuple(adj[j][i] for j in range(6)) for i in range(6))
    # boundary cubic; by Perron-Frobenius the positive eigenvector below
    # certifies that its root is the Perron root
    a, b = graph.params.a, graph.params.b
    field = dominant_root_field([-b, a - b, 1 - a, 1])
    beta = field.beta()

    # nullspace of (adj - beta I) acting on column vectors: beta u = adj u
    rows = [
        [
            field.rational(adj[i][j]) - (beta if i == j else field.zero())
            for j in range(6)
        ]
        for i in range(6)
    ]
    # Gaussian elimination to reduced row echelon form
    pivots: list[int] = []
    r = 0
    for c in range(6):
        pivot = next((i for i in range(r, 6) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(6):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(6) if c not in pivots]
    if not free:
        raise CertificateFailure("the boundary cubic's root is not an eigenvalue")
    if len(free) > 1:
        raise NotIrreducible("Perron eigenvalue is not simple")
    sol = [field.zero()] * 6
    sol[free[0]] = field.one()
    for row, c in zip(rows, pivots):
        sol[c] = -row[free[0]]
    inv_total = sum(sol[1:], sol[0]).inverse()
    u = tuple(v * inv_total for v in sol)
    if any(v.sign() <= 0 for v in u):
        raise CertificateFailure("left eigenvector is not strictly positive")
    return PerronData(incidence, field, beta, u)


def walk_to_param(
    walk: Walk, data: PerronData, ordered: OrderedContactGraph
) -> FieldElement:
    """Exact parameter of an eventually periodic walk."""
    field = data.field
    beta_inv = data.beta.inverse()

    def below(state: int, letter: int) -> FieldElement:
        total = field.zero()
        for e in ordered.orders[state - 1][: letter - 1]:
            total = total + data.u[e[3] - 1]
        return total

    t = field.zero()
    for i in range(walk.start - 1):
        t = t + data.u[i]
    state = walk.start
    scale = beta_inv
    for o in walk.pre:
        t = t + below(state, o) * scale
        state = ordered.edge_at(state, o)[3]
        scale = scale * beta_inv
    if walk.period:
        seen: dict[tuple[int, int], int] = {}
        contribs: list[FieldElement] = []
        phase = 0
        while (state, phase) not in seen:
            seen[(state, phase)] = len(contribs)
            contribs.append(below(state, walk.period[phase]))
            state = ordered.edge_at(state, walk.period[phase])[3]
            phase = (phase + 1) % len(walk.period)
        k = seen[(state, phase)]
        for c in contribs[:k]:
            t = t + c * scale
            scale = scale * beta_inv
        block = field.zero()
        power = field.one()
        for c in contribs[k:]:
            block = block + c * power
            power = power * beta_inv
        p = len(contribs) - k
        beta_inv_p = field.one()
        for _ in range(p):
            beta_inv_p = beta_inv_p * beta_inv
        t = t + scale * block * (field.one() - beta_inv_p).inverse()
    return t


def param_to_walk(
    t: FieldElement | Fraction | int,
    data: PerronData,
    ordered: OrderedContactGraph,
    max_steps: int = 2048,
) -> Walk:
    """Greedy subdivision walk of a parameter in [0, 1]; boundary parameters
    resolve to the left interval's maximal walk."""
    field = data.field
    if not isinstance(t, FieldElement):
        t = field.rational(t)
    if t.sign() < 0 or (t - field.one()).sign() > 0:
        raise OutOfRange("parameter must lie in [0, 1]")
    beta = data.beta

    # choose the start state: first i with t <= L_{i+1}
    cum = field.zero()
    for state in range(1, 7):
        nxt = cum + data.u[state - 1]
        if (t - nxt).sign() <= 0:
            break
        cum = nxt
    else:
        raise CertificateFailure("interval lengths do not add up to 1")
    tau = t - cum
    start_state = state
    beta_inv = beta.inverse()
    letters: list[int] = []
    seen: dict[tuple[int, tuple], int] = {}
    for step in range(max_steps):
        key = (state, tau.coeffs)
        if key in seen:
            k = seen[key]
            return Walk(start_state, tuple(letters[:k]), tuple(letters[k:]))
        seen[key] = step
        order = ordered.orders[state - 1]
        run = field.zero()
        chosen = None
        for idx, e in enumerate(order, start=1):
            nxt = run + data.u[e[3] - 1] * beta_inv
            if (tau - nxt).sign() <= 0 or idx == len(order):
                chosen = (idx, e, run)
                break
            run = nxt
        idx, e, low = chosen
        letters.append(idx)
        tau = (tau - low) * beta
        state = e[3]
    raise NonPeriodicWalk("greedy expansion did not become periodic")


def boundary_point(
    t: FieldElement | Fraction | int,
    data: PerronData,
    ordered: OrderedContactGraph,
) -> RationalPoint:
    """C(t): evaluate the digit address of the greedy walk of t."""
    walk = param_to_walk(t, data, ordered)
    return point_eval(psi(walk, ordered), ordered.graph.params)


def count_walks(graph: ContactGraph, n: int) -> int:
    adj = graph.adjacency()
    vec = [1] * 6
    for _ in range(n):
        vec = [sum(adj[i][j] * vec[j] for j in range(6)) for i in range(6)]
    return sum(vec)


@dataclass(frozen=True)
class BoundaryApprox:
    """Level-n polygonal boundary approximation in integer coordinates.

    Every level-n vertex is an integer vector over ``scale`` = D*B^n, where D
    is the LCM of the junction denominators, because B*M^{-1} is an integer
    matrix.  ``points`` joins the first points of all length-n walks in
    lexicographic order (consecutive duplicates merged); ``firsts`` and
    ``lasts`` keep the unmerged per-walk endpoint pairs for continuity
    checks.  ``vertices`` is ``points`` as exact rational pairs.
    """

    level: int
    scale: int
    points: tuple[IntVec, ...]
    firsts: tuple[IntVec, ...]
    lasts: tuple[IntVec, ...]

    @property
    def vertices(self) -> tuple[RationalPoint, ...]:
        s = self.scale
        return tuple((Fraction(x, s), Fraction(y, s)) for (x, y) in self.points)


def approx_boundary(
    ordered: OrderedContactGraph, n: int, budget: int = 10**6
) -> BoundaryApprox:
    """Vertices psi(w & 1bar) of all length-n walks in lex order.

    A walk with digits a_1..a_n that ends in state s has the vertex
    sum_k M^{-k} (a_k, 0) + M^{-n} V_s.  Times D*B^n this is
    sum_k D*B^(n-k) N^k (a_k, 0) + N^n (D*V_s) with N = B*M^{-1}, all integer.
    """
    graph = ordered.graph
    if n < 0:
        raise OutOfRange("level must be nonnegative")
    total = count_walks(graph, n)
    if total > budget:
        raise BudgetExceeded(f"{total} walks at level {n} exceed budget {budget}")
    a, b = graph.params.a, graph.params.b
    d = math.lcm(*(c.denominator for v in ordered.vertices for c in v))
    # steps[k]: the offset a digit 1 adds at depth k+1; ends[i]: N^n (D*V_{i+1})
    power: linalg.Mat2 = linalg.IDENTITY
    steps: list[IntVec] = []
    for k in range(1, n + 1):
        power = linalg.mat_mul(power, ((-a, b), (-1, 0)))
        w = d * b ** (n - k)
        steps.append((w * power[0][0], w * power[1][0]))
    ends = [linalg.mat_vec(power, (int(x * d), int(y * d))) for (x, y) in ordered.vertices]
    firsts: list[IntVec] = []
    lasts: list[IntVec] = []

    def rec(state: int, depth: int, x: int, y: int) -> None:
        if depth == n:
            first, last = ends[state - 1], ends[state % 6]
            firsts.append((x + first[0], y + first[1]))
            lasts.append((x + last[0], y + last[1]))
            return
        sx, sy = steps[depth]
        for e in ordered.orders[state - 1]:
            rec(e[3], depth + 1, x + e[1] * sx, y + e[1] * sy)

    for state in range(1, 7):
        rec(state, 0, 0, 0)

    merged: list[IntVec] = []
    for p in firsts:
        if not merged or merged[-1] != p:
            merged.append(p)
    if len(merged) > 1 and merged[0] == merged[-1]:
        merged.pop()
    return BoundaryApprox(n, d * b**n, tuple(merged), tuple(firsts), tuple(lasts))


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
