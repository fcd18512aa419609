"""Digit automata and the product construction deciding set intersections.

Two infinite digit expansions denote the same point exactly when every
partial difference vector sum M^(m-i) (a_i - a'_i, 0) is zero or a neighbor,
so intersections of digit-defined subsets of the tile reduce to emptiness
and run-counting questions on a finite product automaton: pairs of language
states plus a difference state confined to S u {0}.

Run counting needs deterministic languages: distinct runs must mean distinct
digit sequences, not distinct resolutions of nondeterminism.  So
``DigitDFA`` is the one automaton type: a language becomes one where it is
built, and the product only checks the type.  ``determinize_starts`` is the
one subset construction: it reads one transition table from several start
sets, merges each subset's row once and numbers each DFA's subsets as it
finds them; no output prints those numbers.  An eventually periodic address
is read by the DFA's one run, ``accepts_address``, which stops when its
(state, position) pair repeats.

A ``ProductMoves`` table holds the difference moves over S u {0}, and every
product is handed one: the cells of a chain matrix share one, and a cell
whose initial state has no move builds no product.

The classifier distinguishes EMPTY, UNIQUE_POINT, FINITE_POINTS (finitely
many runs, deduplicated by exact value) and BRANCHING (a state on or after a
cycle keeps a choice, so runs are infinite in number; point cardinality is
left open).  It needs one trimming routine, ``live_nodes``, run twice: every
product state was reached from the initials, so the live states are already
the reachable-and-live ones; and on the reversed live graph it keeps the
states on or after a cycle.  Everything is exact; runs are eventually
periodic by construction and evaluate through the rational point machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Mapping

from .errors import BudgetExceeded, CertificateFailure
from .numsys import Address, RationalPoint, TileParams, point_eval

State = Hashable
IntVec = tuple[int, int]

EMPTY = "EMPTY"
UNIQUE_POINT = "UNIQUE_POINT"
FINITE_POINTS = "FINITE_POINTS"
BRANCHING = "BRANCHING"


@dataclass(frozen=True)
class DigitDFA:
    """Deterministic automaton over digits: one initial state and at most
    one target per digit, checked once on construction.  All states accept;
    the language is the infinite words whose one run never dies."""

    initials: tuple[State, ...]
    trans: Mapping[State, Mapping[int, tuple[State, ...]]]

    def __post_init__(self) -> None:
        if len(self.initials) != 1:
            raise ValueError(f"a DFA has one initial state, not {len(self.initials)}")
        for q, row in self.trans.items():
            for d, targets in row.items():
                if len(targets) > 1:
                    raise ValueError(f"state {q!r} has {len(targets)} targets on digit {d}")

    def successors(self, state: State, digit: int) -> tuple[State, ...]:
        return self.trans.get(state, {}).get(digit, ())


def nfa_flip(dfa: DigitDFA, b: int) -> DigitDFA:
    """Image language under the digit exchange a <-> B-1-a."""
    trans = {
        q: {b - 1 - d: targets for d, targets in row.items()}
        for q, row in dfa.trans.items()
    }
    return DigitDFA(dfa.initials, trans)


def accepts_address(dfa: DigitDFA, addr: Address) -> bool:
    """Does the automaton read the address digits forever?  Its one run
    reads the preperiod, then the period until its (state, position) pair
    repeats; from there it repeats too."""
    digits = addr.preperiod + addr.period
    (state,) = dfa.initials
    pos = 0
    seen = set()
    while (state, pos) not in seen:
        seen.add((state, pos))
        targets = dfa.successors(state, digits[pos])
        if not targets:
            return False
        (state,) = targets
        pos = pos + 1 if pos + 1 < len(digits) else len(addr.preperiod)
    return True


def determinize_starts(
    trans: Mapping[State, Mapping[int, tuple[State, ...]]],
    starts: Iterable[Iterable[State]],
) -> list[DigitDFA]:
    """The subset construction over one transition table, one DFA for each
    set of initial states.  Each DFA's states are the ints 0, 1, 2, ... in
    breadth-first discovery order, digits ascending, the initial subset being
    0, so the numbering depends neither on how the NFA names its states nor
    on the other start sets.  A subset's row merges its members' digit rows
    once per call: every start set that reaches the subset reuses it.  Each
    frozenset is interned once."""
    merged_rows: dict[frozenset, list[tuple[int, frozenset]]] = {}
    dfas = []
    for initials in starts:
        subsets = [frozenset(initials)]
        number = {subsets[0]: (0,)}  # a subset's target tuple, shared by its rows
        dfa: dict[State, dict[int, tuple[State, ...]]] = {}
        for k, subset in enumerate(subsets):  # the list grows as subsets are found
            merged_row = merged_rows.get(subset)
            if merged_row is None:
                merged: dict[int, set[State]] = {}
                for q in subset:
                    for d, targets in trans.get(q, {}).items():
                        merged.setdefault(d, set()).update(targets)
                merged_row = merged_rows[subset] = [
                    (d, frozenset(merged[d])) for d in sorted(merged) if merged[d]
                ]
            row: dict[int, tuple[State, ...]] = {}
            for d, target in merged_row:
                ref = number.get(target)
                if ref is None:
                    ref = number[target] = (len(subsets),)
                    subsets.append(target)
                row[d] = ref
            dfa[k] = row
        dfas.append(DigitDFA((0,), dfa))
    return dfas


def live_nodes(succ: Mapping[State, Collection[State]]) -> set[State]:
    """Nodes with an infinite path; nodes missing from ``succ`` have no
    successors.  Dead nodes are removed from a worklist that counts each
    node's remaining successor edges, so every edge is visited once."""
    preds: dict[State, list[State]] = {}
    count: dict[State, int] = {}
    for node, targets in succ.items():
        count[node] = len(targets)
        for t in targets:
            preds.setdefault(t, []).append(node)
    alive = {node for node, n in count.items() if n}
    dead = [node for node in preds.keys() | count.keys() if node not in alive]
    while dead:
        for p in preds.get(dead.pop(), ()):
            count[p] -= 1
            if not count[p]:
                alive.discard(p)
                dead.append(p)
    return alive


@dataclass(frozen=True)
class Run:
    """One eventually periodic accepted pair of expansions."""

    left: Address
    right: Address
    value: RationalPoint


@dataclass
class IntersectionAutomaton:
    """Product of two digit automata with difference-state tracking."""

    params: TileParams
    initials: tuple[State, ...]
    transitions: dict[State, list[tuple[int, int, State]]]
    live: set[State]
    kind: str
    runs: tuple[Run, ...] = ()
    points: tuple[RationalPoint, ...] = ()
    branch_witness: State | None = None

    def sorted_states(self) -> list[State]:
        try:
            return sorted(self.live)
        except TypeError:
            return sorted(self.live, key=repr)

    def to_json(self) -> dict:
        states = self.sorted_states()
        index = {q: i for i, q in enumerate(states)}
        return {
            "schema": "tiletopo/intersection-automaton@1",
            "kind": self.kind,
            "states": [repr(q) for q in states],
            "initials": sorted(index[q] for q in self.initials if q in index),
            "transitions": [
                [index[q], a, ap, index[t]]
                for q in states
                for (a, ap, t) in sorted(self.transitions.get(q, []))
                if t in index
            ],
            "points": [[str(x), str(y)] for (x, y) in self.points],
        }


class ProductMoves:
    """The moves of a product's difference state over S u {0}, for one
    neighbor set and parameter pair.

    A digit pair (a, a') moves the difference delta to M delta + (a - a', 0),
    which must stay in S u {0}.  With (mx, my) = M delta, the moves from delta
    are the s in S u {0} with s_y = my and |s_x - mx| <= B - 1, at digit
    difference d = s_x - mx.  They are found by matching second coordinates
    and kept for each difference reached, so the products that share a table
    (the cells of one chain matrix) find each difference's moves once."""

    def __init__(self, sset: Collection[IntVec], params: TileParams) -> None:
        self.params = params
        self.allowed = frozenset(sset) | {(0, 0)}
        self._by_y: dict[int, list[IntVec]] = {}
        for s in self.allowed:
            self._by_y.setdefault(s[1], []).append(s)
        self._steps: dict[IntVec, list[tuple[int, IntVec]]] = {}

    def steps(self, delta: IntVec) -> list[tuple[int, IntVec]]:
        """The pairs (d, s): digit difference d moves delta to s."""
        steps = self._steps.get(delta)
        if steps is None:
            (m00, m01), (m10, m11) = self.params.matrix
            mx = m00 * delta[0] + m01 * delta[1]
            my = m10 * delta[0] + m11 * delta[1]
            steps = self._steps[delta] = [
                (s[0] - mx, s) for s in self._by_y.get(my, ()) if abs(s[0] - mx) < self.params.b
            ]
        return steps

    @staticmethod
    def first_digits(lang: DigitDFA) -> frozenset[int]:
        """The digits on which the language's initial state has a target."""
        _require_dfa(lang)
        return frozenset(d for d, targets in lang.trans.get(lang.initials[0], {}).items() if targets)

    def partners(self, left_digits: frozenset[int]) -> frozenset[int]:
        """The first digits of the right languages that a left language
        starting with ``left_digits`` can pair with from difference 0.  A
        product whose right language starts with none of them has no edge out
        of its initial state, which is the test its first expansion makes,
        and is EMPTY."""
        return frozenset(a - d for a in left_digits for d, _ in self.steps((0, 0)))


def _require_dfa(*langs: DigitDFA) -> None:
    for lang in langs:
        if not isinstance(lang, DigitDFA):
            raise TypeError("product_intersection takes DigitDFA languages")


def product_intersection(
    left: DigitDFA,
    right: DigitDFA,
    moves: ProductMoves,
    initial_diff: IntVec = (0, 0),
    max_runs: int = 20000,
) -> IntersectionAutomaton:
    """Decide which points the two languages share, as sets of values.

    Both languages must be ``DigitDFA``s, so that each run is one pair of
    digit sequences.  The difference state starts at ``initial_diff`` c, and
    an accepted pair (x, y) satisfies value(x) = value(y) - c.

    The difference moves come from ``moves``, the ``ProductMoves`` table of
    one neighbor set and parameter pair, which other products may share.  A
    state pairs each digit a of its left row with each move from its
    difference, and a meets only a - d on the right.
    """
    _require_dfa(left, right)
    params = moves.params
    if initial_diff not in moves.allowed:
        return IntersectionAutomaton(params, (), {}, set(), EMPTY)

    initials = tuple(
        (p, q, initial_diff) for p in left.initials for q in right.initials
    )
    known = moves._steps  # looked up once per state; misses go through moves.steps
    trans: dict[State, list[tuple[int, int, State]]] = {}
    seen: set[State] = set(initials)
    frontier: list[State] = list(initials)
    while frontier:
        node = frontier.pop()
        p, q, delta = node
        edges: list[tuple[int, int, State]] = []
        lrow = left.trans.get(p, {})
        rrow = right.trans.get(q, {})
        steps = known.get(delta)
        if steps is None:
            steps = moves.steps(delta)
        pairs = [(a, a - d, nd) for a in lrow for d, nd in steps if a - d in rrow]
        for a, ap, nd in pairs:
            for pt in lrow[a]:
                for qt in rrow[ap]:
                    child = (pt, qt, nd)
                    edges.append((a, ap, child))
                    if child not in seen:
                        seen.add(child)
                        frontier.append(child)
        trans[node] = edges
    return _classify_product(params, initials, trans, initial_diff, max_runs)


def _classify_product(
    params: TileParams,
    initials: tuple[State, ...],
    trans: dict[State, list[tuple[int, int, State]]],
    initial_diff: IntVec,
    max_runs: int,
) -> IntersectionAutomaton:
    """Trim, classify and, when finite, enumerate the runs of a product
    whose reachable states and raw edges are ``trans``.  Nothing here
    depends on the order of a state's raw edges.

    Every state of ``trans`` was reached from the initials, and each state
    on a path to a live state is live, so the live states are already the
    reachable-and-live ones.  The live states with an infinite backward
    path are those on or after a cycle.  If one of them keeps two live
    edges, runs are infinite in number: that state is on a cycle, or the
    cycle before it has an exit.  Otherwise they form disjoint simple
    cycles, one live edge per state."""
    alive = live_nodes({node: [t for (_, _, t) in edges] for node, edges in trans.items()})
    live_inits = [q for q in initials if q in alive]
    if not live_inits:
        return IntersectionAutomaton(params, initials, trans, set(), EMPTY)

    # the (a, a') pairs of a state are distinct for DFA languages, so the
    # sort never reaches the target
    live_edges = {q: sorted(e for e in trans[q] if e[2] in alive) for q in alive}
    preds: dict[State, list[State]] = {}
    for q, edges in live_edges.items():
        for (_, _, t) in edges:
            preds.setdefault(t, []).append(q)
    cyclic = live_nodes(preds)

    branching = [q for q in cyclic if len(live_edges[q]) > 1]
    if branching:
        return IntersectionAutomaton(
            params, initials, trans, alive, BRANCHING, branch_witness=min(branching, key=repr)
        )

    # finitely many runs: enumerate them
    runs: list[Run] = []

    def emit(prefix_l: list[int], prefix_r: list[int], node: State) -> None:
        # node lies on a simple cycle, which is the period
        lper: list[int] = []
        rper: list[int] = []
        cur = node
        while not lper or cur != node:
            a, ap, cur = live_edges[cur][0]
            lper.append(a)
            rper.append(ap)
        la = Address((), tuple(prefix_l), tuple(lper))
        ra = Address((), tuple(prefix_r), tuple(rper))
        lv = point_eval(la, params)
        rv = point_eval(ra, params)
        expected = (rv[0] - initial_diff[0], rv[1] - initial_diff[1])
        if lv != expected:
            raise CertificateFailure(
                f"difference tracking broken for (A,B)=({params.a},{params.b})"
            )
        runs.append(Run(la, ra, lv))
        if len(runs) > max_runs:
            raise BudgetExceeded(
                f"run enumeration exceeded {max_runs} runs for (A,B)=({params.a},{params.b})"
            )

    def explore(node: State, prefix_l: list[int], prefix_r: list[int]) -> None:
        if node in cyclic:
            emit(prefix_l, prefix_r, node)
            return
        for (a, ap, t) in live_edges[node]:
            explore(t, prefix_l + [a], prefix_r + [ap])

    for init in live_inits:
        explore(init, [], [])

    values = []
    for run in runs:
        if run.value not in values:
            values.append(run.value)
    kind = UNIQUE_POINT if len(values) == 1 else FINITE_POINTS
    return IntersectionAutomaton(
        params, initials, trans, alive, kind, tuple(runs), tuple(values)
    )
