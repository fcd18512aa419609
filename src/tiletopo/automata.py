"""Digit automata and the product construction deciding set intersections.

Two infinite digit expansions denote the same point exactly when every
partial difference vector sum M^(m-i) (a_i - a'_i, 0) is zero or a neighbor,
so intersections of digit-defined subsets of the tile reduce to emptiness
and run-counting questions on a finite product automaton: pairs of language
states plus a difference state confined to S u {0}.

Run counting needs deterministic languages: distinct runs must mean distinct
digit sequences, not distinct resolutions of nondeterminism.  So
``DigitDFA`` is the one automaton type: a language becomes one where it is
built, and the product only checks the type.  A DFA holds one initial state
and one bare target state per digit, so the type itself is deterministic
and nothing is validated.  ``determinize_starts`` is the one subset
construction: it reads one NFA table, whose states are ints and whose rows
map each digit to the bitmask of its targets, from several start sets.  A
subset is the bitmask of its members; the subsets are numbered once for all
start sets, in the order the start sets come, so the DFAs share one table
and differ only in their initial states.  No output prints those numbers.
An eventually periodic address is read by the DFA's one run,
``accepts_address``, which stops when its (state, position) pair repeats.

A ``ProductMoves`` table holds the difference moves over S u {0}, and every
product is handed one: the cells of a chain matrix share one, and a cell
whose initial state has no move builds no product.

The classifier distinguishes EMPTY, UNIQUE_POINT, FINITE_POINTS (finitely
many runs, deduplicated by exact value) and BRANCHING (a state on or after a
cycle keeps a choice, so runs are infinite in number; point cardinality is
left open).  It needs one trimming routine, ``live_nodes``, run twice: every
product state was reached from the initial state, so the live states are already
the reachable-and-live ones; and on the reversed live graph it keeps the
states on or after a cycle.  Everything is exact; runs are eventually
periodic by construction and evaluate through the rational point machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Mapping, Sequence

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
    """Deterministic automaton over digits: one initial state, and in each
    row one target state per digit.  All states accept; the language is the
    infinite words whose one run never dies."""

    initial: State
    trans: Mapping[State, Mapping[int, State]]


def nfa_flip(dfa: DigitDFA, b: int) -> DigitDFA:
    """Image language under the digit exchange a <-> B-1-a."""
    trans = {q: {b - 1 - d: t for d, t in row.items()} for q, row in dfa.trans.items()}
    return DigitDFA(dfa.initial, trans)


def accepts_address(dfa: DigitDFA, addr: Address) -> bool:
    """Does the automaton read the address digits forever?  Its one run
    reads the preperiod, then the period until its (state, position) pair
    repeats; from there it repeats too."""
    digits = addr.preperiod + addr.period
    state = dfa.initial
    pos = 0
    seen = set()
    while (state, pos) not in seen:
        seen.add((state, pos))
        state = dfa.trans.get(state, {}).get(digits[pos])
        if state is None:
            return False
        pos = pos + 1 if pos + 1 < len(digits) else len(addr.preperiod)
    return True


def determinize_starts(
    rows: Sequence[Mapping[int, int]], starts: Iterable[int]
) -> list[DigitDFA]:
    """The subset construction over one transition table, one DFA for each
    start set, all sharing one table.  The NFA's states are the ints
    0, 1, 2, ...: state k's row maps each digit to the bitmask of its target
    states, and a subset is the bitmask of its members, so each start set is
    a mask too.  The DFA's states are the ints 0, 1, 2, ... in breadth-first
    discovery order, digits ascending, from each start set in turn: the first
    start set is 0, and a later one continues the numbering where the ones
    before it stopped.  Each subset is numbered and its row merged once for
    all start sets; each DFA holds the number of its start set as its
    initial state."""
    number: dict[int, int] = {}
    subsets: list[int] = []
    table: dict[int, dict[int, int]] = {}
    initials = []
    for start in starts:
        if start not in number:
            number[start] = len(subsets)
            subsets.append(start)
        initials.append(number[start])
        k = len(table)
        while k < len(subsets):  # the list grows as subsets are found
            merged: dict[int, int] = {}
            rest = subsets[k]
            while rest:
                low = rest & -rest
                for d, targets in rows[low.bit_length() - 1].items():
                    merged[d] = merged.get(d, 0) | targets
                rest ^= low
            row: dict[int, int] = {}
            for d in sorted(merged):
                target = merged[d]
                ref = number.get(target)
                if ref is None:
                    ref = number[target] = len(subsets)
                    subsets.append(target)
                row[d] = ref
            table[k] = row
            k += 1
    return [DigitDFA(initial, table) for initial in initials]


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

    initial: State
    transitions: dict[State, list[tuple[int, int, State]]]
    live: set[State]
    kind: str
    runs: tuple[Run, ...] = ()
    points: tuple[RationalPoint, ...] = ()
    branch_witness: State | None = None

    def to_json(self) -> dict:
        states = sorted(self.live)
        index = {q: i for i, q in enumerate(states)}
        return {
            "schema": "tiletopo/intersection-automaton@1",
            "kind": self.kind,
            "states": [repr(q) for q in states],
            "initials": [index[self.initial]] if self.initial in index else [],
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
        return frozenset(lang.trans.get(lang.initial, {}))

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
    initial = (left.initial, right.initial, initial_diff)
    if initial_diff not in moves.allowed:
        return IntersectionAutomaton(initial, {}, set(), EMPTY)

    known = moves._steps  # looked up once per state; misses go through moves.steps
    trans: dict[State, list[tuple[int, int, State]]] = {}
    seen: set[State] = {initial}
    frontier: list[State] = [initial]
    while frontier:
        node = frontier.pop()
        p, q, delta = node
        edges: list[tuple[int, int, State]] = []
        lrow = left.trans.get(p, {})
        rrow = right.trans.get(q, {})
        steps = known.get(delta)
        if steps is None:
            steps = moves.steps(delta)
        for a, lt in lrow.items():
            for d, nd in steps:
                rt = rrow.get(a - d)
                if rt is not None:
                    child = (lt, rt, nd)
                    edges.append((a, a - d, child))
                    if child not in seen:
                        seen.add(child)
                        frontier.append(child)
        trans[node] = edges
    return _classify_product(moves.params, initial, trans, initial_diff, max_runs)


def _classify_product(
    params: TileParams,
    initial: State,
    trans: dict[State, list[tuple[int, int, State]]],
    initial_diff: IntVec,
    max_runs: int,
) -> IntersectionAutomaton:
    """Trim, classify and, when finite, enumerate the runs of a product
    whose reachable states and raw edges are ``trans``.  Nothing here
    depends on the order of a state's raw edges.

    Every state of ``trans`` was reached from the initial state, and each state
    on a path to a live state is live, so the live states are already the
    reachable-and-live ones.  The live states with an infinite backward
    path are those on or after a cycle.  If one of them keeps two live
    edges, runs are infinite in number: that state is on a cycle, or the
    cycle before it has an exit.  Otherwise they form disjoint simple
    cycles, one live edge per state."""
    alive = live_nodes({node: [t for (_, _, t) in edges] for node, edges in trans.items()})
    if initial not in alive:
        return IntersectionAutomaton(initial, trans, set(), EMPTY)

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
            initial, trans, alive, BRANCHING, branch_witness=min(branching, key=repr)
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

    explore(initial, [], [])

    values = []
    for run in runs:
        if run.value not in values:
            values.append(run.value)
    kind = UNIQUE_POINT if len(values) == 1 else FINITE_POINTS
    return IntersectionAutomaton(initial, trans, alive, kind, tuple(runs), tuple(values))
