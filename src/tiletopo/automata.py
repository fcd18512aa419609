"""Digit automata and the product construction deciding set intersections.

Two infinite digit expansions denote the same point exactly when every
partial difference vector sum M^(m-i) (a_i - a'_i, 0) is zero or a neighbor,
so intersections of digit-defined subsets of the tile reduce to emptiness
and run-counting questions on a finite product automaton: pairs of language
states plus a difference state confined to S u {0}.

Run counting needs deterministic languages: distinct runs must mean distinct
digit sequences, not distinct resolutions of nondeterminism.  So a language
becomes a ``DigitDFA`` once, where it is built (``nfa_determinize`` runs the
subset construction when it has to), and the product only checks the type.

The classifier distinguishes EMPTY, UNIQUE_POINT, FINITE_POINTS (finitely
many runs, deduplicated by exact value) and BRANCHING (some cycle state
keeps a choice, so runs are infinite in number; point cardinality is left
open).  Everything is exact; runs are eventually periodic by construction
and evaluate through the rational point machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Mapping

from . import linalg
from .errors import BudgetExceeded, CertificateFailure
from .numsys import Address, RationalPoint, TileParams, point_eval

State = Hashable
IntVec = tuple[int, int]

EMPTY = "EMPTY"
UNIQUE_POINT = "UNIQUE_POINT"
FINITE_POINTS = "FINITE_POINTS"
BRANCHING = "BRANCHING"


@dataclass(frozen=True)
class DigitNFA:
    """Nondeterministic automaton over digits; all states accepting, the
    language being the infinite words that never die."""

    initials: tuple[State, ...]
    trans: Mapping[State, Mapping[int, tuple[State, ...]]]

    def successors(self, state: State, digit: int) -> tuple[State, ...]:
        return self.trans.get(state, {}).get(digit, ())


@dataclass(frozen=True)
class DigitDFA(DigitNFA):
    """Deterministic automaton: one initial state and at most one target
    per digit, checked once on construction."""

    def __post_init__(self) -> None:
        if len(self.initials) != 1:
            raise ValueError(f"a DFA has one initial state, not {len(self.initials)}")
        for q, row in self.trans.items():
            for d, targets in row.items():
                if len(targets) > 1:
                    raise ValueError(f"state {q!r} has {len(targets)} targets on digit {d}")


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


def nfa_flip(nfa: DigitNFA, b: int) -> DigitNFA:
    """Image language under the digit exchange a <-> B-1-a; a DFA stays one."""
    trans = {
        q: {b - 1 - d: targets for d, targets in row.items()}
        for q, row in nfa.trans.items()
    }
    return type(nfa)(nfa.initials, trans)


def nfa_remap_first_digit(nfa: DigitNFA, mapping: Mapping[int, int]) -> DigitNFA:
    """Substitute the leading digit through ``mapping`` (other first digits
    are dropped); the tail language is unchanged."""
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


def nfa_union(nfas: Iterable[DigitNFA]) -> DigitNFA:
    """Disjoint union; the language is the union of languages."""
    trans: dict[State, dict[int, tuple[State, ...]]] = {}
    inits: list[State] = []
    for tag, nfa in enumerate(nfas):
        for q, row in nfa.trans.items():
            trans[(tag, q)] = {
                d: tuple((tag, t) for t in targets) for d, targets in row.items()
            }
        inits.extend((tag, q) for q in nfa.initials)
    return DigitNFA(tuple(inits), trans)


def nfa_accepts_address(nfa: DigitNFA, addr: Address) -> bool:
    """Does the automaton admit an infinite run over the address digits?"""
    pre, per = addr.preperiod, addr.period
    total = len(pre) + len(per)

    def advance(pos: int) -> int:
        return pos + 1 if pos + 1 < total else len(pre)

    def digit(pos: int) -> int:
        return pre[pos] if pos < len(pre) else per[pos - len(pre)]

    nodes = {(q, 0) for q in nfa.initials}
    frontier = sorted(nodes, key=repr)
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


def nfa_determinize(nfa: DigitNFA) -> DigitDFA:
    """The language as a DFA.  A DFA comes back unchanged, and an NFA that is
    already deterministic keeps its state names, which certificates print;
    otherwise the subset construction runs, its states being the
    repr-sorted tuples of original states."""
    if isinstance(nfa, DigitDFA):
        return nfa
    try:
        return DigitDFA(nfa.initials, nfa.trans)
    except ValueError:
        pass
    # subset states as repr-sorted tuples: canonical and hash-seed independent
    start = tuple(sorted(set(nfa.initials), key=repr))
    trans: dict[State, dict[int, tuple[State, ...]]] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        subset = frontier.pop()
        row: dict[int, tuple[State, ...]] = {}
        digits = sorted({d for q in subset for d in nfa.trans.get(q, {})})
        for d in digits:
            members = {t for q in subset for t in nfa.successors(q, d)}
            if members:
                target = tuple(sorted(members, key=repr))
                row[d] = (target,)
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        trans[subset] = row
    return DigitDFA((start,), trans)


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
        index = {q: i for i, q in enumerate(self.sorted_states())}
        return {
            "schema": "tiletopo/intersection-automaton@1",
            "kind": self.kind,
            "states": [repr(q) for q in self.sorted_states()],
            "initials": sorted(index[q] for q in self.initials if q in index),
            "transitions": [
                [index[q], a, ap, index[t]]
                for q in self.sorted_states()
                for (a, ap, t) in sorted(self.transitions.get(q, []))
                if t in index
            ],
            "points": [[str(x), str(y)] for (x, y) in self.points],
        }


def _tarjan_sccs(nodes: list[State], succ: dict[State, list[State]]) -> list[list[State]]:
    index: dict[State, int] = {}
    low: dict[State, int] = {}
    on_stack: set[State] = set()
    stack: list[State] = []
    sccs: list[list[State]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ.get(root, [])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ.get(child, []))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    q = stack.pop()
                    on_stack.discard(q)
                    comp.append(q)
                    if q == node:
                        break
                sccs.append(comp)
    return sccs


def product_intersection(
    left: DigitDFA,
    right: DigitDFA,
    sset: frozenset[IntVec],
    params: TileParams,
    initial_diff: IntVec = (0, 0),
    max_runs: int = 20000,
) -> IntersectionAutomaton:
    """Decide which points the two languages share, as sets of values.

    Both languages must be ``DigitDFA``s, so that each run is one pair of
    digit sequences.  The difference state starts at ``initial_diff`` c, and
    an accepted pair (x, y) satisfies value(x) = value(y) - c.
    """
    if not (isinstance(left, DigitDFA) and isinstance(right, DigitDFA)):
        raise TypeError("product_intersection takes DigitDFA languages")
    b = params.b
    m = params.matrix
    allowed = frozenset(sset) | {(0, 0)}
    if initial_diff not in allowed:
        return IntersectionAutomaton(params, (), {}, set(), EMPTY)

    step: dict[tuple[IntVec, int], IntVec | None] = {}
    for delta in allowed:
        md = linalg.mat_vec(m, delta)
        for d in range(-(b - 1), b):
            t = (md[0] + d, md[1])
            step[(delta, d)] = t if t in allowed else None

    initials = tuple(
        (p, q, initial_diff) for p in left.initials for q in right.initials
    )
    trans: dict[State, list[tuple[int, int, State]]] = {}
    seen: set[State] = set(initials)
    frontier: list[State] = list(initials)
    while frontier:
        node = frontier.pop()
        p, q, delta = node
        edges: list[tuple[int, int, State]] = []
        lrow = left.trans.get(p, {})
        rrow = right.trans.get(q, {})
        for a, ltargets in lrow.items():
            for ap, rtargets in rrow.items():
                nd = step.get((delta, a - ap))
                if nd is None:
                    continue
                for pt in ltargets:
                    for qt in rtargets:
                        child = (pt, qt, nd)
                        edges.append((a, ap, child))
                        if child not in seen:
                            seen.add(child)
                            frontier.append(child)
        trans[node] = edges

    alive = live_nodes({node: [t for (_, _, t) in edges] for node, edges in trans.items()})
    live_inits = [q for q in initials if q in alive]
    if not live_inits:
        return IntersectionAutomaton(params, initials, trans, set(), EMPTY)

    # restrict to reachable-and-live; keep live edge lists per state
    rl: set[State] = set(live_inits)
    frontier = list(live_inits)
    live_edges: dict[State, list[tuple[int, int, State]]] = {}
    succ: dict[State, list[State]] = {}
    while frontier:
        node = frontier.pop()
        edges = sorted(
            {e for e in trans.get(node, []) if e[2] in alive},
            key=lambda e: (e[0], e[1], repr(e[2])),
        )
        live_edges[node] = edges
        outs = sorted({t for (_, _, t) in edges}, key=repr)
        succ[node] = outs
        for t in outs:
            if t not in rl:
                rl.add(t)
                frontier.append(t)

    cyclic: set[State] = set()
    for comp in _tarjan_sccs(sorted(rl, key=repr), succ):
        if len(comp) > 1:
            cyclic.update(comp)
        else:
            q = comp[0]
            if q in succ.get(q, []):
                cyclic.add(q)

    # a cycle state keeping any choice (even a parallel edge) yields
    # infinitely many runs
    branching = next(
        (q for q in sorted(cyclic, key=repr) if len(live_edges[q]) > 1), None
    )
    if branching is not None:
        return IntersectionAutomaton(
            params, initials, trans, rl, BRANCHING, branch_witness=branching
        )

    # finitely many runs: enumerate them
    runs: list[Run] = []

    def emit(prefix_l: list[int], prefix_r: list[int], node: State) -> None:
        # forced part: walk until a state repeats, split prefix/cycle there
        ldigits: list[int] = []
        rdigits: list[int] = []
        pos: dict[State, int] = {node: 0}
        cur = node
        while True:
            a, ap, nxt = live_edges[cur][0]
            ldigits.append(a)
            rdigits.append(ap)
            cur = nxt
            if cur in pos:
                break
            pos[cur] = len(ldigits)
        k = pos[cur]
        la = Address((), tuple(prefix_l + ldigits[:k]), tuple(ldigits[k:]))
        ra = Address((), tuple(prefix_r + rdigits[:k]), tuple(rdigits[k:]))
        lv = point_eval(la, params)
        rv = point_eval(ra, params)
        expected = (rv[0] - initial_diff[0], rv[1] - initial_diff[1])
        if lv != expected:
            raise CertificateFailure("difference tracking broken")
        runs.append(Run(la, ra, lv))

    def explore(node: State, prefix_l: list[int], prefix_r: list[int]) -> None:
        if len(runs) > max_runs:
            raise BudgetExceeded(f"run enumeration exceeded {max_runs} runs")
        if node in cyclic:
            emit(prefix_l, prefix_r, node)
            return
        for (a, ap, t) in live_edges[node]:
            explore(t, prefix_l + [a], prefix_r + [ap])

    for init in sorted(live_inits, key=repr):
        explore(init, [], [])

    values = []
    for run in runs:
        if run.value not in values:
            values.append(run.value)
    kind = UNIQUE_POINT if len(values) == 1 else FINITE_POINTS
    return IntersectionAutomaton(
        params, initials, trans, rl, kind, tuple(runs), tuple(values)
    )
