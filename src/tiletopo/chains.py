"""Curve chains along the boundary for the regime 2A - B = 3, A != B.

The boundary parametrization cuts B curves alpha_1..alpha_B out of the
bottom of the boundary (walk intervals listed in the endpoint table), their
digit flips run along the top, and together they close into a circular chain:
cyclically consecutive curves share exactly one point and all other pairs are
disjoint.  Additional arcs gamma_i = f_i f_{B-1}^{-1}(alpha_{B-1} u alpha_B),
i = 1..B-2, pass through the interior contact points.  gamma_i is the union
with its leading digit B-1 replaced by i, so 0.i w lies on gamma_i exactly
when 0.(B-1) w lies on the union: the membership questions that every arc
would repeat are asked once, of the union, and no arc has an automaton of
its own.  Everything here is decided
mechanically: each curve language is a lexicographic walk interval, read by
one automaton whose states pair the contact state with how far the walk
still follows each bound, and the B languages of a setup come out of one
subset construction.  Intersections run through the exact product
automaton; the cells of a chain matrix share one move table, and a cell
whose product has no move out of its initial state is EMPTY without being
built.  The circular chain's report is the one chain report: the open
chain alpha_1..alpha_B is read off it, since its expected pattern is the
circular one restricted to the unprimed curves.  The expected junctions and
the value of each junction address are computed once per setup, for the
report and the gamma arcs alike.  The report's JSON is written directly in
the fixed layout that ``json.dumps(..., indent=2, sort_keys=True)`` gives
it, and its text grid reads each cell once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .automata import (
    BRANCHING,
    EMPTY,
    FINITE_POINTS,
    UNIQUE_POINT,
    DigitDFA,
    IntersectionAutomaton,
    ProductMoves,
    determinize_starts,
    nfa_accepts_address,
    nfa_flip,
    nfa_union,
    product_intersection,
)
from .contact import (
    ContactGraph,
    OrderedContactGraph,
    Walk,
    build_contact_graph,
    ordered_extension,
    psi,
    walk_compare,
)
from .errors import CertificateFailure, ChainViolation, IdentityFailure, WrongRegime
from .neighbors import neighbor_set_formula
from .numsys import (
    Address,
    RationalPoint,
    TileParams,
    apply_contraction,
    flip,
    point_eval,
)


def _require_regime(params: TileParams) -> None:
    if 2 * params.a - params.b != 3 or params.a == params.b:
        raise WrongRegime(
            f"(A,B)=({params.a},{params.b}) is outside 2A-B=3 with A!=B"
        )


def alpha_table(params: TileParams) -> list[tuple[Walk, Walk]]:
    """Endpoint walk pairs (s_i, t_i) for the curves alpha_1..alpha_B.

    Row families whose index ranges are empty (small B - A) simply vanish.
    """
    _require_regime(params)
    a, b = params.a, params.b
    rows: list[tuple[Walk, Walk]] = []
    for i in range(1, b - a):
        rows.append(
            (
                Walk(6, (2 * (b - a) - 2 * i, 1, b - 2), (2,)),
                Walk(6, (2 * (b - a) - 2 * i + 1, 2 * a - 2, 4), (2,)),
            )
        )
    rows.append(
        (
            Walk(5, (2 * a - 1, 1, b - 2), (2,)),
            Walk(6, (1, 2 * a - 2, 4), (2,)),
        )
    )
    for i in range(b - a + 1, b - 1):
        k = i - (b - a)
        rows.append(
            (
                Walk(5, (2 * a - 1 - 2 * k, 1, b - 2), (2,)),
                Walk(5, (2 * a - 2 * k, 2 * a - 2, 4), (2,)),
            )
        )
    rows.append(
        (
            Walk(5, (2,), (2 * a - 2,)),
            Walk(5, (2, 2 * a - 2, 4), (2,)),
        )
    )
    rows.append(
        (
            Walk(3, (2 * (b - a), 1, 2 * (b - a) + 1), (2,)),
            Walk(3, (2 * (b - a) + 1,), (2 * a - 2,)),
        )
    )
    if len(rows) != b:
        raise CertificateFailure(f"alpha table has {len(rows)} rows, expected {b}")
    return rows


def _addr(pre: tuple[int, ...], per: tuple[int, ...]) -> Address:
    return Address((), pre, per)


def alpha_calibration_rows(params: TileParams) -> list[tuple[Walk, Address]]:
    """Endpoint decodings pinned by the table: walk -> digit address.

    The middle rows pin only their walks, not all decodings; unpinned cells
    are reported from the walks and never asserted, so they are absent here.
    """
    _require_regime(params)
    a, b = params.a, params.b
    table = alpha_table(params)
    rows: list[tuple[Walk, Address]] = []
    for i in range(1, b - a + 1):
        s, t = table[i - 1]
        rows.append((s, _addr((i, 0, b - 1), (b - 1, 0))))
        rows.append((t, _addr((i, a - 2, b - 2), (0, b - 1))))
    if b - a + 1 <= b - 2:
        s, _ = table[b - 3]
        rows.append((s, _addr((b - 2, 0, b - 1), (b - 1, 0))))
    s, t = table[b - 2]
    rows.append((s, _addr((b - 1,), (a - 2,))))
    rows.append((t, _addr((b - 1, a - 2, b - 2), (0, b - 1))))
    s, t = table[b - 1]
    rows.append((s, _addr((b - 1, b - 1, 0), (0, b - 1))))
    rows.append((t, _addr((b - 1,), (a - 2,))))
    return rows


# ---------------------------------------------------------------------------
# lexicographic walk-interval languages


def _follow(idx: int | None, letter: int, steps: list, wrap: int) -> int | None:
    if idx is None or steps[idx][0] != letter:
        return None
    return idx + 1 if idx + 1 < len(steps) else wrap


def lex_interval_languages(
    ordered: OrderedContactGraph, bounds: list[tuple[Walk, Walk]]
) -> list[DigitDFA]:
    """Digit language of all infinite walks w with lo <= w <= hi, for each
    interval (lo, hi) of ``bounds``, by one subset construction.

    A state (q, i, j, n) is the contact state q, with i the step of lo's
    unrolled walk while w still equals lo (None once w has gone above it),
    and j the same for hi.  While i is set no letter below lo's is allowed,
    and while j is set none above hi's; an index moves on only when w takes
    the bound's own letter, and wraps at the cycle start.  A state tracking
    a bound belongs to the n-th interval.  The free states (q, None, None,
    None) follow every out-edge of q in every interval, so their rows, and
    the rows of the subsets made of them, are built once for all intervals."""
    trans: dict = {}
    starts = []
    for n, (lo, hi) in enumerate(bounds):
        if walk_compare(lo, hi) > 0:
            lo, hi = hi, lo
        (lo_steps, lo_wrap), (hi_steps, hi_wrap) = ordered.walk_steps(lo), ordered.walk_steps(hi)

        def state(q: int, i: int | None, j: int | None) -> tuple:
            return (q, i, j, None if i is None and j is None else n)

        initials = tuple(
            state(s, 0 if s == lo.start else None, 0 if s == hi.start else None)
            for s in range(lo.start, hi.start + 1)
        )
        frontier = list(initials)
        while frontier:
            node = frontier.pop()
            if node in trans:
                continue
            q, i, j, _ = node
            row: dict = {}
            for k, e in enumerate(ordered.orders[q - 1], start=1):
                if i is not None and k < lo_steps[i][0]:
                    continue
                if j is not None and k > hi_steps[j][0]:
                    continue
                target = state(
                    e[3], _follow(i, k, lo_steps, lo_wrap), _follow(j, k, hi_steps, hi_wrap)
                )
                row[e[1]] = row.get(e[1], ()) + (target,)
                frontier.append(target)
            trans[node] = row
        starts.append(initials)
    return determinize_starts(trans, starts)


# ---------------------------------------------------------------------------
# curve objects


@dataclass(frozen=True)
class AlphaCurve:
    """One curve of the chain, alpha_i (label "ai") or its digit flip (label
    "ai'"): the digit language of a walk interval and its two endpoint
    addresses."""

    index: int
    label: str
    language: DigitDFA
    endpoint_addresses: tuple[Address, Address]


@dataclass(frozen=True)
class GammaArc:
    index: int
    label: str
    endpoints: tuple[RationalPoint, RationalPoint]
    through: RationalPoint


@dataclass
class ChainSetup:
    """Shared context for the chain checks of one parameter pair; the curves
    alpha_1..alpha_B, the expected junctions of the circular chain and the
    value of each junction address are built once, here."""

    params: TileParams
    graph: ContactGraph
    ordered: OrderedContactGraph
    sset: frozenset
    curves: list[AlphaCurve] = field(init=False)
    junctions: dict[tuple[str, str], list[Address]] = field(init=False)
    junction_values: dict[tuple[str, str], list[RationalPoint]] = field(init=False)

    def __post_init__(self) -> None:
        self.curves = alpha_curves(self)
        self.junctions = expected_chain_junctions(self.params)
        self.junction_values = {
            pair: [point_eval(ad, self.params) for ad in addrs]
            for pair, addrs in self.junctions.items()
        }

    @classmethod
    def build(cls, params: TileParams) -> "ChainSetup":
        _require_regime(params)
        graph = build_contact_graph(params)
        ordered = ordered_extension(graph)
        return cls(params, graph, ordered, neighbor_set_formula(params).members)


def alpha_curves(setup: ChainSetup) -> list[AlphaCurve]:
    table = alpha_table(setup.params)
    langs = lex_interval_languages(setup.ordered, table)
    out = []
    for i, ((s, t), lang) in enumerate(zip(table, langs), start=1):
        out.append(
            AlphaCurve(i, f"a{i}", lang, (psi(s, setup.ordered), psi(t, setup.ordered)))
        )
    return out


def flipped_curves(setup: ChainSetup, curves: list[AlphaCurve]) -> list[AlphaCurve]:
    b = setup.params.b
    out = []
    for c in curves:
        out.append(
            AlphaCurve(
                c.index,
                f"a{c.index}'",
                nfa_flip(c.language, b),
                tuple(flip(addr, setup.params) for addr in c.endpoint_addresses),
            )
        )
    return out


# ---------------------------------------------------------------------------
# expected junctions


def expected_chain_junctions(params: TileParams) -> dict[tuple[str, str], list[Address]]:
    """Adjacent-pair singletons of the circular chain, as dual addresses."""
    a, b = params.a, params.b
    out: dict[tuple[str, str], list[Address]] = {}
    for i in range(1, b - 1):
        out[(f"a{i}", f"a{i+1}")] = [
            _addr((i, 0, b - 1), (b - 1, 0)),
            _addr((i + 1, a - 2, b - 2), (0, b - 1)),
        ]
    out[(f"a{b-1}", f"a{b}")] = [_addr((b - 1,), (a - 2,))]
    for (l1, l2), addrs in list(out.items()):
        out[(l1 + "'", l2 + "'")] = [flip(ad, params) for ad in addrs]
    out[(f"a{b}", "a1'")] = [
        _addr((b - 1, b - 1, 0), (0, b - 1)),
        _addr((b - 2, a - 2, 1), (b - 1, 0)),
        _addr((b - 2, b - a + 1, 1), (b - 1, 0)),
    ]
    out[("a1", f"a{b}'")] = [
        _addr((0, 0, b - 1), (b - 1, 0)),
        _addr((1, a - 2, b - 2), (0, b - 1)),
    ]
    return out


# ---------------------------------------------------------------------------
# chain reports

# a cell's mark in the text grid; any other kind is "?"
_MARKS = {EMPTY: ".", UNIQUE_POINT: "1"}


def _json_strings(items: list[str], indent: int) -> str:
    """A list of strings as ``json.dumps(..., indent=2)`` writes it at
    ``indent`` spaces."""
    if not items:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    listing = ("," + inner).join(map(encode_basestring_ascii, items))
    return f"[{inner}{listing}\n{' ' * indent}]"


@dataclass
class ChainReport:
    params: TileParams
    labels: list[str]
    matrix: dict[tuple[str, str], dict]
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def entry(self, l1: str, l2: str) -> dict:
        return self.matrix.get((l1, l2)) or self.matrix[(l2, l1)]

    def json_text(self) -> str:
        """The report document of ``verify-chains`` in the fixed layout of
        ``json.dumps(doc, indent=2, sort_keys=True)``.  Every string goes
        through the escaper that ``json.dumps`` uses, so a violation's text
        is escaped byte for byte as there."""
        cells = []
        for (l1, l2), cell in sorted(self.matrix.items()):
            fields = []
            if "addresses" in cell:
                fields.append(
                    '"addresses": ' + _json_strings([str(ad) for ad in cell["addresses"]], 6)
                )
            fields.append('"kind": ' + encode_basestring_ascii(cell["kind"]))
            fields.append('"pair": ' + _json_strings([l1, l2], 6))
            if "value" in cell:
                value = cell["value"]
                fields.append('"value": ' + _json_strings([str(value[0]), str(value[1])], 6))
            cells.append("    {\n      " + ",\n      ".join(fields) + "\n    }")
        listing = "[\n" + ",\n".join(cells) + "\n  ]" if cells else "[]"
        return (
            f'{{\n  "cells": {listing},\n'
            f'  "labels": {_json_strings(self.labels, 2)},\n'
            f'  "ok": {"true" if self.ok else "false"},\n'
            f'  "params": {{\n    "A": {self.params.a},\n    "B": {self.params.b}\n  }},\n'
            f'  "schema": {encode_basestring_ascii("tiletopo/chain-report@1")},\n'
            f'  "violations": {_json_strings(self.violations, 2)}\n}}'
        )

    def to_text(self) -> str:
        labels = self.labels
        width = max(len(l) for l in labels) + 1
        pad = {mark: f"{mark:>{width}}" for mark in "-.1?"}
        position = {label: k for k, label in enumerate(labels)}
        # one mark per cell, written at both of its places in the grid
        grid = [[None] * len(labels) for _ in labels]
        for k in range(len(labels)):
            grid[k][k] = pad["-"]
        for (l1, l2), cell in self.matrix.items():
            i, j = position[l1], position[l2]
            grid[i][j] = grid[j][i] = pad[_MARKS.get(cell["kind"], "?")]
        lines = [f"chain report (A={self.params.a}, B={self.params.b})"]
        lines.append(" " * width + " ".join(f"{l:>{width}}" for l in labels))
        for label, row in zip(labels, grid):
            lines.append(" ".join([f"{label:>{width}}", *row]))
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("all pairs match the expected pattern")
        return "\n".join(lines) + "\n"


def _classify_cell(res: IntersectionAutomaton) -> dict:
    cell: dict = {"kind": res.kind}
    if res.kind in (UNIQUE_POINT, FINITE_POINTS):
        cell["value"] = res.points[0]
        cell["addresses"] = [r.left for r in res.runs[:4]]
    if res.kind == BRANCHING:
        cell["witness"] = repr(res.branch_witness)
    return cell


def _chain_matrix(
    setup: ChainSetup, labeled: list[tuple[str, DigitDFA]]
) -> dict[tuple[str, str], dict]:
    """The cell of every pair of labeled languages, in pair order.  All
    products share one move table; a pair whose product has no move out of
    its initial state is EMPTY without being built."""
    moves = ProductMoves(setup.sset, setup.params)
    firsts = [moves.first_digits(lang) for _, lang in labeled]
    matrix: dict[tuple[str, str], dict] = {}
    for i, (l1, g1) in enumerate(labeled):
        partners = moves.partners(firsts[i])
        for j in range(i + 1, len(labeled)):
            l2, g2 = labeled[j]
            if partners.isdisjoint(firsts[j]):
                matrix[(l1, l2)] = {"kind": EMPTY}
            else:
                res = product_intersection(g1, g2, setup.sset, setup.params, moves=moves)
                matrix[(l1, l2)] = _classify_cell(res)
    return matrix


def _check_cycle_pattern(
    setup: ChainSetup, labels: list[str], matrix: dict[tuple[str, str], dict]
) -> ChainReport:
    report = ChainReport(setup.params, labels, matrix)
    n = len(labels)
    position = {label: k for k, label in enumerate(labels)}

    def expected_adjacent(l1: str, l2: str) -> bool:
        d = abs(position[l1] - position[l2])
        return d == 1 or d == n - 1

    for (l1, l2), cell in matrix.items():
        if expected_adjacent(l1, l2):
            key = (l1, l2) if (l1, l2) in setup.junctions else (l2, l1)
            expect = setup.junctions.get(key)
            if cell["kind"] != UNIQUE_POINT:
                report.violations.append(
                    f"{l1} & {l2}: expected UNIQUE_POINT, got {cell['kind']}"
                )
                continue
            if expect is None:
                report.violations.append(f"{l1} & {l2}: no expected junction value")
                continue
            values = setup.junction_values[key]
            if len(set(values)) != 1:
                report.violations.append(
                    f"{l1} & {l2}: dual junction addresses disagree"
                )
                continue
            cell["addresses"] = expect
            if cell["value"] != values[0]:
                report.violations.append(
                    f"{l1} & {l2}: junction value mismatch "
                    f"(got {cell['value']}, want {values[0]})"
                )
        else:
            if cell["kind"] != EMPTY:
                witness = cell.get("value") or cell.get("witness")
                report.violations.append(
                    f"{l1} & {l2}: expected EMPTY, got {cell['kind']} ({witness})"
                )
    return report


def circular_chain_report(setup: ChainSetup) -> ChainReport:
    curves = setup.curves
    flipped = flipped_curves(setup, curves)
    labeled = [(c.label, c.language) for c in curves] + [
        (c.label, c.language) for c in flipped
    ]
    matrix = _chain_matrix(setup, labeled)
    labels = [l for l, _ in labeled]
    return _check_cycle_pattern(setup, labels, matrix)


# ---------------------------------------------------------------------------
# gamma arcs and the symmetry center


def gamma_arcs(setup: ChainSetup) -> list[GammaArc]:
    """Arcs gamma_i = f_i f_{B-1}^{-1}(alpha_{B-1} u alpha_B) for i = 1..B-2.

    gamma_i is alpha_{B-1} u alpha_B with its leading digit B-1 replaced by
    i, so the word 0.i w lies on gamma_i exactly when 0.(B-1) w lies on the
    union.  Each arc must hold its interior contact point 0.i(A-2)bar and
    the end t of alpha_{B-1} and the start s of alpha_B led by i; the union
    is asked these three questions once, each led by B-1, the first being
    P_{B-1} = 0.(B-1)(A-2)bar.  Verified per arc: the endpoint values lie
    on the circular-chain junction set, and the boundary containment facts
    hold as edge lookups in the contact graph.
    """
    params = setup.params
    a, b = params.a, params.b
    curves = setup.curves
    base = nfa_union([curves[b - 2].language, curves[b - 1].language])
    for name, addr in (
        ("interior contact point", _addr((b - 1,), (a - 2,))),
        ("endpoint walk t", curves[b - 2].endpoint_addresses[1]),
        ("endpoint walk s", curves[b - 1].endpoint_addresses[0]),
    ):
        if not addr.preperiod or not nfa_accepts_address(
            base, Address((), (b - 1,) + addr.preperiod[1:], addr.period)
        ):
            raise ChainViolation(f"the gamma arcs' {name} is not on alpha_{b - 1} u alpha_{b}")
    junction_values = {values[0] for values in setup.junction_values.values()}
    graph = setup.graph
    arcs: list[GammaArc] = []
    for i in range(1, b - 1):
        end1 = point_eval(_addr((i, a - 2, b - 2), (0, b - 1)), params)
        end2 = point_eval(_addr((i, b - 1, 0), (0, b - 1)), params)
        through = point_eval(_addr((i,), (a - 2,)), params)
        if end1 not in junction_values or end2 not in junction_values:
            raise ChainViolation(f"gamma_{i} endpoints leave the junction set")
        # containment facts: 0.i[K_s] inside K_t iff the edge t -i-> s exists
        want_t = 6 if i <= b - a else 5
        if not graph.has_edge(want_t, i, 2):
            raise ChainViolation(f"0.{i}[K2] not inside K{want_t}")
        want_t = 2 if i <= a - 1 else 3
        if not graph.has_edge(want_t, i, 4):
            raise ChainViolation(f"0.{i}[K4] not inside K{want_t}")
        want_t = 2 if i <= a - 2 else 3
        if not graph.has_edge(want_t, i, 5):
            raise ChainViolation(f"0.{i}[K5] not inside K{want_t}")
        arcs.append(GammaArc(i, f"g{i}", (end1, end2), through))
    return arcs


def symmetry_and_junctions(params: TileParams) -> dict:
    """Exact identities anchoring the construction: the symmetry center
    S = 0.(A-2)bar = half of 0.(B-1)bar, and the contact points
    P_i = f_i(S) = 0.i(A-2)bar."""
    _require_regime(params)
    a, b = params.a, params.b
    s_val = point_eval(_addr((), (a - 2,)), params)
    top = point_eval(_addr((), (b - 1,)), params)
    if (s_val[0] * 2, s_val[1] * 2) != top:
        raise IdentityFailure("symmetry center is not half the top point")
    contact_points = {}
    for i in range(b):
        p_i = point_eval(_addr((i,), (a - 2,)), params)
        if p_i != apply_contraction(i, s_val, params):
            raise IdentityFailure(f"P_{i} != f_{i}(S)")
        contact_points[i] = p_i
    return {
        "center": s_val,
        "contact_points": contact_points,
    }
