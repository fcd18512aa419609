"""Curve chains along the boundary for the regime 2A - B = 3, A != B.

The boundary parametrization cuts B curves alpha_1..alpha_B out of the
bottom of the boundary (walk intervals listed in the endpoint table), their
digit flips run along the top, and together they close into a circular chain:
cyclically consecutive curves share exactly one point and all other pairs are
disjoint.  Additional arcs gamma_i = f_i f_{B-1}^{-1}(alpha_{B-1} u alpha_B),
i = 1..B-2, pass through the interior contact points.  gamma_i is the union
with its leading digit B-1 replaced by i, so 0.i w lies on gamma_i exactly
when 0.(B-1) w lies on alpha_{B-1} or on alpha_B: the membership questions
that every arc would repeat are asked once, of those two curves, and
neither an arc nor the union has an automaton of its own.  Everything here
is decided mechanically: each curve language is a lexicographic walk
interval, read by one automaton whose states pair the contact state with
how far the walk still follows each bound.  The bounds are unrolled once,
by ``walk_steps``, each interval low bound first.  The B languages of a setup
come out of one subset construction and share its table, each from its own
initial state; their flips share one flip of that table.  Intersections run
through the exact product automaton; the cells of a chain matrix share one
move table, and a cell whose product has no move out of its initial state is
EMPTY without being built.  The digit flip phi maps S to -S, so phi(X n Y) =
phiX n phiY: a cell of two flipped curves is read off the cell of the two
curves (its values top - v, its runs flipped and in reverse order), unless
that cell is BRANCHING, and a cell (alpha_i, alpha_j'), i > j, is EMPTY when
(alpha_j, alpha_i') is; every other cell with a live start is built.  The
circular chain's report is the one chain report: the open
chain alpha_1..alpha_B is read off it, since its expected pattern is the
circular one restricted to the unprimed curves.  The expected junctions and
the value of each junction address are computed once per setup, for the
report and the gamma arcs alike.  The report's JSON is written directly in
the fixed layout that ``json.dumps(..., indent=2, sort_keys=True)`` gives
it, a cell that holds only its kind from one template, and its text grid
reads each cell once.
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
    accepts_address,
    determinize_starts,
    nfa_flip,
    product_intersection,
)
from .contact import (
    OrderedContactGraph,
    Walk,
    build_contact_graph,
    ordered_extension,
    psi,
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
    return rows


def _addr(pre: tuple[int, ...], per: tuple[int, ...]) -> Address:
    return Address((), pre, per)


def alpha_calibration_rows(params: TileParams, table) -> list[tuple[Walk, Address]]:
    """Endpoint decodings pinned by ``table``, ``alpha_table(params)``:
    walk -> digit address.

    The middle rows pin only their walks, not all decodings; unpinned cells
    are reported from the walks and never asserted, so they are absent here.
    """
    a, b = params.a, params.b
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
    interval (lo, hi) of ``bounds``, by one subset construction; the
    languages share its table.  Each pair gives its low bound first; a pair
    given high bound first is the empty interval, and its language accepts
    no infinite word.

    A state (q, i, j, n) is the contact state q, with i the step of lo's
    unrolled walk while w still equals lo (None once w has gone above it),
    and j the same for hi.  While i is set no letter below lo's is allowed,
    and while j is set none above hi's; an index moves on only when w takes
    the bound's own letter, and wraps at the cycle start.  A state tracking
    a bound belongs to the n-th interval.  The free states (q, None, None,
    None) follow every out-edge of q in every interval: their targets are
    free too, so each edge's free target is numbered once, and the rows of
    the free states and of the subsets made of them are built once for all
    intervals.  A tracking state reads only the letters from lo's to hi's;
    the letters strictly between go to free states."""
    number: dict[tuple, int] = {}
    states: list[tuple] = []

    def intern(node: tuple) -> int:
        k = number.get(node)
        if k is None:
            k = number[node] = len(states)
            states.append(node)
        return k

    # (digit, mask of the free target) of each out-edge, per state and letter
    free_edges = [
        [(e[1], 1 << intern((e[3], None, None, None))) for e in order]
        for order in ordered.orders
    ]
    rows: list[dict[int, int]] = []
    starts = []
    for n, (lo, hi) in enumerate(bounds):
        (lo_steps, lo_wrap), (hi_steps, hi_wrap) = ordered.walk_steps(lo), ordered.walk_steps(hi)

        def state(q: int, i: int | None, j: int | None) -> int:
            return intern((q, i, j, None if i is None and j is None else n))

        start = 0
        for s in range(lo.start, hi.start + 1):
            start |= 1 << state(s, 0 if s == lo.start else None, 0 if s == hi.start else None)
        starts.append(start)
        while len(rows) < len(states):
            q, i, j, _ = states[len(rows)]
            edges = free_edges[q - 1]
            first = 1 if i is None else lo_steps[i][0]
            last = len(edges) if j is None else hi_steps[j][0]
            row: dict[int, int] = {}
            for k in range(first, last + 1):
                d, target = edges[k - 1]
                if k == first or k == last:  # the letters that may follow a bound
                    e = ordered.orders[q - 1][k - 1]
                    target = 1 << state(
                        e[3], _follow(i, k, lo_steps, lo_wrap), _follow(j, k, hi_steps, hi_wrap)
                    )
                row[d] = row.get(d, 0) | target
            rows.append(row)
    return determinize_starts(rows, starts)


# ---------------------------------------------------------------------------
# curve objects


@dataclass(frozen=True)
class AlphaCurve:
    """One curve alpha_i (label "ai") of the chain: the digit language of a
    walk interval and its two endpoint addresses.  Its digit flip alpha_i'
    (label "ai'") is read by ``flipped_languages``."""

    label: str
    language: DigitDFA
    endpoint_addresses: tuple[Address, Address]


@dataclass(frozen=True)
class GammaArc:
    index: int
    endpoints: tuple[RationalPoint, RationalPoint]


@dataclass
class ChainSetup:
    """Shared context for the chain checks of one parameter pair; the walk
    table, the curves alpha_1..alpha_B, the expected junctions of the
    circular chain and the value of each junction address are built once,
    here.  Building the curves checks the ordering against the tabulated
    walk decodings."""

    params: TileParams
    ordered: OrderedContactGraph
    sset: frozenset
    table: list[tuple[Walk, Walk]]
    curves: list[AlphaCurve] = field(init=False)
    top: RationalPoint = field(init=False)
    junctions: dict[tuple[str, str], list[Address]] = field(init=False)
    junction_values: dict[tuple[str, str], list[RationalPoint]] = field(init=False)

    def __post_init__(self) -> None:
        self.curves = alpha_curves(self)
        # the value of 0.(B-1)bar: a digit flip maps each value v to top - v
        self.top = point_eval(_addr((), (self.params.b - 1,)), self.params)
        self.junctions = expected_chain_junctions(self.params)
        self.junction_values = {
            pair: [point_eval(ad, self.params) for ad in addrs]
            for pair, addrs in self.junctions.items()
        }

    @classmethod
    def build(cls, params: TileParams) -> "ChainSetup":
        table = alpha_table(params)  # the one regime check
        ordered = ordered_extension(build_contact_graph(params))
        return cls(params, ordered, neighbor_set_formula(params).members, table)


def alpha_curves(setup: ChainSetup) -> list[AlphaCurve]:
    """The curves alpha_1..alpha_B, once the setup's ordering decodes the
    tabulated walks of ``alpha_calibration_rows`` to their tabulated
    addresses; each endpoint walk is decoded once, for the check and the
    curve alike."""
    params, table = setup.params, setup.table
    decoded = {walk: psi(walk, setup.ordered) for pair in table for walk in pair}
    for walk, addr in alpha_calibration_rows(params, table):
        if decoded[walk] != addr:
            raise CertificateFailure(
                f"walk {walk} does not decode to the tabulated 0.{addr} "
                f"for (A,B)=({params.a},{params.b})"
            )
    # row B-1 lists its high bound first: its walks (5; 2, (2A-2)bar) and
    # (5; 2, 2A-2, 4, 2bar) part at letter 3, where 2A-2 >= 6 > 4
    bounds = table[:]
    bounds[-2] = bounds[-2][::-1]
    langs = lex_interval_languages(setup.ordered, bounds)
    return [
        AlphaCurve(f"a{i}", lang, (decoded[s], decoded[t]))
        for i, ((s, t), lang) in enumerate(zip(table, langs), start=1)
    ]


def flipped_languages(setup: ChainSetup) -> list[tuple[str, DigitDFA]]:
    """The labels and digit languages of the flips alpha_i' of the setup's
    curves.  The curves share one table, so their flips share one flip of
    it, each read from its curve's own initial state."""
    table = nfa_flip(setup.curves[0].language, setup.params.b).trans
    return [(f"{c.label}'", DigitDFA(c.language.initial, table)) for c in setup.curves]


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


# a report cell with neither addresses nor a value, as ``json.dumps`` writes
# it: the quoted kind and the two quoted labels of its pair
_KIND_ONLY_CELL = (
    '    {\n      "kind": %s,\n      "pair": [\n        %s,\n        %s\n      ]\n    }'
)


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
        is escaped byte for byte as there.  Each label is quoted once, and a
        cell that holds only its kind is written from one template."""
        ordered = sorted(self.labels)
        quoted = {label: encode_basestring_ascii(label) for label in ordered}
        cells = []
        # the cells in the order of their sorted pairs, which are pairs of
        # labels: cheaper than sorting the pairs
        pairs = [(l1, l2) for l1 in ordered for l2 in ordered if (l1, l2) in self.matrix]
        for l1, l2 in pairs:
            cell = self.matrix[(l1, l2)]
            kind = encode_basestring_ascii(cell["kind"])
            if "addresses" not in cell and "value" not in cell:
                cells.append(_KIND_ONLY_CELL % (kind, quoted[l1], quoted[l2]))
                continue
            fields = []
            if "addresses" in cell:
                fields.append(
                    '"addresses": ' + _json_strings([str(ad) for ad in cell["addresses"]], 6)
                )
            fields.append('"kind": ' + kind)
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


def _mirrored_cell(res: IntersectionAutomaton, setup: ChainSetup) -> dict:
    """The cell of the flips of a product's two languages, read off the
    product.  The flip a -> B-1-a maps S to -S, so the flipped product is
    the product with each state (p, q, delta) renamed (p, q, -delta) and
    each digit flipped: it has the same kind, each live state's edges sort
    in reverse, so its runs are the product's runs flipped and in reverse
    order, and each value v becomes top - v.  Not for BRANCHING, whose
    witness is the least state by ``repr``, which the renaming does not
    keep."""
    cell: dict = {"kind": res.kind}
    if res.kind in (UNIQUE_POINT, FINITE_POINTS):
        (x, y), top = res.runs[-1].value, setup.top
        cell["value"] = (top[0] - x, top[1] - y)
        cell["addresses"] = [flip(r.left, setup.params) for r in res.runs[:-5:-1]]
    return cell


def _chain_matrix(
    setup: ChainSetup,
    labeled: list[tuple[str, DigitDFA]],
    flipped: list[tuple[str, DigitDFA]],
) -> dict[tuple[str, str], dict]:
    """The cell of every pair of the labeled languages followed by their
    flips, in pair order; the k-th language of ``flipped`` is the digit flip
    of the k-th of ``labeled``.  All products share one move table, and a
    pair whose product has no move out of its initial state is EMPTY without
    being built.

    The flip phi maps a point set X to phiX, with phi(X n Y) = phiX n phiY.
    So the cell of two flipped languages is read off the cell of the two
    languages (``_mirrored_cell``), unless that cell is BRANCHING; and a
    cell of L_i and the flip of L_j, i > j, is EMPTY when the cell of L_j
    and the flip of L_i is, and built otherwise."""
    moves = ProductMoves(setup.sset, setup.params)
    n = len(labeled)
    langs = labeled + flipped
    labels = [label for label, _ in langs]
    firsts = [moves.first_digits(lang) for _, lang in langs]
    products: dict[tuple[int, int], IntersectionAutomaton] = {}
    matrix: dict[tuple[str, str], dict] = {}

    def built(x: int, y: int) -> dict:
        res = product_intersection(langs[x][1], langs[y][1], moves)
        if y < n:
            products[(x, y)] = res
        return _classify_cell(res)

    for x in range(n):
        partners = moves.partners(firsts[x])
        for y in range(x + 1, 2 * n):
            # (L_x, flip L_j) with x > j has the swap (L_j, flip L_x), built
            # in an earlier row
            swap = (labels[y - n], labels[x + n]) if n <= y < n + x else None
            if partners.isdisjoint(firsts[y]) or (swap and matrix[swap]["kind"] == EMPTY):
                matrix[(labels[x], labels[y])] = {"kind": EMPTY}
            else:
                matrix[(labels[x], labels[y])] = built(x, y)
    for x in range(n, 2 * n):
        for y in range(x + 1, 2 * n):
            source = products.get((x - n, y - n))
            if source is None:  # its start is dead, and so is the flip's
                matrix[(labels[x], labels[y])] = {"kind": EMPTY}
            elif source.kind == BRANCHING:
                matrix[(labels[x], labels[y])] = built(x, y)
            else:
                matrix[(labels[x], labels[y])] = _mirrored_cell(source, setup)
    return matrix


def _check_cycle_pattern(
    setup: ChainSetup, labels: list[str], matrix: dict[tuple[str, str], dict]
) -> tuple[list[str], dict[tuple[str, str], list[Address]]]:
    """The violations of the circular pattern in a chain matrix, and the
    expected junction addresses of each adjacent pair whose cell is a point
    and whose dual addresses agree.  The matrix is only read."""
    violations: list[str] = []
    addresses: dict[tuple[str, str], list[Address]] = {}
    cycle = list(zip(labels, labels[1:] + labels[:1]))
    adjacent = set(cycle) | {(l2, l1) for l1, l2 in cycle}
    for (l1, l2), cell in matrix.items():
        if (l1, l2) in adjacent:
            key = (l1, l2) if (l1, l2) in setup.junctions else (l2, l1)
            expect = setup.junctions.get(key)
            if cell["kind"] != UNIQUE_POINT:
                violations.append(
                    f"{l1} & {l2}: expected UNIQUE_POINT, got {cell['kind']}"
                )
                continue
            if expect is None:
                violations.append(f"{l1} & {l2}: no expected junction value")
                continue
            values = setup.junction_values[key]
            if any(v != values[0] for v in values[1:]):
                violations.append(
                    f"{l1} & {l2}: dual junction addresses disagree"
                )
                continue
            addresses[(l1, l2)] = expect
            if cell["value"] != values[0]:
                violations.append(
                    f"{l1} & {l2}: junction value mismatch "
                    f"(got {cell['value']}, want {values[0]})"
                )
        else:
            if cell["kind"] != EMPTY:
                witness = cell.get("value") or cell.get("witness")
                violations.append(
                    f"{l1} & {l2}: expected EMPTY, got {cell['kind']} ({witness})"
                )
    return violations, addresses


def circular_chain_report(setup: ChainSetup) -> ChainReport:
    labeled = [(c.label, c.language) for c in setup.curves]
    flipped = flipped_languages(setup)
    matrix = _chain_matrix(setup, labeled, flipped)
    labels = [l for l, _ in labeled + flipped]
    violations, addresses = _check_cycle_pattern(setup, labels, matrix)
    # the report names an adjacent pair's point by its expected junction
    # addresses
    for pair, expect in addresses.items():
        matrix[pair]["addresses"] = expect
    return ChainReport(setup.params, labels, matrix, violations)


# ---------------------------------------------------------------------------
# gamma arcs and the symmetry center


def gamma_arcs(setup: ChainSetup) -> list[GammaArc]:
    """Arcs gamma_i = f_i f_{B-1}^{-1}(alpha_{B-1} u alpha_B) for i = 1..B-2.

    gamma_i is alpha_{B-1} u alpha_B with its leading digit B-1 replaced by
    i, so the word 0.i w lies on gamma_i exactly when 0.(B-1) w lies on the
    union, that is on alpha_{B-1} or on alpha_B.  Each arc must hold its
    interior contact point 0.i(A-2)bar and the end t of alpha_{B-1} and the
    start s of alpha_B led by i; these three questions are asked once, each
    led by B-1, of alpha_{B-1} and then alpha_B, the first being
    P_{B-1} = 0.(B-1)(A-2)bar.  Verified per arc: the endpoint values lie
    on the circular-chain junction set, and the boundary containment facts
    hold as edge lookups in the contact graph.
    """
    params = setup.params
    a, b = params.a, params.b
    where = f"(A,B)=({a},{b})"
    curves = setup.curves
    for name, addr in (
        ("interior contact point", _addr((b - 1,), (a - 2,))),
        ("endpoint walk t", curves[b - 2].endpoint_addresses[1]),
        ("endpoint walk s", curves[b - 1].endpoint_addresses[0]),
    ):
        led = Address((), (b - 1,) + addr.preperiod[1:], addr.period)
        if not addr.preperiod or not any(
            accepts_address(c.language, led) for c in curves[b - 2 :]
        ):
            raise ChainViolation(
                f"the gamma arcs' {name} is not on alpha_{b - 1} u alpha_{b} for {where}"
            )
    junction_values = {values[0] for values in setup.junction_values.values()}
    graph = setup.ordered.graph
    arcs: list[GammaArc] = []
    for i in range(1, b - 1):
        end1 = point_eval(_addr((i, a - 2, b - 2), (0, b - 1)), params)
        end2 = point_eval(_addr((i, b - 1, 0), (0, b - 1)), params)
        if end1 not in junction_values or end2 not in junction_values:
            raise ChainViolation(f"gamma_{i} endpoints leave the junction set for {where}")
        # containment facts: 0.i[K_s] inside K_t iff the edge t -i-> s exists
        want_t = 6 if i <= b - a else 5
        if not graph.has_edge(want_t, i, 2):
            raise ChainViolation(f"0.{i}[K2] not inside K{want_t} for {where}")
        want_t = 2 if i <= a - 1 else 3
        if not graph.has_edge(want_t, i, 4):
            raise ChainViolation(f"0.{i}[K4] not inside K{want_t} for {where}")
        want_t = 2 if i <= a - 2 else 3
        if not graph.has_edge(want_t, i, 5):
            raise ChainViolation(f"0.{i}[K5] not inside K{want_t} for {where}")
        arcs.append(GammaArc(i, (end1, end2)))
    return arcs


def symmetry_and_junctions(params: TileParams) -> dict:
    """Exact identities anchoring the construction: the symmetry center
    S = 0.(A-2)bar = half of 0.(B-1)bar, and the contact points
    P_i = f_i(S) = 0.i(A-2)bar."""
    _require_regime(params)
    a, b = params.a, params.b
    where = f"(A,B)=({a},{b})"
    s_val = point_eval(_addr((), (a - 2,)), params)
    top = point_eval(_addr((), (b - 1,)), params)
    if (s_val[0] * 2, s_val[1] * 2) != top:
        raise IdentityFailure(f"symmetry center is not half the top point for {where}")
    contact_points = {}
    for i in range(b):
        p_i = point_eval(_addr((i,), (a - 2,)), params)
        if p_i != apply_contraction(i, s_val, params):
            raise IdentityFailure(f"P_{i} != f_{i}(S) for {where}")
        contact_points[i] = p_i
    return {
        "center": s_val,
        "contact_points": contact_points,
    }
