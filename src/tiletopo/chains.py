"""Curve chains along the boundary for the regime 2A - B = 3, A != B.

The boundary parametrization cuts B curves alpha_1..alpha_B out of the
bottom of the boundary (walk intervals listed in the endpoint table), their
digit flips run along the top, and together they close into a circular chain:
cyclically consecutive curves share exactly one point and all other pairs are
disjoint.  Additional arcs gamma_i, obtained by substituting the leading
digit, pass through the interior contact points.  Everything here is decided
mechanically: each curve language is a lexicographic walk interval, read by
one automaton whose states pair the contact state with how far the walk
still follows each bound, and intersections run through the exact product
automaton.  The circular chain's report is the one chain report: the open
chain alpha_1..alpha_B is read off it, since its expected pattern is the
circular one restricted to the unprimed curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import (
    BRANCHING,
    EMPTY,
    FINITE_POINTS,
    UNIQUE_POINT,
    DigitDFA,
    DigitNFA,
    nfa_accepts_address,
    nfa_determinize,
    nfa_flip,
    nfa_remap_first_digit,
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


def lex_interval_language(
    ordered: OrderedContactGraph, lo: Walk, hi: Walk
) -> DigitDFA:
    """Digit language of all infinite walks w with lo <= w <= hi.

    A state (q, i, j) is the contact state q, with i the step of lo's
    unrolled walk while w still equals lo (None once w has gone above it),
    and j the same for hi.  While i is set no letter below lo's is allowed,
    and while j is set none above hi's; an index moves on only when w takes
    the bound's own letter, and wraps at the cycle start."""
    if walk_compare(lo, hi) > 0:
        lo, hi = hi, lo
    (lo_steps, lo_wrap), (hi_steps, hi_wrap) = ordered.walk_steps(lo), ordered.walk_steps(hi)

    def follow(idx: int | None, letter: int, steps: list, wrap: int) -> int | None:
        if idx is None or steps[idx][0] != letter:
            return None
        return idx + 1 if idx + 1 < len(steps) else wrap

    initials = tuple(
        (s, 0 if s == lo.start else None, 0 if s == hi.start else None)
        for s in range(lo.start, hi.start + 1)
    )
    trans: dict = {}
    frontier = list(initials)
    while frontier:
        node = frontier.pop()
        if node in trans:
            continue
        q, i, j = node
        row: dict = {}
        for k, e in enumerate(ordered.orders[q - 1], start=1):
            if i is not None and k < lo_steps[i][0]:
                continue
            if j is not None and k > hi_steps[j][0]:
                continue
            target = (e[3], follow(i, k, lo_steps, lo_wrap), follow(j, k, hi_steps, hi_wrap))
            row[e[1]] = row.get(e[1], ()) + (target,)
            frontier.append(target)
        trans[node] = row
    return nfa_determinize(DigitNFA(initials, trans))


# ---------------------------------------------------------------------------
# curve objects


@dataclass(frozen=True)
class AlphaCurve:
    """One curve of the bottom chain: a walk interval with its digit language."""

    index: int
    label: str
    s_walk: Walk
    t_walk: Walk
    language: DigitDFA
    endpoint_addresses: tuple[Address, Address]


@dataclass(frozen=True)
class FlippedCurve:
    index: int
    label: str
    language: DigitDFA
    endpoint_addresses: tuple[Address, Address]


@dataclass(frozen=True)
class GammaArc:
    index: int
    label: str
    language: DigitNFA
    endpoints: tuple[RationalPoint, RationalPoint]
    through: RationalPoint


@dataclass
class ChainSetup:
    """Shared context for the chain checks of one parameter pair; the curves
    alpha_1..alpha_B are built once, here."""

    params: TileParams
    graph: ContactGraph
    ordered: OrderedContactGraph
    sset: frozenset
    curves: list[AlphaCurve] = field(init=False)

    def __post_init__(self) -> None:
        self.curves = alpha_curves(self)

    @classmethod
    def build(cls, params: TileParams) -> "ChainSetup":
        _require_regime(params)
        graph = build_contact_graph(params)
        ordered = ordered_extension(graph)
        return cls(params, graph, ordered, neighbor_set_formula(params).members)


def alpha_curves(setup: ChainSetup) -> list[AlphaCurve]:
    out = []
    for i, (s, t) in enumerate(alpha_table(setup.params), start=1):
        lang = lex_interval_language(setup.ordered, s, t)
        out.append(
            AlphaCurve(
                i,
                f"a{i}",
                s,
                t,
                lang,
                (psi(s, setup.ordered), psi(t, setup.ordered)),
            )
        )
    return out


def flipped_curves(setup: ChainSetup, curves: list[AlphaCurve]) -> list[FlippedCurve]:
    b = setup.params.b
    out = []
    for c in curves:
        out.append(
            FlippedCurve(
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
        out[(l1 + "'", l2 + "'")] = [
            Address((), tuple(b - 1 - d for d in ad.preperiod), tuple(b - 1 - d for d in ad.period))
            for ad in addrs
        ]
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

    def to_json(self) -> dict:
        cells = []
        for (l1, l2), cell in sorted(self.matrix.items()):
            row = {"pair": [l1, l2], "kind": cell["kind"]}
            if "value" in cell:
                row["value"] = [str(cell["value"][0]), str(cell["value"][1])]
            if "addresses" in cell:
                row["addresses"] = [str(ad) for ad in cell["addresses"]]
            cells.append(row)
        return {
            "schema": "tiletopo/chain-report@1",
            "params": {"A": self.params.a, "B": self.params.b},
            "labels": self.labels,
            "cells": cells,
            "ok": self.ok,
            "violations": self.violations,
        }

    def to_text(self) -> str:
        lines = [f"chain report (A={self.params.a}, B={self.params.b})"]
        width = max(len(l) for l in self.labels) + 1
        header = " " * width + " ".join(f"{l:>{width}}" for l in self.labels)
        lines.append(header)
        for l1 in self.labels:
            row = [f"{l1:>{width}}"]
            for l2 in self.labels:
                if l1 == l2:
                    row.append(f"{'-':>{width}}")
                    continue
                cell = self.entry(l1, l2)
                mark = {"EMPTY": ".", "UNIQUE_POINT": "1"}.get(cell["kind"], "?")
                row.append(f"{mark:>{width}}")
            lines.append(" ".join(row))
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("all pairs match the expected pattern")
        return "\n".join(lines) + "\n"


def _classify_cell(setup, lang1, lang2) -> dict:
    res = product_intersection(lang1, lang2, setup.sset, setup.params)
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
    matrix: dict[tuple[str, str], dict] = {}
    for i, (l1, g1) in enumerate(labeled):
        for l2, g2 in labeled[i + 1 :]:
            matrix[(l1, l2)] = _classify_cell(setup, g1, g2)
    return matrix


def _check_cycle_pattern(
    setup: ChainSetup,
    labels: list[str],
    matrix: dict[tuple[str, str], dict],
    junctions: dict[tuple[str, str], list[Address]],
) -> ChainReport:
    report = ChainReport(setup.params, labels, matrix)
    n = len(labels)

    def expected_adjacent(l1: str, l2: str) -> bool:
        d = abs(labels.index(l1) - labels.index(l2))
        return d == 1 or d == n - 1

    for (l1, l2), cell in matrix.items():
        if expected_adjacent(l1, l2):
            key = (l1, l2) if (l1, l2) in junctions else (l2, l1)
            expect = junctions.get(key)
            if cell["kind"] != UNIQUE_POINT:
                report.violations.append(
                    f"{l1} & {l2}: expected UNIQUE_POINT, got {cell['kind']}"
                )
                continue
            if expect is None:
                report.violations.append(f"{l1} & {l2}: no expected junction value")
                continue
            values = {point_eval(ad, setup.params) for ad in expect}
            if len(values) != 1:
                report.violations.append(
                    f"{l1} & {l2}: dual junction addresses disagree"
                )
                continue
            cell["addresses"] = expect
            if cell["value"] != next(iter(values)):
                report.violations.append(
                    f"{l1} & {l2}: junction value mismatch "
                    f"(got {cell['value']}, want {next(iter(values))})"
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
    junctions = expected_chain_junctions(setup.params)
    labels = [l for l, _ in labeled]
    return _check_cycle_pattern(setup, labels, matrix, junctions)


# ---------------------------------------------------------------------------
# gamma arcs and the symmetry center


def gamma_arcs(setup: ChainSetup) -> list[GammaArc]:
    """Arcs f_i f_{B-1}^{-1}(alpha_{B-1} u alpha_B) for i = 1..B-2.

    Verified per arc: the two endpoint values, membership of the interior
    contact point 0.i(A-2)bar, endpoint values on the circular-chain junction
    set, and the boundary containment facts as edge lookups in the contact
    graph.
    """
    params = setup.params
    a, b = params.a, params.b
    curves = setup.curves
    base = nfa_union([curves[b - 2].language, curves[b - 1].language])
    junction_values = {
        point_eval(addrs[0], params)
        for addrs in expected_chain_junctions(params).values()
    }
    graph = setup.graph
    arcs: list[GammaArc] = []
    for i in range(1, b - 1):
        lang = nfa_remap_first_digit(base, {b - 1: i})
        end1 = point_eval(_addr((i, a - 2, b - 2), (0, b - 1)), params)
        end2 = point_eval(_addr((i, b - 1, 0), (0, b - 1)), params)
        through_addr = _addr((i,), (a - 2,))
        through = point_eval(through_addr, params)
        if not nfa_accepts_address(lang, through_addr):
            raise ChainViolation(f"gamma_{i} misses its interior contact point")
        for name, walk in (("t", curves[b - 2].t_walk), ("s", curves[b - 1].s_walk)):
            addr = psi(walk, setup.ordered)
            mapped = Address(
                (), (i,) + addr.preperiod[1:], addr.period
            ) if addr.preperiod else None
            if mapped is None or not nfa_accepts_address(lang, mapped):
                raise ChainViolation(f"gamma_{i} endpoint walk {name} not in language")
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
        arcs.append(GammaArc(i, f"g{i}", lang, (end1, end2), through))
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
    endpoint = point_eval(_addr((b - 1,), (a - 2,)), params)
    flip_endpoint = point_eval(_addr((0,), (b - 1 - (a - 2),)), params)
    if endpoint != contact_points[b - 1]:
        raise IdentityFailure("P_{B-1} is not the curve endpoint")
    if flip_endpoint != contact_points[0]:
        raise IdentityFailure("P_0 is not the flipped endpoint")
    return {
        "center": s_val,
        "contact_points": contact_points,
    }
