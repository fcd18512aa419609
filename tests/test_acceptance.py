"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from contextlib import contextmanager

from tiletopo import TileParams, point_eval
from tiletopo.numsys import Address, apply_contraction, flip

from conftest import random_address, series_value
from reference import prepend_digits, solve2


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}] FAIL ({time.time() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {number} [{name}] PASS ({time.time() - start:.2f}s)")


GRID = [(a, b) for b in range(2, 13) for a in range(1, b + 1)]


def test_criterion_1_classification_grid():
    from tiletopo.topology import Classification, classify

    with criterion(1, "classification-grid"):
        start = time.time()
        for (a, b) in GRID:
            cls = classify(TileParams(a, b))
            d = 2 * a - b
            if (a, b) == (4, 4):
                expected = Classification.SQUARE_SPECIAL_CASE
            elif d <= 2:
                expected = Classification.DISK_LIKE
            elif d in (3, 4):
                expected = Classification.NO_CUT_POINT_INTERIOR_DISCONNECTED
            else:
                expected = Classification.HAS_CUT_POINT
            assert cls is expected, (a, b)
        assert classify(TileParams(0, 5)) is Classification.DEGENERATE_RECTANGLE
        assert time.time() - start < 5.0


def test_criterion_2_neighbor_cross_validation():
    from tiletopo.neighbors import neighbor_set_formula, neighbor_set_search

    with criterion(2, "neighbor-cross-validation"):
        start = time.time()
        for (a, b) in GRID:
            params = TileParams(a, b)
            formula = neighbor_set_formula(params)
            searched = neighbor_set_search(params)
            assert formula.members == searched.members, (a, b)
            assert len(formula) == 2 + 4 * formula.j, (a, b)
            assert all((-x, -y) in formula.members for (x, y) in formula.members)
        assert time.time() - start < 30.0


def test_criterion_3_cut_point_certificates():
    from tiletopo.topology import cut_point_address, verify_cut_point

    with criterion(3, "cut-point-certificates"):
        for (a, b) in GRID:
            if 2 * a - b < 5:
                continue
            params = TileParams(a, b)
            start = time.time()
            cert = verify_cut_point(params, depth=12)
            addr = cut_point_address(params)
            assert cert.address == addr
            assert cert.value == point_eval(addr, params)
            assert time.time() - start < 10.0, (a, b)
        # independent oracle for (5,5): linear solve and truncated series
        params = TileParams(5, 5)
        m = params.matrix
        direct = solve2(((m[0][0] - 1, m[0][1]), (m[1][0], m[1][1] - 1)), (2, 0))
        cert = verify_cut_point(params)
        assert cert.value == direct
        approx = series_value(cert.address, params)
        assert abs(float(cert.value[0]) - approx[0]) < 1e-12
        assert abs(float(cert.value[1]) - approx[1]) < 1e-12


def test_criterion_4_subdivision_lemma_replay():
    from reference import adjacent_singleton_point, subdivision_intersects

    with criterion(4, "subdivision-lemma-replay"):
        for (a, b) in [(4, 5), (5, 7), (6, 9)]:
            p = TileParams(a, b)
            for a1 in range(b):
                for a1p in range(b):
                    if a1 != a1p:
                        got = subdivision_intersects((a1,), (a1p,), p)
                        assert got == (abs(a1 - a1p) == 1)
            for a1 in range(1, b):
                for a2 in range(b):
                    for a2p in range(b):
                        got = subdivision_intersects((a1, a2), (a1 - 1, a2p), p)
                        assert got == (a2 - a2p in {a, a - 1, a - 2})
            for a2 in range(a, b):
                a2p = a2 - a
                for a3 in range(b):
                    for a3p in range(b):
                        for a4 in range(b):
                            for a4p in range(b):
                                got = subdivision_intersects(
                                    (1, a2, a3, a4), (0, a2p, a3p, a4p), p
                                )
                                want = (
                                    a3 == b - 1
                                    and a3p == 0
                                    and a4 - a4p in {-a, -a + 1, -a + 2}
                                )
                                assert got == want
            for a2 in range(a - 1, b):
                a2p = a2 - (a - 1)
                for a3 in range(b):
                    for a3p in range(b):
                        for a4 in range(b):
                            for a4p in range(b):
                                got = subdivision_intersects(
                                    (1, a2, a3, a4), (0, a2p, a3p, a4p), p
                                )
                                d3, d4 = a3 - a3p, a4 - a4p
                                want = (
                                    (d3 == b - a and a4 == 0 and a4p == b - 1)
                                    or (
                                        d3 == b - a + 1
                                        and d4 in {a - b, a - b - 1, a - b - 2}
                                    )
                                    or (d3 == b - a + 2 and d4 == 1)
                                )
                                assert got == want
            for a2 in range(a - 2, b):
                a2p = a2 - (a - 2)
                for a3 in range(b):
                    for a3p in range(b):
                        got = subdivision_intersects((1, a2, a3), (0, a2p, a3p), p)
                        assert got == (a3 - a3p == -1)
                        if got:
                            pair = adjacent_singleton_point(
                                (1, a2, a3), (0, a2p, a3p), p
                            )
                            assert pair is not None
                            assert point_eval(pair[0], p) == point_eval(pair[1], p)


def test_criterion_5_chain_verification():
    from tiletopo.chains import ChainSetup, alpha_curves
    from reference import verify_chain, verify_circular_chain

    with criterion(5, "chain-verification"):
        for (a, b) in [(4, 5), (5, 7), (6, 9)]:
            start = time.time()
            setup = ChainSetup.build(TileParams(a, b))
            verify_chain(setup)
            report = verify_circular_chain(setup)
            labels = report.labels
            n = len(labels)
            for i, l1 in enumerate(labels):
                for l2 in labels[i + 1 :]:
                    j = labels.index(l2)
                    adjacent = abs(i - j) == 1 or abs(i - j) == n - 1
                    cell = report.entry(l1, l2)
                    assert cell["kind"] == (
                        "UNIQUE_POINT" if adjacent else "EMPTY"
                    ), (a, b, l1, l2)
            # appendix emptiness claims, explicitly
            assert report.entry(f"a{b}", f"a{b-2}")["kind"] == "EMPTY"
            assert report.entry("a1", f"a{b-3}'")["kind"] == "EMPTY"
            # junction values coincide with the decoded endpoint walks:
            # alpha_i meets alpha_{i+1} exactly at the point of s_i (equally
            # the point of t_{i+1})
            curves = alpha_curves(setup)
            p = setup.params
            for i in range(1, b):
                cell = report.entry(f"a{i}", f"a{i+1}")
                s_val = point_eval(curves[i - 1].endpoint_addresses[0], p)
                t_val = point_eval(curves[i].endpoint_addresses[1], p)
                assert cell["value"] == s_val == t_val, (a, b, i)
            assert time.time() - start < 60.0, (a, b)


def _parametrization_approxes():
    from tiletopo.contact import approx_boundary, build_contact_graph, derive_order_extension

    out = {}
    for (a, b) in [(2, 2), (4, 5), (5, 5)]:
        ordered = derive_order_extension(build_contact_graph(TileParams(a, b)))
        out[(a, b)] = [approx_boundary(ordered, n) for n in range(0, 7)]
    return out


def test_criterion_6_parametrization_integrity():
    from tiletopo.geometry import polygon_is_simple_closed

    with criterion(6, "parametrization-integrity"):
        for (a, b), approxes in _parametrization_approxes().items():
            for n in range(0, 6):
                ap = approxes[n]
                assert polygon_is_simple_closed(ap.vertices), (a, b, n)
                assert set(ap.vertices) <= set(approxes[n + 1].vertices), (a, b, n)
                firsts, lasts = ap.point_array.tolist(), ap.last_array.tolist()
                m = len(firsts)
                for k in range(m):
                    assert lasts[k] == firsts[(k + 1) % m], (a, b, n, k)


def test_criterion_6_hausdorff_strict_decrease():
    """Stated as: d_H of consecutive polygon levels strictly decreases.

    This clause is a defect in the requirement: for (A,B)=(2,2) the exact
    construction yields d_H(L1,L2) <= 0.107 < 0.1118 <= d_H(L2,L3), certified
    by sampling brackets, and the unique consistent edge ordering leaves no
    alternative polygon sequence.  The assertion is kept as written and the
    failure is expected; see the decisions ledger for the analysis.
    """
    from tiletopo.geometry import polyline_hausdorff

    with criterion(6, "hausdorff-strict-decrease"):
        failures = []
        for (a, b), approxes in _parametrization_approxes().items():
            dists = [
                polyline_hausdorff(approxes[n].vertices, approxes[n + 1].vertices)
                for n in range(0, 5)
            ]
            for n in range(len(dists) - 1):
                if not dists[n + 1] < dists[n] - 1e-9:
                    failures.append(((a, b), n, [round(d, 6) for d in dists]))
        assert not failures, f"consecutive-gap monotonicity fails: {failures}"


def test_criterion_7_identity_suite():
    with criterion(7, "identity-suite"):
        rng = random.Random(1789)
        regime = [(4, 5), (5, 7), (6, 9), (7, 11)]
        for (a, b) in regime:
            params = TileParams(a, b)
            # dual addresses of the shared subdivision point
            for _ in range(100):
                a1 = rng.randint(1, b - 1)
                a2 = rng.randint(a - 2, b - 1)
                a3 = rng.randint(0, b - 2)
                u = Address((), (a1, a2, a3), (0, b - 1))
                v = Address((), (a1 - 1, a2 - (a - 2), a3 + 1), (b - 1, 0))
                assert point_eval(u, params) == point_eval(v, params)
            # symmetry center
            s = point_eval(Address((), (), (a - 2,)), params)
            top = point_eval(Address((), (), (b - 1,)), params)
            assert (2 * s[0], 2 * s[1]) == top
        # flip-reflection and prefix-shift identities
        for (a, b) in [(4, 5), (5, 5), (2, 2), (3, 7)]:
            params = TileParams(a, b)
            top = point_eval(Address((), (), (b - 1,)), params)
            for _ in range(100):
                addr = random_address(rng, b)
                val = point_eval(addr, params)
                mirrored = point_eval(flip(addr, params), params)
                assert (val[0] + mirrored[0], val[1] + mirrored[1]) == top
                digit = rng.randrange(b)
                assert point_eval(
                    prepend_digits((digit,), addr), params
                ) == apply_contraction(digit, val, params)


def test_criterion_8_determinism(tmp_path):
    from tiletopo.cli import main

    with criterion(8, "determinism"):
        pairs = [("sweep", ["sweep", "--Bmax", "12"])]
        for kind, a, b, n in [
            ("boundary", 2, 2, 3),
            ("boundary", 4, 5, 3),
            ("patch", 4, 5, 2),
            ("patch", 5, 5, 1),
            ("cutpoint", 5, 5, 2),
            ("cutpoint", 6, 6, 2),
        ]:
            pairs.append(
                (
                    f"{kind}_A{a}_B{b}_n{n}",
                    ["render", "--A", str(a), "--B", str(b), "--kind", kind, "--n", str(n)],
                )
            )
        for tag, argv in pairs:
            d1 = tmp_path / f"{tag}_run1"
            d2 = tmp_path / f"{tag}_run2"
            assert main(argv + ["--out", str(d1)]) == 0
            assert main(argv + ["--out", str(d2)]) == 0
            files1 = sorted(p.name for p in d1.iterdir())
            files2 = sorted(p.name for p in d2.iterdir())
            assert files1 == files2 and files1
            for name in files1:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), (
                    tag,
                    name,
                )
