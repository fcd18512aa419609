"""Shared fixtures and independent oracles used across the test suite.

The oracles here deliberately avoid the library's closed-form paths: address
values are cross-checked against truncated series, neighbor sets against the
certified graph search, and so on.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tiletopo import TileParams
from tiletopo.contact import Walk
from tiletopo.numsys import Address

from reference import mat_inv, mat_vec


# every hypothesis test draws the same examples on every run, and keeps no
# example database, so that a Tier-1 run is reproducible; each test still
# sets its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


# subprocess tests import the package from this checkout's src, as the
# in-process tests do through the pytest ``pythonpath`` setting
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])
)


def fractional_digit(addr, i: int) -> int:
    """Digit a_i of the fractional part of an address, 1-based; ``addr`` may
    be any object with ``preperiod`` and ``period``, canonical or not."""
    if i <= len(addr.preperiod):
        return addr.preperiod[i - 1]
    return addr.period[(i - 1 - len(addr.preperiod)) % len(addr.period)]


def series_value(addr: Address, params: TileParams, depth: int = 300):
    """Floating-point partial sums of sum_i M^{-i}(a_i, 0).

    Independent of the periodic-tail linear solve used by point_eval.  The
    slow eigenvalue of M can be as small as ~1.09 in modulus, so the depth
    is generous to make 1e-12 comparisons meaningful.
    """
    minv = [[float(x) for x in row] for row in mat_inv(params.matrix)]
    acc = [0.0, 0.0]
    col = [1.0, 0.0]
    for i in range(1, depth + 1):
        col = [
            minv[0][0] * col[0] + minv[0][1] * col[1],
            minv[1][0] * col[0] + minv[1][1] * col[1],
        ]
        d = fractional_digit(addr, i)
        acc = [acc[0] + col[0] * d, acc[1] + col[1] * d]
    # the integer part is a finite sum, no truncation involved
    m = params.matrix
    val = (Fraction(0), Fraction(0))
    for d in addr.integer_part:
        val = mat_vec(m, val)
        val = (val[0] + d, val[1])
    return (float(val[0]) + acc[0], float(val[1]) + acc[1])


def close(p, q, tol=1e-12) -> bool:
    return abs(float(p[0] - q[0])) < tol and abs(float(p[1] - q[1])) < tol


def random_address(rng: random.Random, b: int, max_pre: int = 5, max_per: int = 4) -> Address:
    pre = tuple(rng.randrange(b) for _ in range(rng.randint(0, max_pre)))
    per = tuple(rng.randrange(b) for _ in range(rng.randint(1, max_per)))
    return Address((), pre, per)


@st.composite
def pairs(draw, min_b=2, max_b=200):
    """A drawn normalized pair 0 <= A <= B with min_b <= B <= max_b."""
    b = draw(st.integers(min_b, max_b))
    return TileParams(draw(st.integers(0, b)), b)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


def cyclic_walk(ordered, start: int, period: tuple[int, ...], pre: tuple[int, ...] = ()) -> Walk:
    """The walk from ``start`` that reads ``pre`` once and then ``period``
    over and over, a letter x taking edge 1 + (x - 1) mod the out-degree of
    its state, cut where a (state, position in the period) pair repeats: an
    eventually periodic walk on every ordered graph."""
    letters, state, seen = [], start, {}
    for n in count():
        if n < len(pre):
            x = pre[n]
        else:
            key = (state, (n - len(pre)) % len(period))
            if key in seen:
                k = seen[key]
                return Walk(start, tuple(letters[:k]), tuple(letters[k:]))
            seen[key] = n
            x = period[key[1]]
        letters.append(1 + (x - 1) % ordered.out_count(state))
        state = ordered.edge_at(state, letters[-1])[3]
