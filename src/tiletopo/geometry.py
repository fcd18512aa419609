"""Exact polygon predicates and float distance diagnostics.

The simple-closed test takes one path for every polygon: exact integer
orientation signs on the candidate pairs of one float sweep.  Its input is
an (m, 2) integer array, such as a level-n boundary of
``contact.approx_boundary`` over its common scale, which is used as it is.  A
tuple of int or Fraction pairs is turned into one at the entry, scaled by
the LCM of the coordinate denominators (ints have denominator 1).  The
integers are int64 when every coordinate is below 2**30, so that every
orientation product fits, and Python ints otherwise.  Repeated vertices are
found by sorting one integer key per vertex, x * 2**(b+1) + y for
coordinates below 2**b, and comparing neighbours.  The four orientation
signs of each candidate pair, and the crossings and touches read off those
signs, are array expressions on it, whatever its dtype; no pair is looked at
one by one.  A spike is a touch too, except in a triangle, which is tested
for collinearity instead.  The sweep's floats are that array divided by one
power of two, which is exact for int64 and correctly rounded for Python
ints, and never overflows.  The subdivision pieces are extremely anisotropic
slivers sharing one elongation axis, so the sweep works on padded segment
boxes in a rotated frame aligned with the longest segment.  It sorts the
boxes by their lower end on one axis; one searchsorted counts, for each box,
the later boxes that overlap it there, array arithmetic lists those pairs,
and the pairs that also overlap on the other axis are the candidates.  Of
the two axes it sweeps the one with the smaller total count, which costs
one argsort and one searchsorted per axis: the thin axis for slivers, the
other for a comb of long parallel teeth.  Floats only ever discard pairs
whose rotated boxes are disjoint, never decide an intersection.  Hausdorff
distances between polygonal curves are float-only diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .numsys import RationalPoint

Point = tuple[int, int] | RationalPoint  # exact coordinates


def _cross(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row-wise (q - p) x (r - p) of integer point arrays."""
    return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])


def _within(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row-wise: is r within the closed box of pq?"""
    return (
        (np.minimum(p[:, 0], q[:, 0]) <= r[:, 0])
        & (r[:, 0] <= np.maximum(p[:, 0], q[:, 0]))
        & (np.minimum(p[:, 1], q[:, 1]) <= r[:, 1])
        & (r[:, 1] <= np.maximum(p[:, 1], q[:, 1]))
    )


def _candidate_pairs(iarr: np.ndarray) -> np.ndarray:
    """Indices (i, j), i < j, of non-adjacent segments whose rotated boxes
    overlap, in increasing order of i * m + j.  ``iarr`` holds the m+1
    closed-polygon vertices as integers, int64 or Python ints."""
    m = len(iarr) - 1
    # every coordinate scaled by the same 2**-e, so the largest magnitude lies
    # in [1, 2): exact for int64 entries below 2**30, a correctly rounded
    # quotient for Python ints, and no overflow however large they are; box
    # overlap is invariant under a common scale
    e = int(np.abs(iarr).max()).bit_length() - 1
    arr = (iarr / 2**e).astype(np.float64)
    a, b = arr[:-1], arr[1:]
    lengths2 = ((b - a) ** 2).sum(axis=1)
    k = int(np.argmax(lengths2))
    d = b[k] - a[k]
    norm = math.hypot(d[0], d[1]) or 1.0
    rot = np.array([[d[0], d[1]], [-d[1], d[0]]]) / norm
    ra, rb = a @ rot.T, b @ rot.T
    # pad boxes beyond float rounding so the sweep stays conservative:
    # each float is its (scaled) rational rounded correctly, so off by at
    # most 2**-53 relative (at most 2**-1075 absolute if subnormal), and the
    # rotation adds a few ulps of max|coord|; the pad exceeds that 2**10-fold
    eps = float(np.abs(arr).max()) * 2.0**-40 + 1e-12
    x0, x1 = np.minimum(ra[:, 0], rb[:, 0]) - eps, np.maximum(ra[:, 0], rb[:, 0]) + eps
    y0, y1 = np.minimum(ra[:, 1], rb[:, 1]) - eps, np.maximum(ra[:, 1], rb[:, 1]) + eps
    # sort the boxes by their lower end on one axis: the box at sorted
    # position p overlaps there exactly the later boxes whose lower end is at
    # most its upper end; sweep the axis with fewer such pairs
    sweeps = []
    for lo, hi in ((x0, x1), (y0, y1)):
        order = np.argsort(lo)
        later = np.searchsorted(lo[order], hi[order], side="right") - np.arange(m) - 1
        sweeps.append((int(later.sum()), order, later))
    _, order, later = min(sweeps, key=lambda sweep: sweep[0])
    # position p pairs with the later positions p+1 .. p+later[p]
    first = np.repeat(np.arange(m), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    i, j = order[first], order[second]
    i, j = np.minimum(i, j), np.maximum(i, j)
    adjacent = (j == i + 1) | ((i == 0) & (j == m - 1))
    overlap = (x0[i] <= x1[j]) & (x0[j] <= x1[i]) & (y0[i] <= y1[j]) & (y0[j] <= y1[i])
    codes = np.sort((i * m + j)[overlap & ~adjacent])
    return np.stack([codes // m, codes % m], axis=1)


def polygon_is_simple_closed(vertices: np.ndarray | tuple[Point, ...]) -> bool:
    """No repeated vertices, no spikes, and no contact between non-adjacent
    edges of the closed polygon.  ``vertices`` is an (m, 2) integer array,
    int64 or Python ints, or a tuple of int or Fraction pairs.

    Only a triangle needs a spike test of its own, and for three distinct
    vertices it is a collinearity test: all three edges are adjacent.  With
    m >= 4 a spike p, q, r (r folding back along qp) puts r on edge pq or p
    on edge qr.  Edge pq is not adjacent to r's outgoing edge rs, nor qr to
    p's incoming edge op, as m >= 4, so a touch term of that pair already
    rejects the polygon."""
    m = len(vertices)
    if m < 3:
        return False
    if not isinstance(vertices, np.ndarray):
        # ints have denominator 1, so an integer polygon keeps its values
        scale = math.lcm(*{c.denominator for v in vertices for c in v})
        vertices = np.array(
            [[c.numerator * (scale // c.denominator) for c in v] for v in vertices], dtype=object
        )
    bits = max(-int(vertices.min()), int(vertices.max())).bit_length()
    # below 2**30 every orientation product fits in int64; above, the same
    # expressions run on Python ints
    iarr = np.concatenate([vertices, vertices[:1]])
    iarr = iarr.astype(np.int64 if bits <= 30 else object, copy=False)
    # x * 2**(bits+1) + y tells apart points whose coordinates lie below 2**bits
    keys = np.sort(iarr[:-1, 0] * 2 ** (bits + 1) + iarr[:-1, 1])
    if (keys[1:] == keys[:-1]).any():
        return False
    if m == 3:  # a flat triangle folds back at its middle vertex
        return bool(_cross(iarr[:1], iarr[1:2], iarr[2:3])[0] != 0)
    pi = _candidate_pairs(iarr)
    a1, a2 = iarr[pi[:, 0]], iarr[pi[:, 0] + 1]
    b1, b2 = iarr[pi[:, 1]], iarr[pi[:, 1] + 1]
    d1 = np.sign(_cross(b1, b2, a1))
    d2 = np.sign(_cross(b1, b2, a2))
    d3 = np.sign(_cross(a1, a2, b1))
    d4 = np.sign(_cross(a1, a2, b2))
    crossing = (d1 * d2 < 0) & (d3 * d4 < 0)
    # a zero sign is a touch (or a collinear overlap) when the point lies in
    # the closed box of the other segment
    touch = (
        ((d1 == 0) & _within(b1, b2, a1))
        | ((d2 == 0) & _within(b1, b2, a2))
        | ((d3 == 0) & _within(a1, a2, b1))
        | ((d4 == 0) & _within(a1, a2, b2))
    )
    return not (crossing | touch).any()


def _point_segment_dist(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min distance from each point to each segment [a_k, b_k]; returns the
    per-point minimum over segments."""
    ab = b - a  # (m, 2)
    ab2 = (ab**2).sum(axis=1)
    ab2[ab2 == 0] = 1e-300
    out = np.full(len(points), np.inf)
    for i in range(0, len(points), 256):
        chunk = points[i : i + 256]  # (c, 2)
        ap = chunk[:, None, :] - a[None, :, :]  # (c, m, 2)
        t = (ap * ab[None, :, :]).sum(-1) / ab2[None, :]
        t = np.clip(t, 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
        d = np.sqrt(((chunk[:, None, :] - proj) ** 2).sum(-1)).min(axis=1)
        out[i : i + 256] = d
    return out


def polyline_hausdorff(p: tuple[RationalPoint, ...], q: tuple[RationalPoint, ...]) -> float:
    """Symmetric vertex-to-curve Hausdorff estimate between closed polygons."""
    pf = np.array([[float(x), float(y)] for (x, y) in p])
    qf = np.array([[float(x), float(y)] for (x, y) in q])

    def directed(src: np.ndarray, dst: np.ndarray) -> float:
        a = dst
        b = np.roll(dst, -1, axis=0)
        return float(_point_segment_dist(src, a, b).max())

    return max(directed(pf, qf), directed(qf, pf))
