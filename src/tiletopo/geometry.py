"""Exact polygon predicates and float distance diagnostics.

The simple-closed test takes one path for every polygon: exact integer
orientation tests on the candidate pairs of a float grid prefilter.  Its
input is an (m, 2) integer array, such as a level-n boundary of
``contact.approx_boundary`` over its common scale, which is used as it is.  A
tuple of int or Fraction pairs is turned into one at the entry, scaled by
the LCM of the coordinate denominators (ints have denominator 1).  The
integers are int64 when every coordinate is below 2**30, so that every
orientation product fits, and Python ints otherwise.  Repeated vertices are
found by sorting one integer key per vertex, x * 2**(b+1) + y for
coordinates below 2**b.  The spike test, the four orientation signs of each
candidate pair and the proper-crossing test are array expressions on it,
whatever its dtype; only pairs with a zero sign go on to the exact test in
Python.  The prefilter floats are that array divided by one power of two,
which is exact for int64 and correctly rounded for Python ints, and never
overflows.  The subdivision pieces are extremely anisotropic slivers sharing
one elongation axis, so the grid works in a rotated frame aligned with the
longest segment and with per-axis cell sizes.  Each segment is listed once
per grid cell its box meets; one stable sort groups the entries by cell, and
the pairs within each group are listed by array arithmetic, with no Python
loop per cell.  Floats only ever discard pairs whose rotated boxes are
disjoint, never decide an intersection.  Hausdorff distances between
polygonal curves are float-only diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

from .numsys import RationalPoint

Point = tuple[int, int] | RationalPoint  # exact coordinates


def orientation(p: Point, q: Point, r: Point) -> int:
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """r collinear with pq assumed; is r within the closed box of pq?"""
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Closed-segment intersection, exact."""
    d1 = orientation(q1, q2, p1)
    d2 = orientation(q1, q2, p2)
    d3 = orientation(p1, p2, q1)
    d4 = orientation(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _cross(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row-wise (q - p) x (r - p) of integer point arrays."""
    return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort: numpy's hash-based unique took 7
    to 40 times as long on 1,000 to 300,000 of these integer keys."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _candidate_pairs(iarr: np.ndarray) -> np.ndarray:
    """Indices (i, j), i < j, of non-adjacent segments whose rotated boxes
    overlap, in increasing order of i * m + j.  ``iarr`` holds the m+1
    closed-polygon vertices as integers, int64 or Python ints."""
    m = len(iarr) - 1
    # every coordinate scaled by the same 2**-e, so the largest magnitude lies
    # in [1, 2): exact for int64 entries below 2**30, a correctly rounded
    # quotient for Python ints, and no overflow however large they are; the
    # grid prefilter is invariant under a common scale
    e = int(np.abs(iarr).max()).bit_length() - 1
    arr = (iarr / 2**e).astype(np.float64)
    a, b = arr[:-1], arr[1:]
    lengths2 = ((b - a) ** 2).sum(axis=1)
    k = int(np.argmax(lengths2))
    d = b[k] - a[k]
    norm = math.hypot(d[0], d[1]) or 1.0
    rot = np.array([[d[0], d[1]], [-d[1], d[0]]]) / norm
    ra, rb = a @ rot.T, b @ rot.T
    # pad boxes beyond float rounding so the prefilter stays conservative:
    # each float is its (scaled) rational rounded correctly, so off by at
    # most 2**-53 relative (at most 2**-1075 absolute if subnormal), and the
    # rotation adds a few ulps of max|coord|; the pad exceeds that 2**10-fold
    eps = float(np.abs(arr).max()) * 2.0**-40 + 1e-12
    x0, x1 = np.minimum(ra[:, 0], rb[:, 0]) - eps, np.maximum(ra[:, 0], rb[:, 0]) + eps
    y0, y1 = np.minimum(ra[:, 1], rb[:, 1]) - eps, np.maximum(ra[:, 1], rb[:, 1]) + eps
    cx = max(float(np.median(x1 - x0)), 1e-12)
    cy = max(float(np.median(y1 - y0)), 1e-12)
    # a pair is a candidate iff its boxes overlap, whatever the cell size;
    # coarsen the cells until they number at most 64 per segment
    while True:
        gx0, gx1 = np.floor(x0 / cx).astype(np.int64), np.floor(x1 / cx).astype(np.int64)
        gy0, gy1 = np.floor(y0 / cy).astype(np.int64), np.floor(y1 / cy).astype(np.int64)
        if ((gx1 - gx0 + 1.0) * (gy1 - gy0 + 1.0)).sum() <= 64 * m:
            break
        cx, cy = 2 * cx, 2 * cy
    # one (cell, segment) entry per cell of each segment's range
    ny = gy1 - gy0 + 1
    count = (gx1 - gx0 + 1) * ny
    seg = np.repeat(np.arange(m, dtype=np.int64), count)
    off = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
    gx = np.repeat(gx0, count) + off // np.repeat(ny, count)
    gy = np.repeat(gy0, count) + off % np.repeat(ny, count)
    # group the entries by cell; lexsort is stable, so segments ascend
    # within a cell, and a segment lies in a cell at most once
    order = np.lexsort((gy, gx))
    seg, gx, gy = seg[order], gx[order], gy[order]
    new_cell = np.ones(len(seg) + 1, dtype=bool)
    new_cell[1:-1] = (gx[1:] != gx[:-1]) | (gy[1:] != gy[:-1])
    bounds = np.flatnonzero(new_cell)
    # entry p pairs with the later entries p+1 .. end-1 of its cell
    end = np.repeat(bounds[1:], np.diff(bounds))
    later = end - np.arange(len(seg)) - 1
    first = np.repeat(np.arange(len(seg)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    codes = _sorted_distinct(seg[first] * m + seg[second])
    pi = np.stack([codes // m, codes % m], axis=1)
    i_, j_ = pi[:, 0], pi[:, 1]
    adjacent = (j_ == (i_ + 1) % m) | (i_ == (j_ + 1) % m)
    overlap = (
        (x0[i_] <= x1[j_]) & (x0[j_] <= x1[i_]) & (y0[i_] <= y1[j_]) & (y0[j_] <= y1[i_])
    )
    return pi[~adjacent & overlap]


def polygon_is_simple_closed(vertices: np.ndarray | tuple[Point, ...]) -> bool:
    """No repeated vertices, no spikes, and no contact between non-adjacent
    edges of the closed polygon.  ``vertices`` is an (m, 2) integer array,
    int64 or Python ints, or a tuple of int or Fraction pairs."""
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
    if len(_sorted_distinct(iarr[:-1, 0] * 2 ** (bits + 1) + iarr[:-1, 1])) != m:
        return False
    # adjacent pairs may only share the common vertex; a spike folds back
    p, q = iarr[:-1], iarr[1:]
    r = np.roll(q, -1, axis=0)
    inward = ((p - q) * (r - q)).sum(axis=1) > 0
    if ((_cross(p, q, r) == 0) & inward).any():
        return False
    pi = _candidate_pairs(iarr)
    a1, a2 = iarr[pi[:, 0]], iarr[pi[:, 0] + 1]
    b1, b2 = iarr[pi[:, 1]], iarr[pi[:, 1] + 1]
    d1 = np.sign(_cross(b1, b2, a1))
    d2 = np.sign(_cross(b1, b2, a2))
    d3 = np.sign(_cross(a1, a2, b1))
    d4 = np.sign(_cross(a1, a2, b2))
    if ((d1 * d2 < 0) & (d3 * d4 < 0)).any():
        return False
    # a zero sign leaves touching or collinear overlap to the exact test
    touchy = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
    for i, j in pi[touchy].tolist():
        if segments_intersect(*iarr[[i, i + 1, j, j + 1]].tolist()):
            return False
    return True


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
