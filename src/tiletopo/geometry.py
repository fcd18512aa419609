"""Exact polygon predicates and float distance diagnostics.

The simple-closed test uses exact integer orientation tests behind a float
grid prefilter.  Vertices may be ints or Fractions.  The integers come from
scaling every vertex by the LCM of the coordinate denominators; ints have
denominator 1, so an integer polygon, such as a level-n boundary of
``contact.approx_boundary`` over its common scale, is used as it is.  The
prefilter floats come from the exact vertices themselves, all scaled by one
power of two so that no coordinate overflows; the integers are used only
for the exact orientation tests.  The subdivision pieces are extremely
anisotropic slivers sharing one elongation axis, so the grid works in a
rotated frame aligned with the longest segment and with per-axis cell
sizes; floats only ever discard pairs whose rotated boxes are disjoint,
never decide an intersection.  Hausdorff distances between polygonal curves
are float-only diagnostics.
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


def _prefilter_floats(vertices: tuple[Point, ...]) -> np.ndarray:
    """The m+1 closed-polygon vertices as floats, every coordinate scaled by
    the same 2**-e so that the largest magnitude lies in (1/2, 2).  Each entry
    is a correctly rounded quotient of exact integers, so nothing overflows
    however large the coordinates are; the grid prefilter is invariant under
    a common scale."""
    nd = [(c.numerator, c.denominator) for v in vertices for c in v]
    e = max((n.bit_length() - d.bit_length() for n, d in nd if n), default=0)
    up, down = max(-e, 0), max(e, 0)
    arr = np.array([(n << up) / (d << down) for n, d in nd]).reshape(-1, 2)
    return np.concatenate([arr, arr[:1]])


def _candidate_pairs(arr: np.ndarray) -> np.ndarray:
    """Indices (i, j), i < j, of non-adjacent segments whose rotated boxes
    overlap.  ``arr`` holds the m+1 closed-polygon vertices as floats."""
    m = len(arr) - 1
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
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(m):
        for gx in range(gx0[i], gx1[i] + 1):
            for gy in range(gy0[i], gy1[i] + 1):
                buckets.setdefault((gx, gy), []).append(i)
    chunks = []
    for members in buckets.values():
        if len(members) > 1:
            idx = np.array(members, dtype=np.int64)
            ii, jj = np.triu_indices(len(idx), 1)
            chunks.append(idx[ii] * m + idx[jj])
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    codes = np.unique(np.concatenate(chunks))
    pi = np.stack([codes // m, codes % m], axis=1)
    i_, j_ = pi[:, 0], pi[:, 1]
    adjacent = (j_ == (i_ + 1) % m) | (i_ == (j_ + 1) % m)
    overlap = (
        (x0[i_] <= x1[j_]) & (x0[j_] <= x1[i_]) & (y0[i_] <= y1[j_]) & (y0[j_] <= y1[i_])
    )
    return pi[~adjacent & overlap]


def polygon_is_simple_closed(vertices: tuple[Point, ...]) -> bool:
    """No repeated vertices, no spikes, and no contact between non-adjacent
    edges of the closed polygon."""
    m = len(vertices)
    if m < 3:
        return False
    if len(set(vertices)) != m:
        return False
    # ints have denominator 1, so an integer polygon is used as it is
    scale = math.lcm(*(c.denominator for v in vertices for c in v))
    ivs = list(vertices)
    if scale > 1:
        ivs = [tuple(c.numerator * (scale // c.denominator) for c in v) for v in vertices]
    segs = [(ivs[i], ivs[(i + 1) % m]) for i in range(m)]
    # adjacent pairs may only share the common vertex; a spike folds back
    for i in range(m):
        p, q = segs[i]
        _, r = segs[(i + 1) % m]
        if orientation(p, q, r) == 0:
            inward = (p[0] - q[0]) * (r[0] - q[0]) + (p[1] - q[1]) * (r[1] - q[1])
            if inward > 0:
                return False

    if m <= 64:
        for i in range(m):
            for j in range(i + 1, m):
                if j == (i + 1) % m or i == (j + 1) % m:
                    continue
                if segments_intersect(*segs[i], *segs[j]):
                    return False
        return True

    pi = _candidate_pairs(_prefilter_floats(vertices))
    if len(pi) == 0:
        return True

    bound = max(abs(c) for v in ivs for c in v)
    if bound >= 2**30:
        # products would overflow int64; run the exact tests in Python
        for i, j in pi:
            if segments_intersect(*segs[int(i)], *segs[int(j)]):
                return False
        return True

    iarr = np.array(ivs + [ivs[0]], dtype=np.int64)
    a1, a2 = iarr[pi[:, 0]], iarr[pi[:, 0] + 1]
    b1, b2 = iarr[pi[:, 1]], iarr[pi[:, 1] + 1]

    def cross(p, q, r):
        return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (
            r[:, 0] - p[:, 0]
        )

    d1 = np.sign(cross(b1, b2, a1))
    d2 = np.sign(cross(b1, b2, a2))
    d3 = np.sign(cross(a1, a2, b1))
    d4 = np.sign(cross(a1, a2, b2))
    if ((d1 * d2 < 0) & (d3 * d4 < 0)).any():
        return False
    touchy = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
    for k in np.nonzero(touchy)[0]:
        i, j = int(pi[k, 0]), int(pi[k, 1])
        if segments_intersect(*segs[i], *segs[j]):
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
