"""Robust low-level geometry: orientation predicates, the 2D convex hull, 3D
hull containment and the "in convex position together with the floor"
predicates.

3D containment is decided over non-flat simplices only, which is exact
when the point set spans 3-space.  The 3D floor predicate guarantees that:
it requires a floor of positive area and sample points of positive height.

All predicates run a filtered floating-point evaluation first and escalate to
exact rational arithmetic when the computed determinant falls inside the
certified error band.  Inputs may mix floats, ints and Fractions; exact
fallbacks always use the original coordinate values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

_EPS = 2.220446049250313e-16

Point = tuple  # (x, y) or (x, y, z) of numbers


def _frac(p):
    return tuple(Fraction(c) for c in p)


# ---------------------------------------------------------------------------
# Orientation predicates

def orient2(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle (a, b, c): +1 ccw, -1 cw, 0 flat."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    cx, cy = float(c[0]), float(c[1])
    p1 = (bx - ax) * (cy - ay)
    p2 = (by - ay) * (cx - ax)
    det = p1 - p2
    bound = 8.0 * _EPS * (abs(p1) + abs(p2))
    if det > bound:
        return 1
    if det < -bound:
        return -1
    # ambiguous: exact evaluation
    (ax, ay), (bx, by), (cx, cy) = _frac(a), _frac(b), _frac(c)
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def orient3(a: Point, b: Point, c: Point, d: Point) -> int:
    """Sign of det[b-a, c-a, d-a]; +1 when d sees (a, b, c) clockwise."""
    bdx = float(b[0]) - float(a[0]); bdy = float(b[1]) - float(a[1]); bdz = float(b[2]) - float(a[2])
    cdx = float(c[0]) - float(a[0]); cdy = float(c[1]) - float(a[1]); cdz = float(c[2]) - float(a[2])
    ddx = float(d[0]) - float(a[0]); ddy = float(d[1]) - float(a[1]); ddz = float(d[2]) - float(a[2])
    m1 = bdy * cdz - bdz * cdy
    m2 = bdz * cdx - bdx * cdz
    m3 = bdx * cdy - bdy * cdx
    det = ddx * m1 + ddy * m2 + ddz * m3
    mag = (abs(ddx) * (abs(bdy * cdz) + abs(bdz * cdy))
           + abs(ddy) * (abs(bdz * cdx) + abs(bdx * cdz))
           + abs(ddz) * (abs(bdx * cdy) + abs(bdy * cdx)))
    bound = 16.0 * _EPS * mag
    if det > bound:
        return 1
    if det < -bound:
        return -1
    fa, fb, fc, fd = _frac(a), _frac(b), _frac(c), _frac(d)
    u = tuple(fb[i] - fa[i] for i in range(3))
    v = tuple(fc[i] - fa[i] for i in range(3))
    w = tuple(fd[i] - fa[i] for i in range(3))
    det = (w[0] * (u[1] * v[2] - u[2] * v[1])
           + w[1] * (u[2] * v[0] - u[0] * v[2])
           + w[2] * (u[0] * v[1] - u[1] * v[0]))
    return (det > 0) - (det < 0)


# ---------------------------------------------------------------------------
# 2D hull (monotone chain, strictly convex vertex cycle)

@dataclass(frozen=True)
class Hull2:
    vertices: tuple          # ccw cycle of strict vertices
    degenerate: bool = False  # all input points coincident or collinear


def _dedupe(points):
    seen = set()
    out = []
    for p in points:
        key = _frac(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def convex_hull_2d(points) -> Hull2:
    pts = _dedupe(points)
    if not pts:
        raise ValueError("convex_hull_2d needs at least one point")
    pts.sort(key=_frac)
    if len(pts) == 1:
        return Hull2((pts[0],), degenerate=True)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and orient2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    verts = lower[:-1] + upper[:-1]
    if len(verts) < 3:
        # all collinear: keep the two extremes
        return Hull2((pts[0], pts[-1]), degenerate=True)
    return Hull2(tuple(verts))


# ---------------------------------------------------------------------------
# 3D hull containment

def point_in_conv_3d(p: Point, points) -> bool:
    """Weak containment in conv(points) for a small 3D point set that spans
    3-space.

    By Caratheodory a contained point then lies weakly inside some non-flat
    simplex of four of the points, so flat simplices are skipped.
    """
    for (a, b, c, d) in itertools.combinations(points, 4):
        s = orient3(a, b, c, d)
        if s == 0:
            continue
        if (orient3(p, b, c, d) * s >= 0 and orient3(a, p, c, d) * s >= 0
                and orient3(a, b, p, d) * s >= 0
                and orient3(a, b, c, p) * s >= 0):
            return True
    return False


# ---------------------------------------------------------------------------
# Convex position together with a floor

def in_convex_position_with_floor_2d(points, floor=((0, 0), (1, 0))) -> bool:
    """True iff every point is a strict vertex of CH(points + floor endpoints)."""
    f0, f1 = floor
    if Fraction(f0[1]) != 0 or Fraction(f1[1]) != 0 or _frac(f0) == _frac(f1):
        raise ValueError("floor must be two distinct points at height 0")
    for p in points:
        if Fraction(p[1]) <= 0:
            raise ValueError("sample points must have positive height")
    pts = list(points)
    if len(_dedupe(pts)) < len(pts):
        return False
    verts = {_frac(v) for v in convex_hull_2d(pts + [f0, f1]).vertices}
    return all(_frac(p) in verts for p in pts)


def in_convex_position_with_floor_3d(points, floor_polygon) -> bool:
    """True iff every point is a strict vertex of CH(points + floor vertices).

    floor_polygon: extremal vertices of the floor, given as (x, y) pairs or
    (x, y, 0) triples.  The floor must have positive area and every point
    positive height.  Then a single point is always a vertex, and for two or
    more points the others always span 3-space (the floor spans the plane
    z = 0 and another point lies above it), which is the full-dimensionality
    that point_in_conv_3d needs.
    """
    floor_pts = []
    for v in floor_polygon:
        if len(v) == 3:
            if Fraction(v[2]) != 0:
                raise ValueError("floor vertices must be at height 0")
            floor_pts.append(tuple(v))
        else:
            floor_pts.append((v[0], v[1], 0))
    if not any(orient2(a[:2], b[:2], c[:2])
               for a, b, c in itertools.combinations(floor_pts, 3)):
        raise ValueError("floor must have positive area")
    for p in points:
        if Fraction(p[2]) <= 0:
            raise ValueError("sample points must have positive height")
    pts = list(points)
    if len(_dedupe(pts)) < len(pts):
        return False
    S = pts + _dedupe(floor_pts)
    return not any(point_in_conv_3d(p, S[:i] + S[i + 1:])
                   for i, p in enumerate(pts))


# ---------------------------------------------------------------------------
# Independent exact oracle: vertex test via LP feasibility over rationals

def _lp_feasible(A, b) -> bool:
    """Exact phase-1 simplex feasibility of A x = b, x >= 0 (Bland's rule)."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-A[i][j] for j in range(n)])
            rhs.append(-b[i])
        else:
            rows.append(list(A[i]))
            rhs.append(b[i])
    # tableau with artificial variables n..n+m-1
    T = [rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [rhs[i]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m
    # objective: minimize sum of artificials -> reduced costs
    cost = [Fraction(0)] * total
    for j in range(n, total):
        cost[j] = Fraction(1)
    while True:
        # reduced costs: c_j - c_B B^-1 A_j, using current tableau
        red = []
        for j in range(total):
            cj = cost[j] - sum(cost[basis[i]] * T[i][j] for i in range(m))
            red.append(cj)
        enter = next((j for j in range(total) if red[j] < 0), None)
        if enter is None:
            break
        ratios = [(T[i][total] / T[i][enter], basis[i], i)
                  for i in range(m) if T[i][enter] > 0]
        if not ratios:
            break  # unbounded phase-1 cannot happen, but stay safe
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [T[i][j] - f * T[leave][j] for j in range(total + 1)]
        basis[leave] = enter
    value = sum(cost[basis[i]] * T[i][total] for i in range(m))
    return value == 0


def point_in_hull_lp(p: Point, points) -> bool:
    """Exact rational test of p in conv(points) via barycentric LP feasibility."""
    fp = _frac(p)
    fpts = [_frac(q) for q in points]
    dim = len(fp)
    A = [[q[k] for q in fpts] for k in range(dim)]
    A.append([Fraction(1)] * len(fpts))
    b = list(fp) + [Fraction(1)]
    return _lp_feasible(A, b)


def in_convex_position_with_floor_oracle(points, floor_pts) -> bool:
    """Brute-force oracle for both floor predicates (any dimension)."""
    pts = list(points)
    if len(_dedupe(pts)) < len(pts):
        return False
    S = pts + [tuple(f) for f in floor_pts]
    for i, p in enumerate(pts):
        others = S[:i] + S[i + 1:]
        if point_in_hull_lp(p, others):
            return False
    return True
