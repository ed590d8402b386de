"""Robust low-level geometry: orientation predicates and the exact convex
position predicates, without and with a floor.

The convex-position predicates run the algorithms of the float batch
kernels in mc, whose docstrings hold the proofs: a walk around the
centroid for the floorless 2D check, a walk around the floor midpoint in
2D and a fan of simplices from one floor vertex in 3D.

The orientation predicates run a filtered floating-point evaluation first
and escalate to exact rational arithmetic when the computed determinant
falls inside the certified error band.  Inputs may mix floats, ints and
Fractions; exact fallbacks always use the original coordinate values.
"""

from __future__ import annotations

import itertools
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
    if a[2] == 0 and b[2] == 0 and c[2] == 0 and d[2] == 0:
        return 0  # four points of the plane z = 0, such as floor vertices
    fa, fb, fc, fd = _frac(a), _frac(b), _frac(c), _frac(d)
    u = tuple(fb[i] - fa[i] for i in range(3))
    v = tuple(fc[i] - fa[i] for i in range(3))
    w = tuple(fd[i] - fa[i] for i in range(3))
    det = (w[0] * (u[1] * v[2] - u[2] * v[1])
           + w[1] * (u[2] * v[0] - u[0] * v[2])
           + w[2] * (u[0] * v[1] - u[1] * v[0]))
    return (det > 0) - (det < 0)


# ---------------------------------------------------------------------------
# Convex position

def _dedupe(points):
    seen = set()
    out = []
    for p in points:
        key = _frac(p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def turns_left(walk) -> bool:
    """True iff the walk turns strictly left at every interior point."""
    return all(orient2(a, b, c) > 0
               for a, b, c in zip(walk, walk[1:], walk[2:]))


def in_convex_position_2d(points) -> bool:
    """True iff each point is a strict vertex of the points' hull; sets of
    fewer than 3 points, duplicates and collinear sets are not.

    The exact form of mc._centroid_verdicts, whose docstring proves the
    walk: the points are sorted by exact angle around their centroid c, and
    the closed walk in that order must turn strictly left at every point.
    A point at c, or two points on one ray from c, fails the set.
    """
    pts = [_frac(p) for p in points]
    c = tuple(sum(v) / len(pts) for v in zip(*pts))
    if len(pts) < 3 or c in pts:
        return False

    def angle(p):  # rational, in [0, 4), increasing with the angle of p - c
        dx, dy = p[0] - c[0], p[1] - c[1]
        t = dy / (abs(dx) + abs(dy))
        return 2 - t if dx < 0 else 4 + t if dy < 0 else t

    by_angle = {angle(p): p for p in pts}
    if len(by_angle) < len(pts):
        return False
    walk = [by_angle[k] for k in sorted(by_angle)]
    return turns_left([walk[-1], *walk, walk[0]])


def in_convex_position_with_floor_2d(points, floor=((0, 0), (1, 0))) -> bool:
    """True iff every point is a strict vertex of CH(points + floor endpoints).

    The exact form of mc.convex_position_verdicts_2d, whose docstring proves
    the walk: with f0, f1 the floor ends, f0x < f1x, and m their midpoint,
    the points are sorted by the exact key (m_x - x)/y and the walk f1 ->
    points -> f0 must turn strictly left at every point.  Two points with one
    key lie on one ray from m, the nearer in the triangle of the farther and
    the floor, so such a set fails.  No points are trivially in convex
    position.
    """
    f0, f1 = sorted(floor, key=_frac)
    if Fraction(f0[1]) != 0 or Fraction(f1[1]) != 0 or _frac(f0) == _frac(f1):
        raise ValueError("floor must be two distinct points at height 0")
    for p in points:
        if Fraction(p[1]) <= 0:
            raise ValueError("sample points must have positive height")
    mx = (Fraction(f0[0]) + Fraction(f1[0])) / 2
    by_key = {(mx - Fraction(p[0])) / Fraction(p[1]): p for p in points}
    if len(by_key) < len(points):
        return False
    return turns_left([f1, *(by_key[k] for k in sorted(by_key)), f0])


def convex_floor(vertices) -> list:
    """The floor as (x, y, 0) triples, with repeats of a vertex next to it
    dropped (the last vertex comes before the first).

    vertices: (x, y) pairs or (x, y, 0) triples.  Raises ValueError unless
    the floor is at height 0, has positive area and is convex in boundary
    order, clockwise or counter-clockwise; a vertex in the middle of an edge
    is allowed.  After the repeats are dropped, the vertices must be
    distinct and weakly on one side of the line of every edge f_j f_j+1,
    the same side (left or right) of each edge directed along the order.
    Then every edge lies in one side of the hull, as its line supports the
    vertices, and is walked the same way round; each corner of the hull is
    a vertex, so no edge passes one, and the distinct vertices go round
    exactly once, in boundary order.
    """
    floor = []
    for v in vertices:
        if len(v) == 3 and v[2] != 0:
            raise ValueError("floor vertices must be at height 0")
        v = (v[0], v[1], 0) if len(v) == 2 else tuple(v)
        if not floor or v[:2] != floor[-1][:2]:
            floor.append(v)
    while len(floor) > 1 and floor[-1][:2] == floor[0][:2]:
        floor.pop()
    k = len(floor)
    sides = {orient2(floor[j][:2], floor[(j + 1) % k][:2], c[:2])
             for j in range(k) for i, c in enumerate(floor) if (i - j) % k > 1}
    if sides <= {0}:
        raise ValueError("floor must have positive area")
    if {-1, 1} <= sides or len({v[:2] for v in floor}) < k:
        raise ValueError("floor must be convex, its vertices in boundary order")
    return floor


def floor_fan(k: int, m: int) -> list:
    """The fan simplices (q0, a, b, c) of mc.convex_position_verdicts_3d, as
    index triples a < b < c into the k - 1 floor vertices after q0, in
    boundary order, followed by m sample points: (f_a, f_a+1, p) for each
    floor edge that misses q0, (f, p, p') for each floor vertex and (p, p',
    p'')."""
    floor, pts = range(k - 1), range(k - 1, k - 1 + m)
    pairs = list(itertools.combinations(pts, 2))
    return ([(a, a + 1, p) for a in floor[:-1] for p in pts]
            + [(f, p, q) for f in floor for p, q in pairs]
            + list(itertools.combinations(pts, 3)))


def in_convex_position_with_floor_3d(points, floor_polygon) -> bool:
    """True iff every point is a strict vertex of CH(points + floor vertices).

    floor_polygon: vertices of the floor, given as (x, y) pairs or (x, y, 0)
    triples, as convex_floor accepts them.  Every point must have positive
    height.  The exact form of mc.convex_position_verdicts_3d, whose
    docstring proves the fan: with q0 the first floor vertex, a point fails
    iff it lies weakly inside a non-flat simplex (q0, a, b, c) of
    floor_fan.  The points are tested lowest first.
    """
    q0, *floor = convex_floor(floor_polygon)
    for p in points:
        if Fraction(p[2]) <= 0:
            raise ValueError("sample points must have positive height")
    pts = list(points)
    if len(_dedupe(pts)) < len(pts):
        return False
    fan = floor_fan(len(floor) + 1, len(pts) - 1)
    for i in sorted(range(len(pts)), key=lambda i: Fraction(pts[i][2])):
        x, others = pts[i], floor + pts[:i] + pts[i + 1:]
        for a, b, c in ((others[a], others[b], others[c]) for a, b, c in fan):
            s = orient3(q0, a, b, c)
            if s and (orient3(x, a, b, c) * s >= 0
                      and orient3(q0, x, b, c) * s >= 0
                      and orient3(q0, a, x, c) * s >= 0
                      and orient3(q0, a, b, x) * s >= 0):
                return False
    return True


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
