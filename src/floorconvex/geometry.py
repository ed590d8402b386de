"""Exact low-level geometry: orientation predicates and the exact convex
position predicates, without and with a floor.

The convex-position predicates run the algorithms of the float batch
kernels in mc, whose docstrings hold the proofs: a walk around the
centroid for the floorless 2D check, a walk around the floor midpoint in
2D and a fan of simplices from one floor vertex in 3D.

Every predicate decides on Python ints: each call first multiplies all
its points, which may mix ints, floats and Fractions, by one positive common
denominator (_integers), which changes no orientation sign, no coordinate
order and no ratio of differences.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key

Point = tuple  # (x, y) or (x, y, z) of numbers


def _frac(p):
    return tuple(Fraction(c) for c in p)


def _integers(points, k=1):
    """The points times k D, as tuples of ints, with D the least common
    denominator of all their coordinates and k a positive int.  Numbers
    without as_integer_ratio, such as numpy's ints, go through Fraction."""
    ratios = [[(c if hasattr(c, "as_integer_ratio") else Fraction(c))
               .as_integer_ratio() for c in p] for p in points]
    d = k * math.lcm(*(q for p in ratios for _, q in p))
    return [tuple(n * (d // q) for n, q in p) for p in ratios]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _det2(a, b, c):
    """det[b - a, c - a] of int points."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _det3(a, b, c, d):
    """det[b - a, c - a, d - a] of int points."""
    u, v, w = ([p[k] - a[k] for k in range(3)] for p in (b, c, d))
    return _dot(w, _cross(u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# ---------------------------------------------------------------------------
# Orientation predicates

def orient2(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle (a, b, c): +1 ccw, -1 cw, 0 flat."""
    return _sign(_det2(*_integers((a, b, c))))


def orient3(a: Point, b: Point, c: Point, d: Point) -> int:
    """Sign of det[b-a, c-a, d-a]; +1 when d sees (a, b, c) clockwise."""
    return _sign(_det3(*_integers((a, b, c, d))))


# ---------------------------------------------------------------------------
# Convex position

def _turns_left(walk) -> bool:
    return all(_det2(a, b, c) > 0
               for a, b, c in zip(walk, walk[1:], walk[2:]))


def turns_left(walk) -> bool:
    """True iff the walk turns strictly left at every interior point."""
    return _turns_left(_integers(walk))


def _by_angle(points, c):
    """The int points sorted by the angle of p - c in [0, 2 pi), or None
    when c is one of them or two lie on one ray from c.  Angles in [0, pi)
    come first; within one such half-plane, where no two directions are
    opposite, p comes first iff q - c is counter-clockwise of p - c."""
    if c in points:
        return None

    def cmp(p, q):  # p[::-1] < c[::-1]: the angle of p - c is in [pi, 2 pi)
        return (p[::-1] < c[::-1]) - (q[::-1] < c[::-1]) or _det2(c, q, p)

    walk = sorted(points, key=cmp_to_key(cmp))
    if any(cmp(p, q) == 0 for p, q in zip(walk, walk[1:])):
        return None
    return walk


def in_convex_position_2d(points) -> bool:
    """True iff each point is a strict vertex of the points' hull; sets of
    fewer than 3 points, duplicates and collinear sets are not.

    The exact form of mc._centroid_verdicts, whose docstring proves the
    walk: the points are sorted by angle around their centroid c, and the
    closed walk in that order must turn strictly left at every point.  A
    point at c, or two points on one ray from c, fails the set.  Scaled by
    n, the points have a centroid of ints.
    """
    if len(points) < 3:
        return False
    pts = _integers(points, len(points))
    walk = _by_angle(pts, tuple(sum(v) // len(pts) for v in zip(*pts)))
    return walk is not None and _turns_left([walk[-1], *walk, walk[0]])


def in_convex_position_with_floor_2d(points, floor=((0, 0), (1, 0))) -> bool:
    """True iff every point is a strict vertex of CH(points + floor endpoints).

    The exact form of mc.convex_position_verdicts_2d, whose docstring proves
    the walk: with f0, f1 the floor ends, f0x < f1x, and m their midpoint,
    the points are sorted by the key (m_x - x)/y, which increases with the
    angle of p - m, and the walk f1 -> points -> f0 must turn strictly left
    at every point.  Two points with one key lie on one ray from m, the
    nearer in the triangle of the farther and the floor, so such a set
    fails.  No points are trivially in convex position.  Scaled by 2, the
    points have a floor midpoint of ints.
    """
    k = len(floor)
    ints = _integers([*floor, *points], 2)
    (f0, f1), pts = sorted(ints[:k]), ints[k:]
    if f0[1] != 0 or f1[1] != 0 or f0 == f1:
        raise ValueError("floor must be two distinct points at height 0")
    if any(p[1] <= 0 for p in pts):
        raise ValueError("sample points must have positive height")
    walk = _by_angle(pts, ((f0[0] + f1[0]) // 2, 0))
    return walk is not None and _turns_left([f1, *walk, f0])


def _floor(vertices) -> list:
    """The indices of the int vertices that convex_floor keeps."""
    if any(len(v) == 3 and v[2] != 0 for v in vertices):
        raise ValueError("floor vertices must be at height 0")
    keep = [i for i, v in enumerate(vertices)
            if i == 0 or v[:2] != vertices[i - 1][:2]]
    while len(keep) > 1 and vertices[keep[-1]][:2] == vertices[0][:2]:
        keep.pop()
    f = [vertices[i][:2] for i in keep]
    k = len(f)
    sides = {_sign(_det2(f[j], f[(j + 1) % k], c))
             for j in range(k) for i, c in enumerate(f) if (i - j) % k > 1}
    if sides <= {0}:
        raise ValueError("floor must have positive area")
    if {-1, 1} <= sides or len(set(f)) < k:
        raise ValueError("floor must be convex, its vertices in boundary order")
    return keep


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
    vertices = list(vertices)
    return [(*vertices[i][:2], 0) for i in _floor(_integers(vertices))]


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
    k = len(floor_polygon)
    ints = _integers([*floor_polygon, *points])
    q0, *floor = [(*ints[i][:2], 0) for i in _floor(ints[:k])]
    pts = ints[k:]
    if any(p[2] <= 0 for p in pts):
        raise ValueError("sample points must have positive height")
    if len(set(pts)) < len(pts):
        return False
    fan = floor_fan(len(floor) + 1, len(pts) - 1)
    # with q0 at the origin, d0 = a.(b x c), e_k is d0 with x for its k-th
    # vertex and e0 = d0 - e1 - e2 - e3 (mc.convex_position_verdicts_3d);
    # most simplices reject x on e1, so e2 and e3 wait for it
    floor, pts = ([(p[0] - q0[0], p[1] - q0[1], p[2]) for p in ps]
                  for ps in (floor, pts))
    for i in sorted(range(len(pts)), key=lambda i: pts[i][2]):
        x, others = pts[i], floor + pts[:i] + pts[i + 1:]
        for a, b, c in ((others[a], others[b], others[c]) for a, b, c in fan):
            bc = _cross(b, c)
            d0, e1 = _dot(a, bc), _dot(x, bc)
            s = _sign(d0)
            if s and s * e1 >= 0:
                e2, e3 = _dot(x, _cross(c, a)), _dot(x, _cross(a, b))
                if min(s * e2, s * e3, s * (d0 - e1 - e2 - e3)) >= 0:
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
    if len(set(map(_frac, pts))) < len(pts):
        return False
    S = pts + [tuple(f) for f in floor_pts]
    for i, p in enumerate(pts):
        others = S[:i] + S[i + 1:]
        if point_in_hull_lp(p, others):
            return False
    return True
