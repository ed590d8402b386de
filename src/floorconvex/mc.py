"""Monte Carlo estimators for convex-position probabilities.

The batch predicates run in floating point with a certified margin; trials
whose verdict falls inside the margin are re-checked with the exact integer
predicates.  Every estimator runs on one chunked runner, _run_binomial: work
is split into fixed-size chunks, each with its own random stream keyed by
(seed, chunk index), and per-chunk tallies are merged in chunk order, so
results are bit-identical for any worker count.  Within a chunk the
predicates run on row slices of _SLICE; each slice takes its margin from its
own rows, so the success counts do not depend on the slicing.  Each row's
points are ordered by _order, a sorting network over whole columns of
index-tagged keys: keys more than a few ulps apart come out in value order,
closer ones in index order, and every predicate either certifies the order
it walks or is exact for any order.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry
from .bodies import BodyWithFloor, mountain3d
from .samplers import (RngStream, floor_radius_batch, sample_body,
                       sample_density_g1, sample_density_g2, sample_heights)

_EPS = np.finfo(float).eps
# the largest scale at which 256 scale^3 is finite, so that no value of the
# 3D predicate overflows
_SCALE_3D = 2.0 ** 338
DEFAULT_CHUNK = 250_000
# rows per predicate call: the per-trial cost of the array passes grows
# once their temporaries no longer fit in cache
_SLICE = 12_288
LOW_POWER_SUCCESSES = 100
# first point of every anchored chain
_ANCHOR = (1, 0)


@dataclass(frozen=True)
class RunStats:
    """Where a run's time went and how it was laid out.  The stage times
    are summed over chunks, so with several workers they overlap; a stage a
    run does not have (the predicate of estimate_Q2_height) reads 0."""
    sample_ms: float
    predicate_ms: float
    exact_ms: float
    n_ambiguous: int
    n_chunks: int
    chunk_size: int
    workers: int


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one Monte Carlo run."""
    estimate: float
    std_error: float
    ci_low: float
    ci_high: float
    n_samples: int
    seed: int
    n_success: int | None = None
    low_power: bool = False
    wall_ms: float = 0.0
    stats: RunStats | None = None

    def within_sigma(self, target: float, z: float) -> bool:
        se = self.std_error if self.std_error > 0 else 1e-300
        return abs(self.estimate - target) <= z * se


def wilson_interval(k: int, n: int, z: float = 1.959963984540054):
    """Binomial confidence interval with correct small-p coverage."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(center - half, 0.0)
    hi = 1.0 if k == n else min(center + half, 1.0)
    return lo, hi


def _binomial_result(k: int, n: int, seed: int, t0: float,
                     stats: RunStats) -> EstimateResult:
    phat = k / n
    se = math.sqrt(max(phat * (1 - phat), 0.0) / n)
    lo, hi = wilson_interval(k, n)
    return EstimateResult(estimate=phat, std_error=se, ci_low=lo, ci_high=hi,
                          n_samples=n, seed=seed, n_success=k,
                          low_power=k < LOW_POWER_SUCCESSES,
                          wall_ms=(time.perf_counter() - t0) * 1000,
                          stats=stats)


# ---------------------------------------------------------------------------
# Batch predicates.  Verdict per trial: 1 success, 0 failure, -1 ambiguous.

def convex_position_verdicts_2d(pts: np.ndarray,
                                floor_xy: np.ndarray | None = None) -> np.ndarray:
    """Strict convex position of each row of a (B, n, 2) array, together with
    the floor ends floor_xy, two points at height 0, when given.

    Margin.  Let S be the largest coordinate magnitude, floor included, and
    u = eps/2 the unit roundoff.  Each cross product below is
    (q - p)_x (s - r)_y - (q - p)_y (s - r)_x for stored points p, q, r, s,
    built from differences of stored coordinates, each at most 2S and
    rounded once; each of its two products then meets at most four
    roundings (two entries, the product, the subtraction), so the computed
    value is within 4u/(1 - 4u) * 2 * (2S)^2 < 16.01 eps S^2 of the exact
    one.  The margin 64 eps scale^2, scale = S + 1, is four times that, so
    a cross product beyond it has the exact sign, and one within it leaves
    its row ambiguous (-1) for the exact predicate.

    Floorless.  Points in strictly convex position are exactly those whose
    angular order around their centroid forms a strictly convex polygon; the
    row's smallest turn decides.

    With the floor.  Let f0, f1 be the floor ends, f0x < f1x, and m =
    ((f0x + f1x)/2, 0), rounded; it is a stored point, checked to lie
    strictly between them.  A row with a point at y <= 0 is ambiguous (the
    exact predicate rejects such a point, so the trial fails).  In every
    other row each point p is seen from m at an angle in (0, pi), and the key
    (m_x - p_x)/p_y = -cot(angle) orders the points by angle.  Each row is
    ordered by the key (_order: by value, but by index within a few ulps)
    and walked f1 -> ordered points -> f0.

    Order certificate.  For consecutive ordered points p, q the step
    (p - m) x (q - m) is positive exactly when angle(p) < angle(q).  If
    every step is certified positive, the float order is the exact strict
    angular order, whatever permutation _order gave; otherwise the row is
    ambiguous.  So a rounded key that misorders a near-tie, a pair of close
    keys left in index order, or two points on one ray from m (a step of
    exactly 0), never gives a certified verdict.  A point at the floor
    midpoint has the key 0/0 = NaN; _order still gives a permutation, and
    the row is ambiguous for its height 0.

    Walk.  In strict angular order the n + 2 points are in strictly convex
    position iff the walk turns strictly left at every sample point.  If it
    does: with p_0 = f1 and p_n+1 = f0, the walk closed by the floor edge
    bounds the union of the triangles (m, p_i, p_i+1), whose sectors at m
    are disjoint, so it is a simple polygon; it also turns strictly left at
    f1 and f0, by (f1x - f0x) y > 0 with y the height of the neighbouring
    point, so it is strictly convex and every point is a strict vertex.
    Conversely, in strictly convex position every point is above the floor
    line, so the hull has the edge f0 f1, with m in its relative interior;
    its boundary from f1 to f0 meets each ray from m into the upper
    half-plane once, so it visits the points in angular order, and a
    strictly convex polygon turns strictly left at every vertex.  The turns
    at f1 and f0 are therefore not computed: with the order certified, a
    row whose smallest turn at a sample point is beyond the margin has the
    exact verdict, 1 if that turn is positive and 0 if negative.
    """
    if floor_xy is None:
        return _centroid_verdicts(pts)
    (f0x, f0y), (f1x, f1y) = sorted(map(tuple, np.asarray(floor_xy, float)))
    mx = (f0x + f1x) / 2
    if f0y != 0 or f1y != 0 or not f0x < mx < f1x:
        raise ValueError("floor must be two points at height 0 with a double "
                         "strictly between them")
    y = pts[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        key = (mx - pts[..., 0]) / y
    out = _walk_verdicts(pts, key, [(f1x, 0.0), (f0x, 0.0)], hub=mx)
    if y.min() <= 0:
        out[(y <= 0).any(axis=1)] = -1
    return out


def _centroid_verdicts(pts):
    """Floorless verdicts: the closed walk of each row in angular order
    around its centroid c, rounded, so a stored point: the sum of the n
    points, in index order, divided by n.  The order comes from _order on
    the arctan2 of the rounded differences, but only what is certified
    below is relied on, so it may be any permutation.

    Order certificate.  Every angular step (p_j - c) x (p_j+1 - c), the last
    point to the first included, must be certified positive, and exactly one
    step must go from a point with (p - c)_y >= 0 to one with (p - c)_y < 0;
    else the row is -1.  Then each step turns about c by an angle in (0,
    pi), so the walk goes round c some w >= 1 times, and it passes the ray
    from c in direction (-1, 0) exactly on the steps counted, once each: a
    step that turns by less than pi from the closed upper half-plane into
    the open lower one passes that ray, and no other step does.  The signs
    of (p - c)_y are exact, so w = 1: the walk visits the points in strict
    angular order around c, and c is strictly inside the polygon it bounds,
    so strictly inside the points' hull.

    Walk.  The walk bounds the union of the ccw triangles (c, p_j, p_j+1),
    whose sectors at c are disjoint, so it is a simple polygon, strictly
    convex iff it turns strictly left at every vertex; then every point is
    a strict vertex.  Conversely, the boundary of a strictly convex polygon
    meets each ray from the interior point c once, so it visits the points
    in that strict angular order and turns strictly left at each.  So with
    the order certified, a row whose smallest turn is beyond the margin has
    the exact verdict.  geometry.in_convex_position_2d decides the same
    with the exact centroid: in exact arithmetic n >= 3 points are in
    strictly convex position iff none is at c, no two lie on one ray from
    c, and the walk in angular order turns strictly left at every point.

    Each step and turn is a cross product of differences of stored
    coordinates, within the margin of convex_position_verdicts_2d.
    """
    n = pts.shape[1]
    center = functools.reduce(np.add, (pts[:, j] for j in range(n))) / n
    x, y = _columns(pts, _order(np.arctan2(pts[..., 1] - center[:, 1:],
                                           pts[..., 0] - center[:, :1])))
    dx = [b - a for a, b in zip([x[-1], *x], [*x, x[0]])]
    dy = [b - a for a, b in zip([y[-1], *y], [*y, y[0]])]
    margin = _margin(np.abs(pts).max())
    out = _certify(_min_cross(dx, dy), margin)
    ux, uy = x - center[:, 0], y - center[:, 1]
    below = uy < 0
    wraps = (below[np.r_[1:n, 0]] & ~below).sum(axis=0)
    out[(_min_cross([*ux, ux[0]], [*uy, uy[0]]) <= margin) | (wraps != 1)] = -1
    return out


@functools.cache
def _network(n: int) -> tuple:
    """Batcher's merge exchange for n keys (Knuth, TAOCP vol. 3, Algorithm
    5.2.2M): comparators (i, j), i < j, that sort any n keys when each
    puts the smaller of keys i and j at i."""
    pairs = []
    t = (n - 1).bit_length()
    p = 1 << t >> 1
    while p > 0:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(pairs)


_MAGNITUDE = 0x7FFF_FFFF_FFFF_FFFF


def _order(key: np.ndarray) -> np.ndarray:
    """Each row's point order as an (n, rows) int array: column r is a
    permutation of range(n) that sorts row r of the (rows, n) key.

    Tagged keys.  Each key, plus 0.0 so that -0.0 is +0.0, is read as the
    int64 of its bits and mapped to an int of the same order (a negative
    float's magnitude bits are flipped).  Its low b = ceil(log2 n) bits are
    then replaced by the point's index j.  The n tagged keys of a row are
    distinct, so every sort of them gives one permutation: keys in
    different buckets of 2^b ulps come out by value, and keys in one bucket,
    exact ties included, by index, the stable order.  NaN and +-inf keys
    are tagged too, so their rows still get a permutation.

    The sort.  _network(n), each comparator one np.minimum and one
    np.maximum of two columns over all rows; the index rides in the low
    bits, so no payload moves.

    So two keys a few ulps apart may come out in index order, not value
    order.  The predicates allow for that: the floor and centroid walks
    certify the order they walk, the chain checks that its heights do not
    decrease, and the 3D fan test is exact for any order.
    """
    rows, n = key.shape
    low = (1 << (n - 1).bit_length()) - 1
    buf = np.empty((n + 1, rows))
    np.add(key.T, 0.0, out=buf[:n])
    tagged = buf.view(np.int64)[:n]
    tagged ^= (tagged >> 63) & _MAGNITUDE
    tagged &= ~low
    tagged |= np.arange(n)[:, None]
    *w, spare = buf.view(np.int64)
    for i, j in _network(n):
        a = w[i]
        np.minimum(a, w[j], out=spare)
        np.maximum(a, w[j], out=w[j])
        w[i], spare = spare, a
    order = np.empty((n, rows), dtype=np.int64)
    for j, col in enumerate(w):
        np.bitwise_and(col, low, out=order[j])
    return order


def _columns(pts, order):
    """Per coordinate, an (n, rows) array whose j-th row holds each row's
    order[j]-th point, contiguous, so that each later pass over a point is
    elementwise over the rows.  The points are taken whole, as records of
    dim floats, in one take."""
    rows, n, dim = pts.shape
    taken = pts.reshape(rows * n, dim).take(
        order + np.arange(0, rows * n, n), axis=0)
    return [taken[..., k].copy() for k in range(dim)]


def _margin(s: float) -> float:
    """64 eps scale^2, scale = s + 1, for the largest coordinate magnitude s."""
    scale = s + 1.0
    return 64.0 * _EPS * scale * scale


def _certify(lo: np.ndarray, margin: float) -> np.ndarray:
    """1 where each row's smallest cross product lo is certified positive, 0
    where certified negative, -1 within the margin."""
    out = (lo > margin).astype(np.int8)
    out[np.abs(lo) <= margin] = -1
    return out


def _min_cross(vx, vy):
    """Per row, the smallest cross product v_j x v_j+1 of consecutive vectors
    given as coordinate lists."""
    return functools.reduce(np.minimum, (vx[j] * vy[j + 1] - vy[j] * vx[j + 1]
                                         for j in range(len(vx) - 1)))


def _walk_verdicts(pts, key, anchors, hub=None):
    """Verdicts of the walk through anchors[0], each row's points in the
    order _order gives for key, and anchors[1] when given: the smallest turn
    at a sample point, certified.  With hub, the steps (p - (hub, 0)) x
    (q - (hub, 0)) of consecutive walked points must be certified positive
    too; without it, their second coordinates must not decrease.  Else the
    row is -1."""
    rows, n = key.shape
    x, y = _columns(pts, _order(key))
    first, *last = anchors
    cx = [first[0], *x, *(a[0] for a in last)]
    cy = [first[1], *y, *(a[1] for a in last)]
    if len(cx) < 3:
        return np.ones(rows, dtype=np.int8)
    dx = [b - a for a, b in zip(cx, cx[1:])]
    dy = [b - a for a, b in zip(cy, cy[1:])]
    margin = _margin(max(np.abs(pts).max(),
                         *map(abs, itertools.chain(*anchors))))
    out = _certify(_min_cross(dx, dy), margin)
    if hub is None:
        out[(y[1:] < y[:-1]).any(axis=0)] = -1
    elif n > 1:
        out[_min_cross(x - hub, y) <= margin] = -1
    return out


def chain_verdicts(pts: np.ndarray) -> np.ndarray:
    """Anchored convex-chain predicate on an (B, n, 2) array.

    Rows are sorted by the second coordinate; the walk from the anchor
    _ANCHOR through the sorted points must turn strictly left at every
    interior point.  This is the 2D functional whose success probability
    lower-bounds the 3D convex-position probabilities.

    Order.  _order leaves heights a few ulps apart in index order, so a row
    whose walked heights decrease anywhere is -1.  Every other row is walked
    in height order, and tied heights, which _order keeps in index order,
    in the stable order of _exact_chain: both walk the same points in the
    same order.

    Margin: the same bound as in convex_position_verdicts_2d, with S at least
    1 so that it covers the anchor (1, 0): each turn's cross product is
    within 16.01 eps S^2 of the exact one, so every certified verdict is the
    exact verdict of the exact walk.
    """
    return _walk_verdicts(pts, pts[..., 1], [_ANCHOR])


def _cross(u, v):
    """Cross product of two 3-vectors given as coordinate triples; each
    coordinate is a float or an array over trials."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def convex_position_verdicts_3d(pts: np.ndarray, floor_xyz: np.ndarray) -> np.ndarray:
    """Strict convex position of sample points together with floor vertices.

    pts: (B, n, 3) sample points, floor_xyz: (k, 3) floor vertices at
    height 0, with positive area, convex and in boundary order, clockwise
    or counter-clockwise (geometry.convex_floor checks this once per call
    and raises ValueError otherwise; repeats of a vertex next to it are
    dropped).  Floor vertices are extreme points of the body, hence always
    hull vertices, so a trial fails iff some sample point x lies in conv(Q),
    Q being the other sample points and the floor.  A row with a point at
    height <= 0 is ambiguous (-1); the exact predicate rejects such a
    point, so the trial fails.

    Fan.  Let q0 be the first floor vertex and f_1, ..., f_k-1 the others,
    in boundary order.  For x in conv(Q), follow the ray from q0 through x
    to its last point y in conv(Q).  Q has points above the floor, whose
    area is positive, so conv(Q) spans 3-space and y is on its boundary.
    The smallest face holding y has y in its relative interior, so it cannot
    hold q0 (the ray would go on past y inside it); it is the intersection
    of the facets that hold y, so one of them, G, misses q0.  G has a
    sample point p as a vertex: otherwise it would lie in the floor plane,
    so it would be the floor, which holds q0.  Fan G from p over the points
    of Q on its boundary, w_1, ..., w_r in order round it: the non-flat
    triangles (p, w_j, w_j+1) cover G, so y lies in one, T.  q0 is off G's
    plane, else it would be in G, so conv({q0} + T) is a non-flat simplex
    that holds y and q0, hence x.  If T has two floor points, the segment
    between them is on the boundary of G and in the floor plane, so on the
    floor's boundary, and no floor vertex lies between them: they are
    consecutive along the floor's boundary, an edge that misses q0 as G
    does.  So x is in a non-flat simplex (q0, f_a, f_a+1, p), (q0, f, p, p')
    or (q0, p, p', p'') of geometry.floor_fan, with p, p', p'' sample points
    other than x and f a floor vertex other than q0; the exact check
    geometry.in_convex_position_with_floor_3d, which skips flat simplices,
    needs that.  Each point meets (k - 2) m + (k - 1) C(m, 2) + C(m, 3)
    simplices, m = n - 1: 16 for the square floor and n = 4.

    Per simplex (q0, a, b, c), with every point taken relative to q0 (once
    per call, rounded), d0 = det[a, b, c], and e_k is d0 with x in place of
    its k-th vertex.  e1 = det[x, b, c], e2 = -det[x, a, c] and e3 =
    det[x, a, b] come from the pairs of the simplex, so each is computed
    once per pair and shared by the simplices holding it.  When d0 != 0 the
    e_k / d0 are the barycentric coordinates of x and sum to 1, so e0 (x in
    place of q0) is d0 - e1 - e2 - e3.  The floor's heights are exactly 0,
    so the products with them are skipped.

    Margin.  Let S be the largest coordinate magnitude and u = eps/2 the
    unit roundoff.  d0, e1, e2 and e3 are triple products of coordinate
    differences, each at most 2S and rounded once; each of the six terms
    meets at most eight roundings (three entries, two products, the
    subtraction in a 2x2 minor, two additions), so each is within
    8u/(1 - 8u) * 6 * (2S)^3 < 192.01 eps S^3 =: E of the exact value.
    Each is at most 48 S^3 (up to E), so the three subtractions that form
    e0 round partial sums of at most 96, 144 and 192 S^3 and add at most
    u * 432 S^3 = 216 eps S^3: e0 is within 4E + 216 eps S^3 < 985 eps S^3.
    The margin 2048 eps scale^3, scale = S + 1, exceeds that error plus E.

    Solid simplices.  With |d0| > margin the sign s of d0 is exact; all
    s * e_k > margin certifies x inside the simplex (a failure), and some
    s * e_k < -margin certifies x outside it.  The computed e0 + e1 + e2 +
    e3 is d0 up to the 216 eps S^3 of the subtractions, so all s * e_k >
    margin forces |d0| > 3 margin: that test needs no check of d0.

    Flat simplices.  When |d0| <= margin the simplex may be flat: its e_k no
    longer give barycentric coordinates, so it never certifies "inside",
    and x near it stays ambiguous for the exact predicate.  It certifies
    "outside" only when some |e_k| > |d0| + margin: in exact arithmetic a
    point of the closed simplex has |e_k| <= |d0| (its weights lie in [0,
    1]; a flat simplex has every e_k = 0 on its plane), and rounding moves
    the two sides by less than 985 + 193 < 2048 eps S^3.  So a point of
    conv(Q) is never certified outside the fan simplex that holds it, and
    its trial is never a success.

    Each simplex's verdict on x is folded into one number, the smallest s *
    e_k, or for a flat simplex -inf when it certifies "outside" and 0 when
    it does not; the largest of these over the fan is > margin iff some
    simplex certifies x inside, and < -margin iff every simplex certifies
    it outside.  A row succeeds when every point is certified outside every
    simplex of its fan, fails when some point is certified inside one, and
    is left ambiguous (-1) otherwise.  Each row's points are tested in the
    order _order gives for their heights, lowest first up to heights a few
    ulps apart: the lowest point is the one most often inside the hull, so
    most failing rows leave after one point.  The fan test is exact for any
    order, so the order decides only which rows leave early.  Scale and
    margin come from the rows of the call, so when the runner passes a
    slice of a chunk they are a valid S for each of its rows: certified
    verdicts are exact whatever the slicing, and only which rows are left
    ambiguous may depend on it.

    Overflow.  The bounds above hold only while no value overflows.  Every
    value computed is below 193 scale^3, so a call whose scale exceeds
    _SCALE_3D, where 256 scale^3 would no longer be finite, computes nothing
    and leaves every row ambiguous for the exact predicate.
    """
    floor = geometry.convex_floor([tuple(map(float, f)) for f in floor_xyz])
    scale = max(pts.max(), -pts.min(), np.abs(floor_xyz).max()) + 1.0
    rows, n, _ = pts.shape
    if not scale <= _SCALE_3D:
        return np.full(rows, -1, dtype=np.int8)
    margin = 2048.0 * _EPS * scale ** 3
    fan = geometry.floor_fan(len(floor), n - 1)
    (qx, qy, _), *rest = floor
    # fan index j < kf: floor vertex f[j]; j >= kf: sample point p[j - kf];
    # all relative to q0, the floor's heights exactly 0
    f = [(fx - qx, fy - qy) for fx, fy, _ in rest]
    kf = len(f)
    # rel[k][j]: coordinate k of each row's j-th point, by height
    rel = _columns(pts, _order(pts[..., 2]))
    rel[0] -= qx
    rel[1] -= qy
    # det[f_a, f_b, (0, 0, 1)] for the floor pairs of the fan
    fz = {(a, b): f[a][0] * f[b][1] - f[a][1] * f[b][0]
          for a, b, _ in fan if b < kf}
    pairs = {bc for a, b, c in fan for bc in ((a, b), (a, c), (b, c))}
    verdict = np.ones(rows, dtype=np.int8)
    alive = np.arange(rows)
    for i in range(n):
        cur = rel if alive.size == rows else [r[:, alive] for r in rel]
        x = [r[i] for r in cur]
        p = [tuple(r[j] for r in cur) for j in range(n) if j != i]
        # the first two coordinates of p x x, and p x p' for the pairs
        px = [(v[1] * x[2] - v[2] * x[1], v[2] * x[0] - v[0] * x[2])
              for v in p]
        pp = {(b, c): _cross(p[b - kf], p[c - kf])
              for b, c in pairs if b >= kf}

        def x_det(b, c):        # det[x, b, c]
            if c < kf:
                return x[2] * fz[b, c]
            if b < kf:
                u = px[c - kf]
                return f[b][0] * u[0] + f[b][1] * u[1]
            return _dot(x, pp[b, c])

        xd = {bc: x_det(*bc) for bc in pairs}
        top = np.full(alive.size, -np.inf)
        for a, b, c in fan:
            if b < kf:
                d0 = p[c - kf][2] * fz[a, b]
            elif a < kf:
                u = pp[b, c]
                d0 = f[a][0] * u[0] + f[a][1] * u[1]
            else:
                d0 = _dot(p[a - kf], pp[b, c])
            e1, e2n, e3 = xd[b, c], xd[a, c], xd[a, b]     # e2 = -e2n
            e0 = d0 - e1 + e2n - e3
            s = np.sign(d0)
            lo = np.minimum(np.minimum(s * e0, s * e1),
                            np.minimum(s * e3, -(s * e2n)))
            if np.abs(d0).min() <= margin:
                flat = np.abs(d0) <= margin
                hi = np.maximum(np.maximum(np.abs(e0), np.abs(e1)),
                                np.maximum(np.abs(e2n), np.abs(e3)))
                lo[flat] = np.where(hi > np.abs(d0) + margin,
                                    -np.inf, 0.0)[flat]
            np.maximum(top, lo, out=top)
        verdict[alive] = np.where(top > margin, 0,
                                  np.where(top < -margin, 1, -1))
        alive = alive[top < -margin]
        if alive.size == 0:
            break
    if rel[2].min() <= 0:
        verdict[(rel[2] <= 0).any(axis=0)] = -1
    return verdict


# ---------------------------------------------------------------------------
# Exact fallbacks for ambiguous trials

# the floorless predicate that settles estimate_P's ambiguous trials
_exact_convex_position_2d = geometry.in_convex_position_2d


def _exact_chain(points) -> bool:
    return geometry.turns_left([_ANCHOR, *sorted(points, key=lambda p: p[1])])


def _resolve(pts: np.ndarray, verdict: np.ndarray, exact, *floor) -> int:
    """Successes in a chunk: the certain float verdicts, plus each ambiguous
    trial settled by exact(points, *floor).  The floor predicates raise
    ValueError for a point exactly on the floor plane, which is never a
    strict vertex, so that trial fails."""
    k = int(np.sum(verdict == 1))
    for i in np.nonzero(verdict == -1)[0]:
        try:
            k += exact([tuple(p) for p in pts[i]], *floor)
        except ValueError:
            pass
    return k


# ---------------------------------------------------------------------------
# Chunked execution

def _run_binomial(chunk_fn, n_samples: int, seed: int, workers: int,
                  chunk_size: int):
    """chunk_fn(rng, size) on each chunk of at most chunk_size trials, chunk
    i drawing from RngStream(seed, i), returns (*tallies, sample_s,
    predicate_s, exact_s, ambiguous); each entry is summed in chunk order.
    Returns the summed tallies and the RunStats; None runs no chunk."""
    for name, count in (("n_samples", n_samples), ("workers", workers),
                        ("chunk_size", chunk_size)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    jobs = [] if chunk_fn is None else list(
        enumerate(range(0, n_samples, chunk_size)))

    def run(job):
        i, start = job
        return chunk_fn(RngStream(seed, i).generator(),
                        min(chunk_size, n_samples - start))

    if min(workers, len(jobs)) > 1:     # no more threads than chunks
        with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as ex:
            parts = list(ex.map(run, jobs))
    else:
        parts = [run(j) for j in jobs]
    *tallies, sample_s, predicate_s, exact_s, ambiguous = (
        map(sum, zip(*parts)) if parts else (0.0, 0.0, 0.0, 0))
    stats = RunStats(sample_ms=1e3 * sample_s, predicate_ms=1e3 * predicate_s,
                     exact_ms=1e3 * exact_s, n_ambiguous=ambiguous,
                     n_chunks=len(parts), chunk_size=chunk_size,
                     workers=workers)
    return tallies, stats


def _estimate_convex(sample, n: int, always: int, verdicts, exact,
                     n_samples: int, seed: int, workers: int, chunk_size: int,
                     *floor) -> EstimateResult:
    """Chance that n points drawn by sample(rng, count) pass the convex-position
    test: verdicts(pts, *floor) on each slice of _SLICE rows of a (size, n,
    dim) chunk, with exact(points, *floor) settling its ambiguous trials.
    n <= always always passes, without a chunk; n < 0 is a ValueError."""
    if n < 0:
        raise ValueError("n must be >= 0")
    t0 = time.perf_counter()

    def chunk(rng, size):
        t = [time.perf_counter()]
        pts = sample(rng, size * n).reshape(size, n, -1)
        t.append(time.perf_counter())
        v = np.empty(size, dtype=np.int8)
        for s in range(0, size, _SLICE):
            v[s:s + _SLICE] = verdicts(pts[s:s + _SLICE], *floor)
        t.append(time.perf_counter())
        k = _resolve(pts, v, exact, *floor)
        t.append(time.perf_counter())
        return (k, t[1] - t[0], t[2] - t[1], t[3] - t[2],
                int(np.count_nonzero(v == -1)))

    trivial = n <= always
    tallies, stats = _run_binomial(None if trivial else chunk, n_samples,
                                   seed, workers, chunk_size)
    k = n_samples if trivial else tallies[0]
    return _binomial_result(k, n_samples, seed, t0, stats)


# ---------------------------------------------------------------------------
# Estimators

def estimate_Q(body: BodyWithFloor, n: int, n_samples: int, seed: int = 0,
               workers: int = 1, chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """P(n uniform points are in convex position with the floor)."""
    if body.dimension == 2:
        verdicts = convex_position_verdicts_2d
        exact = geometry.in_convex_position_with_floor_2d
        floor = np.asarray(body.floor, dtype=float)
    else:
        verdicts = convex_position_verdicts_3d
        exact = geometry.in_convex_position_with_floor_3d
        floor = np.array([[x, y, 0.0] for (x, y) in body.floor])
    return _estimate_convex(partial(sample_body, body), n, 1, verdicts, exact,
                            n_samples, seed, workers, chunk_size, floor)


def estimate_P(body: BodyWithFloor, n: int, n_samples: int, seed: int = 0,
               workers: int = 1, chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """P(n uniform points are in convex position), floor ignored.  2D only."""
    if body.dimension != 2:
        raise ValueError("floorless estimator is 2D only")
    return _estimate_convex(partial(sample_body, body), n, 3,
                            convex_position_verdicts_2d,
                            _exact_convex_position_2d,
                            n_samples, seed, workers, chunk_size)


def estimate_Q2_height(body: BodyWithFloor, n_samples: int, seed: int = 0,
                       workers: int = 1,
                       chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """Q(2) via the cone identity of bodies.q2_exact, with E[height]
    estimated from sampled heights."""
    t0 = time.perf_counter()
    coef = 2.0 * body.floor_vol / body.dimension

    def chunk(rng, size):
        t = time.perf_counter()
        h = sample_heights(body, rng, size)
        return (float(h.sum()), float((h * h).sum()),
                time.perf_counter() - t, 0.0, 0.0, 0)

    (s1, s2), stats = _run_binomial(chunk, n_samples, seed, workers,
                                    chunk_size)
    mean = s1 / n_samples
    var = max(s2 / n_samples - mean * mean, 0.0)
    est = 1.0 - coef * mean
    se = coef * math.sqrt(var / n_samples)
    z = 1.959963984540054
    return EstimateResult(estimate=est, std_error=se, ci_low=est - z * se,
                          ci_high=est + z * se, n_samples=n_samples, seed=seed,
                          wall_ms=(time.perf_counter() - t0) * 1000,
                          stats=stats)


def estimate_beta1(n: int, n_samples: int, seed: int = 0, workers: int = 1,
                   chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """Anchored-chain probability under the density 2x on the unit square;
    lower-bounds Q of any 3D prism."""
    return _estimate_convex(sample_density_g1, n, 1, chain_verdicts,
                            _exact_chain, n_samples, seed, workers, chunk_size)


def estimate_beta2(n: int, n_samples: int, seed: int = 0, workers: int = 1,
                   chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """Anchored-chain probability under 2x 1(x <= 1-y/3) on [0,1]x[0,3];
    lower-bounds Q of any 3D mountain and equals y_closed(n) exactly."""
    return _estimate_convex(sample_density_g2, n, 1, chain_verdicts,
                            _exact_chain, n_samples, seed, workers, chunk_size)


def estimate_fradius_reduction(n: int, n_samples: int, seed: int = 0,
                               workers: int = 1,
                               chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """Chain probability of the gauge images of uniform 3D mountain points.

    Each point z at height t maps to (a, t) with a the smallest dilation of
    the floor containing z's horizontal part; the pushforward law is the
    beta2 density, and chain success implies 3D convex position.
    """
    body = mountain3d()

    def sample(rng, total):
        pts = sample_body(body, rng, total)
        a = floor_radius_batch(body.floor, pts[:, :2])
        return np.column_stack([a, pts[:, 2]])

    return _estimate_convex(sample, n, 1, chain_verdicts, _exact_chain,
                            n_samples, seed, workers, chunk_size)
