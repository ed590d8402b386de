"""Monte Carlo estimators for convex-position probabilities.

The batch predicates run in floating point with a certified margin; trials
whose verdict falls inside the margin are re-checked with the exact rational
predicates.  Work is split into fixed-size chunks, each with its own random
stream keyed by (seed, chunk index), and per-chunk tallies are merged in
chunk order, so results are bit-identical for any worker count.
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
from .bodies import BodyWithFloor, floor_volume, mountain3d
from .samplers import (RngStream, floor_radius_batch, sample_body,
                       sample_density_g1, sample_density_g2, sample_heights)

_EPS = np.finfo(float).eps
DEFAULT_CHUNK = 250_000
# rows per pass of the 3D predicate, whose per-trial cost grows with array size
_SLICE = 25_000
LOW_POWER_SUCCESSES = 100
# first point of every anchored chain
_ANCHOR = (1, 0)


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


def _binomial_result(k: int, n: int, seed: int, t0: float) -> EstimateResult:
    phat = k / n
    se = math.sqrt(max(phat * (1 - phat), 0.0) / n)
    lo, hi = wilson_interval(k, n)
    return EstimateResult(estimate=phat, std_error=se, ci_low=lo, ci_high=hi,
                          n_samples=n, seed=seed, n_success=k,
                          low_power=k < LOW_POWER_SUCCESSES,
                          wall_ms=(time.perf_counter() - t0) * 1000)


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
    sorted by the key (stable) and walked f1 -> sorted points -> f0.

    Order certificate.  For consecutive sorted points p, q the step
    (p - m) x (q - m) is positive exactly when angle(p) < angle(q).  If
    every step is certified positive, the float order is the exact strict
    angular order; otherwise the row is ambiguous.  So a rounded key that
    misorders a near-tie, or two points on one ray from m (a step of
    exactly 0), never gives a certified verdict.

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
    """Floorless verdicts: the turns of each row in angular order around its
    centroid c (rounded, the order that of arctan2; only the turns are
    certified against the margin).

    In exact arithmetic n >= 3 points are in strictly convex position iff
    none is at c, no two lie on one ray from c, and the closed walk in
    angular order around c turns strictly left at every point.  Collinear
    points fail one of the first two tests, c being on their line.  Else c,
    a combination of the points with positive weights, is strictly inside
    their hull, so consecutive points in strict angular order are less
    than pi apart around c; the walk bounds the union of the ccw triangles
    (c, p_i, p_i+1), whose sectors at c are disjoint, so it is a simple
    polygon, strictly convex iff it turns strictly left at every vertex.
    Conversely, the boundary of a strictly convex polygon meets each ray
    from the interior point c once, so it visits the points in strict
    angular order.  geometry.in_convex_position_2d decides exactly this.
    """
    center = pts.mean(axis=1, keepdims=True)
    ang = np.arctan2(pts[..., 1] - center[..., 1], pts[..., 0] - center[..., 0])
    order = np.argsort(ang, axis=1)
    p = np.take_along_axis(pts, order[..., None], axis=1)
    q = np.roll(p, -1, axis=1)
    r = np.roll(p, -2, axis=1)
    cross = ((q[..., 0] - p[..., 0]) * (r[..., 1] - q[..., 1])
             - (q[..., 1] - p[..., 1]) * (r[..., 0] - q[..., 0]))
    return _certify(cross.min(axis=1), _margin(np.abs(pts).max()))


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
    """Verdicts of the walk through anchors[0], each row's points sorted by
    key (stable) and anchors[1] when given: the smallest turn at a sample
    point, certified.  With hub, the steps (p - (hub, 0)) x (q - (hub, 0))
    of consecutive sorted points must be certified positive too, else the
    row is -1.  The sorted coordinates are held one contiguous array per
    point, so each turn is an elementwise pass over the rows."""
    rows, n = key.shape
    order = np.argsort(key, axis=1, kind="stable")
    flat = 2 * (order + n * np.arange(rows)[:, None]).T
    x = pts.reshape(-1).take(flat)      # x[j]: each row's j-th sorted point
    y = pts.reshape(-1).take(flat + 1)
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
    if hub is not None and n > 1:
        out[_min_cross(x - hub, y) <= margin] = -1
    return out


def chain_verdicts(pts: np.ndarray) -> np.ndarray:
    """Anchored convex-chain predicate on an (B, n, 2) array.

    Rows are sorted by the second coordinate; the walk from the anchor
    _ANCHOR through the sorted points must turn strictly left at every
    interior point.  This is the 2D functional whose success probability
    lower-bounds the 3D convex-position probabilities.  The sort is stable, as in
    _exact_chain, so tied heights are walked in the same order by both.

    Margin: the same bound as in convex_position_verdicts_2d, with S at least
    1 so that it covers the anchor (1, 0): each turn's cross product is
    within 16.01 eps S^2 of the exact one, and the sort compares stored
    values exactly, so every certified verdict is the exact verdict of the
    exact walk.
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
    height 0, with n + k >= 5.  Floor vertices are extreme points of the
    body, hence always hull vertices, so a trial fails iff some sample point
    x lies in conv(Q), Q being the other sample points and the floor.

    Fan.  Let q0 be the first floor vertex.  conv(Q) is the union of the
    simplices conv({q0} + T) over the 3-subsets T of Q - {q0}.  For x in
    conv(Q), follow the ray from q0 through x to its last point y in conv(Q).
    The smallest face of conv(Q) holding y has y in its relative interior,
    so it cannot hold q0 (the ray would go on past y inside it); it has
    dimension at most 2, so by Caratheodory y lies in the hull of at most
    three of its vertices.  Any 3-subset T of Q - {q0} holding them (n + k
    >= 5 leaves at least three points there) has x, on the segment from q0
    to y, in conv({q0} + T).  Each point therefore meets C(m - 1, 3)
    simplices, m = |Q|, rather than all C(m, 4) 4-subsets of Q.

    Some non-flat fan simplex holds x, which the exact check
    geometry.in_convex_position_with_floor_3d needs, as it skips flat ones.
    x lies in conv(Q) above the floor plane, so Q has a point above it, and
    with the floor of positive area conv(Q) spans 3-space.  y is on its
    boundary, so the smallest face holding y is the intersection of the
    facets that hold it, and one of them misses q0.  By Caratheodory in
    that facet's plane, y lies in a triangle T of three affinely independent
    vertices of the facet; q0 is off that plane, else it would be in the
    facet, so conv({q0} + T) is non-flat and holds x.

    Per simplex (q0, a, b, c), d0 = det[a - q0, b - q0, c - q0], and e_k is
    d0 with x in place of its k-th vertex; when d0 != 0, e_k / d0 are the
    barycentric coordinates of x and sum to 1.  The three e_k that keep q0
    are det[x - q0, b - q0, c - q0] for a pair (b, c) of the simplex, so
    each is computed once per pair and shared by the simplices holding it.

    Margin.  Let S be the largest coordinate magnitude and u = eps/2 the
    unit roundoff.  Every d0 and e_k is a triple product of coordinate
    differences, each at most 2S and rounded once; each of its six terms
    meets at most eight roundings (three entries, two products, the
    subtraction in the 2x2 minor, two additions), so it is within
    8u/(1 - 8u) * 6 * (2S)^3 < 192.01 eps S^3 =: E of the exact value.  The
    margin 512 eps scale^3, scale = S + 1, exceeds 2E.  With |d0| > margin
    the sign s of d0 is exact; all s * e_k > margin certifies x inside the
    simplex (a failure), and some s * e_k < -margin certifies x outside it.

    Flat simplices.  When |d0| <= margin the simplex may be flat (the
    all-floor ones are, with d0 = 0 exactly): its e_k no longer give
    barycentric coordinates, so it never certifies "inside", and x near it
    stays ambiguous for the exact predicate.  It certifies "outside" only
    when some |e_k| > |d0| + margin: in exact arithmetic a point of the
    closed simplex has |e_k| <= |d0| (its weights lie in [0, 1]; a flat
    simplex has every e_k = 0 on its plane), and rounding moves the two
    sides by at most 2E.  So a point of conv(Q), such as one at height 0
    on the floor, is never certified outside the fan simplex that holds it,
    and its trial is never a success.

    A row succeeds when every point is certified outside every simplex of
    its fan, fails when some point is certified inside one, and is left
    ambiguous (-1) otherwise.  Each row's points are tested lowest first:
    the lowest point is the one most often inside the hull, so most failing
    rows leave after one point.  Rows go through in slices of _SLICE, since
    the per-trial cost of the array passes grows with their size; scale and
    margin come from the whole batch, so no verdict depends on the slicing.
    """
    scale = max(np.abs(pts).max(), np.abs(floor_xyz).max()) + 1.0
    margin = 512.0 * _EPS * scale ** 3
    verdict = np.empty(pts.shape[0], dtype=np.int8)
    for s in range(0, pts.shape[0], _SLICE):
        verdict[s:s + _SLICE] = _verdicts_3d_slice(pts[s:s + _SLICE],
                                                   floor_xyz, margin)
    return verdict


def _verdicts_3d_slice(pts, floor_xyz, margin):
    rows, n, _ = pts.shape
    order = np.argsort(pts[..., 2], axis=1, kind="stable")
    # xyz[j][k]: coordinate k of each row's j-th lowest point, contiguous
    xyz = np.take_along_axis(pts, order[..., None], axis=1)
    xyz = xyz.transpose(1, 2, 0).copy()
    q0, *floor = [tuple(map(float, f)) for f in floor_xyz]
    verdict = np.ones(rows, dtype=np.int8)
    alive = np.arange(rows)
    for i in range(n):
        cur = xyz[:, :, alive]
        x = cur[i]
        fan = floor + [cur[j] for j in range(n) if j != i]  # Q - {q0}
        rel = [tuple(f[k] - q0[k] for k in range(3)) for f in fan]
        dif = [tuple(f[k] - x[k] for k in range(3)) for f in fan]
        xq = tuple(x[k] - q0[k] for k in range(3))
        # for each pair (b, c) of the fan: (b - q0) x (c - q0), (b - x) x
        # (c - x) and det[x - q0, b - q0, c - q0], shared by its simplices
        pairs = list(itertools.combinations(range(len(fan)), 2))
        rel_x = {bc: _cross(rel[bc[0]], rel[bc[1]]) for bc in pairs}
        dif_x = {bc: _cross(dif[bc[0]], dif[bc[1]]) for bc in pairs}
        x_det = {bc: _dot(xq, rel_x[bc]) for bc in pairs}
        inside = np.zeros(alive.size, dtype=bool)
        outside = np.ones(alive.size, dtype=bool)
        for a, b, c in itertools.combinations(range(len(fan)), 3):
            d0 = _dot(rel[a], rel_x[b, c])
            # x in place of q0, a, b and c in turn
            e = (_dot(dif[a], dif_x[b, c]), x_det[b, c], -x_det[a, c],
                 x_det[a, b])
            s = np.sign(d0)
            lo = np.minimum(np.minimum(s * e[0], s * e[1]),
                            np.minimum(s * e[2], s * e[3]))
            solid = np.abs(d0) > margin
            inside |= solid & (lo > margin)
            out = solid & (lo < -margin)
            if not np.all(solid):
                hi = np.maximum(np.maximum(np.abs(e[0]), np.abs(e[1])),
                                np.maximum(np.abs(e[2]), np.abs(e[3])))
                out |= ~solid & (hi > np.abs(d0) + margin)
            outside &= out
        verdict[alive] = np.where(inside, 0, np.where(outside, 1, -1))
        alive = alive[outside]
        if alive.size == 0:
            break
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

def _check_budget(n_samples: int, workers: int, chunk_size: int) -> None:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")


def _map_chunks(chunk_fn, n_samples: int, seed: int, workers: int,
                chunk_size: int) -> list:
    """chunk_fn(rng, size) on each chunk of at most chunk_size trials, chunk i
    drawing from RngStream(seed, i); results come back in chunk order."""
    jobs = list(enumerate(range(0, n_samples, chunk_size)))

    def run(job):
        i, start = job
        return chunk_fn(RngStream(seed, i).generator(),
                        min(chunk_size, n_samples - start))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(run, jobs))
    return [run(j) for j in jobs]


def _run_binomial(chunk_fn, n_samples: int, seed: int, workers: int,
                  chunk_size: int, t0: float) -> EstimateResult:
    k = sum(_map_chunks(chunk_fn, n_samples, seed, workers, chunk_size))
    return _binomial_result(k, n_samples, seed, t0)


def _estimate_convex(sample, n: int, always: int, verdicts, exact,
                     n_samples: int, seed: int, workers: int, chunk_size: int,
                     *floor) -> EstimateResult:
    """Chance that n points drawn by sample(rng, count) pass the convex-position
    test: verdicts(pts, *floor) on each (size, n, dim) chunk, with exact(points,
    *floor) settling its ambiguous trials.  n <= always always passes."""
    _check_budget(n_samples, workers, chunk_size)
    t0 = time.perf_counter()
    if n <= always:
        return _binomial_result(n_samples, n_samples, seed, t0)

    def chunk(rng, size):
        pts = sample(rng, size * n).reshape(size, n, -1)
        return _resolve(pts, verdicts(pts, *floor), exact, *floor)

    return _run_binomial(chunk, n_samples, seed, workers, chunk_size, t0)


# ---------------------------------------------------------------------------
# Estimators

def estimate_Q(body: BodyWithFloor, n: int, n_samples: int, seed: int = 0,
               workers: int = 1, chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """P(n uniform points are in convex position with the floor)."""
    if n < 0:
        raise ValueError("n must be >= 0")
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
    _check_budget(n_samples, workers, chunk_size)
    t0 = time.perf_counter()
    coef = 2.0 * floor_volume(body) / body.dimension

    def chunk(rng, size):
        h = sample_heights(body, rng, size)
        return float(h.sum()), float((h * h).sum())

    parts = _map_chunks(chunk, n_samples, seed, workers, chunk_size)
    s1, s2 = map(sum, zip(*parts))
    mean = s1 / n_samples
    var = max(s2 / n_samples - mean * mean, 0.0)
    est = 1.0 - coef * mean
    se = coef * math.sqrt(var / n_samples)
    z = 1.959963984540054
    return EstimateResult(estimate=est, std_error=se, ci_low=est - z * se,
                          ci_high=est + z * se, n_samples=n_samples, seed=seed,
                          wall_ms=(time.perf_counter() - t0) * 1000)


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
