"""Monte Carlo estimators for convex-position probabilities.

The batch predicates run in floating point with a certified margin; trials
whose verdict falls inside the margin are re-checked with the exact rational
predicates.  Work is split into fixed-size chunks, each with its own random
stream keyed by (seed, chunk index), and per-chunk tallies are merged in
chunk order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry
from .bodies import BodyWithFloor, floor_volume, mountain3d
from .samplers import (RngStream, floor_radius_batch, sample_body,
                       sample_density_g1, sample_density_g2, sample_heights)

_EPS = np.finfo(float).eps
DEFAULT_CHUNK = 250_000
LOW_POWER_SUCCESSES = 100


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

def convex_position_verdicts_2d(pts: np.ndarray) -> np.ndarray:
    """Strict convex position of each row of an (B, m, 2) array.

    Points in strictly convex position are exactly those whose angular order
    around their centroid forms a strictly convex polygon.
    """
    center = pts.mean(axis=1, keepdims=True)
    ang = np.arctan2(pts[..., 1] - center[..., 1], pts[..., 0] - center[..., 0])
    order = np.argsort(ang, axis=1)
    p = np.take_along_axis(pts, order[..., None], axis=1)
    q = np.roll(p, -1, axis=1)
    r = np.roll(p, -2, axis=1)
    cross = ((q[..., 0] - p[..., 0]) * (r[..., 1] - q[..., 1])
             - (q[..., 1] - p[..., 1]) * (r[..., 0] - q[..., 0]))
    scale = np.abs(pts).max() + 1.0
    margin = 64.0 * _EPS * scale * scale
    lo = cross.min(axis=1)
    out = np.where(lo > margin, 1, 0).astype(np.int8)
    out[np.abs(lo) <= margin] = -1
    return out


def chain_verdicts(pts: np.ndarray, anchor=(1.0, 0.0)) -> np.ndarray:
    """Anchored convex-chain predicate on an (B, n, 2) array.

    Rows are sorted by the second coordinate; the walk from the anchor
    through the sorted points must turn strictly left at every interior
    point.  This is the 2D functional whose success probability lower-bounds
    the 3D convex-position probabilities.
    """
    order = np.argsort(pts[..., 1], axis=1)
    p = np.take_along_axis(pts, order[..., None], axis=1)
    a = np.broadcast_to(np.asarray(anchor, dtype=float), (pts.shape[0], 1, 2))
    chain = np.concatenate([a, p], axis=1)
    d = np.diff(chain, axis=1)
    cross = d[:, :-1, 0] * d[:, 1:, 1] - d[:, :-1, 1] * d[:, 1:, 0]
    if cross.shape[1] == 0:
        return np.ones(pts.shape[0], dtype=np.int8)
    scale = max(np.abs(pts).max(), 1.0) + 1.0
    margin = 64.0 * _EPS * scale * scale
    lo = cross.min(axis=1)
    out = np.where(lo > margin, 1, 0).astype(np.int8)
    out[np.abs(lo) <= margin] = -1
    return out


def _det3(a, b, c, d):
    """Orientation determinant of four (B, 3) point arrays."""
    u, v, w = b - a, c - a, d - a
    return (u[:, 0] * (v[:, 1] * w[:, 2] - v[:, 2] * w[:, 1])
            - u[:, 1] * (v[:, 0] * w[:, 2] - v[:, 2] * w[:, 0])
            + u[:, 2] * (v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]))


def convex_position_verdicts_3d(pts: np.ndarray, floor_xyz: np.ndarray) -> np.ndarray:
    """Strict convex position of sample points together with floor vertices.

    pts: (B, n, 3) sample points, floor_xyz: (k, 3) floor vertices.  Floor
    vertices are extreme points of the body, hence always hull vertices;
    only sample points need testing.  A sample point disqualifies the trial
    iff it lies in the hull of the others, which by Caratheodory means
    inside some simplex of four of them.
    """
    B, n, _ = pts.shape
    scale = max(np.abs(pts).max(), np.abs(floor_xyz).max()) + 1.0
    margin = 512.0 * _EPS * scale ** 3
    verdict = np.ones(B, dtype=np.int8)
    alive = np.arange(B)
    cur = pts
    for i in range(n):
        if alive.size == 0:
            break
        p = cur[:, i]
        others = np.concatenate(
            [cur[:, [j for j in range(n) if j != i]],
             np.broadcast_to(floor_xyz, (cur.shape[0],) + floor_xyz.shape)],
            axis=1)
        m = others.shape[1]
        keep = np.ones(cur.shape[0], dtype=bool)
        for (ia, ib, ic, id_) in itertools.combinations(range(m), 4):
            idx = np.nonzero(keep)[0]
            if idx.size == 0:
                break
            a, b = others[idx, ia], others[idx, ib]
            c, d = others[idx, ic], others[idx, id_]
            pe = p[idx]
            d0 = _det3(a, b, c, d)
            s = np.sign(d0)
            nondeg = np.abs(d0) > margin
            dets = np.stack([_det3(pe, b, c, d), _det3(a, pe, c, d),
                             _det3(a, b, pe, d), _det3(a, b, c, pe)])
            # a flat 4-subset (e.g. four floor vertices) cannot contain a
            # point that is certifiably off its plane
            outside = np.where(nondeg,
                               np.any(dets * s < -margin, axis=0),
                               np.any(np.abs(dets) > margin, axis=0))
            inside = nondeg & np.all(dets * s > margin, axis=0)
            near = ~outside & ~inside
            verdict[alive[idx[inside]]] = 0
            verdict[alive[idx[near]]] = -1
            keep[idx[inside]] = False
            keep[idx[near]] = False
        survivors = verdict[alive] == 1
        alive = alive[survivors]
        cur = cur[survivors]
    return verdict


# ---------------------------------------------------------------------------
# Exact fallbacks for ambiguous trials

def _exact_convex_position_2d(points) -> bool:
    pts = geometry._dedupe(points)
    if len(pts) < len(points):
        return False
    hull = geometry.convex_hull_2d(pts)
    return not hull.degenerate and len(hull.vertices) == len(pts)


def _exact_chain(points, anchor=(1, 0)) -> bool:
    rows = sorted(((Fraction(float(x)), Fraction(float(y))) for x, y in points),
                  key=lambda p: p[1])
    chain = [(Fraction(anchor[0]), Fraction(anchor[1]))] + rows
    for (x0, y0), (x1, y1), (x2, y2) in zip(chain, chain[1:], chain[2:]):
        if (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1) <= 0:
            return False
    return True


def _resolve(pts: np.ndarray, verdict: np.ndarray, exact) -> int:
    """Successes in a chunk: the certain float verdicts, plus each ambiguous
    trial settled by exact(points).  The floor predicates raise ValueError
    for a point exactly on the floor plane, which is never a strict vertex,
    so that trial fails."""
    k = int(np.sum(verdict == 1))
    for i in np.nonzero(verdict == -1)[0]:
        try:
            k += exact([tuple(p) for p in pts[i]])
        except ValueError:
            pass
    return k


# ---------------------------------------------------------------------------
# Chunked execution

def _chunks(n_samples: int, chunk_size: int):
    sizes = []
    left = n_samples
    while left > 0:
        sizes.append(min(chunk_size, left))
        left -= sizes[-1]
    return sizes


def _check_budget(n_samples: int, workers: int) -> None:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _run_binomial(chunk_fn, n_samples: int, seed: int, workers: int,
                  chunk_size: int, t0: float) -> EstimateResult:
    sizes = _chunks(n_samples, chunk_size)

    def run(args):
        stream, size = args
        return chunk_fn(RngStream(seed, stream).generator(), size)

    jobs = list(enumerate(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            counts = list(ex.map(run, jobs))
    else:
        counts = [run(j) for j in jobs]
    return _binomial_result(sum(counts), n_samples, seed, t0)


# ---------------------------------------------------------------------------
# Estimators

def estimate_Q(body: BodyWithFloor, n: int, n_samples: int, seed: int = 0,
               workers: int = 1, chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """P(n uniform points are in convex position with the floor)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_budget(n_samples, workers)
    t0 = time.perf_counter()
    if n <= 1:
        return _binomial_result(n_samples, n_samples, seed, t0)
    floor = body.floor
    if body.dimension == 2:
        fl = np.asarray(floor, dtype=float)

        def chunk(rng, size):
            pts = sample_body(body, rng, size * n).reshape(size, n, 2)
            full = np.concatenate(
                [pts, np.broadcast_to(fl, (size,) + fl.shape)], axis=1)
            return _resolve(pts, convex_position_verdicts_2d(full),
                            lambda s: geometry.in_convex_position_with_floor_2d(
                                s, floor=floor))
    else:
        fxyz = np.array([[x, y, 0.0] for (x, y) in floor])

        def chunk(rng, size):
            pts = sample_body(body, rng, size * n).reshape(size, n, 3)
            return _resolve(pts, convex_position_verdicts_3d(pts, fxyz),
                            lambda s: geometry.in_convex_position_with_floor_3d(
                                s, floor))

    return _run_binomial(chunk, n_samples, seed, workers, chunk_size, t0)


def estimate_P(body: BodyWithFloor, n: int, n_samples: int, seed: int = 0,
               workers: int = 1, chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """P(n uniform points are in convex position), floor ignored.  2D only."""
    if body.dimension != 2:
        raise ValueError("floorless estimator is 2D only")
    _check_budget(n_samples, workers)
    t0 = time.perf_counter()
    if n <= 3:
        return _binomial_result(n_samples, n_samples, seed, t0)

    def chunk(rng, size):
        pts = sample_body(body, rng, size * n).reshape(size, n, 2)
        return _resolve(pts, convex_position_verdicts_2d(pts),
                        _exact_convex_position_2d)

    return _run_binomial(chunk, n_samples, seed, workers, chunk_size, t0)


def estimate_Q2_height(body: BodyWithFloor, n_samples: int, seed: int = 0,
                       workers: int = 1,
                       chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """Q(2) via the cone identity: the hull of one point and the floor is a
    cone of volume floor_volume * height / d, so
    Q(2) = 1 - 2 * floor_volume * E[height] / d."""
    _check_budget(n_samples, workers)
    t0 = time.perf_counter()
    coef = 2.0 * floor_volume(body) / body.dimension
    sizes = _chunks(n_samples, chunk_size)

    def run(args):
        stream, size = args
        h = sample_heights(body, RngStream(seed, stream).generator(), size)
        return float(h.sum()), float((h * h).sum())

    jobs = list(enumerate(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(run, jobs))
    else:
        parts = [run(j) for j in jobs]
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    mean = s1 / n_samples
    var = max(s2 / n_samples - mean * mean, 0.0)
    est = 1.0 - coef * mean
    se = coef * math.sqrt(var / n_samples)
    z = 1.959963984540054
    return EstimateResult(estimate=est, std_error=se, ci_low=est - z * se,
                          ci_high=est + z * se, n_samples=n_samples, seed=seed,
                          wall_ms=(time.perf_counter() - t0) * 1000)


def _chain_estimator(sampler, n: int, n_samples: int, seed: int,
                     workers: int, chunk_size: int) -> EstimateResult:
    _check_budget(n_samples, workers)
    t0 = time.perf_counter()
    if n <= 1:
        return _binomial_result(n_samples, n_samples, seed, t0)

    def chunk(rng, size):
        pts = sampler(rng, size * n).reshape(size, n, 2)
        return _resolve(pts, chain_verdicts(pts), _exact_chain)

    return _run_binomial(chunk, n_samples, seed, workers, chunk_size, t0)


def estimate_beta1(n: int, n_samples: int, seed: int = 0, workers: int = 1,
                   chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """Anchored-chain probability under the density 2x on the unit square;
    lower-bounds Q of any 3D prism."""
    return _chain_estimator(sample_density_g1, n, n_samples, seed, workers,
                            chunk_size)


def estimate_beta2(n: int, n_samples: int, seed: int = 0, workers: int = 1,
                   chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """Anchored-chain probability under 2x 1(x <= 1-y/3) on [0,1]x[0,3];
    lower-bounds Q of any 3D mountain and equals y_closed(n) exactly."""
    return _chain_estimator(sample_density_g2, n, n_samples, seed, workers,
                            chunk_size)


def estimate_fradius_reduction(n: int, n_samples: int, seed: int = 0,
                               workers: int = 1, floor_polygon=None,
                               chunk_size: int = DEFAULT_CHUNK) -> EstimateResult:
    """Chain probability of the gauge images of uniform 3D mountain points.

    Each point z at height t maps to (a, t) with a the smallest dilation of
    the floor containing z's horizontal part; the pushforward law is the
    beta2 density, and chain success implies 3D convex position.
    """
    body = mountain3d(floor_polygon)

    def sampler(rng, total):
        pts = sample_body(body, rng, total)
        a = floor_radius_batch(body.floor, pts[:, :2])
        return np.column_stack([a, pts[:, 2]])

    return _chain_estimator(sampler, n, n_samples, seed, workers, chunk_size)
