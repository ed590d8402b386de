"""Rejection-free uniform samplers for the bodies and auxiliary densities.

All samplers are vectorized and draw from an explicitly seeded stream, so a
(seed, stream) pair fully determines the output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bodies import (BodyWithFloor, LinearLayerBody, SubPrism2D,
                     layer_dilation)


@dataclass(frozen=True)
class RngStream:
    """Deterministic generator factory keyed by (seed, stream)."""
    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


# points per pass of a sampler's map, and rows per pass of the gauge
_SLICE = 32_768


def _slices(n: int):
    return (slice(s, s + _SLICE) for s in range(0, n, _SLICE))


def _map_uniforms(rng: np.random.Generator, k: int, n: int, columns,
                  dim: int) -> np.ndarray:
    """n points, shape (n, dim), from k uniform rows of n drawn in one
    rng.random((k, n)) call, the same stream as k calls rng.random(n).
    columns(u) maps a slice of the rows to the points' dim coordinates; it
    runs on _SLICE points at a time, so that its temporaries stay in cache,
    and must act elementwise, so that the slicing changes no value."""
    u = rng.random((k, n))
    out = np.empty((n, dim))
    for sl in _slices(n):
        for j, col in enumerate(columns(u[:, sl])):
            out[sl, j] = col
    return out


# ---------------------------------------------------------------------------
# Convex polygon sampling (fan triangulation + square-root map)

def _fan(polygon):
    """The fan triangles (a, b_i, c_i) of a convex polygon and the cdf of
    their areas, normalised as Generator.choice(p=...) normalises it."""
    v = np.asarray(polygon, dtype=float)
    a = v[0]
    b, c = v[1:-1], v[2:]
    tri_area = 0.5 * np.abs((b[:, 0] - a[0]) * (c[:, 1] - a[1])
                            - (c[:, 0] - a[0]) * (b[:, 1] - a[1]))
    cdf = (tri_area / tri_area.sum()).cumsum()
    cdf /= cdf[-1]
    return a, b, c, cdf


def _fan_points(fan, u):
    """The two coordinates of the polygon points for the uniform rows u =
    (U0, U1, U2): the triangle that Generator.choice(p=...) draws from U0 (a
    right-sided search of the cdf), then (1 - r1) a + r1 ((1 - r2) b + r2 c)
    with r1 = sqrt(U1), r2 = U2."""
    a, b, c, cdf = fan
    r1 = np.sqrt(u[1])
    r2 = u[2]
    s1, s2 = 1 - r1, 1 - r2
    idx = cdf.searchsorted(u[0], side="right") if len(cdf) > 1 else 0
    return [s1 * a[k] + r1 * (s2 * b[idx, k] + r2 * c[idx, k])
            for k in range(2)]


# ---------------------------------------------------------------------------
# Full-point samplers

def sample_body(body: BodyWithFloor, rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points in the body; shape (n, 2) in 2D, (n, 3) in 3D.

    A linear-layer body draws the height first, then a floor point that the
    layer at that height dilates by lam(t) and shifts by (t/H) a.
    """
    if isinstance(body, SubPrism2D):
        def columns(u):
            x = body.top.sample_x(u[0])
            return x, body.top.values(x) * u[1]
        return _map_uniforms(rng, 2, n, columns, 2)
    d = body.dimension
    if d == 3:
        fan = _fan(body.floor)
    else:
        (x0, _), (x1, _) = body.floor
    shift = any(body.a)

    def columns(u):
        t = _heights(body, u[0])
        lam = layer_dilation(body, t)
        floor = (_fan_points(fan, u[1:]) if d == 3
                 else [x0 + (x1 - x0) * u[1]])
        xy = [lam * f for f in floor]
        if shift:
            for k, a in enumerate(body.a[:d - 1]):
                xy[k] += (t / body.H) * a
        return [*xy, t]

    return _map_uniforms(rng, 4 if d == 3 else 2, n, columns, d)


def _heights(body: LinearLayerBody, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the height: the volume below height t is proportional
    to lam(t)^d - 1 (to t when c = 1)."""
    if body.c == 1.0:
        return u * body.H
    d = body.dimension
    lam = (1.0 + u * (body.c ** d - 1.0)) ** (1.0 / d)
    return body.H * (lam - 1.0) / (body.c - 1.0)


def sample_heights(body: BodyWithFloor, rng: np.random.Generator, n: int) -> np.ndarray:
    """Heights of n uniform points, without the horizontal coordinates."""
    if isinstance(body, SubPrism2D):
        top = body.top
        return _map_uniforms(rng, 2, n,
                             lambda u: [top.values(top.sample_x(u[0])) * u[1]],
                             1)[:, 0]
    return _map_uniforms(rng, 1, n, lambda u: [_heights(body, u[0])], 1)[:, 0]


# ---------------------------------------------------------------------------
# Auxiliary densities for the anchored-chain functionals

def sample_density_g1(rng: np.random.Generator, n: int) -> np.ndarray:
    """Density 2x on the unit square; shape (n, 2)."""
    return _map_uniforms(rng, 2, n, lambda u: (np.sqrt(u[0]), u[1]), 2)


def sample_density_g2(rng: np.random.Generator, n: int) -> np.ndarray:
    """Density 2x restricted to x <= 1 - y/3 on [0,1] x [0,3]; shape (n, 2).

    The y-marginal is (1 - y/3)^2 on [0, 3]; given y the x-coordinate has
    density proportional to x on [0, 1 - y/3].
    """
    def columns(u):
        y = 3.0 * (1.0 - (1.0 - u[0]) ** (1.0 / 3.0))
        return (1.0 - y / 3.0) * np.sqrt(u[1]), y
    return _map_uniforms(rng, 2, n, columns, 2)


# ---------------------------------------------------------------------------
# Floor radius of a convex polygon (gauge of the floor at a direction)

def floor_radius_batch(polygon, xy: np.ndarray) -> np.ndarray:
    """Gauge of each row of xy: the smallest a with xy/a inside the polygon,
    i.e. the max over edges of (n_e . xy) / b_e where the edge line is
    n_e . p = b_e and the origin is interior."""
    v = np.asarray(polygon, dtype=float)
    w = np.roll(v, -1, axis=0)
    e = w - v
    normals = np.column_stack([e[:, 1], -e[:, 0]])          # outward for ccw
    offsets = normals[:, 0] * v[:, 0] + normals[:, 1] * v[:, 1]
    if np.any(offsets <= 0):
        raise ValueError("polygon must contain the origin in its interior")
    # one elementwise pass per edge, folded in edge order, with no BLAS
    # call whose multiply-adds a build may fuse
    edges = list(zip(normals, offsets))
    out = np.empty(len(xy))
    for sl in _slices(len(xy)):
        x, y = xy[sl, 0], xy[sl, 1]
        out[sl] = functools.reduce(np.maximum, ((x * nx + y * ny) / b for
                                                (nx, ny), b in edges))
    return np.maximum(out, 0.0, out=out)
