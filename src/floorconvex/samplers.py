"""Rejection-free uniform samplers for the bodies and auxiliary densities.

All samplers are vectorized and draw from an explicitly seeded stream, so a
(seed, stream) pair fully determines the output.
"""

from __future__ import annotations

import math
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


# ---------------------------------------------------------------------------
# Convex polygon sampling (fan triangulation + square-root map)

def sample_polygon(polygon, rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points in a convex polygon, shape (n, 2)."""
    v = np.asarray(polygon, dtype=float)
    a = v[0]
    b, c = v[1:-1], v[2:]
    tri_area = 0.5 * np.abs((b[:, 0] - a[0]) * (c[:, 1] - a[1])
                            - (c[:, 0] - a[0]) * (b[:, 1] - a[1]))
    idx = rng.choice(len(tri_area), size=n, p=tri_area / tri_area.sum())
    r1 = np.sqrt(rng.random(n))[:, None]
    r2 = rng.random(n)[:, None]
    return (1 - r1) * a + r1 * ((1 - r2) * b[idx] + r2 * c[idx])


# ---------------------------------------------------------------------------
# Full-point samplers

def sample_body(body: BodyWithFloor, rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points in the body; shape (n, 2) in 2D, (n, 3) in 3D.

    A linear-layer body draws the height first, then a floor point that the
    layer at that height dilates by lam(t) and shifts by (t/H) a.
    """
    if isinstance(body, SubPrism2D):
        x = body.top.sample_x(rng.random(n))
        y = body.top.values(x) * rng.random(n)
        return np.column_stack([x, y])
    t = _heights(body, rng.random(n))
    xy = layer_dilation(body, t)[:, None] * _sample_floor(body, rng, n)
    if any(body.a):
        xy += (t / body.H)[:, None] * np.asarray(body.a)
    return np.column_stack([xy, t])


def _sample_floor(body: LinearLayerBody, rng: np.random.Generator,
                  n: int) -> np.ndarray:
    """n uniform floor points: shape (n, 1) on a segment, (n, 2) in a polygon."""
    if body.dimension == 2:
        (x0, _), (x1, _) = body.floor
        return (x0 + (x1 - x0) * rng.random(n))[:, None]
    return sample_polygon(body.floor, rng, n)


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
        x = body.top.sample_x(rng.random(n))
        return body.top.values(x) * rng.random(n)
    return _heights(body, rng.random(n))


# ---------------------------------------------------------------------------
# Auxiliary densities for the anchored-chain functionals

def sample_density_g1(rng: np.random.Generator, n: int) -> np.ndarray:
    """Density 2x on the unit square; shape (n, 2)."""
    return np.column_stack([np.sqrt(rng.random(n)), rng.random(n)])


def sample_density_g2(rng: np.random.Generator, n: int) -> np.ndarray:
    """Density 2x restricted to x <= 1 - y/3 on [0,1] x [0,3]; shape (n, 2).

    The y-marginal is (1 - y/3)^2 on [0, 3]; given y the x-coordinate has
    density proportional to x on [0, 1 - y/3].
    """
    y = 3.0 * (1.0 - (1.0 - rng.random(n)) ** (1.0 / 3.0))
    x = (1.0 - y / 3.0) * np.sqrt(rng.random(n))
    return np.column_stack([x, y])


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
    offsets = np.einsum("ij,ij->i", normals, v)
    if np.any(offsets <= 0):
        raise ValueError("polygon must contain the origin in its interior")
    vals = xy @ normals.T / offsets
    return np.maximum(vals.max(axis=1), 0.0)
