"""Concave top functions on [0, 1] with unit integral.

A top function is the height profile of a 2D convex body sitting on the floor
segment [0, 1] x {0}.  Two concrete representations cover everything the
package needs: piecewise-linear profiles with exact rational knots, and the
canonical parabola 6x(1-x).  Constants and straight lines are one-segment
piecewise-linear profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_SLOPE_MERGE_TOL = 1e-14


@dataclass(frozen=True)
class PiecewiseLinearTop:
    """Concave nonnegative piecewise-linear profile, exact rational knots.

    Construction rescales the heights so the integral is exactly 1; the
    applied vertical scale is recorded.
    """
    knots: tuple          # ((x0, y0), ..., (xm, ym)), Fractions, x0=0, xm=1
    scale: Fraction = Fraction(1)

    kind = "pwl"

    def __post_init__(self):
        ks = tuple((Fraction(x), Fraction(y)) for (x, y) in self.knots)
        if len(ks) < 2 or ks[0][0] != 0 or ks[-1][0] != 1:
            raise ValueError("knots must span [0, 1]")
        if any(ks[i + 1][0] <= ks[i][0] for i in range(len(ks) - 1)):
            raise ValueError("knot abscissae must be strictly increasing")
        if any(y < 0 for (_, y) in ks):
            raise ValueError("top function must be nonnegative")
        slopes = [(ks[i + 1][1] - ks[i][1]) / (ks[i + 1][0] - ks[i][0])
                  for i in range(len(ks) - 1)]
        for i in range(len(slopes) - 1):
            if slopes[i + 1] - slopes[i] > Fraction(1, 10 ** 12):
                raise ValueError("knot data is not concave")
        # merge knots with negligible slope change
        merged = [ks[0]]
        for i in range(1, len(ks) - 1):
            dl = (ks[i][1] - merged[-1][1]) / (ks[i][0] - merged[-1][0])
            dr = (ks[i + 1][1] - ks[i][1]) / (ks[i + 1][0] - ks[i][0])
            if abs(float(dl - dr)) >= _SLOPE_MERGE_TOL:
                merged.append(ks[i])
        merged.append(ks[-1])
        area = sum((x1 - x0) * (y0 + y1) / 2
                   for (x0, y0), (x1, y1) in zip(merged, merged[1:]))
        if area <= 0:
            raise ValueError("top function must have positive area")
        object.__setattr__(self, "scale", 1 / area)
        object.__setattr__(
            self, "knots", tuple((x, y / area) for (x, y) in merged))

    def value(self, x):
        ks = self.knots
        if not 0 <= x <= 1:
            raise ValueError("x outside [0, 1]")
        for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return ks[-1][1]

    def values(self, x: np.ndarray) -> np.ndarray:
        xs = np.array([float(k[0]) for k in self.knots])
        ys = np.array([float(k[1]) for k in self.knots])
        return np.interp(x, xs, ys)

    def integral(self) -> Fraction:
        ks = self.knots
        return sum((x1 - x0) * (y0 + y1) / 2
                   for (x0, y0), (x1, y1) in zip(ks, ks[1:]))

    def integral_sq(self) -> Fraction:
        ks = self.knots
        return sum((x1 - x0) * (y0 * y0 + y0 * y1 + y1 * y1) / 3
                   for (x0, y0), (x1, y1) in zip(ks, ks[1:]))

    def max_height(self) -> float:
        return float(max(y for (_, y) in self.knots))

    def level_width(self, t: float) -> float:
        """Length of the level set {x : G(x) >= t}."""
        ks = [(float(x), float(y)) for (x, y) in self.knots]
        if t <= 0:
            return 1.0
        if t > max(y for _, y in ks):
            return 0.0
        left = 0.0 if ks[0][1] >= t else None
        right = 1.0 if ks[-1][1] >= t else None
        for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
            if left is None and y0 < t <= y1:
                left = x0 + (t - y0) * (x1 - x0) / (y1 - y0)
            if y0 >= t > y1:
                right = x0 + (t - y0) * (x1 - x0) / (y1 - y0)
        if left is None or right is None:
            return 0.0
        return max(right - left, 0.0)

    def area_above(self, t: float) -> float:
        """Integral of max(G - t, 0)."""
        ks = [(float(x), float(y)) for (x, y) in self.knots]
        total = 0.0
        for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
            a0, a1 = y0 - t, y1 - t
            if a0 <= 0 and a1 <= 0:
                continue
            if a0 >= 0 and a1 >= 0:
                total += (x1 - x0) * (a0 + a1) / 2
            else:
                xc = x0 + (0 - a0) * (x1 - x0) / (a1 - a0)
                if a0 > 0:
                    total += (xc - x0) * a0 / 2
                else:
                    total += (x1 - xc) * a1 / 2
        return total

    def sample_x(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF for the density G, vectorized and closed-form."""
        xs = np.array([float(k[0]) for k in self.knots])
        ys = np.array([float(k[1]) for k in self.knots])
        seg_mass = np.diff(xs) * (ys[:-1] + ys[1:]) / 2
        cum = np.concatenate([[0.0], np.cumsum(seg_mass)])
        cum[-1] = 1.0
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(xs) - 2)
        r = u - cum[idx]
        x0, dx = xs[idx], xs[idx + 1] - xs[idx]
        y0, y1 = ys[idx], ys[idx + 1]
        slope = (y1 - y0) / dx
        disc = np.maximum(y0 * y0 + 2.0 * slope * r, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            lin = r / np.where(y0 > 0, y0, 1.0)
            quad = (np.sqrt(disc) - y0) / np.where(slope != 0, slope, 1.0)
        d = np.where(np.abs(slope) < 1e-13, lin, quad)
        return np.clip(x0 + d, 0.0, 1.0)


@dataclass(frozen=True)
class QuadraticTop:
    """The parabola profile 6x(1-x); already has unit integral."""

    kind = "quadratic"
    scale = Fraction(1)

    def value(self, x):
        return 6 * x * (1 - x)

    def values(self, x: np.ndarray) -> np.ndarray:
        return 6.0 * x * (1.0 - x)

    def integral(self) -> Fraction:
        return Fraction(1)

    def integral_sq(self) -> Fraction:
        return Fraction(6, 5)

    def max_height(self) -> float:
        return 1.5

    def level_width(self, t: float) -> float:
        return math.sqrt(max(1.0 - 2.0 * t / 3.0, 0.0))

    def area_above(self, t: float) -> float:
        return max(1.0 - 2.0 * t / 3.0, 0.0) ** 1.5

    def sample_x(self, u: np.ndarray) -> np.ndarray:
        # closed-form inverse of the CDF 3x^2 - 2x^3
        return 0.5 - np.sin(np.arcsin(np.clip(1.0 - 2.0 * u, -1.0, 1.0)) / 3.0)


TopFunction = PiecewiseLinearTop | QuadraticTop


def constant_top() -> PiecewiseLinearTop:
    return PiecewiseLinearTop(((0, 1), (1, 1)))


def triangle_top() -> PiecewiseLinearTop:
    return PiecewiseLinearTop(((0, 0), (1, 2)))


def mountain_top(s) -> PiecewiseLinearTop:
    """Unit 2D mountain: tent with apex (s, 2)."""
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise ValueError("apex abscissa must be in [0, 1]")
    if s == 0:
        return PiecewiseLinearTop(((0, 2), (1, 0)))
    if s == 1:
        return PiecewiseLinearTop(((0, 0), (1, 2)))
    return PiecewiseLinearTop(((0, 0), (s, 2), (1, 0)))


def q2_exact_subprism(top: TopFunction) -> Fraction:
    """Two-point convex-position probability of a 2D sub-prism: 1 - (1/2) int G^2."""
    return 1 - Fraction(top.integral_sq()) / 2


# ---------------------------------------------------------------------------
# Mountain mixture decomposition of a piecewise-linear profile

@dataclass(frozen=True)
class MountainMixture:
    """Weights of unit 2D mountains reconstructing a concave pwl profile."""
    components: tuple  # ((s_i, lambda_i), ...) as Fractions

    def value(self, x):
        total = 0
        for s, lam in self.components:
            total += lam * mountain_top(s).value(x)
        return total

    def total_weight(self) -> Fraction:
        return sum(lam for _, lam in self.components)


def mountain_decompose(top: PiecewiseLinearTop) -> MountainMixture:
    """Write a concave pwl unit-integral profile as a convex combination of
    unit mountains; the weight at an interior apex s is the slope drop times
    s(1-s)/2, the boundary weights are G(0)/2 and G(1)/2."""
    if not isinstance(top, PiecewiseLinearTop):
        raise TypeError("mountain decomposition needs a piecewise-linear top")
    ks = top.knots
    comps = []
    if ks[0][1] > 0:
        comps.append((Fraction(0), ks[0][1] / 2))
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(ks, ks[1:])]
    for i in range(1, len(ks) - 1):
        s = ks[i][0]
        drop = slopes[i - 1] - slopes[i]
        if drop > 0:
            comps.append((s, drop * s * (1 - s) / 2))
    if ks[-1][1] > 0:
        comps.append((Fraction(1), ks[-1][1] / 2))
    return MountainMixture(tuple(comps))


# ---------------------------------------------------------------------------
# Random concave profile generator (harness use)

def random_concave_top(rng: np.random.Generator, max_segments: int = 8) -> PiecewiseLinearTop:
    """Sample slopes decreasingly sorted, integrate, shift to nonnegativity,
    normalize.  Spans piecewise-linear concave unit-integral profiles."""
    k = int(rng.integers(1, max_segments + 1))
    xs = np.sort(rng.random(k - 1)) if k > 1 else np.array([])
    xs = np.concatenate([[0.0], xs, [1.0]])
    slopes = np.sort(rng.normal(0.0, 2.0, k))[::-1]
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    ys -= min(ys[0], ys[-1])
    # exact rational knots from the float values
    knots = tuple((Fraction(float(x)), Fraction(float(y))) for x, y in zip(xs, ys))
    return PiecewiseLinearTop(knots)
