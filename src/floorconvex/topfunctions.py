"""Concave top functions on [0, 1] with unit integral.

A top function is the height profile of a 2D convex body sitting on the floor
segment [0, 1] x {0}.  Two concrete representations cover everything the
package needs: piecewise-linear profiles with exact rational knots, and the
canonical parabola 6x(1-x).  Constants and straight lines are one-segment
piecewise-linear profiles.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_SLOPE_MERGE_TOL = 1e-14


@dataclass(frozen=True)
class PiecewiseLinearTop:
    """Concave nonnegative piecewise-linear profile, exact rational knots.

    Construction rescales the heights so the integral is exactly 1.
    """
    knots: tuple          # ((x0, y0), ..., (xm, ym)), Fractions, x0=0, xm=1

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
        object.__setattr__(self, "knots", tuple(merged))
        area = self.integral()
        if area <= 0:
            raise ValueError("top function must have positive area")
        object.__setattr__(
            self, "knots", tuple((x, y / area) for (x, y) in merged))

    def value(self, x):
        """G(x), exactly; an x outside [0, 1] raises ValueError."""
        return self.values_exact([x])[0]

    def values_exact(self, xs) -> list:
        """G at each x of the ascending xs, exactly, from one sweep over the
        segments with one line each.  An x below the current segment or
        above 1 raises ValueError."""
        ks = self.knots
        out, i, line = [], 0, None
        for x in xs:
            if x < ks[i][0]:
                raise ValueError("xs must be ascending and inside [0, 1]")
            while x > ks[i + 1][0]:
                i, line = i + 1, None
                if i == len(ks) - 1:
                    raise ValueError("x outside [0, 1]")
            if line is None:
                (x0, y0), (x1, y1) = ks[i], ks[i + 1]
                slope = (y1 - y0) / (x1 - x0)
                line = slope, y0 - slope * x0
            out.append(line[0] * x + line[1])
        return out

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, *self._floats)

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

    def level_width(self, t):
        """Length of the level set {x : G(x) >= t}, for a height or an array
        of heights; 1 at t <= 0, 0 above the top."""
        ts = np.asarray(t, dtype=float)
        xs, ys = self._floats
        # the level set is [left, right]; on a concave top each height in
        # (0, max] crosses one rising and one falling segment, or an end
        left, right = np.zeros(ts.shape), np.ones(ts.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
                cross = x0 + (ts - y0) * (x1 - x0) / (y1 - y0)
                left = np.where((y0 < ts) & (ts <= y1), cross, left)
                right = np.where((y0 >= ts) & (ts > y1), cross, right)
        width = np.maximum(right - left, 0.0)
        out = np.where(ts <= 0, 1.0, np.where(ts > ys.max(), 0.0, width))
        return out if out.ndim else float(out)

    def area_above(self, t):
        """Integral of max(G - t, 0), for a height or an array of heights."""
        ts = np.asarray(t, dtype=float)
        xs, ys = self._floats
        total = np.zeros(ts.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
                a0, a1 = y0 - ts, y1 - ts
                xc = x0 + (0 - a0) * (x1 - x0) / (a1 - a0)
                part = np.where(a0 > 0, (xc - x0) * a0 / 2, (x1 - xc) * a1 / 2)
                part = np.where((a0 >= 0) & (a1 >= 0),
                                (x1 - x0) * (a0 + a1) / 2, part)
                total += np.where((a0 <= 0) & (a1 <= 0), 0.0, part)
        return total if total.ndim else float(total)

    # built once per top, and not fields, so == and repr see only the knots
    @functools.cached_property
    def _floats(self):
        return (np.array([float(x) for x, _ in self.knots]),
                np.array([float(y) for _, y in self.knots]))

    @functools.cached_property
    def _segments(self):
        xs, ys = self._floats
        dx = np.diff(xs)
        cum = np.concatenate([[0.0], np.cumsum(dx * (ys[:-1] + ys[1:]) / 2)])
        cum[-1] = 1.0
        slope = np.diff(ys) / dx
        flat = np.abs(slope) < 1e-13
        # per segment: x0, y0, the slope (1 where flat, so that the unused
        # root stays finite) and the divisor of the flat formula
        seg = np.array([xs[:-1], ys[:-1], np.where(flat, 1.0, slope),
                        np.where(ys[:-1] > 0, ys[:-1], 1.0)])
        return cum, flat, seg

    def sample_x(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF for the density G, vectorized and closed-form: a draw
        in a flat segment is r / y0, one in a sloped segment the root d of
        y0 d + slope d^2 / 2 = r.  A one-segment top takes no search and
        runs only its own formula; a top with both kinds of segment runs
        both on every draw and picks, which is cheaper than splitting."""
        cum, flat, seg = self._segments
        if len(flat) == 1:
            x0, y0, s, div = seg[:, 0]
            d = u / div if flat[0] else _sloped_root(u, y0, s)
            return np.clip(x0 + d, 0.0, 1.0)
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(flat) - 1)
        r = u - cum[idx]
        x0, y0, s, div = seg.take(idx, axis=1)
        d = _sloped_root(r, y0, s)
        if flat.any():
            d = np.where(flat[idx], r / div, d)
        return np.clip(x0 + d, 0.0, 1.0)


def _sloped_root(r, y0, slope):
    """The root d of y0 d + slope d^2 / 2 = r that lies in the segment."""
    return (np.sqrt(np.maximum(y0 * y0 + 2.0 * slope * r, 0.0)) - y0) / slope


@dataclass(frozen=True)
class QuadraticTop:
    """The parabola profile 6x(1-x); already has unit integral."""

    def values(self, x: np.ndarray) -> np.ndarray:
        return 6.0 * x * (1.0 - x)

    def integral_sq(self) -> Fraction:
        return Fraction(6, 5)

    def max_height(self) -> float:
        return 1.5

    def level_width(self, t):
        out = np.sqrt(np.maximum(1.0 - 2.0 * np.asarray(t, float) / 3.0, 0.0))
        return out if out.ndim else float(out)

    def area_above(self, t):
        out = np.maximum(1.0 - 2.0 * np.asarray(t, float) / 3.0, 0.0) ** 1.5
        return out if out.ndim else float(out)

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

    def values(self, xs) -> list:
        """Sum of lam * 2 min(x/s, (1-x)/(1-s)), the unit tent with apex
        (s, 2), at each x of xs, exactly.  A tent takes the x side at x <= s
        and the (1-x) side at x >= s; the one at s = 0 always counts on the
        (1-x) side, the one at s = 1 on the x side.  With the components
        sorted by s, the sum at x is x times the suffix sum of 2 lam/s over
        the x side plus (1-x) times the prefix sum of 2 lam/(1-s) below it."""
        comps = sorted(self.components)
        apexes = [s for s, _ in comps]
        zeros = bisect_right(apexes, 0)
        suffix = [Fraction(0)]          # reversed: from the last component
        for s, lam in reversed(comps[zeros:]):
            suffix.append(suffix[-1] + 2 * lam / s)
        prefix = [Fraction(0)]
        for s, lam in comps:
            if s == 1:
                break
            prefix.append(prefix[-1] + 2 * lam / (1 - s))
        out = []
        for x in xs:
            i = max(bisect_left(apexes, x), zeros)
            out.append(x * suffix[len(comps) - i] + (1 - x) * prefix[i])
        return out

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
