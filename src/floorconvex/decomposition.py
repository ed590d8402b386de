"""Recursive chord decomposition of a top function and numerical evaluation
of the convex-position recursion

    Q^G_n = sum_m C(n-1, m) int_0^1 G(t) Q^{NL_t}_m Q^{NR_t}_{n-1-m}
                                  |L(t)|^m |R(t)|^{n-1-m} dt.

The chord at abscissa t runs from (0,0) to (t, G(t)); L(t) is the part of
the subgraph above it, R(t) the part above the chord from (t, G(t)) to
(1, 0).  NL and NR are the images of these regions under the
vertical-line-preserving affine maps onto the unit-area standard position.

Single-segment (linear) tops split into a mirrored triangle and a triangle,
which closes the family and gives an exact rational recursion; the quadratic
top is self-similar and has a closed form.  Everything else is evaluated by
adaptive Gauss-Legendre quadrature with exact rational splits at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .sequences import p_closed, t_closed
from .topfunctions import PiecewiseLinearTop, QuadraticTop, TopFunction

DEFAULT_BUDGET = 200_000
MAX_SEGMENTS = 64

# 15-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class NormalizedSplit:
    """Chord split of a top function at abscissa t."""
    t: Fraction
    left: TopFunction | None     # None iff the left mass vanishes
    left_mass: Fraction
    right: TopFunction | None
    right_mass: Fraction


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float          # accumulated error-bound estimate
    evaluations: int
    exhausted: bool = False


def _chord_masses(G: PiecewiseLinearTop, t: Fraction):
    """|L(t)| = int_0^t G - t G(t)/2 and |R(t)| = int_t^1 G - (1-t) G(t)/2."""
    gt = G.value(t)
    below = Fraction(0)
    ks = G.knots
    for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
        if x1 <= t:
            below += (x1 - x0) * (y0 + y1) / 2
        elif x0 < t:
            below += (t - x0) * (y0 + gt) / 2
    left = below - t * gt / 2
    right = (1 - below) - (1 - t) * gt / 2
    return gt, left, right


def split(G: TopFunction, t) -> NormalizedSplit:
    """Exact chord split of a piecewise-linear top at rational t in (0, 1)."""
    if isinstance(G, QuadraticTop):
        t = Fraction(t)
        # self-similar family: both normalized parts are the parabola again
        return NormalizedSplit(t=t, left=QuadraticTop(), left_mass=t ** 3,
                               right=QuadraticTop(), right_mass=(1 - t) ** 3)
    if not isinstance(G, PiecewiseLinearTop):
        raise TypeError("split needs a piecewise-linear or quadratic top")
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError("split abscissa must lie in (0, 1)")
    gt, lmass, rmass = _chord_masses(G, t)
    if gt <= 0:
        raise ValueError("split needs G(t) > 0")

    # NL(x') = (t/|L|) (G(t x') - x' G(t)) at x' in {0, knots/t, 1}
    left = None
    if lmass > 0:
        xs = [Fraction(0)] + [x / t for (x, _) in G.knots if 0 < x < t] + [Fraction(1)]
        left = PiecewiseLinearTop(tuple((x, G.value(x * t) - x * gt)
                                        for x in xs))
    # NR(x') = ((1-t)/|R|) (G(t + (1-t) x') - (1 - x') G(t))
    right = None
    if rmass > 0:
        xs = [Fraction(0)] + [(x - t) / (1 - t) for (x, _) in G.knots if t < x < 1] \
            + [Fraction(1)]
        right = PiecewiseLinearTop(tuple(
            (x, G.value(t + (1 - t) * x) - (1 - x) * gt) for x in xs))
    return NormalizedSplit(t=t, left=left, left_mass=lmass,
                           right=right, right_mass=rmass)


# ---------------------------------------------------------------------------
# Exact rational recursion for the linear family

def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_pow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def _poly_integral01(p) -> Fraction:
    return sum(c / (i + 1) for i, c in enumerate(p))


def q_exact_linear(a: Fraction, b: Fraction, n: int) -> Fraction:
    """Q_n of the unit-integral linear top a x + b, exact.

    The chord split of a linear top gives NL = mirrored triangle with mass
    b t / 2 and NR = triangle with mass 1 - G(t)/2 - b t / 2, so the
    recursion closes over triangle values and the integrand is polynomial.
    """
    a, b = Fraction(a), Fraction(b)
    if a / 2 + b != 1 or b < 0 or a + b < 0:
        raise ValueError("needs a nonnegative unit-integral linear top")
    if n <= 1:
        return Fraction(1)
    g = [b, a]                          # G(t)
    lm = [Fraction(0), b / 2]           # |L(t)|
    rm = [1 - b / 2, -a / 2 - b / 2]    # |R(t)|
    total = Fraction(0)
    for m in range(n):
        integrand = _poly_mul(g, _poly_mul(_poly_pow(lm, m),
                                           _poly_pow(rm, n - 1 - m)))
        total += (math.comb(n - 1, m) * t_closed(m) * t_closed(n - 1 - m)
                  * _poly_integral01(integrand))
    return total


def _linear_coeffs(G: PiecewiseLinearTop):
    """(a, b) if G is a single segment, else None."""
    if len(G.knots) == 2:
        (x0, y0), (x1, y1) = G.knots
        return (y1 - y0) / (x1 - x0), y0
    return None


# ---------------------------------------------------------------------------
# Adaptive quadrature engine

class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.exhausted = False

    def spend(self, k: int) -> bool:
        self.used += k
        if self.used > self.limit:
            self.exhausted = True
        return not self.exhausted


def q_decomp(G: TopFunction, n: int, tol: float = 1e-9,
             budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Q_n of a top function via the chord-decomposition recursion.

    Linear and quadratic tops dispatch to exact values; other
    piecewise-linear tops are integrated panel-adaptively, recursing on the
    split parts (exponential in n; intended for small n).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = _Budget(budget)
    val, err = _q_decomp(G, n, tol, b)
    return QuadratureResult(value=val, error=err, evaluations=b.used,
                            exhausted=b.exhausted)


def _q_decomp(G: TopFunction, n: int, tol: float, budget: _Budget):
    if n <= 1:
        return 1.0, 0.0
    if isinstance(G, QuadraticTop):
        return float(p_closed(n)), 0.0
    lin = _linear_coeffs(G)
    if lin is not None:
        return float(q_exact_linear(lin[0], lin[1], n)), 0.0
    if n == 2:
        # Q_2 = 1 - (1/2) int G^2, exact for any top
        return float(1 - G.integral_sq() / 2), 0.0
    if len(G.knots) > MAX_SEGMENTS:
        budget.exhausted = True
        return 1.0, 1.0

    def integrand(t: float) -> float:
        tq = Fraction(t)        # float -> exact dyadic rational
        sp = split(G, tq)
        total = 0.0
        inner_tol = tol / 4
        for m in range(n):
            lterm = float(sp.left_mass) ** m
            if lterm == 0.0:
                continue
            rterm = float(sp.right_mass) ** (n - 1 - m)
            if rterm == 0.0:
                continue
            ql, _ = _q_decomp(sp.left, m, inner_tol, budget)
            qr, _ = _q_decomp(sp.right, n - 1 - m, inner_tol, budget)
            total += math.comb(n - 1, m) * ql * qr * lterm * rterm
        return float(G.value(tq)) * total

    knots = [float(x) for (x, _) in G.knots]
    value = 0.0
    err = 0.0
    for lo, hi in zip(knots, knots[1:]):
        v, e = _adaptive_panel(integrand, lo, hi, tol * (hi - lo), budget)
        value += v
        err += e
    return value, err


def _gl15(f, lo: float, hi: float) -> float:
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return half * sum(w * f(mid + half * x) for x, w in zip(_GL_X, _GL_W))


def _adaptive_panel(f, lo: float, hi: float, tol: float, budget: _Budget,
                    depth: int = 0):
    if not budget.spend(45):
        return _gl15(f, lo, hi), tol
    whole = _gl15(f, lo, hi)
    mid = (lo + hi) / 2
    halves = _gl15(f, lo, mid) + _gl15(f, mid, hi)
    diff = abs(whole - halves)
    if diff <= tol or depth >= 30:
        return halves, diff
    l, el = _adaptive_panel(f, lo, mid, tol / 2, budget, depth + 1)
    r, er = _adaptive_panel(f, mid, hi, tol / 2, budget, depth + 1)
    return l + r, el + er
