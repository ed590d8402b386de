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
top is self-similar and has a closed form.  Everything else is integrated
over the knot panels of G, with exact rational splits at the nodes: by a
2-node Gauss-Legendre rule at n = 3, where the integrand is a polynomial of
degree <= 3 on each panel, and by adaptive Gauss-Kronrod 7/15 for n >= 4.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .sequences import p_closed, t_closed
from .topfunctions import (PiecewiseLinearTop, QuadraticTop, TopFunction,
                           q2_exact_subprism)

DEFAULT_BUDGET = 200_000
MAX_SEGMENTS = 64

# Gauss-Kronrod 7/15 on [-1, 1]: QUADPACK qk15's table rounded to doubles.
# Kronrod abscissae x_0 > ... > x_7 = 0 with weights _WK; the 7-point Gauss
# rule uses the odd-indexed abscissae x_1, x_3, x_5, x_7 with weights _WG7.
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
       0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
       0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
       0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
       0.20443294007529889, 0.20948214108472782)
_WG7 = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
        0.4179591836734694)
# both rules on all 15 nodes, ascending; the Gauss weight is 0 off its nodes
_X15 = tuple(-x for x in _XK) + _XK[-2::-1]
_WK15 = _WK + _WK[-2::-1]
_WG15 = tuple(_WG7[min(i, 14 - i) // 2] if i % 2 else 0.0 for i in range(15))

# 2-node Gauss-Legendre on [-1, 1], exact for degree <= 3
_X2 = (-math.sqrt(1 / 3), math.sqrt(1 / 3))


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
    evaluations: int      # integrand calls at every level of the recursion
    exhausted: bool
    max_depth: int        # deepest bisection reached in any adaptive panel
    wall_ms: float


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


# ---------------------------------------------------------------------------
# Adaptive quadrature engine

class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.exhausted = False
        self.max_depth = 0

    def spend(self, k: int) -> bool:
        self.used += k
        if self.used > self.limit:
            self.exhausted = True
        return not self.exhausted


def q_decomp(G: TopFunction, n: int, tol: float = 1e-9,
             budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Q_n of a top function via the chord-decomposition recursion.

    Linear and quadratic tops, and n = 2, dispatch to exact values.  Other
    piecewise-linear tops are integrated over the knot panels of G,
    recursing on the split parts (exponential in n; intended for small n).
    Past budget integrand evaluations no panel bisects, and the result is
    flagged exhausted.

    At n = 3 the integrand has degree <= 3 on a panel, so 2 Gauss nodes
    (exact to degree 3) give it exactly up to rounding.  On a panel G(t) =
    a + b t is linear, and so are |L| and |R|: d|L|/dt = (G(t) - t G'(t))/2
    = a/2 is constant.  Q_1 = 1, and |L|^2 Q_2(NL) = |L|^2 - P(t)/(2t), where
    P(t) = int_0^t (t G(s) - s G(t))^2 ds.  With r(s) = G(s) - a - b s, which
    vanishes on the panel, t G(s) - s G(t) = a (t - s) + t r(s), so
    P(t) = a^2 t^3/3 + 2 a t int_0^t (t - s) r(s) ds + t^2 int_0^t r(s)^2 ds.
    As r vanishes on the panel, both integrals can stop at its left end, so
    P is a cubic divisible by t, and P(t)/(2t) is quadratic (likewise
    |R|^2 Q_2(NR) in 1 - t).  The bracket is then quadratic and G times it
    cubic.  For n >= 4 the panels are adaptive Gauss-Kronrod 7/15.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    t0 = time.perf_counter()
    b = _Budget(budget)
    val, err = _q_decomp(G, n, tol, b)
    return QuadratureResult(value=val, error=err, evaluations=b.used,
                            exhausted=b.exhausted, max_depth=b.max_depth,
                            wall_ms=1e3 * (time.perf_counter() - t0))


def _q_decomp(G: TopFunction, n: int, tol: float, budget: _Budget):
    if n <= 1:
        return 1.0, 0.0
    if isinstance(G, QuadraticTop):
        return float(p_closed(n)), 0.0
    if len(G.knots) == 2:                   # one segment on [0, 1]
        (_, y0), (_, y1) = G.knots
        return float(q_exact_linear(y1 - y0, y0, n)), 0.0
    if n == 2:
        return float(q2_exact_subprism(G)), 0.0
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

    panel = _gauss2_panel if n == 3 else _adaptive_panel
    knots = [float(x) for (x, _) in G.knots]
    value = 0.0
    err = 0.0
    for lo, hi in zip(knots, knots[1:]):
        v, e = panel(integrand, lo, hi, tol * (hi - lo), budget)
        value += v
        err += e
    return value, err


def _gauss2_panel(f, lo: float, hi: float, tol: float, budget: _Budget):
    """2-node Gauss-Legendre on [lo, hi]; exact for the n = 3 integrand."""
    budget.spend(2)
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return half * sum(f(mid + half * x) for x in _X2), 0.0


def _adaptive_panel(f, lo: float, hi: float, tol: float, budget: _Budget,
                    depth: int = 0):
    """K15 on [lo, hi] with |K15 - G7| as its error, bisected with tol/2
    until the error is <= tol."""
    budget.max_depth = max(budget.max_depth, depth)
    within = budget.spend(15)
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    ys = [f(mid + half * x) for x in _X15]
    value = half * sum(w * y for w, y in zip(_WK15, ys))
    err = abs(value - half * sum(w * y for w, y in zip(_WG15, ys)))
    if not within:
        return value, tol
    if err <= tol or depth >= 30:
        return value, err
    l, el = _adaptive_panel(f, lo, mid, tol / 2, budget, depth + 1)
    r, er = _adaptive_panel(f, mid, hi, tol / 2, budget, depth + 1)
    return l + r, el + er
