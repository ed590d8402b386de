"""Recursive chord decomposition of a top function and numerical evaluation
of the convex-position recursion

    Q^G_n = sum_m C(n-1, m) int_0^1 G(t) Q^{NL_t}_m Q^{NR_t}_{n-1-m}
                                  |L(t)|^m |R(t)|^{n-1-m} dt.

The chord at abscissa t runs from (0,0) to (t, G(t)); L(t) is the part of
the subgraph above it, R(t) the part above the chord from (t, G(t)) to
(1, 0).  NL and NR are the images of these regions under the
vertical-line-preserving affine maps onto the unit-area standard position.

The triangle (and its mirror) and the quadratic top have closed forms, as
has n = 2.  Every other top is integrated over the knot panels of G, with
exact rational splits at the nodes, by one Gauss-Legendre rule of
n // 2 + 1 nodes: on each panel the integrand is a polynomial of degree
<= n (proved in q_decomp), so the rule is exact up to rounding.  A
one-segment top splits into a mirrored triangle and a triangle, so its
recursion stops one level down.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .sequences import p_closed, t_closed
from .topfunctions import (PiecewiseLinearTop, QuadraticTop, TopFunction,
                           q2_exact_subprism)

DEFAULT_BUDGET = 200_000
MAX_SEGMENTS = 64


@dataclass(frozen=True)
class NormalizedSplit:
    """Chord split of a top function at abscissa t."""
    t: Fraction
    left: PiecewiseLinearTop | None     # None iff the left mass vanishes
    left_mass: Fraction
    right: PiecewiseLinearTop | None
    right_mass: Fraction


@dataclass(frozen=True)
class QuadratureResult:
    value: float          # NaN when exhausted
    error: float          # 0: every panel rule is exact; NaN when exhausted
    evaluations: int      # integrand calls at every level of the recursion
    exhausted: bool
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


def split(G: PiecewiseLinearTop, t) -> NormalizedSplit:
    """Exact chord split of a piecewise-linear top at rational t in (0, 1)."""
    if not isinstance(G, PiecewiseLinearTop):
        raise TypeError("split needs a piecewise-linear top")
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
# Gauss-Legendre panel quadrature

@functools.cache
def _gauss_rule(k: int) -> tuple:
    """(node, weight) pairs of the k-node Gauss-Legendre rule on [-1, 1],
    exact to degree 2k - 1, by Newton's method on P_k from Tricomi's root
    estimates (importing numpy.polynomial costs a run about 1 MB)."""
    rule = []
    for i in range(k):
        x = math.cos(math.pi * (i + 0.75) / (k + 0.5))
        for _ in range(8):
            p0, p1 = 1.0, x                 # P_{j-1}(x), P_j(x)
            for j in range(2, k + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = k * (x * p1 - p0) / (x * x - 1)        # P_k'(x)
            x -= p1 / dp
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return tuple(rule)


class _Exhausted(Exception):
    """Raised by the integrand call that would pass the budget."""


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self):
        if self.used >= self.limit:
            raise _Exhausted
        self.used += 1


def q_decomp(G: TopFunction, n: int, tol: float = 1e-9,
             budget: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Q_n of a top function via the chord-decomposition recursion.

    The triangle and its mirror, the quadratic top, and n = 2 dispatch to
    closed forms.  Every other piecewise-linear top is integrated over the
    knot panels of G by the Gauss-Legendre rule of n // 2 + 1 nodes,
    recursing on the split parts at each node (exponential in n; intended
    for small n); a one-segment top takes just its n // 2 + 1 nodes, as
    its split parts are triangles.  Each integrand call, at any level,
    spends one unit of budget; the call that would pass it stops the run,
    and the result is flagged exhausted, with value NaN and evaluations
    <= budget.

    The rule is exact to degree 2 (n // 2) + 1 >= n, and on a panel the
    integrand is a polynomial of degree <= n, so the value is exact up to
    rounding.  On a panel G(t) = a + b t.  Let l be the line y = a + b x,
    E_t = (t, G(t)) and, for q in L(t), w(q) = a + b q_x - q_y; as G is
    concave, L(t) lies under l, so w >= 0.  Let W_k^j(t) be the integral
    over L(t)^k of 1[the k points are in convex position with the chord
    O E_t] w(q)^j, where q is the point next to E_t on the hull (q = O
    when k = 0).  Then |L|^k Q_k(NL_t) = W_k^0, W_0^j = a^j and on the
    panel

        dW_k^j/dt = k / ((j + 1)(j + 2)) W_{k-1}^{j+1}.

    Move E_t to E_{t+dt} along l.  (i) No configuration is lost: the chord
    drops, and E moves outward along l.  (ii) One is gained when a new
    point p enters the hull edge q E_t: p lies in the sliver (q, E_t,
    E_{t+dt}) at fraction mu along q -> E_t, with area element
    mu |det(E_t - q, (1, b))| dmu dt = mu w(q) dmu dt and weight
    w(p) = (1 - mu) w(q), as w(E_t) = 0; int_0^1 mu (1 - mu)^j dmu =
    1/((j + 1)(j + 2)), and any of the k points can be p.  (iii) Points in
    the sliver between the old and new chords add only O(dt^2) when
    k >= 2, since such a point lies in the triangle of O, E and any other
    point; at k = 1 they are case (ii) with q = O.  By induction on k,
    W_k^j has degree <= k.  So |L|^m Q_m(NL) has degree <= m, likewise
    |R|^{n-1-m} Q_{n-1-m}(NR) in 1 - t, and with G linear the integrand
    has degree <= n.  k = 1 gives d|L|/dt = a/2 = (G - t G')/2, and k = 2
    a constant second derivative a^2/6: at n = 3 the integrand is a cubic.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # tol is unused, as every rule is exact to rounding; it is still
    # accepted and checked because perfbench/workloads.py and acceptance
    # criterion 5 pass it
    if tol <= 0:
        raise ValueError("tol must be positive")
    t0 = time.perf_counter()
    b = _Budget(budget)
    try:
        val, err, exhausted = _q_decomp(G, n, b), 0.0, False
    except _Exhausted:
        val, err, exhausted = math.nan, math.nan, True
    return QuadratureResult(value=val, error=err, evaluations=b.used,
                            exhausted=exhausted,
                            wall_ms=1e3 * (time.perf_counter() - t0))


def _q_decomp(G: TopFunction, n: int, budget: _Budget) -> float:
    if n <= 1:
        return 1.0
    if isinstance(G, QuadraticTop):
        return float(p_closed(n))
    if len(G.knots) == 2 and 0 in (G.knots[0][1], G.knots[1][1]):
        return float(t_closed(n))           # the triangle or its mirror
    if n == 2:
        return float(q2_exact_subprism(G))
    if len(G.knots) > MAX_SEGMENTS:
        raise ValueError(f"quadrature at n >= 3 takes at most "
                         f"{MAX_SEGMENTS - 1} segments")

    def integrand(t: float) -> float:
        budget.spend()
        tq = Fraction(t)        # float -> exact dyadic rational
        sp = split(G, tq)
        total = 0.0
        for m in range(n):
            lterm = float(sp.left_mass) ** m
            rterm = float(sp.right_mass) ** (n - 1 - m)
            if lterm == 0.0 or rterm == 0.0:
                continue
            ql = _q_decomp(sp.left, m, budget)
            qr = _q_decomp(sp.right, n - 1 - m, budget)
            total += math.comb(n - 1, m) * ql * qr * lterm * rterm
        return float(G.value(tq)) * total

    rule = _gauss_rule(n // 2 + 1)
    knots = [float(x) for (x, _) in G.knots]
    value = 0.0
    for lo, hi in zip(knots, knots[1:]):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        value += half * sum(w * integrand(mid + half * x) for x, w in rule)
    return value
