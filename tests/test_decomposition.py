"""Chord decomposition and the exact chord sweep."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorconvex import decomposition
from floorconvex import sequences as sq
from floorconvex.decomposition import (NormalizedSplit, q_decomp, q_exact,
                                       split)
from floorconvex.topfunctions import (PiecewiseLinearTop, QuadraticTop,
                                      constant_top, mountain_top,
                                      q2_exact_subprism, random_concave_top,
                                      triangle_top)

F = Fraction


# ---------------------------------------------------------------------------
# split

def test_split_square():
    sp = split(constant_top(), F(1, 3))
    assert sp.left_mass == F(1, 6) and sp.right_mass == F(1, 3)
    assert sp.left.knots == ((0, 2), (1, 0))
    assert sp.right.knots == ((0, 0), (1, 2))


def test_split_triangle_degenerates_left():
    sp = split(triangle_top(), F(2, 5))
    assert sp.left is None and sp.left_mass == 0
    assert sp.right_mass == F(3, 5)
    assert sp.right.knots == ((0, 0), (1, 2))


def test_split_rejects_bad_abscissa():
    with pytest.raises(ValueError):
        split(constant_top(), F(0))
    with pytest.raises(ValueError):
        split(constant_top(), F(1))
    with pytest.raises(TypeError):
        split("not a top", F(1, 2))
    with pytest.raises(TypeError):
        split(QuadraticTop(), F(1, 2))     # q_decomp has its closed form


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=63))
@settings(max_examples=100, deadline=None)
def test_split_mass_identity_and_validity(seed, k):
    rng = np.random.default_rng(seed)
    G = random_concave_top(rng)
    t = F(k, 64)
    gt = F(G.value(t))
    if gt <= 0:
        return
    sp = split(G, t)
    assert sp.left_mass + sp.right_mass + gt / 2 == 1
    for side, mass in ((sp.left, sp.left_mass), (sp.right, sp.right_mass)):
        if mass > 0:
            assert side is not None
            assert side.integral() == 1      # unit integral, exact
        else:
            assert side is None


def _panel_points(G, k):
    """k rational abscissae strictly inside each knot panel of G."""
    ks = G.knots
    return [[x0 + (x1 - x0) * F(j, k + 1) for j in range(1, k + 1)]
            for (x0, _), (x1, _) in zip(ks, ks[1:])]


def _divided_difference(ts, ys):
    for level in range(1, len(ts)):
        ys = [(ys[i + 1] - ys[i]) / (ts[i + level] - ts[i])
              for i in range(len(ys) - 1)]
    return ys[0]


def test_chord_masses_are_affine_on_each_panel():
    # d|L|/dt = (G(t) - t G'(t))/2, half the intercept of the panel's line
    rng = np.random.default_rng(2024)
    for _ in range(20):
        G = random_concave_top(rng)
        for ts in _panel_points(G, 3):
            masses = [decomposition._chord_masses(G, t) for t in ts]
            for side in (1, 2):
                assert _divided_difference(ts, [m[side] for m in masses]) == 0
            (g0, l0, _), (g1, l1, _) = masses[0], masses[1]
            slope = (g1 - g0) / (ts[1] - ts[0])
            assert (l1 - l0) / (ts[1] - ts[0]) == (g0 - ts[0] * slope) / 2


def test_n3_integrand_is_a_cubic_on_each_panel():
    # the degree bound of q_decomp, checked exactly: on each panel the
    # integrand's divided difference of order n + 1 is 0, and that of
    # order n is nonzero on some panel, so the bound is attained
    # (n = 5 skips random_concave_top's tops: their float knots make the
    # exact integrand slow)
    rng = np.random.default_rng(3)
    floats = [random_concave_top(rng, 4) for _ in range(3)]
    small = [TRAPEZOID] + [_rational_top(rng, 3) for _ in range(2)]
    for n in (3, 4, 5):
        for G in small + (floats if n < 5 else []):
            top_order = []
            for ts in _panel_points(G, n + 2):
                ys = [_exact_integrand(G, n, t) for t in ts]
                assert _divided_difference(ts, ys) == 0, (n, G)
                top_order.append(_divided_difference(ts[1:], ys[1:]))
            assert any(top_order), (n, G)


# ---------------------------------------------------------------------------
# exact oracle: the recursion in Fractions, each panel integrated by the
# interpolatory rule on n + 1 rational midpoints, exact to degree n

def _rational_top(rng, k):
    """A random concave top of k segments with knots at multiples of 1/12
    and integer slopes; small denominators keep the oracle fast."""
    xs = ([F(0)] + [F(int(x), 12) for x in
                    np.sort(rng.choice(np.arange(1, 12), k - 1, replace=False))]
          + [F(1)])
    ys = [F(0)]
    for s, x0, x1 in zip(sorted(rng.integers(-6, 7, k).tolist(), reverse=True),
                         xs, xs[1:]):
        ys.append(ys[-1] + s * (x1 - x0))
    low = min(ys[0], ys[-1])
    return PiecewiseLinearTop(tuple((x, y - low) for x, y in zip(xs, ys)))


def _poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@functools.cache
def _midpoint_rule(k):
    """Nodes (2j + 1)/(2k) on [0, 1] with their interpolatory weights."""
    s = [F(2 * j + 1, 2 * k) for j in range(k)]
    rule = []
    for j in range(k):
        basis = [F(1)]
        for i in range(k):
            if i != j:
                d = s[j] - s[i]
                basis = _poly_mul(basis, [-s[i] / d, 1 / d])
        rule.append((s[j], sum(c / (i + 1) for i, c in enumerate(basis))))
    return rule


def _exact_integrand(G, n, t):
    """G(t) sum_m C(n-1, m) |L|^m Q_m(NL) |R|^{n-1-m} Q_{n-1-m}(NR)."""
    sp = split(G, t)
    total = F(0)
    for m in range(n):
        lm, rm = sp.left_mass ** m, sp.right_mass ** (n - 1 - m)
        if lm and rm:
            total += (math.comb(n - 1, m) * lm * rm * _q_oracle(sp.left, m)
                      * _q_oracle(sp.right, n - 1 - m))
    return G.value(t) * total


@functools.cache
def _q_oracle(G, n):
    """Q_n of a piecewise-linear top, exact."""
    if n <= 1:
        return F(1)
    if len(G.knots) == 2 and 0 in (G.knots[0][1], G.knots[1][1]):
        return sq.t_closed(n)               # the triangle or its mirror
    if n == 2:
        return q2_exact_subprism(G)
    return sum((x1 - x0) * w * _exact_integrand(G, n, x0 + (x1 - x0) * s)
               for (x0, _), (x1, _) in zip(G.knots, G.knots[1:])
               for s, w in _midpoint_rule(n + 1))


# ---------------------------------------------------------------------------
# one-segment tops

MIRRORED_TRIANGLE = PiecewiseLinearTop(((0, 2), (1, 0)))
STRICT_TRAPEZOID = PiecewiseLinearTop(((0, F(1, 2)), (1, F(3, 2))))


def test_exact_oracle_on_one_segment_tops():
    for n in range(8):
        assert _q_oracle(constant_top(), n) == sq.q_closed(n)
    # a strict trapezoid sits strictly between triangle and square values
    for n in (2, 3, 4, 5):
        assert sq.t_closed(n) < _q_oracle(STRICT_TRAPEZOID, n) < sq.q_closed(n)


@pytest.mark.parametrize("n", range(16))
def test_q_decomp_on_one_segment_tops(n):
    for G, exact in [(constant_top(), sq.q_closed(n)),
                     (triangle_top(), sq.t_closed(n)),
                     (MIRRORED_TRIANGLE, sq.t_closed(n)),
                     (STRICT_TRAPEZOID, _q_oracle(STRICT_TRAPEZOID, n))]:
        r = q_decomp(G, n)
        assert abs(r.value - float(exact)) <= 1e-15 * float(exact), (G, n)


@pytest.mark.parametrize("n", range(3, 16))
def test_one_segment_top_costs_one_panel_of_evaluations(n):
    # one panel, swept from each end over the C(n + 2, 3) states
    # k + j + l <= n - 1
    for G in (constant_top(), STRICT_TRAPEZOID):
        cost = 2 * math.comb(n + 2, 3)
        assert q_decomp(G, n).evaluations == cost
        short = q_decomp(G, n, budget=cost - 1)
        assert short.exhausted and short.evaluations == 0
    for G in (triangle_top(), MIRRORED_TRIANGLE):
        r = q_decomp(G, n, budget=0)
        assert not r.exhausted and r.evaluations == 0


# ---------------------------------------------------------------------------
# q_decomp

@pytest.mark.parametrize("n", range(7))
def test_q_decomp_reproduces_closed_families(n):
    for G, ref in [(triangle_top(), sq.t_closed(n)),
                   (constant_top(), sq.q_closed(n)),
                   (QuadraticTop(), sq.p_closed(n))]:
        r = q_decomp(G, n)
        assert not r.exhausted
        assert abs(r.value - float(ref)) < 1e-8


def test_q_decomp_examples():
    assert abs(q_decomp(triangle_top(), 4).value - 1 / 180) < 1e-9
    assert abs(q_decomp(constant_top(), 3).value - 5 / 36) < 1e-9
    assert abs(q_decomp(QuadraticTop(), 2).value - 2 / 5) < 1e-9


def test_q_decomp_two_points_matches_exact_functional():
    rng = np.random.default_rng(123)
    for _ in range(100):
        G = random_concave_top(rng)
        r = q_decomp(G, 2)
        assert abs(r.value - float(q2_exact_subprism(G))) < 1e-9


def test_q_decomp_tents_are_shear_images_of_the_triangle():
    # a tent body is an area-preserving shear of the triangle body, so its
    # whole sequence coincides with t_n
    for s in (F(1, 4), F(1, 2), F(7, 8)):
        for n in (2, 3):
            r = q_decomp(mountain_top(s), n)
            assert abs(r.value - float(sq.t_closed(n))) < 1e-7


def test_q_decomp_mirror_symmetry():
    G = PiecewiseLinearTop(((0, F(1, 2)), (F(1, 4), F(3, 2)), (1, F(1, 2))))
    mirrored = PiecewiseLinearTop(((0, F(1, 2)), (F(3, 4), F(3, 2)),
                                   (1, F(1, 2))))
    for n in (2, 3):
        a = q_decomp(G, n)
        b = q_decomp(mirrored, n)
        assert abs(a.value - b.value) < 1e-7


def test_q_decomp_budget_exhaustion_is_flagged():
    G = PiecewiseLinearTop(((0, F(1, 2)), (F(1, 3), F(3, 2)),
                            (F(2, 3), F(4, 3)), (1, 0)))
    r = q_decomp(G, 4, budget=50)
    assert r.exhausted
    ok = q_decomp(G, 2)
    assert not ok.exhausted


def test_q_decomp_input_validation():
    with pytest.raises(ValueError):
        q_decomp(constant_top(), -1)
    with pytest.raises(ValueError):
        q_decomp(constant_top(), 2, tol=0)


def test_q_decomp_base_cases():
    assert q_decomp(constant_top(), 0).value == 1.0
    assert q_decomp(QuadraticTop(), 1).value == 1.0


# ---------------------------------------------------------------------------
# panel rules

TRAPEZOID = PiecewiseLinearTop(((0, 0), (F(1, 3), 1), (F(2, 3), 1), (1, 0)))


@pytest.mark.parametrize("G, n, exact", [
    (TRAPEZOID, 3, F(41, 576)),
    (TRAPEZOID, 4, F(187, 23040)),
    (mountain_top(F(1, 3)), 4, F(1, 180)),
], ids=["trapezoid_n3", "trapezoid_n4", "tent_n4"])
def test_q_decomp_known_values(G, n, exact):
    r = q_decomp(G, n, tol=1e-9)
    assert not r.exhausted
    assert abs(r.value - float(exact)) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_q_decomp_matches_exact_oracle(n):
    # at n = 3 also on random_concave_top's tops of up to 8 segments
    rng = np.random.default_rng(40 + n)
    tops = [_rational_top(rng, k) for k in (2, 3, 3)]
    if n == 3:
        tops += [random_concave_top(rng) for _ in range(20)]
    for G in tops:
        exact = float(_q_oracle(G, n))
        r = q_decomp(G, n)
        assert r.error == 0.0 and abs(r.value - exact) <= 1e-15 * exact, G


def test_exact_oracle_known_values():
    tent = mountain_top(F(1, 3))
    assert [_q_oracle(TRAPEZOID, n) for n in (3, 4, 5)] == [
        F(41, 576), F(187, 23040), F(71, 115200)]
    assert [_q_oracle(tent, n) for n in (3, 4, 5)] == [
        sq.t_closed(n) for n in (3, 4, 5)]
    for G, exact in [(TRAPEZOID, F(71, 115200)), (tent, sq.t_closed(5))]:
        r = q_decomp(G, 5)
        assert abs(r.value - float(exact)) <= 1e-15 * float(exact)


def test_q_decomp_budget_bounds_the_work():
    G = PiecewiseLinearTop(((0, F(1, 2)), (F(1, 3), F(3, 2)),
                            (F(2, 3), F(4, 3)), (1, 0)))
    r = q_decomp(G, 4, budget=50)
    assert r.exhausted and r.evaluations == 0 and math.isnan(r.value)
    assert r.exact is None
    # the trapezoid at n = 4 solves exactly 120 states
    assert not q_decomp(TRAPEZOID, 4, budget=120).exhausted
    short = q_decomp(TRAPEZOID, 4, budget=119)
    assert short.exhausted and short.evaluations == 0


def test_q_decomp_checks_its_budget_before_any_work():
    # the count is known up front, so a hopeless run returns at once
    r = q_decomp(TRAPEZOID, 10 ** 6)
    assert r.exhausted and r.evaluations == 0 and r.wall_ms < 100


SEGMENTS_70 = PiecewiseLinearTop(tuple((F(i, 70), F(i * (70 - i), 70 ** 2))
                                        for i in range(71)))


def test_q_decomp_runs_a_70_segment_top_within_its_budget():
    G = SEGMENTS_70
    cost = 2 * 70 * math.comb(5, 3)
    r = q_decomp(G, 3, budget=cost)
    assert not r.exhausted and r.evaluations == cost
    assert sq.t_closed(3) < r.exact < sq.q_closed(3)
    short = q_decomp(G, 3, budget=cost - 1)
    assert short.exhausted and short.evaluations == 0


def test_q_decomp_trapezoid_n4_evaluation_count():
    r = q_decomp(TRAPEZOID, 4, tol=1e-9)
    assert r.evaluations == 2 * 3 * math.comb(6, 3) == 120
    again = q_decomp(TRAPEZOID, 4, tol=1e-9)
    assert again.evaluations == r.evaluations
    assert r.wall_ms > 0


# ---------------------------------------------------------------------------
# the exact chord sweep

@pytest.mark.parametrize("n", [3, 4, 5])
def test_sweep_equals_exact_oracle(n):
    rng = np.random.default_rng(70 + n)
    tops = [TRAPEZOID, mountain_top(F(1, 3)), STRICT_TRAPEZOID]
    tops += [_rational_top(rng, k) for k in (2, 3, 4)]
    for G in tops:
        assert q_exact(G, n) == _q_oracle(G, n), G


def test_sweep_pins_the_trapezoid():
    assert [q_exact(TRAPEZOID, n) for n in range(3, 7)] == [
        F(41, 576), F(187, 23040), F(71, 115200), F(323, 9676800)]
    r = q_decomp(TRAPEZOID, 6)
    assert r.exact == F(323, 9676800) and r.value == 323 / 9676800


def test_sweep_pins_large_n_and_many_segments():
    # values of the earlier Fraction sweep; the 70-segment top's slope
    # changes by -1/35 at every knot, where the integer states gain 35^(n-1)
    assert q_exact(TRAPEZOID, 12) == F(16747859, 3054338996667678720000)
    assert q_exact(TRAPEZOID, 20) == F(
        35443537781, 402275359442517348968981068146278400000000)
    assert q_exact(SEGMENTS_70, 6) == F(2365367605857138277701431,
                                        34582326306688840352380312500)


def test_sweep_reproduces_closed_families():
    # the square and the tents have no closed-form dispatch; a tent is a
    # sheared triangle
    for n in range(3, 8):
        assert q_exact(constant_top(), n) == sq.q_closed(n)
        for s in (F(1, 3), F(4, 5)):
            assert q_exact(mountain_top(s), n) == sq.t_closed(n), (s, n)
    assert q_exact(mountain_top(F(1, 3)), 12) == sq.t_closed(12)


def test_sweep_stays_between_triangle_and_square_up_to_n8():
    rng = np.random.default_rng(8)
    tops = [TRAPEZOID, STRICT_TRAPEZOID] + [_rational_top(rng, k)
                                            for k in (2, 3, 4, 5)]
    for G in tops:
        for n in range(2, 9):
            assert sq.t_closed(n) <= q_exact(G, n) <= sq.q_closed(n), (G, n)


def test_q_exact_input_validation():
    with pytest.raises(ValueError):
        q_exact(constant_top(), -1)
    assert q_exact(QuadraticTop(), 4) == sq.p_closed(4)
    assert q_exact(constant_top(), 1) == 1
