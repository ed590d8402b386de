"""Chord decomposition and the recursive quadrature evaluator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorconvex import decomposition
from floorconvex import sequences as sq
from floorconvex.decomposition import (NormalizedSplit, q_decomp,
                                       q_exact_linear, split)
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


def test_split_parabola_self_similar():
    sp = split(QuadraticTop(), F(1, 4))
    assert sp.left_mass == F(1, 64)
    assert sp.right_mass == F(27, 64)
    assert isinstance(sp.left, QuadraticTop)


def test_split_rejects_bad_abscissa():
    with pytest.raises(ValueError):
        split(constant_top(), F(0))
    with pytest.raises(ValueError):
        split(constant_top(), F(1))
    with pytest.raises(TypeError):
        split("not a top", F(1, 2))


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
    # the degree argument of the 2-node rule in q_decomp, checked exactly
    def integrand(G, t):
        sp = split(G, t)
        lq = q2_exact_subprism(sp.left) if sp.left else 1
        rq = q2_exact_subprism(sp.right) if sp.right else 1
        lm, rm = sp.left_mass, sp.right_mass
        return G.value(t) * (rm * rm * rq + 2 * lm * rm + lm * lm * lq)
    rng = np.random.default_rng(3)
    for G in [TRAPEZOID] + [random_concave_top(rng, 4) for _ in range(3)]:
        for ts in _panel_points(G, 5):
            assert _divided_difference(ts, [integrand(G, t) for t in ts]) == 0


# ---------------------------------------------------------------------------
# exact linear recursion

def test_exact_linear_reproduces_triangle_and_square():
    for n in range(10):
        assert q_exact_linear(2, 0, n) == sq.t_closed(n)
        assert q_exact_linear(0, 1, n) == sq.q_closed(n)
        assert q_exact_linear(-2, 2, n) == sq.t_closed(n)


def test_exact_linear_rejects_non_unit_integral():
    with pytest.raises(ValueError):
        q_exact_linear(1, 1, 3)


def test_exact_linear_general_slope_is_between_families():
    # any strict trapezoid sits strictly between triangle and square values
    for n in (2, 3, 4, 5):
        v = q_exact_linear(F(1), F(1, 2), n)
        assert sq.t_closed(n) < v < sq.q_closed(n)


# ---------------------------------------------------------------------------
# q_decomp

@pytest.mark.parametrize("n", range(7))
def test_q_decomp_reproduces_closed_families(n):
    for G, ref in [(triangle_top(), sq.t_closed(n)),
                   (constant_top(), sq.q_closed(n)),
                   (QuadraticTop(), sq.p_closed(n))]:
        r = q_decomp(G, n, tol=1e-9)
        assert not r.exhausted
        assert abs(r.value - float(ref)) < 1e-8


def test_q_decomp_examples():
    assert abs(q_decomp(triangle_top(), 4, 1e-9).value - 1 / 180) < 1e-9
    assert abs(q_decomp(constant_top(), 3, 1e-9).value - 5 / 36) < 1e-9
    assert abs(q_decomp(QuadraticTop(), 2, 1e-9).value - 2 / 5) < 1e-9


def test_q_decomp_two_points_matches_exact_functional():
    rng = np.random.default_rng(123)
    for _ in range(100):
        G = random_concave_top(rng)
        r = q_decomp(G, 2, tol=1e-9)
        assert abs(r.value - float(q2_exact_subprism(G))) < 1e-9


def test_q_decomp_tents_are_shear_images_of_the_triangle():
    # a tent body is an area-preserving shear of the triangle body, so its
    # whole sequence coincides with t_n
    for s in (F(1, 4), F(1, 2), F(7, 8)):
        for n in (2, 3):
            r = q_decomp(mountain_top(s), n, tol=1e-9)
            assert abs(r.value - float(sq.t_closed(n))) < 1e-7


def test_q_decomp_mirror_symmetry():
    G = PiecewiseLinearTop(((0, F(1, 2)), (F(1, 4), F(3, 2)), (1, F(1, 2))))
    mirrored = PiecewiseLinearTop(((0, F(1, 2)), (F(3, 4), F(3, 2)),
                                   (1, F(1, 2))))
    for n in (2, 3):
        a = q_decomp(G, n, tol=1e-8)
        b = q_decomp(mirrored, n, tol=1e-8)
        assert abs(a.value - b.value) < 1e-7


def test_q_decomp_budget_exhaustion_is_flagged():
    G = PiecewiseLinearTop(((0, F(1, 2)), (F(1, 3), F(3, 2)),
                            (F(2, 3), F(4, 3)), (1, 0)))
    r = q_decomp(G, 4, tol=1e-12, budget=50)
    assert r.exhausted
    ok = q_decomp(G, 2, tol=1e-9)
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


def _moment_error(weights, k):
    got = math.fsum(w * x ** k for x, w in zip(decomposition._X15, weights))
    return abs(got - (2 / (k + 1) if k % 2 == 0 else 0.0))


def test_gauss_kronrod_moments():
    # K15 integrates x^k exactly on [-1, 1] for k <= 22, G7 for k <= 13,
    # and neither one degree further
    for k in range(23):
        assert _moment_error(decomposition._WK15, k) < 2e-16, k
    for k in range(14):
        assert _moment_error(decomposition._WG15, k) < 2e-16, k
    assert _moment_error(decomposition._WK15, 24) > 1e-9
    assert _moment_error(decomposition._WG15, 14) > 1e-9


def test_three_point_rule_matches_forced_adaptive_at_n3(monkeypatch):
    # the n = 3 integrand has degree <= 3 on each knot panel, so 2 Gauss
    # nodes agree with tight adaptive Gauss-Kronrod
    rng = np.random.default_rng(606)
    tops = [random_concave_top(rng) for _ in range(40)]
    fixed = [q_decomp(G, 3) for G in tops]
    monkeypatch.setattr(decomposition, "_gauss2_panel",
                        decomposition._adaptive_panel)
    for G, r in zip(tops, fixed):
        gk = q_decomp(G, 3, tol=1e-13)
        assert not r.exhausted and not gk.exhausted
        assert r.error == 0.0
        assert abs(r.value - gk.value) < 1e-12


@pytest.mark.parametrize("G, n, exact", [
    (TRAPEZOID, 3, F(41, 576)),
    (TRAPEZOID, 4, F(187, 23040)),
    (mountain_top(F(1, 3)), 4, F(1, 180)),
], ids=["trapezoid_n3", "trapezoid_n4", "tent_n4"])
def test_q_decomp_known_values(G, n, exact):
    r = q_decomp(G, n, tol=1e-9)
    assert not r.exhausted
    assert abs(r.value - float(exact)) < 1e-12


def test_q_decomp_trapezoid_n4_evaluation_count():
    r = q_decomp(TRAPEZOID, 4, tol=1e-9)
    assert r.evaluations <= 1_000
    again = q_decomp(TRAPEZOID, 4, tol=1e-9)
    assert (again.evaluations, again.max_depth) == (r.evaluations,
                                                    r.max_depth)
    assert r.wall_ms > 0


def test_adaptive_panel_reports_bisection_depth():
    # sqrt is no polynomial, so K15 and G7 differ near 0 and panels bisect
    b = decomposition._Budget(10_000)
    value, err = decomposition._adaptive_panel(math.sqrt, 0.0, 1.0, 1e-10, b)
    assert abs(value - 2 / 3) < 1e-10 and err <= 1e-10
    assert b.max_depth > 0 and not b.exhausted
    assert b.used > 15 and b.used % 15 == 0
    assert q_decomp(TRAPEZOID, 3).max_depth == 0     # fixed rule, no bisection
