"""Concave top functions: construction, exact functionals, mixtures."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorconvex.topfunctions import (MountainMixture, PiecewiseLinearTop,
                                      QuadraticTop, constant_top,
                                      mountain_decompose, mountain_top,
                                      q2_exact_subprism, random_concave_top,
                                      triangle_top)

F = Fraction


def test_construction_normalizes_integral():
    G = PiecewiseLinearTop(((0, 3), (1, 3)))
    assert G.integral() == 1
    assert G.scale == F(1, 3)
    assert G.value(F(1, 2)) == 1


def test_construction_rejects_bad_knots():
    with pytest.raises(ValueError):
        PiecewiseLinearTop(((0, 1), (F(1, 2), 1)))          # does not span
    with pytest.raises(ValueError):
        PiecewiseLinearTop(((0, 1), (0, 2), (1, 1)))        # not increasing
    with pytest.raises(ValueError):
        PiecewiseLinearTop(((0, -1), (1, 1)))               # negative
    with pytest.raises(ValueError):
        PiecewiseLinearTop(((0, 0), (F(1, 2), 0), (1, 1)))  # convex kink
    with pytest.raises(ValueError):
        PiecewiseLinearTop(((0, 0), (1, 0)))                # zero area


def test_q2_exact_values():
    assert q2_exact_subprism(triangle_top()) == F(1, 3)
    assert q2_exact_subprism(constant_top()) == F(1, 2)
    assert q2_exact_subprism(QuadraticTop()) == F(2, 5)
    assert q2_exact_subprism(mountain_top(F(1, 2))) == F(1, 3)


def test_linear_top_normalization():
    G = PiecewiseLinearTop(((0, 5), (1, 7)))  # 2x + 5 scaled to unit integral
    assert G.integral() == 1
    assert G.value(0) == F(5, 6)
    assert G.value(1) == F(7, 6)


def test_level_width_and_area_above_triangle():
    G = triangle_top()
    assert G.level_width(0.0) == 1.0
    assert G.level_width(1.0) == pytest.approx(0.5)
    assert G.level_width(2.0) == pytest.approx(0.0)
    assert G.level_width(3.0) == 0.0
    assert G.area_above(0.0) == pytest.approx(1.0)
    assert G.area_above(1.0) == pytest.approx(0.25)


def test_level_width_hits_knot_value_exactly():
    G = mountain_top(F(1, 2))
    # level exactly at the apex height
    assert G.level_width(2.0) == pytest.approx(0.0)
    assert G.level_width(1.0) == pytest.approx(0.5)


def test_quadratic_functionals():
    G = QuadraticTop()
    assert G.integral() == 1
    assert G.integral_sq() == F(6, 5)
    assert G.max_height() == 1.5
    assert G.level_width(0.0) == 1.0
    assert G.area_above(1.5) == 0.0
    ts = np.linspace(0, 1.5, 101)
    widths = np.array([G.level_width(t) for t in ts])
    # area above recovers from integrating level widths
    assert np.trapezoid(widths, ts) == pytest.approx(1.0, abs=1e-3)


def test_sample_x_inverts_cdf():
    for G in (triangle_top(), constant_top(), QuadraticTop(),
              mountain_top(F(1, 3))):
        u = np.linspace(0.001, 0.999, 500)
        x = G.sample_x(u)
        assert np.all(np.diff(x) >= -1e-12)
        # CDF at the sampled abscissa reproduces u
        for ui, xi in zip(u[::50], x[::50]):
            grid = np.linspace(0.0, xi, 2000)
            mass = np.trapezoid(G.values(grid), grid)
            assert mass == pytest.approx(ui, abs=2e-3)


def test_mountain_decompose_examples():
    mix = mountain_decompose(mountain_top(F(1, 2)))
    assert mix.components == ((F(1, 2), F(1)),)
    mix = mountain_decompose(constant_top())
    assert mix.components == ((F(0), F(1, 2)), (F(1), F(1, 2)))
    mix = mountain_decompose(triangle_top())
    assert mix.components == ((F(1), F(1)),)


def test_mountain_decompose_rejects_quadratic():
    with pytest.raises(TypeError):
        mountain_decompose(QuadraticTop())


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_random_top_round_trip(seed):
    rng = np.random.default_rng(seed)
    G = random_concave_top(rng)
    mix = mountain_decompose(G)
    assert mix.total_weight() == 1
    for k in range(0, 65, 4):
        x = F(k, 64)
        assert mix.value(x) == F(G.value(x))


def test_mountain_top_edges():
    assert mountain_top(0).knots == ((0, 2), (1, 0))
    assert mountain_top(1).knots == ((0, 0), (1, 2))
    with pytest.raises(ValueError):
        mountain_top(F(3, 2))


def test_value_outside_domain_raises():
    with pytest.raises(ValueError):
        triangle_top().value(F(3, 2))
