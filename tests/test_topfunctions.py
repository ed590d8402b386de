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
    assert G.knots == ((0, 1), (1, 1))
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


def ref_sample_x(G, u):
    """The inverse CDF as first written: every draw gathers its segment and
    runs both formulas; the oracle for the bit-identity test."""
    xs = np.array([float(k[0]) for k in G.knots])
    ys = np.array([float(k[1]) for k in G.knots])
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


@pytest.mark.parametrize("G", [
    triangle_top(), constant_top(), mountain_top(F(1, 3)),
    PiecewiseLinearTop(((0, 0), (F(1, 3), 1), (F(2, 3), 1), (1, 0))),
    PiecewiseLinearTop(((0, 1), (F(1, 2), 2), (1, 2))),
    PiecewiseLinearTop(((0, 2), (1, 0)))],
    ids=["triangle", "square", "tent", "trapezoid", "flat_right", "falling"])
def test_sample_x_bit_identical_to_reference(G):
    u = np.random.default_rng(5).random(10 ** 6)
    u[:4] = (0.0, np.nextafter(1.0, 0.0), 1.0 - 1e-12, 0.5)
    xs = np.array([float(x) for x, _ in G.knots])
    ys = np.array([float(y) for _, y in G.knots])
    cum = np.cumsum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2)
    u[4:4 + len(cum)] = cum             # on the segment boundaries
    got, want = G.sample_x(u), ref_sample_x(G, u)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_mountain_decompose_examples():
    mix = mountain_decompose(mountain_top(F(1, 2)))
    assert mix.components == ((F(1, 2), F(1)),)
    assert mix.values([F(1, 2), F(0), F(1), F(1, 4)]) == [2, 0, 0, 1]
    mix = mountain_decompose(constant_top())
    assert mix.components == ((F(0), F(1, 2)), (F(1), F(1, 2)))
    assert mix.values([F(1), F(0), F(1, 3)]) == [1, 1, 1]
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
    xs = [F(k, 64) for k in range(0, 65, 4)]
    for x, v in zip(xs, mix.values(xs)):
        assert v == F(G.value(x))


def test_mountain_top_edges():
    assert mountain_top(0).knots == ((0, 2), (1, 0))
    assert mountain_top(1).knots == ((0, 0), (1, 2))
    with pytest.raises(ValueError):
        mountain_top(F(3, 2))


def test_value_outside_domain_raises():
    for x in (F(3, 2), F(-1, 2)):
        with pytest.raises(ValueError):
            triangle_top().value(x)


def ref_value(G, x):
    """G(x) as first written, by interpolation on the first segment that
    ends at or after x; the oracle for value and values_exact."""
    ks = G.knots
    if not 0 <= x <= 1:
        raise ValueError("x outside [0, 1]")
    for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return ks[-1][1]


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_values_exact_sweep_equals_value(seed):
    rng = np.random.default_rng(seed)
    G = random_concave_top(rng)
    # the knots themselves, repeats and points between them
    xs = sorted({x for x, _ in G.knots} | {F(k, 64) for k in range(65)})
    xs = [xs[0]] + xs + [xs[-1]]
    got = G.values_exact(xs)
    assert got == [ref_value(G, x) for x in xs]
    assert [G.value(x) for x in xs] == got
    assert all(type(v) is F for v in got)


def test_values_exact_rejects_unsorted_or_outside():
    G = PiecewiseLinearTop(((0, 0), (F(1, 2), 1), (1, 0)))
    assert G.values_exact([]) == []
    # descending within one segment is still exact
    assert G.values_exact([F(1, 4), F(1, 8)]) == [ref_value(G, F(1, 4)),
                                                   ref_value(G, F(1, 8))]
    for xs in ([F(3, 4), F(1, 4)], [F(-1, 8)], [F(1, 2), F(9, 8)]):
        with pytest.raises(ValueError):
            G.values_exact(xs)
