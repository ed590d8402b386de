"""Samplers: determinism, uniformity box tests, height laws, gauges."""

import math

import numpy as np
import pytest

from floorconvex.bodies import (UNIT_SQUARE_FLOOR, below_volume,
                                builtin_body, frustum, max_height,
                                mean_height, mountain3d,
                                regular_polygon_floor, tetrahedron)
from floorconvex.samplers import (RngStream, floor_radius_batch,
                                  sample_body, sample_density_g1,
                                  sample_density_g2, sample_heights,
                                  sample_polygon)

N = 200_000
SIGMA = 4.0

BODIES = ("triangle", "square", "parabola", "mountain2d", "mountain3d",
          "prism3d", "tetrahedron", "frustum2d:0.6", "frustum3d:0.6",
          "frustum3d:1.5")


def test_rng_stream_determinism():
    a = RngStream(42, 3).generator().random(100)
    b = RngStream(42, 3).generator().random(100)
    c = RngStream(42, 4).generator().random(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name", BODIES)
def test_height_law_matches_below_volume(name):
    body = builtin_body(name)
    h = sample_body(body, RngStream(1).generator(), N)[:, -1]
    hm = max_height(body)
    for frac in (0.15, 0.4, 0.65, 0.9):
        t = frac * hm
        target = below_volume(body, t)
        se = math.sqrt(max(target * (1 - target), 1e-6) / N)
        assert abs((h <= t).mean() - target) <= SIGMA * se + 1e-9


@pytest.mark.parametrize("name", BODIES)
def test_height_mean_matches_exact(name):
    body = builtin_body(name)
    h = sample_heights(body, RngStream(2).generator(), N)
    se = h.std() / math.sqrt(N)
    assert abs(h.mean() - mean_height(body)) <= SIGMA * se


@pytest.mark.parametrize("name", BODIES)
def test_heights_only_sampler_agrees_with_full_sampler(name):
    body = builtin_body(name)
    h1 = sample_heights(body, RngStream(3).generator(), N)
    h2 = sample_body(body, RngStream(4).generator(), N)[:, -1]
    se = math.sqrt(h1.var() / N + h2.var() / N)
    assert abs(h1.mean() - h2.mean()) <= SIGMA * se


def test_points_stay_inside_parabola_body():
    body = builtin_body("parabola")
    pts = sample_body(body, RngStream(5).generator(), N)
    assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= 1)
    assert np.all(pts[:, 1] <= 6 * pts[:, 0] * (1 - pts[:, 0]) + 1e-12)


def test_points_stay_inside_tetrahedron():
    pts = sample_body(tetrahedron(), RngStream(6).generator(), N)
    assert np.all(pts >= -1e-12)
    assert np.all(pts[:, 0] + pts[:, 1] + pts[:, 2] / 6 <= 1 + 1e-12)


def test_points_stay_inside_mountain():
    body = builtin_body("mountain3d")
    pts = sample_body(body, RngStream(7).generator(), N)
    lam = 1 - pts[:, 2] / 3
    # horizontal part must be inside the floor shrunk by the height factor
    a = floor_radius_batch(body.floor, pts[:, :2])
    assert np.all(a <= lam + 1e-9)


def test_points_stay_inside_mountain_with_offset_apex():
    apex = np.array([0.2, -0.1])
    body = mountain3d(apex_xy=tuple(apex))
    pts = sample_body(body, RngStream(14).generator(), 50_000)
    t = pts[:, 2]
    # the layer at height t is the floor shrunk by 1 - t/3, shifted by t/3 apex
    a = floor_radius_batch(body.floor, pts[:, :2] - (t / 3)[:, None] * apex)
    assert np.all(a <= 1 - t / 3 + 1e-9)


def test_polygon_sampler_box_moments():
    pts = sample_polygon(UNIT_SQUARE_FLOOR, RngStream(8).generator(), N)
    se = 1.0 / math.sqrt(12 * N)
    assert abs(pts[:, 0].mean()) <= SIGMA * se
    assert abs(pts[:, 1].mean()) <= SIGMA * se
    assert abs(pts[:, 0].var() - 1 / 12) <= 0.003
    # quadrant balance
    for sx in (1, -1):
        for sy in (1, -1):
            frac = ((sx * pts[:, 0] > 0) & (sy * pts[:, 1] > 0)).mean()
            assert abs(frac - 0.25) <= SIGMA * math.sqrt(0.25 * 0.75 / N)


def test_polygon_sampler_pentagon_containment():
    poly = regular_polygon_floor(5)
    pts = sample_polygon(poly, RngStream(9).generator(), 50_000)
    assert np.all(floor_radius_batch(poly, pts) <= 1 + 1e-9)


def test_density_g1_moments():
    pts = sample_density_g1(RngStream(10).generator(), N)
    # X has density 2x: mean 2/3, var 1/18; Y uniform
    assert abs(pts[:, 0].mean() - 2 / 3) <= SIGMA * math.sqrt(1 / (18 * N))
    assert abs(pts[:, 1].mean() - 0.5) <= SIGMA * math.sqrt(1 / (12 * N))


def test_density_g2_support_and_moments():
    pts = sample_density_g2(RngStream(11).generator(), N)
    x, y = pts[:, 0], pts[:, 1]
    assert np.all(x <= 1 - y / 3 + 1e-12)
    assert np.all((y >= 0) & (y <= 3))
    # E[Y] = 3/4 under the (1-y/3)^2 marginal, E[X] = 1/2
    assert abs(y.mean() - 0.75) <= SIGMA * y.std() / math.sqrt(N)
    assert abs(x.mean() - 0.5) <= SIGMA * x.std() / math.sqrt(N)


def test_g2_pushforward_of_mountain_gauge():
    # (gauge, height) of uniform mountain points must have the g2 law:
    # chi-square over a 2D histogram against exact cell masses
    body = mountain3d()
    rng = RngStream(12).generator()
    pts = sample_body(body, rng, N)
    a = floor_radius_batch(body.floor, pts[:, :2])
    y = pts[:, 2]
    xs = np.linspace(0, 1, 5)
    ys = np.linspace(0, 3, 5)
    obs, _, _ = np.histogram2d(a, y, bins=[xs, ys])
    # cell mass of g2: integrate 2x dx = x^2 analytically, then over y
    masses = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            y0, y1 = ys[j], ys[j + 1]
            yy = np.linspace(y0, y1, 2001)
            xhi = np.clip(1 - yy / 3, xs[i], xs[i + 1])
            xlo = xs[i]
            masses[i, j] = np.trapezoid(np.maximum(xhi ** 2 - xlo ** 2, 0), yy)
    masses /= masses.sum()
    expected = masses * N
    chi2 = ((obs - expected) ** 2 / np.maximum(expected, 1)).sum()
    # 15 dof; 4-sigma-ish acceptance
    assert chi2 < 45.0


def test_floor_radius_values():
    sq = UNIT_SQUARE_FLOOR
    a = floor_radius_batch(sq, np.array([[0.5, 0.25], [0.25, 0.0], [0.0, 0.0],
                                         [0.1, 0.2], [0.2, 0.4]]))
    assert a[0] == pytest.approx(1.0)
    assert a[1] == pytest.approx(0.5)
    assert a[2] == 0.0
    # positive homogeneity
    assert a[3] * 2 == pytest.approx(a[4])


def test_floor_radius_requires_interior_origin():
    with pytest.raises(ValueError):
        floor_radius_batch([(0, 0), (1, 0), (1, 1), (0, 1)],
                           np.array([[0.5, 0.5]]))


def test_frustum_samples_inside_cross_sections():
    body = frustum(0.5, 3)
    pts = sample_body(body, RngStream(13).generator(), 50_000)
    hs = body.h * body.scale
    lam = 1 + (body.c - 1) * pts[:, 2] / hs
    a = floor_radius_batch(body.floor, pts[:, :2])
    assert np.all(a <= lam + 1e-9)
