"""Samplers: determinism, uniformity box tests, height laws, gauges."""

import math

import numpy as np
import pytest

from floorconvex import samplers
from floorconvex.bodies import (BUILTIN_BODIES, UNIT_SQUARE_FLOOR,
                                SubPrism2D, below_volume, body_from_json,
                                builtin_body, frustum, max_height,
                                mean_height, mountain3d, prism3d,
                                regular_polygon_floor, tetrahedron)
from floorconvex.samplers import (RngStream, floor_radius_batch,
                                  sample_body, sample_density_g1,
                                  sample_density_g2, sample_heights)

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


def sample_floor(polygon, rng, n):
    """n uniform points in a convex polygon: the horizontal coordinates of
    uniform points in the unit prism over it, whose layers are all the
    polygon itself (the prism normalizes it to unit area)."""
    return sample_body(prism3d(polygon), rng, n)[:, :2]


def test_polygon_sampler_box_moments():
    pts = sample_floor(UNIT_SQUARE_FLOOR, RngStream(8).generator(), N)
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
    pts = sample_floor(poly, RngStream(9).generator(), 50_000)
    assert np.all(floor_radius_batch(poly, pts) <= 1 + 1e-9)


def ref_sample_polygon(polygon, rng, n):
    """The polygon sampler as first written, on (n, 2) broadcasts; the
    oracle for the bit-identity test."""
    v = np.asarray(polygon, dtype=float)
    a = v[0]
    b, c = v[1:-1], v[2:]
    tri_area = 0.5 * np.abs((b[:, 0] - a[0]) * (c[:, 1] - a[1])
                            - (c[:, 0] - a[0]) * (b[:, 1] - a[1]))
    idx = rng.choice(len(tri_area), size=n, p=tri_area / tri_area.sum())
    r1 = np.sqrt(rng.random(n))[:, None]
    r2 = rng.random(n)[:, None]
    return (1 - r1) * a + r1 * ((1 - r2) * b[idx] + r2 * c[idx])


@pytest.mark.parametrize("name", ["tetrahedron", "prism3d", "mountain3d",
                                  "pentagon"])
def test_polygon_sampler_bit_identical_to_reference(name):
    body = prism3d(regular_polygon_floor(5) if name == "pentagon"
                   else builtin_body(name).floor)
    got = sample_body(body, RngStream(12).generator(), 300_000)[:, :2]
    rng = RngStream(12).generator()
    rng.random(300_000)                 # the prism's heights come first
    want = ref_sample_polygon(body.floor, rng, 300_000)
    assert got.shape == want.shape == (300_000, 2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# The samplers as first written, one rng.random(n) per coordinate, with
# rng.choice for the fan triangle and column_stack for the output: the
# oracles for the bit-identity tests of the sliced samplers.

def ref_heights(body, u):
    if body.c == 1.0:
        return u * body.H
    d = body.dimension
    lam = (1.0 + u * (body.c ** d - 1.0)) ** (1.0 / d)
    return body.H * (lam - 1.0) / (body.c - 1.0)


def ref_sample_body(body, rng, n):
    if isinstance(body, SubPrism2D):
        x = body.top.sample_x(rng.random(n))
        y = body.top.values(x) * rng.random(n)
        return np.column_stack([x, y])
    t = ref_heights(body, rng.random(n))
    if body.dimension == 2:
        (x0, _), (x1, _) = body.floor
        floor = (x0 + (x1 - x0) * rng.random(n))[:, None]
    else:
        floor = ref_sample_polygon(body.floor, rng, n)
    xy = (1.0 + (body.c - 1.0) * t / body.H)[:, None] * floor
    if any(body.a):
        xy += (t / body.H)[:, None] * np.asarray(body.a)
    return np.column_stack([xy, t])


def ref_sample_heights(body, rng, n):
    if isinstance(body, SubPrism2D):
        x = body.top.sample_x(rng.random(n))
        return body.top.values(x) * rng.random(n)
    return ref_heights(body, rng.random(n))


def ref_density_g1(rng, n):
    return np.column_stack([np.sqrt(rng.random(n)), rng.random(n)])


def ref_density_g2(rng, n):
    y = 3.0 * (1.0 - (1.0 - rng.random(n)) ** (1.0 / 3.0))
    x = (1.0 - y / 3.0) * np.sqrt(rng.random(n))
    return np.column_stack([x, y])


ORACLE_BODIES = {
    **BUILTIN_BODIES,
    "frustum2d:0.6": lambda: builtin_body("frustum2d:0.6"),
    "frustum3d:1.5": lambda: builtin_body("frustum3d:1.5"),
    # a pentagon floor and an apex off the origin: every coordinate shifts
    "json_mountain": lambda: body_from_json(
        {"kind": "mountain", "floor": [[0, 0], [2, 0], [2, 1], [1, 2], [0, 1]],
         "apex": [0.3, -0.2, 3.0]}),
}
# below one slice, and more than one slice but not a multiple of it
ORACLE_SIZES = (1_000, 100_003)


def _same_bits(got, want):
    return (got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


@pytest.mark.parametrize("n", ORACLE_SIZES)
@pytest.mark.parametrize("name", sorted(ORACLE_BODIES))
def test_samplers_bit_identical_to_reference(name, n):
    assert samplers._SLICE < 100_003 and 100_003 % samplers._SLICE
    body = ORACLE_BODIES[name]()
    assert _same_bits(sample_body(body, RngStream(15).generator(), n),
                      ref_sample_body(body, RngStream(15).generator(), n))
    assert _same_bits(sample_heights(body, RngStream(16).generator(), n),
                      ref_sample_heights(body, RngStream(16).generator(), n))


def test_json_mountain_apex_is_shifted():
    assert ORACLE_BODIES["json_mountain"]().a == (0.3, -0.2)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_densities_bit_identical_to_reference(n):
    for sample, ref in ((sample_density_g1, ref_density_g1),
                        (sample_density_g2, ref_density_g2)):
        assert _same_bits(sample(RngStream(17).generator(), n),
                          ref(RngStream(17).generator(), n))


def test_fan_draw_at_a_cdf_breakpoint_takes_the_next_triangle():
    # Generator.choice(p=...) picks cdf.searchsorted(u, side="right"); random
    # draws almost never hit a breakpoint, so the oracle tests above cannot
    # tell the sides apart.  With r1 = 1 and r2 = 0 the point is b of the
    # triangle drawn.
    fan = samplers._fan(UNIT_SQUARE_FLOOR)
    a, b, c, cdf = fan
    u0 = np.array([0.0, cdf[0], np.nextafter(cdf[0], 0.0)])
    x, y = samplers._fan_points(fan, np.array([u0, [1.0] * 3, [0.0] * 3]))
    assert x.tolist() == [b[0, 0], b[1, 0], b[0, 0]]
    assert y.tolist() == [b[0, 1], b[1, 1], b[0, 1]]


def ref_floor_radius(polygon, x, y):
    """The gauge in Python floats: the edges' (x nx + y ny) / b in edge
    order, their max, then the max with 0."""
    vals = []
    for (px, py), (qx, qy) in zip(polygon, [*polygon[1:], polygon[0]]):
        nx, ny = qy - py, -(qx - px)
        vals.append((x * nx + y * ny) / (nx * px + ny * py))
    return max(max(vals), 0.0)


@pytest.mark.parametrize("poly", [UNIT_SQUARE_FLOOR, regular_polygon_floor(5)],
                         ids=["square", "pentagon"])
def test_floor_radius_bit_identical_to_python_floats(poly):
    poly = [tuple(map(float, v)) for v in poly]
    rng = RngStream(18).generator()
    # points inside and outside the floor, and the origin
    xy = 1.5 * sample_floor(poly, rng, 40_000)
    xy[0] = 0.0
    got = floor_radius_batch(poly, xy)
    want = np.array([ref_floor_radius(poly, x, y) for x, y in xy.tolist()])
    # the sign of a zero gauge follows the tie rule of each max; adding 0.0
    # makes every zero +0.0 and leaves the other values as they are
    assert _same_bits(got + 0.0, want + 0.0)


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
    lam = 1 + (body.c - 1) * pts[:, 2] / body.H
    a = floor_radius_batch(body.floor, pts[:, :2])
    assert np.all(a <= lam + 1e-9)
