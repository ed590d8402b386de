"""Bodies with floors: normalization, volumes, descriptors."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from floorconvex.bodies import (SubPrism2D, below_volume, body_from_json,
                                body_to_json, builtin_body, frustum,
                                layer_volume, load_body, max_height,
                                mean_height, mountain3d,
                                normalize_floor_polygon, polygon_area,
                                prism3d, regular_polygon_floor, tetrahedron)
from floorconvex.topfunctions import (PiecewiseLinearTop, QuadraticTop,
                                      random_concave_top, triangle_top)

ALL_BUILTINS = ("triangle", "square", "parabola", "mountain2d", "mountain3d",
                "prism3d", "tetrahedron", "frustum2d:0.8", "frustum3d:0.5")


def test_floor_polygon_normalization():
    poly = normalize_floor_polygon([(0, 0), (3, 0), (3, 3), (0, 3)])
    assert polygon_area(poly) == pytest.approx(1.0, abs=1e-12)
    assert sum(x for x, _ in poly) == pytest.approx(0.0, abs=1e-12)
    assert sum(y for _, y in poly) == pytest.approx(0.0, abs=1e-12)
    assert poly[0] == pytest.approx((-0.5, -0.5))


def test_floor_polygon_of_a_numpy_array():
    square = [(0, 0), (3, 0), (3, 3), (0, 3)]
    assert (normalize_floor_polygon(np.array(square, dtype=float))
            == normalize_floor_polygon(square))


def test_floor_polygon_rejects_degenerate():
    with pytest.raises(ValueError):
        normalize_floor_polygon([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        normalize_floor_polygon([(0, 0), (1, 1), (2, 2)])


def test_regular_floors_have_unit_area():
    for k in range(3, 9):
        assert polygon_area(regular_polygon_floor(k)) == pytest.approx(1.0)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_unit_volume(name):
    body = builtin_body(name)
    assert below_volume(body, max_height(body)) == pytest.approx(1.0)
    assert below_volume(body, 0.0) == pytest.approx(0.0)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_below_is_integral_of_layers(name):
    body = builtin_body(name)
    hm = max_height(body)
    ts = np.linspace(0.0, hm, 4001)
    layers = np.array([layer_volume(body, t) for t in ts])
    cumulative = np.concatenate(
        [[0.0], np.cumsum((layers[:-1] + layers[1:]) / 2 * np.diff(ts))])
    for i in range(0, 4001, 400):
        assert below_volume(body, ts[i]) == pytest.approx(cumulative[i],
                                                          abs=5e-4)


def test_mountain_closed_forms():
    m = mountain3d()
    assert max_height(m) == 3.0
    assert layer_volume(m, 1.5) == pytest.approx(0.25)
    assert below_volume(m, 1.5) == pytest.approx(1 - 0.125)
    assert mean_height(m) == pytest.approx(0.75)


def test_prism_closed_forms():
    p = prism3d()
    assert layer_volume(p, 0.3) == 1.0
    assert below_volume(p, 0.3) == 0.3
    assert mean_height(p) == 0.5


def test_tetrahedron_convention():
    t = tetrahedron()
    assert t.floor == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert (*t.a, max_height(t)) == (0.0, 0.0, 6.0)   # apex above (0, 0)
    assert t.floor_vol == 0.5
    assert layer_volume(t, 0.0) == pytest.approx(0.5)
    assert mean_height(t) == pytest.approx(1.5)


def test_frustum_dilation_values():
    assert frustum(1.0, 3).c == pytest.approx(1.0)
    assert frustum(0.5, 3).c == pytest.approx(math.sqrt(3.0))
    assert frustum(0.5, 2).c == pytest.approx(3.0)
    assert frustum(0.5, 2).H == pytest.approx(0.5)   # no rescale in 2D


def test_frustum_floor_at_least_unit():
    # the isotropic unit-volume rescale never shrinks the floor below area 1
    for h in np.linspace(0.05, 1.95, 25):
        assert frustum(float(h), 3).floor_vol >= 1.0 - 1e-12
        assert frustum(float(h), 2).floor_vol == pytest.approx(1.0)


def test_frustum_rejects_bad_height():
    for h in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            frustum(h, 3)
    with pytest.raises(ValueError):
        frustum(1.0, 4)
    # a height so small that the top dilation c, or c ** d, overflows
    for h, d in ((5e-324, 2), (1e-200, 2), (1e-300, 3)):
        with pytest.raises(ValueError, match="h = "):
            frustum(h, d)
    tiny = frustum(1e-200, 3)       # c ** 3 is about 2.8e300, still finite
    assert below_volume(tiny, tiny.H) == pytest.approx(1.0)


def test_mean_height_matches_quadrature():
    for body in (frustum(0.4, 3), frustum(1.6, 2), SubPrism2D(QuadraticTop()),
                 SubPrism2D(triangle_top())):
        hm = max_height(body)
        ts = np.linspace(0.0, hm, 20001)
        num = np.trapezoid(ts * np.array([layer_volume(body, t) for t in ts]),
                           ts)
        assert mean_height(body) == pytest.approx(num, abs=1e-5)


@pytest.mark.parametrize("d", (2, 3))
def test_mean_height_matches_fractions_near_the_prism(d):
    # the c != 1 integral in Fraction arithmetic on the body's own floats
    for h in (1 + 1e-9, 1 - 1e-9, 1 - 1e-7, 0.999, 0.5, 1.5):
        body = frustum(h, d)
        c, H = Fraction(body.c), Fraction(body.H)
        exact = (Fraction(body.floor_vol) * (H / (c - 1)) ** 2
                 * ((c ** (d + 1) - 1) / (d + 1) - (c ** d - 1) / d))
        assert abs(Fraction(mean_height(body)) - exact) <= 4e-16 * exact
    assert mean_height(mountain3d()) == 0.75
    assert mean_height(tetrahedron()) == 1.5


@pytest.mark.parametrize("d", (2, 3))
def test_volumes_match_fractions_near_the_prism(d):
    # the body's volume and the volume below H/2, integrated in Fraction
    # arithmetic on the body's own floats
    for h in (1 + 1e-9, 1 - 1e-9, 1 - 1e-7, 0.999, 0.5, 1.5):
        body = frustum(h, d)
        c, H = Fraction(body.c), Fraction(body.H)

        def below(t):
            lam = 1 + (c - 1) * t / H
            return Fraction(body.floor_vol) * H * (lam ** d - 1) / (d * (c - 1))
        assert abs(below(H) - 1) <= 8e-16, h
        t = body.H / 2
        want = below(Fraction(t))
        assert abs(Fraction(below_volume(body, t)) - want) <= 4e-16 * want, h


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_json_round_trip(name):
    body = builtin_body(name)
    j = json.loads(json.dumps(body_to_json(body)))
    again = body_from_json(j)
    assert again.kind == body.kind
    assert again.dimension == body.dimension
    assert max_height(again) == pytest.approx(max_height(body), abs=1e-12)
    t = 0.37 * max_height(body)
    assert below_volume(again, t) == pytest.approx(below_volume(body, t),
                                                   abs=1e-12)


def test_pwl_descriptor_is_bit_exact():
    body = builtin_body("mountain2d")
    j = body_to_json(body)
    again = body_from_json(json.loads(json.dumps(j)))
    assert again.top.knots == body.top.knots


def test_load_body_from_file(tmp_path):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(body_to_json(frustum(0.7, 3))))
    body = load_body(str(path))
    assert body.kind == "frustum" and body.h == 0.7


@pytest.mark.parametrize("desc, key", [
    ({"kind": "frustum", "dimension": 3}, "'h'"),
    ({"kind": "frustum", "h": 0.5}, "'dimension'"),
    ({"kind": "subprism2d"}, "'top'"),
])
def test_load_body_names_a_missing_key(tmp_path, desc, key):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match=key):
        load_body(str(path))


@pytest.mark.parametrize("desc, key", [
    ({"kind": "mountain", "dimension": 3, "apex": [0.1, 0, 7]}, "'apex'"),
    ({"kind": "mountain", "dimension": 3, "apex": [0.1, 0, 3, 1]}, "'apex'"),
    ({"kind": "frustum", "dimension": 2, "h": 0.5,
      "floor": [[0, 0], [1, 0], [0, 1]]}, "'floor'"),
    ({"kind": "prism", "dimension": 2}, "'dimension'"),
    ({"kind": "tetrahedron", "dimension": 3,
      "floor": [[0, 0], [1, 0], [0, 1]]}, "'floor'"),
    ({"kind": "frustum", "dimension": 3, "h": 0.5, "apex": [0, 0, 1]},
     "'apex'"),
    ({"kind": "mountain", "dimension": 3, "h": 0.5}, "'h'"),
    ({"kind": "frustum", "dimension": 3, "h": True}, "'h'"),
    ({"kind": "frustum", "dimension": 3, "h": "x"}, "'h'"),
])
def test_descriptor_key_the_body_cannot_honour_raises(desc, key):
    with pytest.raises(ValueError, match=key):
        body_from_json(desc)


def test_unknown_body_raises():
    with pytest.raises(ValueError):
        builtin_body("dodecahedron")
    with pytest.raises(ValueError):
        body_from_json({"kind": "nope"})


def test_negative_height_raises():
    with pytest.raises(ValueError):
        layer_volume(prism3d(), -0.1)
    with pytest.raises(ValueError):
        below_volume(prism3d(), -0.1)
    with pytest.raises(ValueError):
        below_volume(builtin_body("triangle"), np.array([0.5, -1e-300]))


# ---------------------------------------------------------------------------
# Heights as arrays, against the scalar code the array code replaced

def ref_level_width(top, t):
    if isinstance(top, QuadraticTop):
        return math.sqrt(max(1.0 - 2.0 * t / 3.0, 0.0))
    ks = [(float(x), float(y)) for (x, y) in top.knots]
    if t <= 0:
        return 1.0
    if t > max(y for _, y in ks):
        return 0.0
    left = 0.0 if ks[0][1] >= t else None
    right = 1.0 if ks[-1][1] >= t else None
    for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
        if left is None and y0 < t <= y1:
            left = x0 + (t - y0) * (x1 - x0) / (y1 - y0)
        if y0 >= t > y1:
            right = x0 + (t - y0) * (x1 - x0) / (y1 - y0)
    if left is None or right is None:
        return 0.0
    return max(right - left, 0.0)


def ref_area_above(top, t):
    if isinstance(top, QuadraticTop):
        return max(1.0 - 2.0 * t / 3.0, 0.0) ** 1.5
    ks = [(float(x), float(y)) for (x, y) in top.knots]
    total = 0.0
    for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
        a0, a1 = y0 - t, y1 - t
        if a0 <= 0 and a1 <= 0:
            continue
        if a0 >= 0 and a1 >= 0:
            total += (x1 - x0) * (a0 + a1) / 2
        else:
            xc = x0 + (0 - a0) * (x1 - x0) / (a1 - a0)
            if a0 > 0:
                total += (xc - x0) * a0 / 2
            else:
                total += (x1 - xc) * a1 / 2
    return total


def ref_layer_volume(body, t):
    if t > max_height(body):
        return 0.0
    if isinstance(body, SubPrism2D):
        return ref_level_width(body.top, t)
    lam = 1.0 + (body.c - 1.0) * t / body.H
    return body.floor_vol * lam ** (body.dimension - 1)


def ref_below_volume(body, t):
    t = min(t, max_height(body))
    if isinstance(body, SubPrism2D):
        return 1.0 - ref_area_above(body.top, t)
    if body.c == 1.0:
        return body.floor_vol * t
    d = body.dimension
    lam = 1.0 + (body.c - 1.0) * t / body.H
    return (body.floor_vol * body.H * (lam ** d - 1.0)
            / (d * (body.c - 1.0)))


def _array_bodies():
    rng = np.random.default_rng(12)
    return ([builtin_body(name) for name in ALL_BUILTINS]
            + [frustum(h, d) for h in (0.05, 0.3, 1.0, 1.5, 1.95)
               for d in (2, 3)]
            + [mountain3d(apex_xy=(0.4, -0.2))]
            + [SubPrism2D(random_concave_top(rng)) for _ in range(30)])


def _heights(body):
    """A grid, 0 and the top exactly, every knot height, and heights above
    the top."""
    hm = max_height(body)
    ts = [*np.linspace(0.0, hm, 301), 0.0, hm, 1.5 * hm, hm + 1.0]
    if isinstance(body, SubPrism2D) and isinstance(body.top,
                                                   PiecewiseLinearTop):
        ts += [float(y) for _, y in body.top.knots]
    return np.array(ts)


def _within_ulps(got, want, scale, ulps=4):
    return np.all(np.abs(got - want) <= ulps * np.spacing(scale))


def test_array_heights_match_the_scalar_code():
    # the level widths, areas and layers agree to 4 ulp of each value.  The
    # below-volume agrees to 4 ulp of the unit volume: numpy's vectorised
    # pow rounds lam^3 and (1 - 2t/3)^1.5 apart from the C library's pow in
    # the last bit, and 1 - area or lam^d - 1 magnifies that bit where the
    # volume is small
    for body in _array_bodies():
        ts = _heights(body)
        cases = [(layer_volume, ref_layer_volume, body, None),
                 (below_volume, ref_below_volume, body, 1.0)]
        if isinstance(body, SubPrism2D):
            top = body.top
            cases += [(type(top).level_width, ref_level_width, top, None),
                      (type(top).area_above, ref_area_above, top, None)]
        for array_fn, scalar_fn, arg, unit in cases:
            got = array_fn(arg, ts)
            want = np.array([scalar_fn(arg, t) for t in ts.tolist()])
            assert got.shape == ts.shape
            scale = np.abs(want) if unit is None else np.maximum(np.abs(want),
                                                                 unit)
            assert _within_ulps(got, want, scale), (body, scalar_fn.__name__)


def test_a_scalar_height_gives_a_float():
    for body in _array_bodies()[:12]:
        hm = max_height(body)
        for t in (0.0, hm / 3, hm, hm + 1.0):
            layer, below = layer_volume(body, t), below_volume(body, t)
            assert type(layer) is float and type(below) is float
            assert _within_ulps(layer, ref_layer_volume(body, t), abs(layer))
            assert _within_ulps(below, ref_below_volume(body, t), 1.0)
