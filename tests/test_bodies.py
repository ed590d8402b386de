"""Bodies with floors: normalization, volumes, descriptors."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from floorconvex.bodies import (SubPrism2D, below_volume, body_from_json,
                                body_to_json, builtin_body, floor_volume,
                                frustum, layer_volume, load_body, max_height,
                                mean_height, mountain3d,
                                normalize_floor_polygon, polygon_area,
                                prism3d, regular_polygon_floor, tetrahedron)
from floorconvex.topfunctions import QuadraticTop, triangle_top

ALL_BUILTINS = ("triangle", "square", "parabola", "mountain2d", "mountain3d",
                "prism3d", "tetrahedron", "frustum2d:0.8", "frustum3d:0.5")


def test_floor_polygon_normalization():
    poly, scale = normalize_floor_polygon([(0, 0), (3, 0), (3, 3), (0, 3)])
    assert polygon_area(poly) == pytest.approx(1.0, abs=1e-12)
    assert sum(x for x, _ in poly) == pytest.approx(0.0, abs=1e-12)
    assert sum(y for _, y in poly) == pytest.approx(0.0, abs=1e-12)
    assert scale == pytest.approx(1 / 3)


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
    assert floor_volume(t) == 0.5
    assert layer_volume(t, 0.0) == pytest.approx(0.5)
    assert mean_height(t) == pytest.approx(1.5)


def test_frustum_dilation_values():
    assert frustum(1.0, 3).c == pytest.approx(1.0)
    assert frustum(0.5, 3).c == pytest.approx(math.sqrt(3.0))
    assert frustum(0.5, 2).c == pytest.approx(3.0)
    assert frustum(0.5, 2).scale == pytest.approx(1.0)


def test_frustum_floor_at_least_unit():
    # the isotropic unit-volume rescale never shrinks the floor below area 1
    for h in np.linspace(0.05, 1.95, 25):
        assert floor_volume(frustum(float(h), 3)) >= 1.0 - 1e-12
        assert floor_volume(frustum(float(h), 2)) == pytest.approx(1.0)


def test_frustum_rejects_bad_height():
    for h in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            frustum(h, 3)
    with pytest.raises(ValueError):
        frustum(1.0, 4)


def test_mean_height_matches_quadrature():
    for body in (frustum(0.4, 3), frustum(1.6, 2), SubPrism2D(QuadraticTop()),
                 SubPrism2D(triangle_top())):
        hm = max_height(body)
        ts = np.linspace(0.0, hm, 20001)
        num = np.trapezoid(ts * np.array([layer_volume(body, t) for t in ts]),
                           ts)
        assert mean_height(body) == pytest.approx(num, abs=1e-5)


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
