"""Robust geometry: predicates, convex-position checks, oracle equivalence."""

import math
from fractions import Fraction

import numpy as np
import pytest

from floorconvex import geometry as geo

F = Fraction


# ---------------------------------------------------------------------------
# Orientation predicates

def test_orient2_basic():
    assert geo.orient2((0, 0), (1, 0), (0, 1)) == 1
    assert geo.orient2((0, 0), (1, 0), (2, 0)) == 0
    assert geo.orient2((0, 0), (1, 0), (1, -1)) == -1


def test_orient2_tiny_perturbation_exact():
    # far below float cancellation threshold; exact path must decide
    assert geo.orient2((0, 0), (1, 0), (1, F(-1, 10 ** 18))) == -1
    assert geo.orient2((0, 0), (1, 0), (1, F(1, 10 ** 18))) == 1


def test_orient3_basic():
    a, b, c = (0, 0, 0), (1, 0, 0), (0, 1, 0)
    assert geo.orient3(a, b, c, (0, 0, 1)) == 1
    assert geo.orient3(a, b, c, (0, 0, -1)) == -1
    assert geo.orient3(a, b, c, (5, 7, 0)) == 0
    assert geo.orient3(a, b, c, (0, 0, F(1, 10 ** 18))) == 1


def _fraction_orient3(a, b, c, d):
    u, v, w = ([F(q[i]) - F(a[i]) for i in range(3)] for q in (b, c, d))
    det = (w[0] * (u[1] * v[2] - u[2] * v[1])
           + w[1] * (u[2] * v[0] - u[0] * v[2])
           + w[2] * (u[0] * v[1] - u[1] * v[0]))
    return (det > 0) - (det < 0)


def test_orient3_on_the_floor_plane_skips_fractions(monkeypatch):
    rng = np.random.default_rng(8)
    floor_sets = [[(float(x), float(y), 0.0) for x, y in rng.random((4, 2))]
                  for _ in range(50)]
    floor_sets += [[(0, 0, 0), (1, 0, F(0)), (1, 1, 0.0), (0, 1, 0)],
                   [(F(1, 3), 0, 0), (2, F(5, 7), 0), (0.5, 0.25, 0), (1, 1, 0)]]
    # a fourth point just off the plane must not read as flat
    lifted = [s[:3] + [s[3][:2] + (F(sign, 10 ** 30),)]
              for s, sign in zip(floor_sets, (1, -1) * 26)]
    for pts in floor_sets + lifted:
        assert geo.orient3(*pts) == _fraction_orient3(*pts)

    def no_fractions(*args):
        raise AssertionError("orient3 took the Fraction path")

    monkeypatch.setattr(geo, "Fraction", no_fractions)
    for pts in floor_sets:
        assert geo.orient3(*pts) == 0


def _fraction_orient2(a, b, c):
    (ax, ay), (bx, by), (cx, cy) = (map(F, q) for q in (a, b, c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def _near_third(rng, dim):
    """A point whose coordinates are 1/3 + k/(3 10^12 + j), |k| <= 3: no
    float holds them, and rounding them moves them by about 1e-4 of their
    distances, so near-flat sets of them turn the wrong way in floats."""
    return tuple(F(1, 3) + F(int(k), 3 * 10 ** 12 + int(j))
                 for k, j in zip(rng.integers(-3, 4, dim),
                                 rng.integers(0, 4, dim)))


def test_predicates_are_exact_on_rationals_no_float_holds():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        pts = [_near_third(rng, 2) for _ in range(3)]
        assert geo.orient2(*pts) == _fraction_orient2(*pts), pts
        pts = [_near_third(rng, 3) for _ in range(4)]
        assert geo.orient3(*pts) == _fraction_orient3(*pts), pts
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    for _ in range(250):
        pts = [_near_third(rng, 2) for _ in range(int(rng.integers(3, 7)))]
        assert geo.in_convex_position_2d(pts) == \
            geo.in_convex_position_with_floor_oracle(pts, []), pts
        pts = [_near_third(rng, 2) for _ in range(int(rng.integers(2, 6)))]
        assert geo.in_convex_position_with_floor_2d(pts) == \
            geo.in_convex_position_with_floor_oracle(pts, [(0, 0), (1, 0)]), pts
        pts = [_near_third(rng, 3) for _ in range(int(rng.integers(2, 5)))]
        assert geo.in_convex_position_with_floor_3d(pts, square) == \
            geo.in_convex_position_with_floor_oracle(
                pts, [(x, y, 0) for x, y in square]), pts


# ---------------------------------------------------------------------------
# Floor predicates

def test_floor_2d_examples():
    assert geo.in_convex_position_with_floor_2d(
        [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
    # middle point on the chord of its neighbours: not strict
    assert not geo.in_convex_position_with_floor_2d(
        [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 2))])
    # single point always in convex position with the floor
    assert geo.in_convex_position_with_floor_2d([(F(1, 2), F(1, 100))])
    # duplicated point fails
    assert not geo.in_convex_position_with_floor_2d(
        [(F(1, 4), F(1, 2)), (F(1, 4), F(1, 2))])


def test_floor_2d_rejects_nonpositive_heights():
    with pytest.raises(ValueError):
        geo.in_convex_position_with_floor_2d([(F(1, 2), 0)])
    with pytest.raises(ValueError):
        geo.in_convex_position_with_floor_2d([(F(1, 2), -1)])


def test_floor_3d_examples():
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert geo.in_convex_position_with_floor_3d(
        [(F(1, 2), F(1, 2), 1)], sq)
    # a point under the hull of a higher point and the floor fails
    assert not geo.in_convex_position_with_floor_3d(
        [(F(1, 2), F(1, 2), 2), (F(1, 2), F(1, 2), 1)], sq)
    two_up = [(F(1, 4), F(1, 2), F(1, 2)), (F(3, 4), F(1, 2), F(1, 2))]
    assert geo.in_convex_position_with_floor_3d(two_up, sq)


def test_floor_3d_point_inside_tetra_over_triangle_floor():
    tri = [(0, 0), (1, 0), (0, 1)]
    apex = (F(1, 10), F(1, 10), 1)
    inner = (F(1, 10), F(1, 10), F(1, 2))
    assert geo.in_convex_position_with_floor_3d([apex], tri)
    assert not geo.in_convex_position_with_floor_3d([apex, inner], tri)


def test_floor_3d_rejects_a_floor_of_zero_area():
    up = [(F(1, 2), F(1, 2), 1), (F(1, 4), F(1, 2), F(1, 2))]
    for floor in ([(0, 0), (1, 0), (2, 0)], [(0, 0), (1, 1)],
                  [(0, 0), (0, 0), (0, 0)]):
        with pytest.raises(ValueError, match="positive area"):
            geo.in_convex_position_with_floor_3d(up, floor)


def test_floor_fan_sizes():
    # (k - 2) m + (k - 1) C(m, 2) + C(m, 3) simplices for k floor vertices
    # and m other sample points
    for k, m, size in ((4, 3, 16), (4, 2, 7), (3, 2, 4), (3, 3, 10),
                       (5, 0, 0), (3, 1, 1)):
        fan = geo.floor_fan(k, m)
        assert len(fan) == len(set(fan)) == size
        assert all(a < b < c < k - 1 + m for a, b, c in fan)


def test_convex_floor_accepts_either_orientation_and_repeats():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    xyz = [(x, y, 0) for x, y in square]
    assert geo.convex_floor(square) == xyz
    assert geo.convex_floor(square[::-1]) == xyz[::-1]
    repeats = square[:2] + [(1, 0, 0)] + square[2:] + [(0, 0)]
    assert geo.convex_floor(repeats) == xyz
    with pytest.raises(ValueError, match="height 0"):
        geo.convex_floor([(0, 0, 0), (1, 0, 0), (0, 1, F(1, 2))])


def _random_dyadic_points(rng, n, dim, height_positive):
    pts = []
    for _ in range(n):
        coords = [F(int(k), 1024) for k in rng.integers(0, 1025, size=dim)]
        if height_positive:
            coords[-1] = F(int(rng.integers(1, 1025)), 1024)
        pts.append(tuple(coords))
    return pts


def _grid_points(rng, n, step, footprint):
    """n points on the 1/step grid at heights in (0, 1], each other
    coordinate up to one step outside the footprint's range."""
    pts = []
    for _ in range(n):
        coords = []
        for k in range(len(footprint[0])):
            lo = math.floor(min(F(v[k]) for v in footprint) * step) - 1
            hi = math.ceil(max(F(v[k]) for v in footprint) * step) + 1
            coords.append(F(int(rng.integers(lo, hi + 1)), step))
        coords.append(F(int(rng.integers(1, step + 1)), step))
        pts.append(tuple(coords))
    return pts


# coarse grids make ties: points on floor edges, on one ray, in one plane
_GRIDS = (4, 8, 1024)
_FLOORS_2D = {"unit": ((0, 0), (1, 0)),
              "right_to_left": ((1, 0), (0, 0)),
              "off_unit": ((F(-1, 2), 0), (F(3, 4), 0))}
_FLOORS_3D = {"square": ((0, 0), (1, 0), (1, 1), (0, 1)),
              "triangle": ((0, 0), (1, 0), (0, 1)),
              "pentagon": ((F(1, 2), 0), (1, F(3, 8)), (F(3, 4), 1),
                           (F(1, 4), 1), (0, F(3, 8))),
              "collinear_vertex": ((0, 0), (F(1, 2), 0), (1, 0), (1, 1),
                                   (0, 1)),
              "repeated_vertex": ((0, 0), (1, 0), (1, 1), (1, 1), (0, 1))}


@pytest.mark.parametrize("floor_name", _FLOORS_2D)
@pytest.mark.parametrize("step", _GRIDS)
def test_floor_predicate_2d_matches_lp_oracle(step, floor_name):
    rng = np.random.default_rng(11)
    floor = _FLOORS_2D[floor_name]
    disagreements = 0
    for _ in range(150):
        n = int(rng.integers(1, 9))
        pts = _grid_points(rng, n, step, [(x,) for x, _ in floor])
        a = geo.in_convex_position_with_floor_2d(pts, floor)
        b = geo.in_convex_position_with_floor_oracle(pts, floor)
        disagreements += a != b
    assert disagreements == 0


@pytest.mark.parametrize("floor_name", _FLOORS_3D)
@pytest.mark.parametrize("step", _GRIDS)
def test_floor_predicate_3d_matches_lp_oracle(step, floor_name):
    rng = np.random.default_rng(13)
    floor = _FLOORS_3D[floor_name]
    disagreements = 0
    for _ in range(80):
        n = int(rng.integers(1, 7))
        pts = _grid_points(rng, n, step, floor)
        a = geo.in_convex_position_with_floor_3d(pts, floor)
        b = geo.in_convex_position_with_floor_oracle(
            pts, [(x, y, 0) for x, y in floor])
        disagreements += a != b
    assert disagreements == 0


# ---------------------------------------------------------------------------
# Floorless convex position

def test_floorless_examples():
    assert geo.in_convex_position_2d([(0, 0), (1, 0), (0, 1)])
    assert geo.in_convex_position_2d([(0.25, 0.5), (1, 1), (0, 1), (1, 0)])
    # fewer than three points
    for pts in ([], [(0, 0)], [(0, 0), (1, 0)]):
        assert not geo.in_convex_position_2d(pts)
    # collinear, with a point at the centroid and without
    assert not geo.in_convex_position_2d([(0, 0), (1, 1), (2, 2)])
    assert not geo.in_convex_position_2d([(0, 0), (1, 1), (5, 5)])
    assert not geo.in_convex_position_2d([(0, 0), (1, 0), (3, 0), (7, 0)])
    # a duplicate point
    assert not geo.in_convex_position_2d([(0, 0), (1, 0), (0, 1), (1, 0.0)])
    assert not geo.in_convex_position_2d([(0, 0), (1, 0), (0, 0), (1, 0)])
    # a point at the centroid of the set (and of the other three)
    assert not geo.in_convex_position_2d([(0, 0), (3, 0), (0, 3), (1, 1)])
    # a point on an edge, and a point just outside it
    edge = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert not geo.in_convex_position_2d(edge + [(1, 0)])
    assert geo.in_convex_position_2d(edge + [(1, F(-1, 10 ** 30))])
    assert not geo.in_convex_position_2d(edge + [(1, F(1, 10 ** 30))])


@pytest.mark.parametrize("step", _GRIDS)
def test_floorless_predicate_matches_lp_oracle(step):
    rng = np.random.default_rng(19)
    verdicts = []
    for _ in range(150):
        n = int(rng.integers(3, 9))
        pts = [tuple(F(int(k), step) for k in rng.integers(0, step + 1, 2))
               for _ in range(n)]
        a = geo.in_convex_position_2d(pts)
        assert a == geo.in_convex_position_with_floor_oracle(pts, []), pts
        verdicts.append(a)
    assert 0 < sum(verdicts) < len(verdicts)


def test_subset_closure_of_floor_predicate():
    # removing a point preserves convex position
    rng = np.random.default_rng(17)
    for _ in range(100):
        pts = _random_dyadic_points(rng, 5, 2, True)
        if geo.in_convex_position_with_floor_2d(pts):
            for i in range(5):
                assert geo.in_convex_position_with_floor_2d(
                    pts[:i] + pts[i + 1:])


def test_lp_oracle_basics():
    assert geo.point_in_hull_lp((F(1, 2), F(1, 2)),
                                [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not geo.point_in_hull_lp((2, 0), [(0, 0), (1, 0), (0, 1)])
    assert geo.point_in_hull_lp((F(1, 3), F(1, 3), F(1, 3)),
                                [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
