"""Robust geometry: predicates, hulls, floor predicates, oracle equivalence."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# 2D hull

def test_hull2d_strict_vertices_only():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (1, 1)]
    hull = geo.convex_hull_2d(pts)
    assert not hull.degenerate
    assert set(map(geo._frac, hull.vertices)) == set(
        map(geo._frac, [(0, 0), (2, 0), (2, 2), (0, 2)]))


def test_hull2d_collinear_degenerate():
    hull = geo.convex_hull_2d([(0, 0), (1, 1), (2, 2)])
    assert hull.degenerate
    assert set(map(geo._frac, hull.vertices)) == {geo._frac((0, 0)),
                                                  geo._frac((2, 2))}


def test_hull2d_ccw_order():
    hull = geo.convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1)])
    v = hull.vertices
    n = len(v)
    for i in range(n):
        assert geo.orient2(v[i], v[(i + 1) % n], v[(i + 2) % n]) == 1


_dyadic = st.integers(min_value=-512, max_value=512).map(lambda k: F(k, 256))
_pt2 = st.tuples(_dyadic, _dyadic)


@given(st.lists(_pt2, min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_hull2d_idempotent_and_contains_input(pts):
    hull = geo.convex_hull_2d(pts)
    if hull.degenerate:
        return
    again = geo.convex_hull_2d(list(hull.vertices))
    assert set(map(geo._frac, again.vertices)) == set(map(geo._frac,
                                                          hull.vertices))
    for p in pts:
        assert geo.point_in_hull_lp(p, pts)


@given(st.lists(_pt2, min_size=3, max_size=10), _pt2, _dyadic)
@settings(max_examples=60, deadline=None)
def test_hull2d_affine_invariance(pts, shift, scale):
    if scale == 0:
        return
    hull = geo.convex_hull_2d(pts)
    mapped = [(scale * x + shift[0], scale * y + shift[1]) for (x, y) in pts]
    hull2 = geo.convex_hull_2d(mapped)
    assert hull.degenerate == hull2.degenerate
    assert len(hull.vertices) == len(hull2.vertices)


@given(st.lists(_pt2, min_size=4, max_size=10))
@settings(max_examples=60, deadline=None)
def test_hull2d_subset_closure(pts):
    # dropping a non-vertex does not change the hull
    hull = geo.convex_hull_2d(pts)
    if hull.degenerate:
        return
    verts = set(map(geo._frac, hull.vertices))
    interior = [p for p in pts if geo._frac(p) not in verts]
    if not interior:
        return
    reduced = [p for p in pts if geo._frac(p) != geo._frac(interior[0])]
    hull2 = geo.convex_hull_2d(reduced)
    assert set(map(geo._frac, hull2.vertices)) == verts


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


def _random_dyadic_points(rng, n, dim, height_positive):
    pts = []
    for _ in range(n):
        coords = [F(int(k), 1024) for k in rng.integers(0, 1025, size=dim)]
        if height_positive:
            coords[-1] = F(int(rng.integers(1, 1025)), 1024)
        pts.append(tuple(coords))
    return pts


def test_floor_predicate_2d_matches_lp_oracle():
    rng = np.random.default_rng(11)
    floor = [(0, 0), (1, 0)]
    disagreements = 0
    for _ in range(400):
        n = int(rng.integers(1, 9))
        pts = _random_dyadic_points(rng, n, 2, True)
        a = geo.in_convex_position_with_floor_2d(pts)
        b = geo.in_convex_position_with_floor_oracle(pts, floor)
        disagreements += a != b
    assert disagreements == 0


def test_floor_predicate_3d_matches_lp_oracle():
    rng = np.random.default_rng(13)
    floor = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    disagreements = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        pts = _random_dyadic_points(rng, n, 3, True)
        a = geo.in_convex_position_with_floor_3d(pts, [(0, 0), (1, 0),
                                                       (1, 1), (0, 1)])
        b = geo.in_convex_position_with_floor_oracle(pts, floor)
        disagreements += a != b
    assert disagreements == 0


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
