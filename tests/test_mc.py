"""Monte Carlo engine: predicates vs exact oracle, determinism, concordance."""

import math
from fractions import Fraction

import numpy as np
import pytest

from floorconvex import geometry as geo
from floorconvex import mc
from floorconvex import sequences as sq
from floorconvex.bodies import body_from_json, builtin_body, mountain3d
from floorconvex.samplers import RngStream, sample_body
from floorconvex.topfunctions import q2_exact_subprism

N = 200_000
SIGMA = 4.5


def _close(result, target, z=SIGMA):
    return abs(result.estimate - float(target)) <= z * max(result.std_error,
                                                           1e-12)


# ---------------------------------------------------------------------------
# Batch predicates agree with the exact predicates

def test_batch_2d_predicate_matches_exact():
    body = builtin_body("square")
    pts = sample_body(body, RngStream(1).generator(), 300 * 4).reshape(300, 4, 2)
    fl = np.asarray(body.floor)
    full = np.concatenate([pts, np.broadcast_to(fl, (300,) + fl.shape)], axis=1)
    v = mc.convex_position_verdicts_2d(full)
    for i in range(300):
        exact = geo.in_convex_position_with_floor_2d(
            [tuple(p) for p in pts[i]], floor=body.floor)
        if v[i] == -1:
            continue
        assert bool(v[i]) == exact


@pytest.mark.parametrize("name", ["frustum2d:0.5", "frustum2d:1.7",
                                  "triangle", "parabola"])
def test_floor_walk_matches_exact(name):
    # frustum2d:0.5 widens upwards, so its points leave the floor's x-range
    body = builtin_body(name)
    fl = np.asarray(body.floor, dtype=float)
    pts = sample_body(body, RngStream(6).generator(), 2000 * 4).reshape(2000, 4, 2)
    v = mc.convex_position_verdicts_2d(pts, fl)
    assert (v != -1).all() and (v == 1).any()
    for verdict, trial in zip(v, pts):
        assert bool(verdict) == geo.in_convex_position_with_floor_2d(
            [tuple(p) for p in trial], floor=body.floor)


def test_floor_walk_sends_points_on_the_floor_to_exact():
    body = builtin_body("frustum2d:0.5")
    fl = np.asarray(body.floor, dtype=float)
    pts = sample_body(body, RngStream(8).generator(), 400 * 3).reshape(400, 3, 2)
    pts[::2, 1, 1] = 0.0
    pts[::4, 2] = (0.0, 0.0)                 # the floor midpoint: a 0/0 key
    v = mc.convex_position_verdicts_2d(pts, fl)
    assert (v[::2] == -1).all() and (v[1::2] != -1).all()
    assert mc._resolve(pts[::2], v[::2], geo.in_convex_position_with_floor_2d,
                       fl) == 0


def test_floor_walk_certifies_its_order():
    # a key that swaps each row's first two points, as a rounded key might
    # on a near-tie, leaves every row ambiguous instead of certified
    body = builtin_body("frustum2d:0.5")
    (f0x, _), (f1x, _) = body.floor
    mx = (f0x + f1x) / 2
    pts = sample_body(body, RngStream(10).generator(), 500 * 4).reshape(500, 4, 2)
    rank = np.argsort(np.argsort((mx - pts[..., 0]) / pts[..., 1], axis=1),
                      axis=1)
    swapped = np.where(rank < 2, 1 - rank, rank)
    v = mc._walk_verdicts(pts, swapped, [(f1x, 0.0), (f0x, 0.0)], hub=mx)
    assert (v == -1).all()


def test_floor_walk_never_certifies_two_points_on_one_ray():
    # p and q on one ray from the floor midpoint m = (1/2, 0): p lies on the
    # segment from m to q, so the trial fails; exactly on the 1/16 grid, and
    # within rounding for random rays
    rng = np.random.default_rng(9)
    fl = np.array([[0.0, 0.0], [1.0, 0.0]])
    m = np.array([0.5, 0.0])
    rows = 2000
    d = np.column_stack([rng.integers(-4, 5, rows),
                         rng.integers(1, 5, rows)]) / 16
    grid = m + np.stack([d, 2 * d, np.broadcast_to([0.25, 0.5], d.shape)],
                        axis=1)
    d = np.column_stack([rng.uniform(-1, 1, rows), rng.uniform(0.01, 1, rows)])
    t = rng.uniform(0.05, 0.5, (rows, 2))
    rays = m + np.stack([t[:, :1] * d, t[:, 1:] * d, rng.random((rows, 2))],
                        axis=1)
    for pts in (grid, rays):
        for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
            v = mc.convex_position_verdicts_2d(pts[:, perm], fl)
            assert not (v == 1).any()
    v = mc.convex_position_verdicts_2d(grid, fl)
    assert mc._resolve(grid, v, geo.in_convex_position_with_floor_2d, fl) == 0


PENTAGON = [(0.5, 0.0), (1.0, 0.375), (0.75, 1.0), (0.25, 1.0), (0.0, 0.375)]
_MOUNTAINS = {"mountain3d_offset_apex": lambda: mountain3d(apex_xy=(0.8, -0.3)),
              "mountain3d_pentagon": lambda: mountain3d(PENTAGON)}


@pytest.mark.parametrize("name, n", [
    ("tetrahedron", 3), ("tetrahedron", 4), ("tetrahedron", 5),
    ("mountain3d", 3), ("prism3d", 4), ("frustum3d:0.5", 4),
    ("mountain3d_offset_apex", 3), ("mountain3d_pentagon", 4)])
def test_batch_3d_predicate_matches_exact(name, n):
    body = _MOUNTAINS[name]() if name in _MOUNTAINS else builtin_body(name)
    pts = sample_body(body, RngStream(2).generator(), 200 * n).reshape(200, n, 3)
    fxyz = np.array([[x, y, 0.0] for (x, y) in body.floor])
    v = mc.convex_position_verdicts_3d(pts, fxyz)
    assert (v != -1).all()  # sampled floats leave no trial within the margin
    for i in range(200):
        exact = geo.in_convex_position_with_floor_3d(
            [tuple(p) for p in pts[i]], body.floor)
        assert bool(v[i]) == exact


def test_batch_3d_predicate_never_passes_a_point_on_the_floor():
    # a point at height 0 inside the floor is in the hull of the floor; the
    # fan from the first floor vertex must leave its trial ambiguous or failed
    for name, n in (("prism3d", 1), ("prism3d", 3), ("tetrahedron", 2),
                    ("tetrahedron", 4)):
        body = builtin_body(name)
        pts = sample_body(body, RngStream(4).generator(),
                          300 * n).reshape(300, n, 3)
        pts[:, 0, 2] = 0.0
        fxyz = np.array([[x, y, 0.0] for (x, y) in body.floor])
        v = mc.convex_position_verdicts_3d(pts, fxyz)
        assert not (v == 1).any()
        assert mc._resolve(pts, v, geo.in_convex_position_with_floor_3d,
                           fxyz) == 0


def test_3d_verdicts_do_not_depend_on_the_floor_orientation():
    # the floor reversed turns the other way round and starts the fan at
    # another vertex; sampled floats leave no trial ambiguous either way
    for body, n in ((builtin_body("prism3d"), 4), (mountain3d(PENTAGON), 3)):
        pts = sample_body(body, RngStream(12).generator(),
                          5000 * n).reshape(5000, n, 3)
        fxyz = np.array([[x, y, 0.0] for (x, y) in body.floor])
        ccw = mc.convex_position_verdicts_3d(pts, fxyz)
        assert (ccw != -1).all() and 0 < ccw.sum() < len(ccw)
        assert np.array_equal(mc.convex_position_verdicts_3d(pts, fxyz[::-1]),
                              ccw)


@pytest.mark.parametrize("floor", [
    [(0, 0), (1, 1), (1, 0), (0, 1)],               # out of boundary order
    [(0, 0), (2, 0), (1, 0.5), (2, 2), (0, 2)],     # a reflex vertex
    [(0, 0), (1, 0), (0, 1), (0, 0), (1, 0), (0, 1)]])  # round twice
def test_3d_predicates_reject_a_floor_out_of_order(floor):
    pts = np.array([[[0.5, 0.5, 1.0], [0.25, 0.5, 0.5]]])
    fxyz = np.array([[x, y, 0.0] for (x, y) in floor])
    with pytest.raises(ValueError, match="boundary order"):
        mc.convex_position_verdicts_3d(pts, fxyz)
    with pytest.raises(ValueError, match="boundary order"):
        geo.in_convex_position_with_floor_3d([tuple(p) for p in pts[0]], floor)


def test_chain_verdicts_match_exact():
    from floorconvex.samplers import sample_density_g2
    pts = sample_density_g2(RngStream(3).generator(), 500 * 3).reshape(500, 3, 2)
    v = mc.chain_verdicts(pts)
    for i in range(500):
        if v[i] == -1:
            continue
        assert bool(v[i]) == mc._exact_chain(pts[i])


def test_chain_verdicts_walk_tied_heights_as_the_exact_chain():
    from floorconvex.samplers import sample_density_g1
    # rows of four, where numpy's default argsort reorders some ties
    pts = _grid_trials(sample_density_g1, 20_000, 4, 0)
    heights = np.sort(pts[..., 1], axis=1)
    ties = (np.diff(heights, axis=1) == 0).any(axis=1)
    v = mc.chain_verdicts(pts[ties])
    assert ties.sum() > 1000 and (v != -1).any()
    for verdict, trial in zip(v, pts[ties]):
        if verdict != -1:
            assert bool(verdict) == mc._exact_chain(trial)


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_order_is_the_stable_argsort(n):
    rng = np.random.default_rng(n)
    rows = 3000
    signed = rng.choice([-0.0, 0.0, -1.5, 2.0], (rows, n))
    assert np.signbit(signed).any() and (signed == 0).any()
    for key in (rng.normal(size=(rows, n)),
                np.round(rng.uniform(-1, 1, (rows, n)) * 8) / 8,
                signed,
                rng.integers(-3, 4, (rows, n))):
        assert np.array_equal(mc._order(key),
                              np.argsort(key, axis=1, kind="stable").T)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_order_permutes_rows_with_nan_and_infinite_keys(n):
    rng = np.random.default_rng(1)
    key = rng.choice([np.nan, -np.nan, np.inf, -np.inf, 0.0, 1.0], (500, n))
    assert np.array_equal(np.sort(mc._order(key), axis=0),
                          np.broadcast_to(np.arange(n)[:, None], (n, 500)))


def test_chain_leaves_heights_in_index_order_ambiguous():
    # heights one ulp apart share a bucket of _order's tagged keys, so the
    # higher point, first by index, is walked first; the chain must not
    # certify that walk
    low, high = 0.5, np.nextafter(0.5, 1.0)
    for rest in ([], [(0.2, 0.75)], [(0.9, 0.125), (0.2, 0.75), (0.1, 0.9)]):
        pts = np.array([[(0.3, high), (0.6, low), *rest]])
        assert mc.chain_verdicts(pts)[0] == -1
        assert (mc._resolve(pts, np.array([-1]), mc._exact_chain)
                == mc._exact_chain(pts[0]))


@pytest.mark.filterwarnings("error")
def test_3d_estimate_of_extreme_coordinates_warns_of_nothing():
    # no float value of the 3D predicate may overflow: at this scale every
    # trial goes to the exact check, with no numpy warning
    body = body_from_json({"kind": "mountain", "apex": [1e300, -1e300]})
    r = mc.estimate_Q(body, 6, 200, seed=0)
    assert r.stats.n_ambiguous == 200


def test_predicates_handle_crafted_degeneracies():
    # three collinear points above the floor: middle one is not strict
    pts = np.array([[[0.25, 0.5], [0.5, 0.5], [0.75, 0.5],
                     [0.0, 0.0], [1.0, 0.0]]])
    v = mc.convex_position_verdicts_2d(pts)
    assert v[0] in (0, -1)
    if v[0] == -1:
        assert not geo.in_convex_position_with_floor_2d(
            [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)),
             (Fraction(3, 4), Fraction(1, 2))])


def _near_collinear_rows(rng, rows, x_ranges, y_ranges):
    """Rows of three points: two random ends a, b in the given boxes and
    a + t (b - a), rounded, between them.  The rounded middle point lies on
    either side of the line ab or on it, and its turn is far smaller than
    the rounding error of a cross product of these coordinates."""
    a, b = (np.column_stack([rng.uniform(*xr, rows), rng.uniform(*yr, rows)])
            for xr, yr in zip(x_ranges, y_ranges))
    t = rng.uniform(0.2, 0.8, (rows, 1))
    return np.stack([a, a + t * (b - a), b], axis=1)


def test_margins_leave_rounding_decided_rows_ambiguous():
    # off the 1/8 grid the float turns at near-collinear points have the
    # wrong sign on some rows; the margin must send those rows to the exact
    # path (-1), so every certified verdict equals the exact one
    rng = np.random.default_rng(0)
    rows = 4000
    fl = np.array([[0.0, 0.0], [1.0, 0.0]])
    top = _near_collinear_rows(rng, rows, [(0.05, 0.35), (0.65, 0.95)],
                               [(0.3, 0.7), (0.3, 0.7)])
    below = np.broadcast_to([0.5, 0.05], (rows, 1, 2))
    chain = _near_collinear_rows(rng, rows, [(0.85, 0.95), (0.1, 0.3)],
                                 [(0.05, 0.15), (0.35, 0.5)])
    cases = [(lambda p: mc.convex_position_verdicts_2d(p, fl), top,
              lambda row: geo.in_convex_position_with_floor_2d(row, fl)),
             (mc.convex_position_verdicts_2d,
              np.concatenate([top, below], axis=1),
              mc._exact_convex_position_2d),
             (mc.chain_verdicts, chain, mc._exact_chain)]
    for verdicts, pts, exact in cases:
        want = np.array([exact([tuple(p) for p in row]) for row in pts])
        assert 0 < want.sum() < rows        # both verdicts occur
        v = verdicts(pts)
        assert (v == -1).mean() > 0.9
        assert np.array_equal(v[v != -1], want[v != -1])


def test_3d_margin_leaves_rounding_decided_rows_ambiguous():
    # x = a rounded convex combination of a floor edge's ends and the high
    # point p lies on the face (f_j, f_j+1, p) of the hull up to rounding,
    # which decides whether it is a vertex; over edges that hold q0 and
    # edges that do not, at sizes 1 and 1000, every such row must go to
    # the exact path.  With margin 0 some rows get a wrong certified verdict.
    rng = np.random.default_rng(3)
    rows = 1500
    for size in (1.0, 1000.0):
        floor = size * np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        j = rng.integers(0, 4, rows)
        p = size * rng.uniform([0.2, 0.2, 0.5], [0.8, 0.8, 1.0], (rows, 3))
        w = rng.dirichlet([1, 1, 1], rows)
        x = (w[:, :1] * floor[j] + w[:, 1:2] * floor[(j + 1) % 4]
             + w[:, 2:] * p)
        pts = np.stack([p, x], axis=1)
        want = np.array([geo.in_convex_position_with_floor_3d(
            [tuple(q) for q in row], floor) for row in pts])
        assert 0.2 < want.mean() < 0.8          # both verdicts occur
        v = mc.convex_position_verdicts_3d(pts, floor)
        assert (v == -1).mean() > 0.9
        assert np.array_equal(v[v != -1], want[v != -1])


def test_centroid_walk_leaves_near_ties_ambiguous():
    # rows of four points around c = (1/2, 1/2), two of them 1e-17 to 1e-14
    # rad apart as seen from c, at equal or at different distances; the
    # order certificate leaves every such row ambiguous, and every other
    # row's certified verdict is the exact one
    rng = np.random.default_rng(5)
    rows = 2000
    c = np.array([0.5, 0.5])

    def at(angle, radius):
        return c + radius[:, None] * np.column_stack([np.cos(angle),
                                                      np.sin(angle)])

    t = rng.uniform(0, 2 * np.pi, rows)
    gap = np.where(np.arange(rows) < rows // 2,
                   10.0 ** rng.uniform(-17, -14, rows),
                   rng.uniform(0.05, 1.5, rows))
    r = rng.uniform(0.1, 0.5, rows)
    a = at(t, r)
    b = at(t + gap, r * rng.choice([1.0, 0.5], rows))
    d = at(t + rng.uniform(2.0, 3.5, rows), rng.uniform(0.1, 0.5, rows))
    pts = np.stack([a, b, d, 4 * c - a - b - d], axis=1)
    v = mc.convex_position_verdicts_2d(pts)
    want = np.array([geo.in_convex_position_2d([tuple(p) for p in row])
                     for row in pts])
    assert (v[:rows // 2] == -1).all()
    assert (v[rows // 2:] != -1).mean() > 0.9 and 0 < want.sum()
    assert np.array_equal(v[v != -1], want[v != -1])


# ---------------------------------------------------------------------------
# Float-to-exact handoff: on a 1/8 grid ties are common, so the float
# predicates leave trials ambiguous and _resolve must settle them exactly

def _grid_trials(sample, trials, n, seed):
    pts = sample(RngStream(seed).generator(), trials * n)
    pts = np.round(pts.reshape(trials, n, pts.shape[1]) * 8) / 8
    pts[..., -1] = np.maximum(pts[..., -1], 1 / 8)
    return pts


def _oracle_count(pts, floor_pts):
    return sum(geo.in_convex_position_with_floor_oracle(
        [tuple(p) for p in trial], floor_pts) for trial in pts)


def test_grid_handoff_2d_with_floor():
    body = builtin_body("square")
    pts = _grid_trials(lambda rng, k: sample_body(body, rng, k), 300, 4, 4)
    fl = np.asarray(body.floor, dtype=float)
    v = mc.convex_position_verdicts_2d(pts, fl)
    assert (v == -1).any()
    assert (mc._resolve(pts, v, geo.in_convex_position_with_floor_2d, fl)
            == _oracle_count(pts, body.floor))


def test_grid_handoff_2d_floorless():
    body = builtin_body("triangle")
    pts = _grid_trials(lambda rng, k: sample_body(body, rng, k), 300, 4, 5)
    v = mc.convex_position_verdicts_2d(pts)
    assert (v == -1).any()
    assert (mc._resolve(pts, v, mc._exact_convex_position_2d)
            == _oracle_count(pts, []))


def test_grid_handoff_3d():
    body = builtin_body("prism3d")
    pts = _grid_trials(lambda rng, k: sample_body(body, rng, k), 300, 4, 6)
    fxyz = np.array([[x, y, 0.0] for (x, y) in body.floor])
    v = mc.convex_position_verdicts_3d(pts, fxyz)
    k = mc._resolve(pts, v, geo.in_convex_position_with_floor_3d, fxyz)
    # here some ambiguous trials are successes: a sample point coplanar with
    # a flat 4-subset of the others but outside its hull
    assert k > (v == 1).sum()
    assert k == _oracle_count(pts, fxyz)


def test_grid_handoff_chain():
    from floorconvex.samplers import sample_density_g1
    pts = _grid_trials(sample_density_g1, 500, 5, 7)
    v = mc.chain_verdicts(pts)
    assert (v == -1).any()
    assert (mc._resolve(pts, v, mc._exact_chain)
            == sum(mc._exact_chain(trial) for trial in pts))


# ---------------------------------------------------------------------------
# Estimator correctness at moderate budgets

@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangle_estimates(n):
    assert _close(mc.estimate_Q(builtin_body("triangle"), n, N, seed=10 + n),
                  sq.t_closed(n))


@pytest.mark.parametrize("n", [2, 3])
def test_square_estimates(n):
    assert _close(mc.estimate_Q(builtin_body("square"), n, N, seed=20 + n),
                  sq.q_closed(n))


@pytest.mark.parametrize("n", [2, 3])
def test_parabola_estimates(n):
    assert _close(mc.estimate_Q(builtin_body("parabola"), n, N, seed=30 + n),
                  sq.p_closed(n))


def test_q_trivial_cases():
    r = mc.estimate_Q(builtin_body("triangle"), 1, 1000, seed=1)
    assert r.estimate == 1.0 and r.std_error == 0.0
    r = mc.estimate_Q(builtin_body("triangle"), 0, 1000, seed=1)
    assert r.estimate == 1.0
    with pytest.raises(ValueError):
        mc.estimate_Q(builtin_body("triangle"), -1, 1000)


def test_estimators_reject_negative_n():
    tri = builtin_body("triangle")
    estimators = [lambda n: mc.estimate_Q(tri, n, 100),
                  lambda n: mc.estimate_P(tri, n, 100),
                  lambda n: mc.estimate_beta1(n, 100),
                  lambda n: mc.estimate_beta2(n, 100),
                  lambda n: mc.estimate_fradius_reduction(n, 100)]
    for estimate in estimators:
        assert estimate(0).estimate == 1.0
        for n in (-1, -3):
            with pytest.raises(ValueError, match="n must be >= 0"):
                estimate(n)


def test_estimators_reject_counts_below_one():
    tri = builtin_body("triangle")
    estimators = [
        lambda **kw: mc.estimate_Q(tri, 1, **kw),
        lambda **kw: mc.estimate_Q(tri, 3, **kw),
        lambda **kw: mc.estimate_P(tri, 3, **kw),
        lambda **kw: mc.estimate_Q2_height(tri, **kw),
        lambda **kw: mc.estimate_beta1(1, **kw),
        lambda **kw: mc.estimate_beta2(3, **kw),
        lambda **kw: mc.estimate_fradius_reduction(3, **kw),
    ]
    for estimate in estimators:
        for kw in ({"n_samples": 0}, {"n_samples": 100, "workers": 0},
                   {"n_samples": 100, "chunk_size": 0},
                   {"n_samples": 100, "chunk_size": -5}):
            with pytest.raises(ValueError):
                estimate(**kw)


def test_3d_estimates():
    assert _close(mc.estimate_Q(builtin_body("mountain3d"), 2, N, seed=40),
                  0.5)
    assert _close(mc.estimate_Q(builtin_body("prism3d"), 2, N, seed=41),
                  Fraction(2, 3))
    assert _close(mc.estimate_Q(builtin_body("tetrahedron"), 2, N, seed=42),
                  0.5)


def test_no_floor_estimates_match_known_values():
    assert _close(mc.estimate_P(builtin_body("square"), 4, N, seed=50),
                  sq.valtr_square(4))
    assert _close(mc.estimate_P(builtin_body("triangle"), 4, N, seed=51),
                  sq.valtr_triangle(4))
    r = mc.estimate_P(builtin_body("square"), 3, 1000, seed=52)
    assert r.estimate == 1.0
    with pytest.raises(ValueError):
        mc.estimate_P(builtin_body("prism3d"), 4, 1000)


def test_q2_height_estimator():
    for name, target in [("mountain2d", sq.q2_mountain(2)),
                         ("square", sq.q2_prism(2)),
                         ("mountain3d", sq.q2_mountain(3)),
                         ("prism3d", sq.q2_prism(3)),
                         ("tetrahedron", Fraction(1, 2))]:
        assert _close(mc.estimate_Q2_height(builtin_body(name), N, seed=60),
                      target)


def test_estimator_concordance_q2():
    # indicator and height estimators agree within pooled 5 sigma
    for name in ("triangle", "parabola", "mountain3d", "frustum3d:0.7"):
        body = builtin_body(name)
        a = mc.estimate_Q(body, 2, N, seed=70)
        b = mc.estimate_Q2_height(body, N, seed=71)
        pooled = math.sqrt(a.std_error ** 2 + b.std_error ** 2)
        assert abs(a.estimate - b.estimate) <= 5 * pooled


@pytest.mark.parametrize("n", [2, 3])
def test_beta2_matches_mountain_sequence(n):
    assert _close(mc.estimate_beta2(n, N, seed=80 + n), sq.y_closed(n))


def test_beta1_bounds_and_monotonicity():
    values = [mc.estimate_beta1(n, N, seed=90 + n).estimate
              for n in range(1, 7)]
    assert values[0] == 1.0
    assert 0.2 < values[1] < 1.0
    for a, b in zip(values, values[1:]):
        assert b <= a + 0.01


def test_beta_trivial():
    assert mc.estimate_beta2(1, 100, seed=0).estimate == 1.0
    assert mc.estimate_fradius_reduction(1, 100, seed=0).estimate == 1.0


def test_fradius_reduction_law_and_dominance():
    fr = mc.estimate_fradius_reduction(2, N, seed=100)
    assert _close(fr, sq.y_closed(2))
    qm = mc.estimate_Q(builtin_body("mountain3d"), 2, N, seed=101)
    assert fr.estimate <= qm.estimate + SIGMA * (fr.std_error + qm.std_error)


def test_tetra_sandwich_moderate():
    u = sq.u_seq(4)
    ell = sq.ell_seq(4)
    for n in (2, 3, 4):
        r = mc.estimate_Q(builtin_body("tetrahedron"), n, N, seed=110 + n)
        assert float(ell[n]) - SIGMA * r.std_error <= r.estimate
        assert r.estimate <= float(u[n]) + SIGMA * r.std_error


# ---------------------------------------------------------------------------
# Engine mechanics

def test_worker_count_bit_determinism():
    base = mc.estimate_Q(builtin_body("triangle"), 3, 120_000, seed=7,
                         workers=1, chunk_size=10_000)
    for workers in (4, 16):
        again = mc.estimate_Q(builtin_body("triangle"), 3, 120_000, seed=7,
                              workers=workers, chunk_size=10_000)
        assert again.n_success == base.n_success
        assert again.estimate == base.estimate
    h1 = mc.estimate_Q2_height(builtin_body("mountain3d"), 120_000, seed=7,
                               workers=1, chunk_size=10_000)
    h4 = mc.estimate_Q2_height(builtin_body("mountain3d"), 120_000, seed=7,
                               workers=4, chunk_size=10_000)
    assert h1.estimate == h4.estimate


def test_runner_starts_no_more_threads_than_chunks(monkeypatch):
    built = []

    class Recording:
        """Stands in for ThreadPoolExecutor: records max_workers and runs
        the chunks in this thread."""
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", Recording)
    body = builtin_body("triangle")
    one = mc.estimate_Q(body, 3, 1_000, seed=7, workers=64)
    assert built == [] and (one.stats.n_chunks, one.stats.workers) == (1, 64)
    two = mc.estimate_Q(body, 3, 2_000, seed=7, workers=64, chunk_size=1_000)
    assert built == [2] and (two.stats.n_chunks, two.stats.workers) == (2, 64)
    serial = mc.estimate_Q(body, 3, 2_000, seed=7, chunk_size=1_000)
    assert two.n_success == serial.n_success


# float.hex of estimate_Q2_height's estimate and std_error at seed 7, 120k
# samples in chunks of 50k, recorded before the height estimator moved onto
# the shared chunk runner
Q2_HEIGHT_PINNED = [("square", "0x1.0003fb1481660p-1", "0x1.b46a8bebf6250p-11"),
                    ("mountain3d", "0x1.fed2a2f8791f0p-2",
                     "0x1.260afe2c31621p-10")]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name,estimate,std_error", Q2_HEIGHT_PINNED)
def test_q2_height_pinned(name, estimate, std_error, workers):
    r = mc.estimate_Q2_height(builtin_body(name), 120_000, seed=7,
                              workers=workers, chunk_size=50_000)
    assert (r.estimate.hex(), r.std_error.hex()) == (estimate, std_error)
    assert r.stats.n_chunks == 3


# n_success of estimate_Q on the 3D benchmark cases, recorded with the earlier
# predicate that tested every 4-subset of every trial
MC3D_PINNED = [("tetrahedron", 3, 8775), ("tetrahedron", 4, 2369),
               ("mountain3d", 3, 9262), ("prism3d", 4, 8700)]


@pytest.mark.parametrize("slice_rows", [mc._SLICE, 7_000])
def test_3d_counts_pinned_across_chunks_and_slices(monkeypatch, slice_rows):
    # 50k trials in chunks of 20k; 7k-row slices also cut every chunk
    monkeypatch.setattr(mc, "_SLICE", slice_rows)
    for i, (name, n, k) in enumerate(MC3D_PINNED):
        r = mc.estimate_Q(builtin_body(name), n, 50_000, seed=16 + i,
                          chunk_size=20_000)
        assert r.n_success == k


# n_success of estimate_Q at 200k trials on the 2D benchmark bodies and a
# frustum wider at the top, recorded with the earlier floor predicate that
# sorted the points and floor ends by angle around their centroid
MC2D_PINNED = [("triangle", 3, 11148), ("square", 4, 4708),
               ("parabola", 4, 2266), ("frustum2d:0.5", 4, 15209)]


@pytest.mark.parametrize("slice_rows", [mc._SLICE, 7_000])
def test_2d_floor_counts_pinned(monkeypatch, slice_rows):
    # 7k-row slices cut the 200k-trial chunk unevenly; each slice takes its
    # margin from its own rows, which must not move a count
    monkeypatch.setattr(mc, "_SLICE", slice_rows)
    for i, (name, n, k) in enumerate(MC2D_PINNED):
        r = mc.estimate_Q(builtin_body(name), n, 200_000, seed=30 + i)
        assert r.n_success == k
    # the floorless centroid walk and the chain, recorded before the runner
    # sliced its chunks
    assert mc.estimate_P(builtin_body("square"), 4, 200_000,
                         seed=34).n_success == 138713
    assert mc.estimate_fradius_reduction(3, 200_000, seed=35).n_success == 3324


def test_seed_changes_result():
    a = mc.estimate_Q(builtin_body("triangle"), 3, 50_000, seed=1)
    b = mc.estimate_Q(builtin_body("triangle"), 3, 50_000, seed=2)
    assert a.n_success != b.n_success


def test_wilson_interval_properties():
    lo, hi = mc.wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0
    lo, hi = mc.wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1
    lo, hi = mc.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert mc.wilson_interval(0, 0) == (0.0, 1.0)


def test_result_stats():
    r = mc.estimate_Q(builtin_body("prism3d"), 4, 30_000, seed=3,
                      workers=2, chunk_size=10_000)
    st = r.stats
    assert (st.n_chunks, st.chunk_size, st.workers) == (3, 10_000, 2)
    assert st.sample_ms > 0 and st.predicate_ms > 0 and st.exact_ms >= 0
    assert st.n_ambiguous == 0
    # trials on the 1/8 grid leave some to the exact check
    square = builtin_body("square")
    grid = mc._estimate_convex(
        lambda rng, k: np.round(sample_body(square, rng, k) * 8) / 8
        + [0, 1 / 16], 4, 1, mc.convex_position_verdicts_2d,
        geo.in_convex_position_with_floor_2d, 2000, 0, 1, 1000,
        np.asarray(square.floor, dtype=float))
    assert grid.stats.n_ambiguous > 0 and grid.stats.n_chunks == 2
    h = mc.estimate_Q2_height(builtin_body("square"), 1000, seed=1)
    assert h.stats.n_chunks == 1 and h.stats.predicate_ms == 0
    assert mc.estimate_Q(builtin_body("square"), 1, 10).stats.n_chunks == 0


def test_result_fields_and_low_power_flag():
    r = mc.estimate_Q(builtin_body("triangle"), 5, 20_000, seed=5)
    assert r.n_samples == 20_000
    assert 0.0 <= r.ci_low <= r.estimate <= r.ci_high <= 1.0
    assert r.low_power  # expected successes ~ 7 at this budget
    assert r.wall_ms > 0
    big = mc.estimate_Q(builtin_body("triangle"), 2, 20_000, seed=5)
    assert not big.low_power
