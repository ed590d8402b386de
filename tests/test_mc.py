"""Monte Carlo engine: predicates vs exact oracle, determinism, concordance."""

import math
from fractions import Fraction

import numpy as np
import pytest

from floorconvex import geometry as geo
from floorconvex import mc
from floorconvex import sequences as sq
from floorconvex.bodies import builtin_body
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


def test_batch_3d_predicate_matches_exact():
    body = builtin_body("tetrahedron")
    pts = sample_body(body, RngStream(2).generator(), 200 * 3).reshape(200, 3, 3)
    fxyz = np.array([[x, y, 0.0] for (x, y) in body.floor])
    v = mc.convex_position_verdicts_3d(pts, fxyz)
    for i in range(200):
        exact = geo.in_convex_position_with_floor_3d(
            [tuple(p) for p in pts[i]], body.floor)
        if v[i] == -1:
            continue
        assert bool(v[i]) == exact


def test_chain_verdicts_match_exact():
    from floorconvex.samplers import sample_density_g2
    pts = sample_density_g2(RngStream(3).generator(), 500 * 3).reshape(500, 3, 2)
    v = mc.chain_verdicts(pts)
    for i in range(500):
        if v[i] == -1:
            continue
        assert bool(v[i]) == mc._exact_chain(pts[i])


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


def test_result_fields_and_low_power_flag():
    r = mc.estimate_Q(builtin_body("triangle"), 5, 20_000, seed=5)
    assert r.n_samples == 20_000
    assert 0.0 <= r.ci_low <= r.estimate <= r.ci_high <= 1.0
    assert r.low_power  # expected successes ~ 7 at this budget
    assert r.wall_ms > 0
    big = mc.estimate_Q(builtin_body("triangle"), 2, 20_000, seed=5)
    assert not big.low_power
