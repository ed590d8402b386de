"""Acceptance criteria, one test per criterion at the stated budgets.

Each test enforces both the numeric tolerance and the runtime ceiling.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from floorconvex import geometry as geo
from floorconvex import mc
from floorconvex import sequences as sq
from floorconvex.bodies import builtin_body
from floorconvex.cli import main as cli_main
from floorconvex.decomposition import q_decomp
from floorconvex.samplers import RngStream, sample_body, sample_density_g1
from floorconvex.topfunctions import (QuadraticTop, constant_top,
                                      mountain_decompose, random_concave_top,
                                      triangle_top)

F = Fraction
SIGMA = 4.0

REFERENCE = {
    "t": [F(1), F(1), F(1, 3), F(1, 18), F(1, 180), F(1, 2700), F(1, 56700),
          F(1, 1587600), F(1, 57153600)],
    "q": [F(1), F(1), F(1, 2), F(5, 36), F(7, 288), F(7, 2400), F(11, 43200),
          F(143, 8467200), F(143, 162570240)],
    "y": [F(1), F(1), F(1, 5), F(1, 60), F(1, 1320), F(1, 46200),
          F(1, 2356200), F(1, 164934000), F(1, 15173928000)],
    "u": [F(1), F(1), F(1, 2), F(1, 5), F(7, 100), F(79, 3500),
          F(337, 49000), F(2069, 1029000), F(7033, 12348000)],
    "ell": [F(1), F(1), F(1, 5), F(1, 50), F(11, 10500), F(431, 12127500),
            F(2371, 2801452500)],
}


def test_criterion_1_exact_sequence_reproduction(capsys):
    t0 = time.perf_counter()
    for name, ref in REFERENCE.items():
        assert cli_main(["exact", "--seq", name, "--n",
                         str(len(ref) - 1)]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        values = [F(int(r["num"]), int(r["den"])) for r in rows]
        assert values == ref, name
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_closed_form_recursion_agreement_to_200():
    t0 = time.perf_counter()
    for n in range(201):
        assert sq.t_closed(n) == sq.t_recursive(n)
        assert sq.y_closed(n) == sq.y_recursive(n)
    assert sq.q_closed(200) == sq.q_recursive(200)
    assert sq.p_closed(200) == sq.p_recursive(200)
    for n in range(0, 201, 25):
        assert sq.q_closed(n) == sq.q_recursive(n)
        assert sq.p_closed(n) == sq.p_recursive(n)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_q2_height_theory():
    t0 = time.perf_counter()
    cases = [("mountain2d", F(1, 3)), ("square", F(1, 2)),
             ("mountain3d", F(1, 2)), ("prism3d", F(2, 3))]
    for name, target in cases:
        r = mc.estimate_Q2_height(builtin_body(name), 1_000_000, seed=301)
        assert r.within_sigma(float(target), SIGMA), (name, r.estimate)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_4_mc_vs_exact_sequences():
    t0 = time.perf_counter()
    runs = [("triangle", sq.t_closed, (2, 3, 4, 5)),
            ("square", sq.q_closed, (2, 3, 4)),
            ("parabola", sq.p_closed, (2, 3, 4))]
    for name, fn, ns in runs:
        body = builtin_body(name)
        for n in ns:
            r = mc.estimate_Q(body, n, 10_000_000, seed=400 + n)
            assert r.within_sigma(float(fn(n)), SIGMA), (name, n, r.estimate)
    assert time.perf_counter() - t0 < 1800.0


def test_criterion_5_quadrature_reproduces_sequences():
    t0 = time.perf_counter()
    for n in range(7):
        for G, fn in [(triangle_top(), sq.t_closed),
                      (constant_top(), sq.q_closed),
                      (QuadraticTop(), sq.p_closed)]:
            r = q_decomp(G, n, tol=1e-9)
            assert abs(r.value - float(fn(n))) < 1e-8
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_beta2_concordance_and_reduction():
    t0 = time.perf_counter()
    mountain = builtin_body("mountain3d")
    for n in (2, 3):
        b2 = mc.estimate_beta2(n, 10_000_000, seed=600 + n)
        assert b2.within_sigma(float(sq.y_closed(n)), SIGMA), (n, b2.estimate)
        fr = mc.estimate_fradius_reduction(n, 10_000_000, seed=610 + n)
        qm = mc.estimate_Q(mountain, n, 10_000_000, seed=620 + n)
        assert fr.estimate <= qm.estimate + SIGMA * (fr.std_error
                                                     + qm.std_error)
    assert time.perf_counter() - t0 < 600.0


def test_criterion_7_tetrahedron_sandwich():
    t0 = time.perf_counter()
    tet = builtin_body("tetrahedron")
    u = sq.u_seq(4)
    ell = sq.ell_seq(4)
    for n in (2, 3, 4):
        r = mc.estimate_Q(tet, n, 10_000_000, seed=700 + n)
        slack = SIGMA * r.std_error
        assert float(ell[n]) - slack <= r.estimate <= float(u[n]) + slack, \
            (n, r.estimate)
        if n == 2:
            assert abs(r.estimate - 0.5) < slack
    assert time.perf_counter() - t0 < 900.0


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)

    # geometry oracle equivalence: 10^4 random configurations, n <= 8
    disagreements = 0
    for _ in range(7000):
        n = int(rng.integers(1, 9))
        pts = [(F(int(a), 1024), F(int(b), 1024))
               for a, b in zip(rng.integers(0, 1025, n),
                               rng.integers(1, 1025, n))]
        fast = geo.in_convex_position_with_floor_2d(pts)
        oracle = geo.in_convex_position_with_floor_oracle(pts,
                                                          [(0, 0), (1, 0)])
        disagreements += fast != oracle
    floor3 = [(0, 0), (1, 0), (1, 1), (0, 1)]
    floor3_xyz = [(x, y, 0) for (x, y) in floor3]
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        pts = [(F(int(a), 1024), F(int(b), 1024), F(int(c), 1024))
               for a, b, c in zip(rng.integers(0, 1025, n),
                                  rng.integers(0, 1025, n),
                                  rng.integers(1, 1025, n))]
        fast = geo.in_convex_position_with_floor_3d(pts, floor3)
        oracle = geo.in_convex_position_with_floor_oracle(pts, floor3_xyz)
        disagreements += fast != oracle
    assert disagreements == 0

    # sampler uniformity box tests within 4 sigma
    n_s = 200_000
    g1 = sample_density_g1(RngStream(81).generator(), n_s)
    assert abs(g1[:, 0].mean() - 2 / 3) <= SIGMA * math.sqrt(1 / (18 * n_s))
    pts = sample_body(builtin_body("prism3d"), RngStream(82).generator(), n_s)
    for dim, (mean, var) in [(0, (0.0, 1 / 12)), (2, (0.5, 1 / 12))]:
        se = math.sqrt(var / n_s)
        assert abs(pts[:, dim].mean() - mean) <= SIGMA * se

    # mountain mixture round-trip, exact
    for _ in range(100):
        G = random_concave_top(rng)
        mix = mountain_decompose(G)
        assert mix.total_weight() == 1
        xs = [F(k, 64) for k in range(0, 65, 8)]
        for x, v in zip(xs, mix.values(xs)):
            assert abs(float(v - F(G.value(x)))) < 1e-12

    # split mass identity, exact
    from floorconvex.decomposition import split
    for _ in range(200):
        G = random_concave_top(rng)
        t = F(int(rng.integers(1, 64)), 64)
        sp = split(G, t)
        assert sp.left_mass + sp.right_mass + F(G.value(t)) / 2 == 1

    # layer-root concavity on a grid, zero violations
    from floorconvex.bodies import frustum, layer_volume, max_height
    for _ in range(50):
        body = frustum(float(rng.uniform(0.05, 1.95)), 3)
        hm = max_height(body)
        ts = np.linspace(0, hm, 200)
        vals = np.array([math.sqrt(layer_volume(body, t)) for t in ts])
        mids = (vals[:-2] + vals[2:]) / 2 - vals[1:-1]
        assert mids.max() <= 1e-12

    # worker-count bit-determinism
    base = mc.estimate_Q(builtin_body("triangle"), 3, 100_000, seed=88,
                         workers=1, chunk_size=10_000)
    for w in (4, 16):
        again = mc.estimate_Q(builtin_body("triangle"), 3, 100_000, seed=88,
                              workers=w, chunk_size=10_000)
        assert again.n_success == base.n_success

    assert time.perf_counter() - t0 < 300.0


def test_criterion_9_parabola_asymptotics():
    t0 = time.perf_counter()
    target = math.sqrt(math.pi) / 2
    value = float(sq.s_closed(10_000)) * math.sqrt(10_001)
    assert abs(value - target) < 0.01 * target
    assert time.perf_counter() - t0 < 1.0
