"""Executable checks of the structural inequalities at desk scale.

Each suite runs deterministic randomized trials and emits margins, not just
booleans.  Exact trials compare rationals with zero tolerance; statistical
trials accept within 4 sigma and flag low-powered runs instead of failing
them.  Random body distributions are fixed in _RANDOM_MODEL so failures are
reproducible from the seed alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import mc
from .bodies import (SubPrism2D, below_volume, builtin_body, frustum,
                     layer_volume, max_height, mountain3d, prism3d,
                     regular_polygon_floor)
from .decomposition import q_decomp
from .samplers import RngStream, sample_density_g2
from .sequences import (ell_seq, q2_mountain, q2_prism, q_closed, t_closed,
                        u_seq, y_closed)
from .topfunctions import (constant_top, mountain_decompose, q2_exact_subprism,
                           random_concave_top, triangle_top)

SIGMA = 4.0

_RANDOM_MODEL = ("pwl tops: <=8 segments, slopes sorted normal(0,2); "
                 "frustum heights uniform; floors: regular k-gons, k in 3..8")


@dataclass(frozen=True)
class TrialRecord:
    description: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    flagged: bool = False


@dataclass
class Report:
    suite: str
    seed: int
    params: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    wall_ms: float = 0.0

    def add(self, description, lhs, rhs, margin, passed, flagged=False):
        self.records.append(TrialRecord(description, float(lhs), float(rhs),
                                        float(margin), bool(passed), flagged))

    def check_le(self, description, lhs, rhs, slack=0.0, flagged=False):
        margin = float(rhs) + slack - float(lhs)
        self.add(description, lhs, rhs, margin, margin >= 0, flagged)

    def check_eq(self, description, lhs, rhs, tol=0.0, flagged=False):
        margin = tol - abs(float(lhs) - float(rhs))
        self.add(description, lhs, rhs, margin, margin >= 0
                 or (tol == 0 and lhs == rhs), flagged)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records if not r.flagged)

    def summary(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "params": self.params,
                "random_model": _RANDOM_MODEL,
                "n_trials": len(self.records),
                "n_failed": sum(not r.passed for r in self.records),
                "n_flagged": sum(r.flagged for r in self.records),
                "passed": self.passed, "wall_ms": self.wall_ms,
                "findings": self.findings}

    def to_json(self) -> dict:
        return {**self.summary(),
                "records": [vars(r) for r in self.records]}


def _finish(report: Report, t0: float) -> Report:
    report.wall_ms = (time.perf_counter() - t0) * 1000
    return report


# ---------------------------------------------------------------------------

def suite_prism_bounds(trials: int = 100, seed: int = 0,
                       samples: int = 0) -> Report:
    """q2_mountain(d) <= Q_K(2) <= q2_prism(d) for sub-prisms, exactly."""
    t0 = time.perf_counter()
    rep = Report("prism_bounds", seed, {"trials": trials})
    rep.check_eq("triangle top attains the 2D lower bound 1/3",
                 q2_exact_subprism(triangle_top()), q2_mountain(2))
    rep.check_eq("constant top attains the 2D upper bound 1/2",
                 q2_exact_subprism(constant_top()), q2_prism(2))
    rng = RngStream(seed, 0).generator()
    lo, hi = q2_mountain(2), q2_prism(2)
    for i in range(trials):
        G = random_concave_top(rng)
        q2 = q2_exact_subprism(G)
        ok = lo <= q2 <= hi
        rep.add(f"random 2D top {i}: 1/3 <= Q(2) <= 1/2", q2, float(hi),
                min(float(q2 - lo), float(hi - q2)), ok)
    # 3D sub-prisms: frustums with c < 1 sit inside the unit prism
    lo3, hi3 = q2_mountain(3), q2_prism(3)
    for i in range(max(trials // 5, 1)):
        h = float(rng.uniform(1.0, 2.0))
        body = frustum(h, 3)
        q2 = 1.0 - 2.0 / 3.0 * _exact_mean_height(body)
        ok = float(lo3) - 1e-12 <= q2 <= float(hi3) + 1e-12
        rep.add(f"frustum h={h:.3f} d=3: 1/2 <= Q(2) <= 2/3", q2, float(hi3),
                min(q2 - float(lo3), float(hi3) - q2), ok)
    return _finish(rep, t0)


def _exact_mean_height(body) -> float:
    from .bodies import floor_volume, mean_height
    return floor_volume(body) * mean_height(body)


def suite_ccsf(trials: int = 10, seed: int = 0, samples: int = 200_000) -> Report:
    """Frustum family drives Q(2) to 1 as h -> 0; mountain bound holds."""
    t0 = time.perf_counter()
    rep = Report("ccsf", seed, {"trials": trials, "samples": samples})
    r = mc.estimate_Q2_height(frustum(0.1, 3), samples, seed=seed)
    rep.check_le("frustum h=0.1 d=3: Q(2) >= 0.93", 0.93, r.estimate,
                 slack=SIGMA * r.std_error)
    r = mc.estimate_Q2_height(frustum(1.0, 3), samples, seed=seed + 1)
    rep.check_eq("frustum h=1 d=3 is the prism: Q(2) = 2/3",
                 r.estimate, float(q2_prism(3)), tol=SIGMA * r.std_error)
    rng = RngStream(seed, 1).generator()
    for i in range(trials):
        h = float(rng.uniform(0.05, 1.95))
        r = mc.estimate_Q2_height(frustum(h, 3), samples, seed=seed + 2 + i)
        rep.check_le(f"frustum h={h:.3f} d=3: Q(2) >= mountain bound 1/2",
                     0.5, r.estimate, slack=SIGMA * r.std_error)
        rep.check_le(f"frustum h={h:.3f} d=3: Q(2) >= 1 - 2h/3 - 4sigma",
                     1.0 - 2.0 * h / 3.0, r.estimate, slack=SIGMA * r.std_error)
        rep.check_le(f"frustum h={h:.3f} d=3: Q(2) < 1", r.estimate, 1.0)
    return _finish(rep, t0)


def suite_dominance(trials: int = 100, seed: int = 0, samples: int = 0,
                    grid: int = 1000) -> Report:
    """Below-level volume of any admissible body dominates the mountain's."""
    t0 = time.perf_counter()
    rep = Report("dominance", seed, {"trials": trials, "grid": grid})

    def mountain_below(t, d, hmax):
        return 1.0 - max(1.0 - t / hmax, 0.0) ** d

    def check(body, label):
        d = body.dimension
        hm = d  # unit mountain over a unit floor has apex height d
        ts = np.linspace(0.0, max(max_height(body), hm), grid)
        worst = min(below_volume(body, min(t, max_height(body)))
                    - mountain_below(t, d, hm) for t in ts)
        rep.add(f"{label}: B_K >= B_M on {grid}-grid", worst, 0.0, worst,
                worst >= -1e-12)

    rep.check_le("prism vs mountain d=3 at t=1: 1-(2/3)^3 <= 1",
                 1.0 - (2.0 / 3.0) ** 3, below_volume(prism3d(), 1.0))
    rep.check_eq("t=0 equality", below_volume(prism3d(), 0.0),
                 mountain_below(0.0, 3, 3.0))
    rng = RngStream(seed, 2).generator()
    for i in range(trials):
        h = float(rng.uniform(0.05, 1.95))
        d = 2 if i % 2 else 3
        check(frustum(h, d), f"frustum h={h:.3f} d={d}")
    for i in range(trials // 2):
        check(SubPrism2D(random_concave_top(rng)), f"random 2D top {i}")
    check(mountain3d(), "mountain itself (equality)")
    return _finish(rep, t0)


def suite_layer_concavity(trials: int = 100, seed: int = 0,
                          samples: int = 0, grid: int = 200) -> Report:
    """Midpoint concavity of L_K(t)^(1/(d-1)) along the height."""
    t0 = time.perf_counter()
    rep = Report("layer_concavity", seed, {"trials": trials, "grid": grid})

    def root_layer(body, t):
        return layer_volume(body, t) ** (1.0 / (body.dimension - 1))

    def check(body, label, expect_linear=False):
        hm = max_height(body)
        ts = np.linspace(0.0, hm, grid)
        vals = np.array([root_layer(body, t) for t in ts])
        mids = (vals[:-2] + vals[2:]) / 2 - vals[1:-1]
        worst = float(mids.max())   # concavity: midpoint average below value
        rep.add(f"{label}: L^(1/(d-1)) midpoint-concave", worst, 0.0,
                -worst, worst <= 1e-12)
        if expect_linear:
            rep.add(f"{label}: exactly linear", float(np.abs(mids).max()),
                    0.0, -float(np.abs(mids).max()),
                    bool(np.abs(mids).max() <= 1e-12))

    check(mountain3d(), "mountain d=3", expect_linear=True)
    check(prism3d(), "prism d=3", expect_linear=True)
    rng = RngStream(seed, 3).generator()
    for i in range(trials):
        h = float(rng.uniform(0.05, 1.95))
        d = 2 if i % 2 else 3
        check(frustum(h, d), f"frustum h={h:.3f} d={d}", expect_linear=True)
    for i in range(trials // 2):
        check(SubPrism2D(random_concave_top(rng)), f"random 2D top {i}")
    return _finish(rep, t0)


def suite_tetra_sandwich(n_max: int = 4, samples: int = 500_000,
                         seed: int = 0, trials: int = 0) -> Report:
    """ell_n <= Q_T(n) <= u_n, and Y_n <= Q_M(n) over assorted floors."""
    t0 = time.perf_counter()
    rep = Report("tetra_sandwich", seed, {"n_max": n_max, "samples": samples})
    tet = builtin_body("tetrahedron")
    u = u_seq(n_max)
    ell = ell_seq(n_max)
    for n in range(2, n_max + 1):
        r = mc.estimate_Q(tet, n, samples, seed=seed + n)
        rep.check_le(f"tetrahedron n={n}: ell_n <= Q", float(ell[n]),
                     r.estimate, slack=SIGMA * r.std_error,
                     flagged=r.low_power)
        rep.check_le(f"tetrahedron n={n}: Q <= u_n", r.estimate, float(u[n]),
                     slack=SIGMA * r.std_error, flagged=r.low_power)
        if n == 2:
            rep.check_eq("tetrahedron n=2: Q = u_2 = 1/2", r.estimate, 0.5,
                         tol=SIGMA * r.std_error)
    for k, label in [(4, "square"), (5, "pentagon"), (3, "triangle")]:
        body = mountain3d(regular_polygon_floor(k))
        for n in (2, 3):
            r = mc.estimate_Q(body, n, samples, seed=seed + 10 * k + n)
            rep.check_le(f"mountain over {label} floor n={n}: Y_n <= Q",
                         float(y_closed(n)), r.estimate,
                         slack=SIGMA * r.std_error, flagged=r.low_power)
    return _finish(rep, t0)


def w_formula(a: float, h: float) -> float:
    """Mass under the anchored-chain density of the admissible zone above the
    lowest point (a, h): a^3 h / (3 (1-a))."""
    if not 0 <= a < 1 or h < 0:
        raise ValueError("needs 0 <= a < 1 and h >= 0")
    return a ** 3 * h / (3.0 * (1.0 - a))


def suite_w_formula(trials: int = 50, seed: int = 0,
                    samples: int = 100_000) -> Report:
    """MC mass of the zone {y >= h, left of the chord (1,0)-(a,h)} under the
    mountain chain density, against the closed form W(a, h)."""
    t0 = time.perf_counter()
    rep = Report("w_formula", seed, {"trials": trials, "samples": samples})
    rep.check_eq("W(1/2, 1) = 1/12", w_formula(0.5, 1.0), 1.0 / 12.0)
    rep.check_eq("W(0, h) = 0", w_formula(0.0, 2.0), 0.0)
    rng = RngStream(seed, 4).generator()
    for i in range(trials):
        h = float(rng.uniform(0.05, 2.8))
        a = float(rng.uniform(0.02, (1.0 - h / 3.0) * 0.98))
        pts = sample_density_g2(rng, samples)
        x, y = pts[:, 0], pts[:, 1]
        in_zone = (y >= h) & (x <= 1.0 - (1.0 - a) * y / h)
        k = int(in_zone.sum())
        w = w_formula(a, h)
        se = math.sqrt(max(w * (1 - w), 1e-12) / samples)
        rep.check_eq(f"zone mass a={a:.3f} h={h:.3f}", k / samples, w,
                     tol=SIGMA * se, flagged=k < mc.LOW_POWER_SUCCESSES)
    return _finish(rep, t0)


def suite_mountain_mixture(trials: int = 100, seed: int = 0,
                           samples: int = 0) -> Report:
    """Tent-mixture round-trip of concave tops, and int G^2 <= 4/3."""
    t0 = time.perf_counter()
    rep = Report("mountain_mixture", seed, {"trials": trials})
    rep.check_le("constant top: int G^2 = 1 <= 4/3", 1.0, 4.0 / 3.0)
    rep.check_eq("triangle top attains int G^2 = 4/3",
                 triangle_top().integral_sq(), Fraction(4, 3))
    rng = RngStream(seed, 5).generator()
    xs = [Fraction(k, 64) for k in range(65)]
    for i in range(trials):
        G = random_concave_top(rng)
        mix = mountain_decompose(G)
        rep.check_eq(f"random top {i}: mixture weights sum to 1",
                     mix.total_weight(), Fraction(1))
        err = max(abs(mix.value(x) - Fraction(G.value(x))) for x in xs)
        rep.add(f"random top {i}: pointwise round-trip", float(err), 0.0,
                1e-12 - float(err), err <= Fraction(1, 10 ** 12))
        rep.check_le(f"random top {i}: int G^2 <= 4/3",
                     float(G.integral_sq()), 4.0 / 3.0, slack=1e-12)
    return _finish(rep, t0)


def suite_conjecture(trials: int = 10, seed: int = 0,
                     samples: int = 0) -> Report:
    """Non-gating exploration: is t_n <= Q^G_n <= q_n for concave tops?

    Violations are reported as findings, never as failures.
    """
    t0 = time.perf_counter()
    rep = Report("conjecture", seed, {"trials": trials})
    rng = RngStream(seed, 6).generator()
    for i in range(trials):
        G = random_concave_top(rng, max_segments=4)
        for n in (3, 4):
            r = q_decomp(G, n, tol=1e-7, budget=500_000)
            lo, hi = float(t_closed(n)), float(q_closed(n))
            inside = lo - 1e-6 <= r.value <= hi + 1e-6
            rep.add(f"random top {i} n={n}: t_n <= Q <= q_n", r.value, hi,
                    min(r.value - lo, hi - r.value), True, flagged=True)
            if not inside:
                rep.findings.append(
                    f"top {i} n={n}: Q={r.value:.8f} outside "
                    f"[{lo:.8f}, {hi:.8f}]")
    return _finish(rep, t0)


SUITES = {
    "prism_bounds": suite_prism_bounds,
    "ccsf": suite_ccsf,
    "dominance": suite_dominance,
    "layer_concavity": suite_layer_concavity,
    "tetra_sandwich": suite_tetra_sandwich,
    "w_formula": suite_w_formula,
    "mountain_mixture": suite_mountain_mixture,
    "conjecture": suite_conjecture,
}


def run_suites(names, seed: int = 0, trials: int | None = None,
               samples: int | None = None) -> list[Report]:
    if samples is not None and samples < 1:
        raise ValueError("samples must be >= 1")
    if trials is not None and trials < 0:
        raise ValueError("trials must be >= 0")
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: "
                             f"{', '.join(sorted(SUITES))}")
        fn = SUITES[name]
        kwargs = {"seed": seed}
        if trials is not None:
            kwargs["trials"] = trials
        if samples is not None:
            kwargs["samples"] = samples
        reports.append(fn(**kwargs))
    return reports
