"""Executable checks of the structural inequalities at desk scale.

Each suite runs deterministic randomized trials and emits margins, not just
booleans.  Exact trials compare rationals with zero tolerance; statistical
trials accept within 4 sigma and flag low-powered runs instead of failing
them.  Random body distributions are fixed in _RANDOM_MODEL so failures are
reproducible from the seed alone.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import mc
from .bodies import (SubPrism2D, below_volume, builtin_body, frustum,
                     layer_volume, max_height, mountain3d, prism3d, q2_exact,
                     regular_polygon_floor)
from .decomposition import q_exact
from .samplers import RngStream, sample_density_g2
from .sequences import (ell_seq, q2_mountain, q2_prism, q_closed, t_closed,
                        u_seq, y_closed)
from .topfunctions import (constant_top, mountain_decompose, q2_exact_subprism,
                           random_concave_top, triangle_top)

SIGMA = 4.0
DOMINANCE_GRID = 1000       # heights per body in suite_dominance
CONCAVITY_GRID = 200        # heights per body in suite_layer_concavity

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


def _random_bodies(rng, trials: int):
    """(body, label) of trials frustums, then trials // 2 random sub-prisms."""
    for i in range(trials):
        h = float(rng.uniform(0.05, 1.95))
        d = 2 if i % 2 else 3
        yield frustum(h, d), f"frustum h={h:.3f} d={d}"
    for i in range(trials // 2):
        yield SubPrism2D(random_concave_top(rng)), f"random 2D top {i}"


# ---------------------------------------------------------------------------

def suite_prism_bounds(trials: int = 100, seed: int = 0) -> Report:
    """q2_mountain(d) <= Q_K(2) <= q2_prism(d) for sub-prisms, exactly."""
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
        q2 = q2_exact(frustum(h, 3))
        ok = float(lo3) - 1e-12 <= q2 <= float(hi3) + 1e-12
        rep.add(f"frustum h={h:.3f} d=3: 1/2 <= Q(2) <= 2/3", q2, float(hi3),
                min(q2 - float(lo3), float(hi3) - q2), ok)
    return rep


def suite_ccsf(trials: int = 10, seed: int = 0) -> Report:
    """Frustum family drives Q(2) to 1 as h -> 0; mountain bound holds."""
    rep = Report("ccsf", seed, {"trials": trials})
    rep.check_le("frustum h=0.1 d=3: Q(2) >= 0.93", 0.93,
                 q2_exact(frustum(0.1, 3)), slack=1e-12)
    rep.check_eq("frustum h=1 d=3 is the prism: Q(2) = 2/3",
                 q2_exact(frustum(1.0, 3)), float(q2_prism(3)), tol=1e-12)
    rng = RngStream(seed, 1).generator()
    for i in range(trials):
        h = float(rng.uniform(0.05, 1.95))
        q2 = q2_exact(frustum(h, 3))
        rep.check_le(f"frustum h={h:.3f} d=3: Q(2) >= mountain bound 1/2",
                     0.5, q2, slack=1e-12)
        rep.check_le(f"frustum h={h:.3f} d=3: Q(2) >= 1 - 2h/3",
                     1.0 - 2.0 * h / 3.0, q2, slack=1e-12)
        rep.check_le(f"frustum h={h:.3f} d=3: Q(2) < 1", q2, 1.0)
    return rep


def suite_dominance(trials: int = 100, seed: int = 0) -> Report:
    """Below-level volume of any admissible body dominates the mountain's."""
    rep = Report("dominance", seed,
                 {"trials": trials, "grid": DOMINANCE_GRID})

    def mountain_below(t, d, hmax):
        return 1.0 - np.maximum(1.0 - t / hmax, 0.0) ** d

    def check(body, label):
        d = body.dimension
        hm = d  # unit mountain over a unit floor has apex height d
        ts = np.linspace(0.0, max(max_height(body), hm), DOMINANCE_GRID)
        worst = float(np.min(below_volume(body, ts)
                             - mountain_below(ts, d, hm)))
        rep.add(f"{label}: B_K >= B_M on {DOMINANCE_GRID}-grid", worst, 0.0,
                worst, worst >= -1e-12)

    rep.check_le("prism vs mountain d=3 at t=1: 1-(2/3)^3 <= 1",
                 1.0 - (2.0 / 3.0) ** 3, below_volume(prism3d(), 1.0))
    rep.check_eq("t=0 equality", below_volume(prism3d(), 0.0),
                 mountain_below(0.0, 3, 3.0))
    for body, label in _random_bodies(RngStream(seed, 2).generator(), trials):
        check(body, label)
    check(mountain3d(), "mountain itself (equality)")
    return rep


def suite_layer_concavity(trials: int = 100, seed: int = 0) -> Report:
    """Midpoint concavity of L_K(t)^(1/(d-1)) along the height."""
    rep = Report("layer_concavity", seed,
                 {"trials": trials, "grid": CONCAVITY_GRID})

    def check(body, label, expect_linear=False):
        ts = np.linspace(0.0, max_height(body), CONCAVITY_GRID)
        vals = layer_volume(body, ts) ** (1.0 / (body.dimension - 1))
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
    for body, label in _random_bodies(RngStream(seed, 3).generator(), trials):
        check(body, label, expect_linear=not isinstance(body, SubPrism2D))
    return rep


def suite_tetra_sandwich(n_max: int = 4, samples: int = 500_000,
                         seed: int = 0) -> Report:
    """ell_n <= Q_T(n) <= u_n, and Y_n <= Q_M(n) over assorted floors."""
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
                         tol=SIGMA * r.std_error, flagged=r.low_power)
    for k, label in [(4, "square"), (5, "pentagon"), (3, "triangle")]:
        body = mountain3d(regular_polygon_floor(k))
        for n in (2, 3):
            r = mc.estimate_Q(body, n, samples, seed=seed + 10 * k + n)
            rep.check_le(f"mountain over {label} floor n={n}: Y_n <= Q",
                         float(y_closed(n)), r.estimate,
                         slack=SIGMA * r.std_error, flagged=r.low_power)
    return rep


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
    return rep


def suite_mountain_mixture(trials: int = 100, seed: int = 0) -> Report:
    """Tent-mixture round-trip of concave tops, and int G^2 <= 4/3."""
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
        err = max((abs(v - g) for v, g in zip(mix.values(xs),
                                              G.values_exact(xs)) if v != g),
                  default=Fraction(0))
        rep.add(f"random top {i}: pointwise round-trip", float(err), 0.0,
                1e-12 - float(err), err <= Fraction(1, 10 ** 12))
        rep.check_le(f"random top {i}: int G^2 <= 4/3",
                     float(G.integral_sq()), 4.0 / 3.0, slack=1e-12)
    return rep


def suite_conjecture(trials: int = 10, seed: int = 0) -> Report:
    """Non-gating exploration: is t_n <= Q^G_n <= q_n for concave tops?
    Compared exactly, in Fractions, for n = 3..6.

    Violations are reported as findings, never as failures.
    """
    rep = Report("conjecture", seed, {"trials": trials})
    rng = RngStream(seed, 6).generator()
    for i in range(trials):
        G = random_concave_top(rng, max_segments=4)
        for n in range(3, 7):
            q, lo, hi = q_exact(G, n), t_closed(n), q_closed(n)
            rep.add(f"random top {i} n={n}: t_n <= Q <= q_n", q, hi,
                    min(q - lo, hi - q), True, flagged=True)
            if not lo <= q <= hi:
                rep.findings.append(
                    f"top {i} n={n}: Q={float(q):.8f} outside "
                    f"[{float(lo):.8f}, {float(hi):.8f}]")
    return rep


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
    """Run the named suites, each timed into its Report.wall_ms; trials and
    samples, when given, go to the suites whose signature names them."""
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
        kwargs = {k: v for k, v in (("trials", trials), ("samples", samples))
                  if v is not None and k in inspect.signature(fn).parameters}
        t0 = time.perf_counter()
        rep = fn(seed=seed, **kwargs)
        rep.wall_ms = (time.perf_counter() - t0) * 1000
        reports.append(rep)
    return reports
