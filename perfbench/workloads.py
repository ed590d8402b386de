"""The four benchmark workloads.

Each workload is a list of operations that one client issues in a closed
loop: the next call starts when the previous one returns.  build() makes a
workload's inputs from the seed; every operation carries the check applied
to each of its outputs.  Operations look the program's functions up through
their modules at call time, so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from floorconvex import (bodies, cli, decomposition, geometry, mc, samplers,
                         sequences, topfunctions)

import checks

WORKLOADS = ("mc3d", "mc2d", "quadrature", "exact")

MC3D_TRIALS = mc.DEFAULT_CHUNK    # one chunk: the predicate's real array size
MC2D_TRIALS = 1_000_000           # the CLI's default --samples
Q2_HEIGHT_TRIALS = 10_000_000
MC2D_WORKERS = 2
MAX_SEED = 2 ** 32
# Operation seeds are seed * 16 + case index < 2**36; the 3D references are
# drawn at a seed no workload can reach.
REFERENCE_SEED = 2 ** 40

MC3D_CASES = (("tetrahedron", 3), ("tetrahedron", 4), ("mountain3d", 3),
              ("prism3d", 4))
# name, estimator, builtin body (None: the estimator has its own), n, exact
MC2D_CASES = (
    ("triangle_n3", "estimate_Q", "triangle", 3, sequences.t_closed(3)),
    ("triangle_n5", "estimate_Q", "triangle", 5, sequences.t_closed(5)),
    ("square_n4", "estimate_Q", "square", 4, sequences.q_closed(4)),
    ("parabola_n4", "estimate_Q", "parabola", 4, sequences.p_closed(4)),
    ("P_square_n4", "estimate_P", "square", 4, sequences.valtr_square(4)),
    ("beta2_n3", "estimate_beta2", None, 3, sequences.y_closed(3)),
    ("fradius_n3", "estimate_fradius_reduction", None, 3,
     sequences.y_closed(3)),
)
EXACT_N = 150
VERIFY_SUITES = ("prism_bounds", "ccsf", "dominance", "layer_concavity",
                 "w_formula", "mountain_mixture")
GEOMETRY_SETS_2D = 500
GEOMETRY_SETS_3D = 100
SQUARE_FLOOR = ((0, 0), (1, 0), (1, 1), (0, 1))
QUADRATURE_TOL = 1e-9
# the tent with apex (1/3, 2) is a sheared triangle: Q_4 = t_4 = 1/180
TENT = Fraction(1, 3)
TRAPEZOID_KNOTS = ((0, 0), (Fraction(1, 3), 1), (Fraction(2, 3), 1), (1, 0))
TRAPEZOID_Q4 = Fraction(187, 23040)


class OpFailed(Exception):
    """The program exited non-zero."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]   # None, or what is wrong
    kind: str                  # "mc", "quadrature", "cli", "geometry"
    trials: int = 0
    workers: int = 1


def case_name(body: str, n: int) -> str:
    return f"{body}_n{n}"


def build(name: str, seed: int, references: dict) -> list[Op]:
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED})")
    return {"mc3d": _mc3d, "mc2d": _mc2d, "quadrature": _quadrature,
            "exact": _exact}[name](seed, references)


# ---------------------------------------------------------------------------

def _mc_op(name, estimator, args, seed, check, workers, trials):
    def call():
        return getattr(mc, estimator)(*args, trials, seed=seed,
                                      workers=workers)

    return Op(name, call, check, "mc", trials=trials, workers=workers)


def _check_3d(body: str, n: int, ref: dict):
    """Within 5 combined sigma of the reference, and inside the bounds
    proved for the tetrahedron (ell_n, u_n) and the mountain (Y_n)."""
    lower = {"tetrahedron": sequences.ell_seq(n)[n],
             "mountain3d": sequences.y_closed(n)}.get(body)
    upper = sequences.u_seq(n)[n] if body == "tetrahedron" else None

    def check(r):
        problems = [checks.within(r.estimate, r.std_error, ref["estimate"],
                                  ref["std_error"])]
        if lower is not None:
            problems.append(checks.at_least(r.estimate, r.std_error, lower))
        if upper is not None:
            problems.append(checks.at_most(r.estimate, r.std_error, upper))
        return next((p for p in problems if p is not None), None)
    return check


def _mc3d(seed: int, references: dict) -> list[Op]:
    ops = []
    for i, (body, n) in enumerate(MC3D_CASES):
        case = case_name(body, n)
        ops.append(_mc_op(case, "estimate_Q", (bodies.builtin_body(body), n),
                          seed * 16 + i,
                          _check_3d(body, n, references["mc3d"][case]),
                          workers=1, trials=MC3D_TRIALS))
    return ops


def _target(value):
    def check(r):
        return checks.within(r.estimate, r.std_error, value)
    return check


def _mc2d(seed: int, references: dict) -> list[Op]:
    B = bodies.builtin_body
    ops = [_mc_op(name, est, (B(body), n) if body else (n,), seed * 16 + i,
                  _target(value), MC2D_WORKERS, MC2D_TRIALS)
           for i, (name, est, body, n, value) in enumerate(MC2D_CASES)]
    q2 = [("Q2h_square", B("square"),
           topfunctions.q2_exact_subprism(topfunctions.constant_top())),
          ("Q2h_mountain3d", B("mountain3d"), sequences.q2_mountain(3))]
    ops += [_mc_op(name, "estimate_Q2_height", (body,), seed * 16 + 8 + i,
                   _target(value), MC2D_WORKERS, Q2_HEIGHT_TRIALS)
            for i, (name, body, value) in enumerate(q2)]
    return ops


# ---------------------------------------------------------------------------

def _quadrature(seed: int, references: dict) -> list[Op]:
    """Two fixed tops with exactly known Q_4; the seed changes nothing."""
    tops = [("tent_n4", topfunctions.mountain_top(TENT), sequences.t_closed(4)),
            ("trapezoid_n4", topfunctions.PiecewiseLinearTop(TRAPEZOID_KNOTS),
             TRAPEZOID_Q4)]
    ops = []
    for name, top, exact in tops:
        def call(top=top):
            return decomposition.q_decomp(top, 4, tol=QUADRATURE_TOL)

        def check(r, exact=exact):
            if r.exhausted:
                return "quadrature budget exhausted"
            return checks.close(r.value, exact)
        ops.append(Op(name, call, check, "quadrature"))
    return ops


# ---------------------------------------------------------------------------

def run_cli(argv) -> str:
    """cli.main in-process; returns its standard output, raises OpFailed on
    a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def point_sets(rng: np.random.Generator, count: int, dim: int):
    """Point sets of 1 to 8 points on the 1/1024 grid of the unit cube, with
    positive heights; the grid makes exact ties and degenerate sets."""
    sets = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        coords = rng.integers(0, 1025, (n, dim))
        coords[:, -1] = rng.integers(1, 1025, n)
        sets.append([tuple(Fraction(int(c), 1024) for c in row)
                     for row in coords])
    return sets


def _geometry_op(name, predicate, sets, floor, oracle_floor):
    expected = []

    def call():
        fn = getattr(geometry, predicate)
        return [fn(p, floor) for p in sets]

    def check(verdicts):
        if not expected:    # the LP oracle once, outside the timed calls
            expected.extend(geometry.in_convex_position_with_floor_oracle(
                p, oracle_floor) for p in sets)
        bad = sum(v != e for v, e in zip(verdicts, expected))
        if bad or len(verdicts) != len(expected):
            return f"{bad} of {len(sets)} verdicts differ from the LP oracle"
        return None

    return Op(name, call, check, "geometry")


def _exact(seed: int, references: dict) -> list[Op]:
    ops = []
    for name in sequences.SEQUENCE_NAMES:
        digest = references["tables"][name]

        def check(text, digest=digest):
            return checks.table(json.loads(text)["rows"], digest)
        ops.append(Op(f"exact_{name}",
                      lambda name=name: run_cli(["exact", "--seq", name,
                                                 "--n", str(EXACT_N)]),
                      check, "cli"))
    for suite in VERIFY_SUITES:
        def check(text):
            lines = [ln for ln in text.splitlines() if ln and ln[0] != " "]
            return None if all(" PASS " in ln for ln in lines) \
                else "suite reported FAIL"
        ops.append(Op(f"verify_{suite}",
                      lambda suite=suite: run_cli(["verify", "--suite", suite]),
                      check, "cli"))
    rng = samplers.RngStream(seed, 0).generator()
    sets2 = point_sets(rng, GEOMETRY_SETS_2D, 2)
    sets3 = point_sets(rng, GEOMETRY_SETS_3D, 3)
    ops.append(_geometry_op("geometry_2d", "in_convex_position_with_floor_2d",
                            sets2, ((0, 0), (1, 0)), [(0, 0), (1, 0)]))
    ops.append(_geometry_op("geometry_3d", "in_convex_position_with_floor_3d",
                            sets3, SQUARE_FLOOR,
                            [(x, y, 0) for (x, y) in SQUARE_FLOOR]))
    return ops

