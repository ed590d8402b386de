"""Command-line entry point.

Subcommands: exact (rational sequences), estimate (Monte Carlo), quadrature
(exact chord sweep), verify (inequality suites), body (descriptor
validation).  Every JSON or CSV output embeds a run manifest so results are
replayable.
Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import os
import platform
import secrets
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import __version__, harness, mc
from .bodies import (SubPrism2D, _top_from_json, below_volume, body_to_json,
                     builtin_body, layer_volume, load_body, load_descriptor,
                     max_height, q2_exact)
from .decomposition import DEFAULT_BUDGET, q_decomp
from .sequences import SEQUENCE_NAMES, sequence

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    flags: dict
    seed: int | None
    version: str
    schema: int
    started: str
    finished: str
    python: str
    numpy: str
    platform: str
    cpu_count: int | None


@functools.cache
def _environment() -> dict:
    """The interpreter, numpy, platform and CPU count; fixed for a process."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu_count": os.cpu_count()}


def _manifest(args, started: str, seed=None) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    return asdict(RunManifest(
        subcommand=args.subcommand, flags=flags, seed=seed,
        version=__version__, schema=SCHEMA_VERSION, started=started,
        finished=_now(), **_environment()))


def _rational(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator),
            "decimal": float(x)}


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's limit on int-to-decimal conversion (4300 digits
    by default; ell_n first passes it at n = 117) and restore it afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:           # interpreters before 3.10.7 have no limit
        yield
        return
    old = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = _to_csv(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _to_csv(payload: dict) -> str:
    """The manifest as a comment line, then the rows; every payload has at
    least one row, and its other fields are left out."""
    keys = list(payload["rows"][0])
    lines = [f"# {json.dumps(payload['manifest'])}", ",".join(keys)]
    lines += [",".join(str(r[k]) for k in keys) for r in payload["rows"]]
    return "\n".join(lines)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# Payload subcommands return (payload, seed); main adds the run manifest.

def cmd_exact(args):
    seq = sequence(args.seq, args.n)
    with _unlimited_int_digits():
        rows = [{"index": i, **_rational(v)} for i, v in enumerate(seq.values)]
    return {"sequence": seq.name, "method": seq.method, "rows": rows}, None


def cmd_estimate(args):
    seed = args.seed if args.seed is not None else secrets.randbits(32)
    run = {"seed": seed, "workers": args.workers}
    kind = args.estimator
    if args.body is None and kind in ("q", "no-floor", "q2-height"):
        args.body = "tetrahedron"
    elif args.body is not None and kind in ("beta1", "beta2", "fradius"):
        raise ValueError(f"--estimator {kind} samples no body; drop --body")
    if kind == "q2-height" and args.n != 2:
        raise ValueError("--estimator q2-height estimates Q(2); drop --n")
    if kind == "q2-height":
        r = mc.estimate_Q2_height(load_body(args.body), args.samples, **run)
    elif kind in ("q", "no-floor"):
        estimator = mc.estimate_Q if kind == "q" else mc.estimate_P
        r = estimator(load_body(args.body), args.n, args.samples, **run)
    else:
        estimator = {"beta1": mc.estimate_beta1, "beta2": mc.estimate_beta2,
                     "fradius": mc.estimate_fradius_reduction}[kind]
        r = estimator(args.n, args.samples, **run)
    row = asdict(r)
    return {"estimator": kind, "body": args.body, "n": args.n,
            "rows": [row], "stats": row.pop("stats")}, seed


def _parse_top(spec: str):
    """pwl:<file> holds a top descriptor; any other spec names a builtin 2D
    body whose top is taken."""
    if spec.startswith("pwl:"):
        return load_descriptor(spec[4:], _top_from_json)
    body = builtin_body(spec)
    if not isinstance(body, SubPrism2D):
        raise ValueError(f"body {spec!r} has no top function; use a 2D "
                         f"body under a top, such as triangle, or pwl:<file>")
    return body.top


def cmd_quadrature(args):
    r = q_decomp(_parse_top(args.top), args.n, budget=args.budget)
    if r.exhausted:
        raise ValueError(f"quadrature needs more than --budget {args.budget} "
                         f"polynomial states")
    row = asdict(r)
    exact = row.pop("exact")
    with _unlimited_int_digits():
        row.update(num=str(exact.numerator), den=str(exact.denominator))
    return {"top": args.top, "n": args.n, "rows": [row]}, None


def cmd_verify(args) -> int:
    started = _now()
    names = sorted(harness.SUITES) if args.suite == "all" else [args.suite]
    reports = harness.run_suites(names, seed=args.seed, trials=args.trials,
                                 samples=args.samples)
    all_pass = all(r.passed for r in reports)
    for r in reports:
        s = r.summary()
        print(f"{s['suite']:18s} {'PASS' if s['passed'] else 'FAIL'} "
              f"trials={s['n_trials']} failed={s['n_failed']} "
              f"flagged={s['n_flagged']} wall={s['wall_ms']:.0f}ms")
        for f in s["findings"]:
            print(f"  finding: {f}")
    if args.output:
        payload = {"reports": [r.to_json() for r in reports],
                   "manifest": _manifest(args, started, args.seed)}
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
    return 0 if all_pass else 2


def cmd_body(args):
    if args.levels < 1:
        raise ValueError("--levels must be >= 1")
    body = load_body(args.body)
    hm = max_height(body)
    ts = hm * np.arange(args.levels + 1) / args.levels
    table = [{"height": t, "layer": layer, "below": below}
             for t, layer, below in zip(ts.tolist(),
                                        layer_volume(body, ts).tolist(),
                                        below_volume(body, ts).tolist())]
    return {"body": body_to_json(body), "dimension": body.dimension,
            "max_height": hm, "floor_volume": body.floor_vol,
            "volume": below_volume(body, hm), "q2": q2_exact(body),
            "rows": table}, None


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="floorconvex",
                description="Convex position probabilities above a flat floor")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None, help="write to file")

    sp = sub.add_parser("exact", help="exact rational sequences")
    sp.add_argument("--seq", required=True, choices=SEQUENCE_NAMES)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("estimate", help="Monte Carlo estimators")
    sp.add_argument("--body", help="the body of q, no-floor and q2-height "
                    "(default tetrahedron); beta1, beta2 and fradius take none")
    sp.add_argument("--estimator", default="q",
                    choices=("q", "q2-height", "no-floor", "beta1", "beta2",
                             "fradius"))
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("quadrature", help="exact chord sweep")
    sp.add_argument("--top", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="most polynomial states; a run that needs more "
                         "exits 1 before any work")
    common(sp)
    sp.set_defaults(func=cmd_quadrature)

    sp = sub.add_parser("verify", help="inequality suites")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", default=None, help="JSON report file")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("body", help="validate a body descriptor")
    sp.add_argument("--body", required=True, help="builtin name or JSON file")
    sp.add_argument("--levels", type=int, default=10)
    common(sp)
    sp.set_defaults(func=cmd_body)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.func is cmd_verify:
            return cmd_verify(args)
        started = _now()
        payload, seed = args.func(args)
        payload["manifest"] = _manifest(args, started, seed)
        _emit(payload, args)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
