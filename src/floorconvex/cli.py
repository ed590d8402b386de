"""Command-line entry point.

Subcommands: exact (rational sequences), estimate (Monte Carlo), quadrature
(decomposition recursion), verify (inequality suites), body (descriptor
validation).  Every output embeds a run manifest so results are replayable.
Exit codes: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import secrets
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__, harness, mc
from .bodies import (below_volume, body_to_json, floor_volume, layer_volume,
                     load_body, max_height)
from .decomposition import q_decomp
from .sequences import SEQUENCE_NAMES, sequence
from .topfunctions import QuadraticTop, constant_top, triangle_top

SCHEMA_VERSION = 1


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    flags: dict
    seed: int | None
    version: str
    schema: int
    started: str
    finished: str


def _manifest(args, started: str, seed=None) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    return asdict(RunManifest(
        subcommand=args.subcommand, flags=flags, seed=seed,
        version=__version__, schema=SCHEMA_VERSION, started=started,
        finished=datetime.datetime.now(datetime.timezone.utc).isoformat()))


def _rational(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator),
            "decimal": float(x)}


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's limit on int-to-decimal conversion (4300 digits
    by default; ell_n passes it near n = 150) and restore it afterwards."""
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
    fmt = getattr(args, "format", "json")
    out = getattr(args, "output", None)
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = _to_csv(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _to_csv(payload: dict) -> str:
    lines = [f"# {json.dumps(payload['manifest'])}"]
    rows = payload.get("rows", [])
    if rows:
        keys = list(rows[0])
        lines.append(",".join(keys))
        for r in rows:
            lines.append(",".join(str(r[k]) for k in keys))
    else:
        for k, v in payload.items():
            if k != "manifest":
                lines.append(f"{k},{v}")
    return "\n".join(lines)


def _write_plot(path: str, pairs) -> None:
    with open(path, "w") as fh:
        for x, y in pairs:
            fh.write(f"{x} {y}\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _default_workers() -> int:
    return int(os.environ.get("FLOORCONVEX_WORKERS", "1"))


# ---------------------------------------------------------------------------

def cmd_exact(args) -> int:
    started = _now()
    if args.n < 0:
        raise CliError("--n must be >= 0")
    seq = sequence(args.seq, args.n)
    with _unlimited_int_digits():
        rows = [{"index": i, **_rational(v)} for i, v in enumerate(seq.values)]
    payload = {"sequence": seq.name, "method": seq.method, "rows": rows,
               "manifest": _manifest(args, started)}
    _emit(payload, args)
    if args.plot:
        _write_plot(args.plot, [(i, float(v)) for i, v in enumerate(seq.values)])
    return 0


def cmd_estimate(args) -> int:
    started = _now()
    seed = args.seed if args.seed is not None else secrets.randbits(32)
    workers = args.workers if args.workers is not None else _default_workers()
    kind = args.estimator
    if kind in ("q", "q2-height", "no-floor"):
        body = load_body(args.body)
        if kind == "q":
            r = mc.estimate_Q(body, args.n, args.samples, seed=seed,
                              workers=workers)
        elif kind == "q2-height":
            r = mc.estimate_Q2_height(body, args.samples, seed=seed,
                                      workers=workers)
        else:
            r = mc.estimate_P(body, args.n, args.samples, seed=seed,
                              workers=workers)
    elif kind == "beta1":
        r = mc.estimate_beta1(args.n, args.samples, seed=seed, workers=workers)
    elif kind == "beta2":
        r = mc.estimate_beta2(args.n, args.samples, seed=seed, workers=workers)
    else:
        r = mc.estimate_fradius_reduction(args.n, args.samples, seed=seed,
                                          workers=workers)
    payload = {"estimator": kind, "body": args.body, "n": args.n,
               "rows": [asdict(r)], "manifest": _manifest(args, started, seed)}
    _emit(payload, args)
    if args.plot:
        _write_plot(args.plot, [(args.n, r.estimate)])
    return 0


def _parse_top(spec: str):
    if spec == "triangle":
        return triangle_top()
    if spec == "square":
        return constant_top()
    if spec == "parabola":
        return QuadraticTop()
    if spec.startswith("pwl:"):
        from .bodies import _top_from_json
        with open(spec[4:]) as fh:
            return _top_from_json(json.load(fh))
    raise CliError(f"unknown top {spec!r}; use triangle, square, parabola "
                   f"or pwl:<file>")


def cmd_quadrature(args) -> int:
    started = _now()
    top = _parse_top(args.top)
    r = q_decomp(top, args.n, tol=args.tol, budget=args.budget)
    payload = {"top": args.top, "n": args.n, "rows": [asdict(r)],
               "manifest": _manifest(args, started)}
    _emit(payload, args)
    return 0


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


def cmd_body(args) -> int:
    started = _now()
    try:
        body = load_body(args.body)
    except ValueError as exc:
        raise CliError(f"bad body descriptor: {exc}")
    hm = max_height(body)
    table = []
    for i in range(args.levels + 1):
        t = hm * i / args.levels
        table.append({"height": t, "layer": layer_volume(body, t),
                      "below": below_volume(body, t)})
    payload = {"body": body_to_json(body), "dimension": body.dimension,
               "max_height": hm, "floor_volume": floor_volume(body),
               "volume": below_volume(body, hm), "rows": table,
               "manifest": _manifest(args, started)}
    _emit(payload, args)
    return 0


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
    sp.add_argument("--plot", default=None,
                    help="write two-column plot data to file")
    common(sp)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("estimate", help="Monte Carlo estimators")
    sp.add_argument("--body", default="tetrahedron")
    sp.add_argument("--estimator", default="q",
                    choices=("q", "q2-height", "no-floor", "beta1", "beta2",
                             "fradius"))
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--plot", default=None)
    common(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("quadrature", help="decomposition recursion")
    sp.add_argument("--top", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--budget", type=int, default=200_000)
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
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
