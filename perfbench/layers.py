"""Per-layer metrics, measured by a traced pass over a workload.

install() wraps the program's functions at the module attributes their
callers look them up through; metrics() turns the spans of one traced pass
into the per-layer metrics.  A layer a workload leaves idle reads 0 there.

PER_LAYER records each metric's unit, which direction is better, the
workloads it describes and the end-to-end metric it should move.  trials_per_s
is Monte Carlo trials over estimator wall time at a fixed trial count, so
whatever moves it moves wall_s on the same workload.
"""

from __future__ import annotations

from floorconvex import (cli, decomposition, geometry, harness, mc,
                         sequences, topfunctions)

from spans import Tracer, self_times
from workloads import MC2D_CASES, MC3D_CASES, VERIFY_SUITES, case_name

PRED3D_CASES = tuple(case_name(b, n) for b, n in MC3D_CASES)
MC2D_BINOMIAL_CASES = tuple(case[0] for case in MC2D_CASES)

_PER_LAYER = [
    ("samplers.ns_per_point", "ns", "lower", "mc2d mc3d",
     "wall_s and trials_per_s on mc2d; under 10% of mc3d"),
    ("samplers.share", "ratio", "lower", "mc2d mc3d",
     "wall_s and trials_per_s on mc2d; under 10% of mc3d"),
    *[(f"mc.pred3d.us_per_trial.{c}", "us", "lower", "mc3d",
       "wall_s and trials_per_s on mc3d; nothing elsewhere")
      for c in PRED3D_CASES],
    ("mc.pred2d.ns_per_trial", "ns", "lower", "mc2d",
     "wall_s and trials_per_s on mc2d"),
    ("mc.chain.ns_per_trial", "ns", "lower", "mc2d",
     "wall_s and trials_per_s on mc2d"),
    ("mc.pred.share", "ratio", "lower", "mc2d mc3d",
     "ceiling on any gain from the predicates"),
    ("mc.runner.self_ms", "ms", "lower", "mc2d mc3d",
     "estimator time outside sampler, predicate and exact spans; wall_s on "
     "mc2d, where both runner copies run"),
    ("mc.chunks", "count", "lower", "mc2d mc3d", "wall_s on mc2d"),
    ("mc.worker_busy_frac", "ratio", "higher", "mc2d",
     "chunk time over wall x workers; wall_s on mc2d"),
    ("mc.ambiguous", "count", "lower", "all",
     "stays 0 on the Monte Carlo workloads; a rise means a looser filter"),
    ("geometry.exact_calls", "count", "lower", "all",
     "stays 0 on the Monte Carlo workloads; wall_s on exact"),
    ("geometry.exact_ms", "ms", "lower", "all",
     "stays 0 on the Monte Carlo workloads; wall_s on exact"),
    ("geometry.us_per_call.2d", "us", "lower", "exact", "wall_s on exact"),
    ("geometry.us_per_call.3d", "us", "lower", "exact", "wall_s on exact"),
    *[(f"mc.n_success.{c}", "count", "higher", "mc3d" if c in PRED3D_CASES
       else "mc2d", "must repeat exactly at a fixed seed; moves nothing")
      for c in PRED3D_CASES + MC2D_BINOMIAL_CASES],
    ("decomposition.evaluations", "count", "lower", "quadrature",
     "wall_s on quadrature"),
    ("decomposition.split_calls", "count", "lower", "quadrature",
     "wall_s on quadrature"),
    ("decomposition.split_share", "ratio", "lower", "quadrature",
     "wall_s on quadrature"),
    ("decomposition.self_ms", "ms", "lower", "quadrature",
     "wall_s on quadrature"),
    ("topfunctions.pwl_constructs", "count", "lower", "quadrature",
     "wall_s on quadrature, where the Fraction cost lands"),
    ("topfunctions.value_calls", "count", "lower", "quadrature",
     "wall_s on quadrature, where the Fraction cost lands"),
    ("bodies.calls", "count", "lower", "exact",
     "wall_s on exact, from the dominance and layer_concavity suites"),
    ("bodies.us_per_call", "us", "lower", "exact",
     "wall_s on exact, from the dominance and layer_concavity suites"),
    *[(f"sequences.ms.{s}", "ms", "lower", "exact", "wall_s on exact")
      for s in sequences.SEQUENCE_NAMES],
    *[(f"harness.ms.{s}", "ms", "lower", "exact", "wall_s on exact")
      for s in VERIFY_SUITES],
    ("harness.records", "count", "higher", "exact", "wall_s on exact"),
    ("cli.self_ms", "ms", "lower", "exact", "wall_s on exact"),
    ("trace.overhead_frac", "ratio", "lower", "all",
     "traced minus untraced wall time over untraced wall time"),
]
PER_LAYER = {name: {"unit": unit, "better": better, "workloads": wl,
                    "moves": moves}
             for name, unit, better, wl, moves in _PER_LAYER}

_DRAWS = ("sample_body", "sample_density_g1", "sample_density_g2",
          "sample_heights")
_PREDICATES = {"convex_position_verdicts_2d": "mc.pred2d",
               "convex_position_verdicts_3d": "mc.pred3d",
               "chain_verdicts": "mc.chain"}
_BODIES = ("below_volume", "layer_volume", "max_height")


def _points(args, out):
    return {"points": len(out)}


def _verdicts(args, out):
    return {"trials": len(out), "ambiguous": int((out == -1).sum())}


def install(tr: Tracer) -> None:
    """Wrap the program's layer boundaries; tr.restore() undoes it."""
    for attr in _DRAWS:
        tr.wrap_span(mc, attr, "samplers." + attr, _points)
    tr.wrap_span(mc, "floor_radius_batch", "samplers.floor_radius_batch")
    for attr, name in _PREDICATES.items():
        tr.wrap_span(mc, attr, name, _verdicts)
    tr.wrap_span(mc, "_exact_convex_position_2d", "geometry.exact")
    tr.wrap_span(mc, "_exact_chain", "geometry.exact")
    tr.wrap_span(geometry, "in_convex_position_with_floor_2d", "geometry.2d")
    tr.wrap_span(geometry, "in_convex_position_with_floor_3d", "geometry.3d")

    def chunked(run_binomial):
        def run(chunk_fn, *args, **kwargs):
            def chunk(rng, size):
                token = tr.begin("mc.chunk", trials=size)
                try:
                    return chunk_fn(rng, size)
                finally:
                    tr.end(token)
            return run_binomial(chunk, *args, **kwargs)
        return run

    tr.patch(mc, "_run_binomial", chunked)
    tr.wrap_span(decomposition, "split", "decomposition.split")
    tr.wrap_count(topfunctions.PiecewiseLinearTop, "__post_init__",
                  "topfunctions.pwl_constructs")
    tr.wrap_count(topfunctions.PiecewiseLinearTop, "value",
                  "topfunctions.value_calls")
    for attr in _BODIES:
        tr.wrap_count(harness, attr, "bodies")
    tr.wrap_span(cli, "sequence", "sequences",
                 lambda args, out: {"name": args[0]})
    for suite in list(harness.SUITES):
        tr.wrap_span(harness.SUITES, suite, "harness.suite",
                     lambda args, out, suite=suite:
                     {"suite": suite, "records": len(out.records)})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tr: Tracer, n_success: dict, evaluations: int,
            untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass.  Op spans are named "op" and
    carry the operation's kind and workers; n_success is keyed by the name
    of the operation, which for Monte Carlo cases is the case name."""
    spans = tr.spans
    own = self_times(spans)
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def get(*names):
        return [s for n in names for s in named.get(n, ())]

    def total(ss):
        return sum(s.duration for s in ss)

    ops = get("op")
    op_ids = {s.sid for s in ops}
    mc_ops = [s for s in ops if s.attrs["kind"] == "mc"]
    capacity = sum(s.duration * s.attrs["workers"] for s in mc_ops)
    samplers = [s for s in spans if s.name.startswith("samplers.")]
    preds = get(*_PREDICATES.values())
    # estimate_Q2_height draws one sample_heights batch per chunk
    chunks = get("mc.chunk") + [s for s in get("samplers.sample_heights")
                                if s.parent in op_ids]
    exact = get("geometry.2d", "geometry.3d", "geometry.exact")
    quad_ops = [s for s in ops if s.attrs["kind"] == "quadrature"]
    cli_ops = [s for s in ops if s.attrs["kind"] == "cli"]
    bodies_calls, bodies_s = tr.counters.get("bodies", (0, 0.0))

    m = {
        "samplers.ns_per_point": _ratio(
            1e9 * total(samplers), sum(s.attrs.get("points", 0)
                                       for s in samplers)),
        "samplers.share": _ratio(total(samplers), capacity),
        "mc.pred.share": _ratio(total(preds), capacity),
        "mc.runner.self_ms": 1e3 * sum(own[s.sid]
                                       for s in mc_ops + get("mc.chunk")),
        "mc.chunks": len(chunks),
        "mc.worker_busy_frac": _ratio(total(chunks), capacity),
        "mc.ambiguous": sum(s.attrs.get("ambiguous", 0) for s in preds),
        "geometry.exact_calls": len(exact),
        "geometry.exact_ms": 1e3 * total(exact),
        "decomposition.evaluations": evaluations,
        "decomposition.split_calls": len(get("decomposition.split")),
        "decomposition.split_share": _ratio(total(get("decomposition.split")),
                                            total(quad_ops)),
        "decomposition.self_ms": 1e3 * sum(own[s.sid] for s in quad_ops),
        "topfunctions.pwl_constructs": tr.counters.get(
            "topfunctions.pwl_constructs", (0,))[0],
        "topfunctions.value_calls": tr.counters.get(
            "topfunctions.value_calls", (0,))[0],
        "bodies.calls": bodies_calls,
        "bodies.us_per_call": _ratio(1e6 * bodies_s, bodies_calls),
        "harness.records": sum(s.attrs.get("records", 0)
                               for s in get("harness.suite")),
        "cli.self_ms": 1e3 * sum(own[s.sid] for s in cli_ops),
        "trace.overhead_frac": _ratio(traced_wall - untraced_wall,
                                      untraced_wall),
    }
    for name in ("mc.pred2d", "mc.chain"):
        ss = get(name)
        m[f"{name}.ns_per_trial"] = _ratio(
            1e9 * total(ss), sum(s.attrs.get("trials", 0) for s in ss))
    for case in PRED3D_CASES:
        ss = [s for s in get("mc.pred3d") if s.op == case]
        m[f"mc.pred3d.us_per_trial.{case}"] = _ratio(
            1e6 * total(ss), sum(s.attrs.get("trials", 0) for s in ss))
    for key, name in (("2d", "geometry.2d"), ("3d", "geometry.3d")):
        ss = get(name)
        m[f"geometry.us_per_call.{key}"] = _ratio(1e6 * total(ss), len(ss))
    for case, k in n_success.items():
        m[f"mc.n_success.{case}"] = k
    for span_name, attr, prefix in (("sequences", "name", "sequences.ms"),
                                    ("harness.suite", "suite", "harness.ms")):
        for s in get(span_name):
            if attr in s.attrs:         # absent when the call raised
                key = f"{prefix}.{s.attrs[attr]}"
                m[key] = m.get(key, 0.0) + 1e3 * s.duration
    unknown = set(m) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return {name: m.get(name, 0) for name in PER_LAYER}
