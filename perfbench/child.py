"""One workload, run in a fresh process so that its set-up time and peak
memory belong to it alone.  run.py starts it; its last stdout line is JSON.

    PYTHONPATH=src python3 perfbench/child.py --workload mc3d --seed 1 \\
        --seconds 30 --trace 0 [--setup-only]

Untraced, it issues the workload's operations in a closed loop for
--seconds: one full pass, then again and again the operation with the least
time so far among those whose median time still fits.  While a Python-level
operation runs, the kernel of speed.py is timed on a timer, so that the
run's times are also known at the reference speed.  Traced, it makes an
untraced, a traced and another untraced pass over the same inputs and
reports the per-layer metrics of the traced pass.  Its overhead is taken
against the last pass, since the first pays the one-time costs of a fresh
process.

An operation is attempted once per run however often it is called, and
fails when any of its calls raises or exits non-zero or gives an output
that fails its check; "wrong" counts the calls whose output failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# set-up imports every module of the package
from floorconvex import (bodies, cli, decomposition, geometry,  # noqa: F401
                         harness, mc, samplers, sequences, topfunctions)

import layers
import speed
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_KERNEL_REPS = 7


class Runner:
    """Issues operations, checks each output and keeps their times."""

    def __init__(self, speedometer: speed.Speedometer | None = None):
        self.samples: dict[str, list[float]] = {}
        self.failed_ops: set[str] = set()
        self.calls = self.wrong = 0
        self.problems: dict[str, int] = {}
        self.n_success: dict[str, int] = {}      # by operation name
        self.evaluations: dict[str, int] = {}
        self.tracer = None
        self.speed = speedometer

    def run(self, op) -> float:
        tr = self.tracer
        if tr is not None:
            tr.op = op.name
            token = tr.begin("op", kind=op.kind, workers=op.workers)
        # the kernel does not track numpy's loops, and it would take a core
        # from the estimators' worker threads
        meter = self.speed if op.kind != "mc" else None
        paused = meter.paused if meter else 0.0
        t0 = time.perf_counter()
        try:
            with meter.sampling() if meter else contextlib.nullcontext():
                out = op.call()
        except Exception as exc:    # the program failed; count it, go on
            out, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        dt = time.perf_counter() - t0
        if meter:
            dt -= meter.paused - paused
        if tr is not None:
            tr.end(token)
        self.samples.setdefault(op.name, []).append(dt)
        self.calls += 1
        if error is None:
            error = op.check(out)
            if error is None:
                error = self._repeatable(op, out)
            if error is not None:
                self.wrong += 1
        if error is not None:
            self.failed_ops.add(op.name)
            key = f"{op.name}: {error}"
            self.problems[key] = self.problems.get(key, 0) + 1
        return dt

    def _repeatable(self, op, out) -> str | None:
        """Identical calls must give identical counts."""
        for attr, seen in (("n_success", self.n_success),
                           ("evaluations", self.evaluations)):
            value = getattr(out, attr, None)
            if value is None:
                continue
            if seen.setdefault(op.name, value) != value:
                return f"{attr} {value} differs from {seen[op.name]}"
        return None


def medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {name: statistics.median(ts) for name, ts in samples.items()}


def timed_loop(ops, seconds: float, runner: Runner) -> None:
    end = time.perf_counter() + seconds
    for op in ops:
        runner.run(op)
    while True:
        med = medians(runner.samples)
        left = end - time.perf_counter()
        fits = [op for op in ops if med[op.name] <= left]
        if not fits:
            return
        # each operation gets about the same share of the run, so short
        # ones are called many times and their first, cold call counts little
        op = min(fits, key=lambda op: sum(runner.samples[op.name]))
        runner.run(op)


def pass_metrics(ops, runner: Runner) -> dict:
    """raw_wall_s is one pass over the operations, each at its median time;
    wall_s is the same with the Python-level operations at the reference
    speed."""
    med = medians(runner.samples)
    mc_ops = [op for op in ops if op.kind == "mc"]
    mc_wall = sum(med[op.name] for op in mc_ops)
    raw_wall = sum(med.values())
    factor = runner.speed.scale()
    return {"wall_s": mc_wall + (raw_wall - mc_wall) * factor,
            "raw_wall_s": raw_wall, "speed_scale": factor,
            "kernel_runs": len(runner.speed.times),
            "trials_per_s": (sum(op.trials for op in mc_ops) / mc_wall
                             if mc_ops else None),
            "op_median_s": med}


def traced_passes(ops, runner: Runner) -> dict:
    for op in ops:
        runner.run(op)
    tr = Tracer()
    layers.install(tr)
    runner.tracer = tr
    try:
        traced = sum(runner.run(op) for op in ops)
    finally:
        runner.tracer = None
        tr.restore()
    untraced = sum(runner.run(op) for op in ops)
    per_layer = layers.metrics(tr, runner.n_success,
                               sum(runner.evaluations.values()),
                               untraced, traced)
    return {"per_layer": {name: {"value": value,
                                 "unit": layers.PER_LAYER[name]["unit"]}
                          for name, value in per_layer.items()},
            "tracer": tr}


def git_commit() -> str:
    """HEAD of the checkout's .git, read without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def write_spans(path: Path, man: dict, tr) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[s.sid, s.name, s.start, s.end, s.parent, s.op, s.attrs]
            for s in tr.spans]
    path.write_text(json.dumps({"manifest": man, "counters": tr.counters,
                                "spans": rows}))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    references = json.loads((HERE / "references.json").read_text())
    ops = workloads.build(args.workload, args.seed, references)
    ready = time.perf_counter()
    setup_scale = speed.scale(speed.kernel_times(SETUP_KERNEL_REPS))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0
    runner = Runner()
    man = manifest(args)
    out = {"ready": ready, "setup_scale": setup_scale, "manifest": man}
    if args.trace:
        traced = traced_passes(ops, runner)
        spans_file = (ROOT / ".perfbench"
                      / f"spans-{args.workload}-{args.seed}.json")
        write_spans(spans_file, man, traced.pop("tracer"))
        out.update(traced, spans_file=str(spans_file.relative_to(ROOT)))
    else:
        runner.speed = speed.Speedometer()
        timed_loop(ops, args.seconds, runner)
        out.update(pass_metrics(ops, runner))
    out.update(
        attempted=len(ops), failed=len(runner.failed_ops), calls=runner.calls,
        wrong=runner.wrong, problems=runner.problems, samples=runner.samples,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
