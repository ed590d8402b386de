"""The floorconvex benchmark.

    python3 perfbench/run.py --workload mc3d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each run starts the workload in fresh processes with the BLAS pinned to one
thread: one that measures and, untraced, SETUP_PROBES that only set up, half
of them before it and half after, so that set-up is sampled across the run.
It prints the run manifest, every metric by name with its unit, and as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced pass (see layers.py).

The end-to-end times wall_s and setup_s are given at the reference speed of
speed.py, since the host's own speed drifts by more than their bounds; only
Monte Carlo operations, which the reference kernel does not track, count in
wall_s as measured.  The times as measured are printed beside them as
raw_wall_s and raw_setup_s.

trials_per_s and fail_frac are printed but not in the JSON: they read 0 or
do not exist on some workloads, and failures are already the JSON's
"failed" of "attempted".

"attempted" counts the workload's operations, each once however often the
run calls it.  An operation fails when any of its calls raises, exits
non-zero or gives an output that fails its check; a failed check also makes
"correct" false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc3d", "mc2d", "quadrature", "exact")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # the estimators' thread pools must not be oversubscribed by BLAS threads
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(args, extra, deadline: float) -> tuple[dict, float, float]:
    """Run child.py; return its JSON result and its set-up time, from
    process start until the workload's inputs are built, as measured and at
    the reference speed."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # child's reading compares with ours
    setup = result["ready"] - t0
    return result, setup, setup * result["setup_scale"]


def main() -> int:
    ap = argparse.ArgumentParser(description="floorconvex benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "floorconvex" / "__init__.py").is_file():
        print(f"error: no floorconvex source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    probes = 0 if args.trace else SETUP_PROBES // 2   # before and after
    try:
        setups = [run_child(args, ["--setup-only"], deadline)[1:]
                  for _ in range(probes)]
        result, raw, ref = run_child(args, [], deadline)
        setups.append((raw, ref))
        setups += [run_child(args, ["--setup-only"], deadline)[1:]
                   for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("manifest " + json.dumps(result["manifest"]))
    attempted, failed = result["attempted"], result["failed"]
    for problem, count in result["problems"].items():
        print(f"failed x{count}: {problem}")
    if args.trace:
        metrics = result["per_layer"]
        print(f"spans written to {result['spans_file']}")
    else:
        for name, seconds in result["op_median_s"].items():
            calls = " ".join(f"{t:.3f}" for t in result["samples"][name])
            print(f"op {name:28s} {seconds:9.4f} s  calls: {calls}")
        print(f"speed scale {result['speed_scale']:.4f} from "
              f"{result['kernel_runs']} kernel runs")
        metrics = {"setup_s": {"value": statistics.median(
                                   s for _, s in setups), "unit": "s"},
                   "wall_s": {"value": result["wall_s"], "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"],
                                   "unit": "MB"}}
    shown = dict(metrics)
    if not args.trace:
        shown["raw_setup_s"] = {"value": statistics.median(
                                    s for s, _ in setups), "unit": "s"}
        shown["raw_wall_s"] = {"value": result["raw_wall_s"], "unit": "s"}
    if not args.trace and result["trials_per_s"] is not None:
        shown["trials_per_s"] = {"value": result["trials_per_s"],
                                 "unit": "1/s"}
    shown["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    for name, m in shown.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"failed {failed} of {attempted} operations "
          f"({result['calls']} calls)")
    print(json.dumps({"correct": result["wrong"] == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
