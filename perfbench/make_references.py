"""Regenerate perfbench/references.json, the reference values the checks use.

    PYTHONPATH=src python3 perfbench/make_references.py

- mc3d: an estimate of each 3D case from 10^7 trials at REFERENCE_SEED, a
  seed no workload operation uses.  Two workers only shorten the run: the
  counts do not depend on the worker count.
- tables: the digest of each exact sequence at index 0..EXACT_N.  The digit
  limit on integer-to-string conversion is lifted here only, so the `ell`
  table has a reference even though `floorconvex exact` cannot print it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from floorconvex import bodies, mc, sequences

import checks
import workloads

OUT = Path(__file__).resolve().parent / "references.json"
TRIALS = 10_000_000


def main() -> int:
    sys.set_int_max_str_digits(0)
    tables = {}
    for name in sequences.SEQUENCE_NAMES:
        values = sequences.sequence(name, workloads.EXACT_N).values
        tables[name] = checks.table_digest(
            (str(v.numerator), str(v.denominator)) for v in values)
    mc3d = {}
    for body, n in workloads.MC3D_CASES:
        r = mc.estimate_Q(bodies.builtin_body(body), n, TRIALS,
                          seed=workloads.REFERENCE_SEED, workers=2)
        mc3d[workloads.case_name(body, n)] = {
            "estimate": r.estimate, "std_error": r.std_error,
            "n_success": r.n_success, "n_samples": r.n_samples,
            "seed": r.seed}
        print(body, n, r.estimate, r.std_error, file=sys.stderr)
    OUT.write_text(json.dumps({"mc3d": mc3d, "tables": tables}, indent=1)
                   + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
