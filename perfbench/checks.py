"""Correctness checks on the program's outputs.

Each returns None when the output passes and a one-line reason when it does
not.  Monte Carlo estimates are held to Z standard errors, exact tables to a
digest of their reference fractions and quadrature values to an absolute
tolerance.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

Z = 5.0
QUADRATURE_ABS_TOL = 1e-10


def within(estimate: float, se: float, target, target_se: float = 0.0,
           z: float = Z) -> str | None:
    """|estimate - target| <= z * combined standard error."""
    sigma = math.hypot(se, target_se)
    if abs(estimate - float(target)) <= z * sigma:
        return None
    return (f"estimate {estimate:.6g} is more than {z:g} sigma "
            f"({sigma:.3g}) from {float(target):.6g}")


def at_least(estimate: float, se: float, bound, z: float = Z) -> str | None:
    if estimate + z * se >= float(bound):
        return None
    return f"estimate {estimate:.6g} is below the bound {float(bound):.6g}"


def at_most(estimate: float, se: float, bound, z: float = Z) -> str | None:
    if estimate - z * se <= float(bound):
        return None
    return f"estimate {estimate:.6g} is above the bound {float(bound):.6g}"


def close(value: float, exact: Fraction,
          tol: float = QUADRATURE_ABS_TOL) -> str | None:
    if abs(value - float(exact)) <= tol:
        return None
    return f"value {value!r} differs from {exact} by more than {tol:g}"


def table_digest(pairs) -> str:
    """sha256 of the 'num/den' lines of a table, given as decimal strings."""
    text = "\n".join(f"{num}/{den}" for num, den in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def table(rows, digest: str) -> str | None:
    """Rows of `floorconvex exact` output against a reference digest."""
    got = table_digest((r["num"], r["den"]) for r in rows)
    return None if got == digest else "table differs from the reference"
