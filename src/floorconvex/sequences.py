"""Exact rational sequences for convex-position probabilities above a floor.

Every sequence is computed with arbitrary-precision rationals.  Closed forms
and their independent recursions are both exposed so that they can be checked
against each other exactly.

The four convolution recursions (``q_recursive``, ``p_recursive``, ``u_seq``,
``ell_seq``) share one kernel, ``_convolve``, which forms a step
``c_m * sum_k w(m,k) v_k v_{m-1-k}`` in Python integers rather than in
``Fraction`` sums:

* Mirror terms are paired.  The terms for k and m-1-k are equal when the
  weight is symmetric, w(m,k) = w(m,m-1-k), so each pair is computed once and
  doubled, and the middle term (m odd) is added once.  Every recursion here
  has such a weight: 1 for ``u`` and ``ell``, C(m-1,k)(1+3k)!(3m-3k-2)! for
  ``p`` and the beta kernel C(m-1,k) k!(m-1-k)! for ``q``; an asymmetric
  weight would make the pairing wrong, not merely slow.
* The terms share one denominator per step.  It starts at the k = 0 pair's
  denominator, den[0] den[m-1], and is widened to an lcm only when a product
  den[a] den[b] does not divide it.  For ``ell`` to n = 150 that happens at
  89 of 5,700 terms, by a factor of at most 138,043 (18 bits) against
  denominators of up to 23,400 bits, so nearly every term costs one
  division and no gcd.
* The step is reduced once: the sum is scaled by c_m, and ``Fraction``
  divides numerator and denominator by their gcd.

Every operation is on integers, the common denominator is a multiple of
every term's denominator, and ``Fraction`` reduces the step to lowest terms,
so the values are bit-identical to summing ``Fraction`` terms.  The cost is
dominated by the big-integer divisions den // (den[a] den[b]); with
denominators of order m^2 bits, the ``ell`` table to n grows like about n^5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


def beta_rational(a: int, b: int) -> Fraction:
    """Beta function at positive integer arguments: (a-1)!(b-1)!/(a+b-1)!."""
    if a < 1 or b < 1:
        raise ValueError("beta_rational needs integer arguments >= 1")
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1),
                    math.factorial(a + b - 1))


def _convolve(vals: list[Fraction], coef: Fraction, weight=None) -> Fraction:
    """coef * sum_{k<m} weight(k) v_k v_{m-1-k} with m = len(vals), exactly.

    ``weight`` maps k to an integer and must satisfy weight(k) ==
    weight(m-1-k); None means weight 1.  See the module docstring."""
    nums = [v.numerator for v in vals]
    dens = [v.denominator for v in vals]
    m = len(vals)
    num, den = 0, dens[0] * dens[m - 1]
    for k in range((m + 1) // 2):
        j = m - 1 - k
        d = dens[k] * dens[j]
        scale, rem = divmod(den, d)
        if rem:
            wide = den // math.gcd(den, d) * d
            num *= wide // den
            den, scale = wide, wide // d
        term = nums[k] * nums[j] * scale
        if weight is not None:
            term *= weight(k)
        num += term if k == j else 2 * term
    return Fraction(num * coef.numerator, den * coef.denominator)


# ---------------------------------------------------------------------------
# Triangle floor sequence t_n (2D, top function 2x)

def t_closed(n: int) -> Fraction:
    return Fraction(2 ** n, math.factorial(n) * math.factorial(n + 1))


def t_recursive(n: int) -> Fraction:
    v = Fraction(1)
    for k in range(1, n + 1):
        v *= 2 * beta_rational(2, k)
    return v


# ---------------------------------------------------------------------------
# Square sequence q_n (2D, constant top function)

def q_closed(n: int) -> Fraction:
    return Fraction(math.comb(2 * n, n),
                    math.factorial(n) * math.factorial(n + 1))


def q_recursive(n: int) -> Fraction:
    # Convolution over a split into two triangular halves of masses t/2,
    # (1-t)/2, with the beta kernel B(k+1, n-k) = k!(n-1-k)!/n!.
    if n == 0:
        return Fraction(1)
    f = math.factorial
    return _convolve([t_closed(k) for k in range(n)],
                     Fraction(1, 2 ** (n - 1) * f(n)),
                     lambda k: math.comb(n - 1, k) * f(k) * f(n - 1 - k))


# ---------------------------------------------------------------------------
# Parabola sequence p_n (2D, top function 6x(1-x))

def p_closed(n: int) -> Fraction:
    return Fraction(12 ** (n + 1), 6 * math.factorial(2 * n + 2))


def p_recursive(n: int) -> Fraction:
    # Self-similar split: |L(t)| = t^3, |R(t)| = (1-t)^3, both normalized
    # pieces are the parabola again.
    f = math.factorial
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        vals.append(_convolve(vals, Fraction(6, f(3 * m)), lambda k: (
            math.comb(m - 1, k) * f(1 + 3 * k) * f(3 * m - 3 * k - 2))))
    return vals[n]


def s_closed(n: int) -> Fraction:
    """Probability that conditioned-convex points in the triangle fall under
    their parabolic limit shape: (2/3)^n p_n / t_n."""
    return Fraction(2 * 4 ** n, (n + 1) * math.comb(2 * n + 2, n + 1))


def s_from_pt(n: int) -> Fraction:
    return Fraction(2, 3) ** n * p_closed(n) / t_closed(n)


# ---------------------------------------------------------------------------
# 3D mountain lower bound Y_n

def y_closed(n: int) -> Fraction:
    v = Fraction(2 ** n, math.factorial(n))
    for j in range(1, n + 1):
        v /= (3 * j - 1)
    return v


def y_recursive(n: int) -> Fraction:
    v = Fraction(1)
    for k in range(1, n + 1):
        v *= Fraction(2, k * (3 * k - 1))
    return v


# ---------------------------------------------------------------------------
# Tetrahedron bounds u_n (upper) and ell_n (lower), recursion only

def u_seq(n: int) -> list[Fraction]:
    """u_0..u_n with u_m = 6/((m+2)(m+1)m) * sum_k u_k u_{m-1-k}."""
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        vals.append(_convolve(vals, Fraction(6, (m + 2) * (m + 1) * m)))
    return vals


def ell_seq(n: int) -> list[Fraction]:
    """ell_0..ell_n with ell_m = 6(m-1)! m!/(2m+1)! * sum_k ell_k ell_{m-1-k}."""
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        vals.append(_convolve(vals, Fraction(
            6 * math.factorial(m - 1) * math.factorial(m),
            math.factorial(2 * m + 1))))
    return vals


# ---------------------------------------------------------------------------
# Valtr's no-floor probabilities (cross-checks for the floorless estimator)

def valtr_square(n: int) -> Fraction:
    if n < 3:
        return Fraction(1)
    return Fraction(math.comb(2 * n - 2, n - 1) ** 2, math.factorial(n) ** 2)


def valtr_triangle(n: int) -> Fraction:
    if n < 3:
        return Fraction(1)
    return Fraction(2 ** n * math.factorial(3 * n - 3),
                    math.factorial(2 * n) * math.factorial(n - 1) ** 3)


# ---------------------------------------------------------------------------
# Two-point probabilities of the extremal bodies, any dimension

def q2_mountain(d: int) -> Fraction:
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return 1 - Fraction(2, d + 1)


def q2_prism(d: int) -> Fraction:
    if d < 2:
        raise ValueError("dimension must be >= 2")
    return 1 - Fraction(1, d)


# ---------------------------------------------------------------------------
# Lattice-path identity behind the parabola recursion

def parabola_path_identity_holds(n: int) -> bool:
    """Exact check of the convolution identity used to close the parabola
    recursion (first-passage counts of +2/-1 paths)."""
    lhs = Fraction(4 * math.comb(3 * n + 1, n - 1), 3 * n + 1)
    rhs = Fraction(0)
    for k in range(n):
        j = n - k - 1
        rhs += (Fraction(2 * math.comb(2 + 3 * k, k), 3 * k + 2)
                * Fraction(2 * math.comb(2 + 3 * j, j), 2 + 3 * j))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Named access used by the CLI and tests

@dataclass(frozen=True)
class RationalSeq:
    name: str
    values: list[Fraction]
    method: str = "closed-form"


_CLOSED = {
    "t": t_closed,
    "q": q_closed,
    "p": p_closed,
    "s": s_closed,
    "y": y_closed,
    "valtr_square": valtr_square,
    "valtr_triangle": valtr_triangle,
}

_RECURSIVE_LISTS = {"u": u_seq, "ell": ell_seq}

SEQUENCE_NAMES = tuple(sorted(_CLOSED)) + tuple(sorted(_RECURSIVE_LISTS))


def sequence(name: str, n: int) -> RationalSeq:
    """Values with indices 0..n of a named sequence."""
    if n < 0:
        raise ValueError("sequence length must be >= 0")
    if name in _CLOSED:
        fn = _CLOSED[name]
        return RationalSeq(name, [fn(k) for k in range(n + 1)])
    if name in _RECURSIVE_LISTS:
        return RationalSeq(name, _RECURSIVE_LISTS[name](n), method="recursion")
    raise ValueError(f"unknown sequence {name!r}; known: {', '.join(SEQUENCE_NAMES)}")
