"""Exact rational sequences for convex-position probabilities above a floor.

Every sequence is computed with arbitrary-precision rationals.  Closed forms
and their independent recursions are both exposed so that they can be checked
against each other exactly.

The four convolution recursions (``u_seq``, ``ell_seq``, ``p_recursive``,
``q_recursive``) run on one integer kernel, ``_scaled_sum``, which only
multiplies and adds.  Given integers e_1, e_2, ... and D_m = e_1 ... e_m, it
forms

    S_N(a) = sum_{k<=N} B(N, k) a_k a_{N-k},   B(N, k) = D_N / (D_k D_{N-k}).

For ``u`` and ``ell`` the step coefficient of v_m = c_m sum_k v_k v_{m-1-k}
is c_m = 1/e_m with e_m an integer: C(m+2, 3) for ``u`` and
(2m+1)!/(6 (m-1)! m!) for ``ell``.  The scaled values a_m = v_m D_m then
satisfy a_m = S_{m-1}(a), so from a_0 = 1 every a_m is an integer as long as
every B(N, k) is one.  ``p`` and ``q`` are put in the same form where they
are defined: ``p`` with e_j = j, where B is the binomial coefficient, and
``q`` with e_j = j(j+1)/2, where B(N, k) = C(N+1, k+1) C(N+1, k)/(N+1) is a
Narayana number.  A step is formed as follows:

* B is built along k from B(N, 0) = 1 by B(N, k) = B(N, k-1) e_{N+1-k} / e_k,
  one big-by-small multiplication and one big-by-small division per term.
  The division is checked: a nonzero remainder raises ``ArithmeticError``
  instead of rounding, so a wrong e_j cannot give a wrong value silently.
  For ``p`` and ``q`` the divisions are exact by the theorems above; for
  ``u`` and ``ell`` no remainder occurs up to n = 150, which the tests check,
  and a larger n would raise rather than round if one did.
* Mirror terms are paired.  B(N, k) = B(N, N-k), so the terms for k and
  N-k are equal; each pair is computed once and doubled, and the middle
  term (N even) is added once.
* Each value is reduced once, as ``Fraction(a_m, D_m)``.

Every operation is on integers and the only divisions are checked to be
exact, so ``Fraction`` gives the same lowest-terms value as summing
``Fraction`` terms.  The cost is in the big-integer products
a_k (a_{N-k} B(N, k)).  For ``ell`` these numbers have O(m^2) bits at step
m, which CPython multiplies with Karatsuba in about (m^2)^1.58 time, so a
step costs about m^4.2 and the table to n about n^5.2: ``ell_seq(300)``
takes about 35 times as long as ``ell_seq(150)``.  The common-denominator
kernel this replaced paid a quadratic big-integer division per term, about
n^6 for the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def beta_rational(a: int, b: int) -> Fraction:
    """Beta function at positive integer arguments: (a-1)!(b-1)!/(a+b-1)!."""
    if a < 1 or b < 1:
        raise ValueError("beta_rational needs integer arguments >= 1")
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1),
                    math.factorial(a + b - 1))


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact division by {den} (remainder {rem})")
    return q


def _scaled_sum(a: list[int], e: list[int]) -> int:
    """sum_k B(N, k) a_k a_{N-k} with N = len(a) - 1, B(N, 0) = 1 and
    B(N, k) = B(N, k-1) e[N+1-k] / e[k].  See the module docstring."""
    n = len(a) - 1
    total, b = 0, 1
    for k in range(n // 2 + 1):
        if k:
            b = _exact_div(b * e[n + 1 - k], e[k])
        term = a[k] * (a[n - k] * b)
        total += term if 2 * k == n else 2 * term
    return total


def _scaled_table(n: int, e: list[int], f=None) -> list[int]:
    """a_0..a_n with a_0 = 1 and a_m = f(m) _scaled_sum(a_0..a_{m-1});
    f = None means f(m) = 1."""
    a = [1]
    for m in range(1, n + 1):
        s = _scaled_sum(a, e)
        a.append(s if f is None else f(m) * s)
    return a


def _unscale(a: list[int], e: list[int]) -> list[Fraction]:
    """v_m = a_m / D_m with D_m = e_1 ... e_m, reduced once per value."""
    vals, d = [], 1
    for m, am in enumerate(a):
        if m:
            d *= e[m]
        vals.append(Fraction(am, d))
    return vals


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
    # (1-t)/2, with the beta kernel B(k+1, n-k) = k!(n-1-k)!/n!.  Times
    # C(n-1, k) the kernel is 1/n, so q_n = sum_k t_k t_{n-1-k} / (n 2^(n-1)).
    # With e_j = j(j+1)/2 the scaled t_k D_k are integers and B(N, k) is the
    # Narayana number C(N+1, k+1) C(N+1, k) / (N+1).
    if n == 0:
        return Fraction(1)
    e = [1] + [j * (j + 1) // 2 for j in range(1, n)]
    a, d = [], 1
    for k in range(n):
        if k:
            d *= e[k]
        t = t_closed(k)
        a.append(_exact_div(t.numerator * d, t.denominator))
    return Fraction(_scaled_sum(a, e), n * 2 ** (n - 1) * d)


# ---------------------------------------------------------------------------
# Parabola sequence p_n (2D, top function 6x(1-x))

def p_closed(n: int) -> Fraction:
    return Fraction(12 ** (n + 1), 6 * math.factorial(2 * n + 2))


def p_recursive(n: int) -> Fraction:
    # Self-similar split: |L(t)| = t^3, |R(t)| = (1-t)^3, both normalized
    # pieces are the parabola again:
    #   p_m = 6/(3m)! sum_k C(m-1, k) (3k+1)! (3(m-1-k)+1)! p_k p_{m-1-k}.
    # a_m = (3m+1)! p_m is then the integer 6(3m+1) sum_k C(m-1, k) a_k
    # a_{m-1-k}: the kernel with e_j = j, whose B is the binomial coefficient.
    a = _scaled_table(n, list(range(n + 1)), lambda m: 6 * (3 * m + 1))
    return Fraction(a[n], math.factorial(3 * n + 1))


def s_closed(n: int) -> Fraction:
    """Probability that conditioned-convex points in the triangle fall under
    their parabolic limit shape: (2/3)^n p_n / t_n."""
    return Fraction(2 * 4 ** n, (n + 1) * math.comb(2 * n + 2, n + 1))


# ---------------------------------------------------------------------------
# 3D mountain lower bound Y_n

def y_closed(n: int) -> Fraction:
    den = math.factorial(n)
    for j in range(1, n + 1):
        den *= 3 * j - 1
    return Fraction(2 ** n, den)


def y_recursive(n: int) -> Fraction:
    v = Fraction(1)
    for k in range(1, n + 1):
        v *= Fraction(2, k * (3 * k - 1))
    return v


# ---------------------------------------------------------------------------
# Tetrahedron bounds u_n (upper) and ell_n (lower), recursion only

def u_seq(n: int) -> list[Fraction]:
    """u_0..u_n with u_m = 6/((m+2)(m+1)m) * sum_k u_k u_{m-1-k}."""
    e = _u_reciprocals(n)
    return _unscale(_scaled_table(n, e), e)


def ell_seq(n: int) -> list[Fraction]:
    """ell_0..ell_n with ell_m = 6(m-1)! m!/(2m+1)! * sum_k ell_k ell_{m-1-k}."""
    e = _ell_reciprocals(n)
    return _unscale(_scaled_table(n, e), e)


def _u_reciprocals(n: int) -> list[int]:
    """[1, e_1, ..., e_n], e_j = C(j+2, 3) = 1/c_j for ``u_seq``."""
    return [1] + [math.comb(j + 2, 3) for j in range(1, n + 1)]


def _ell_reciprocals(n: int) -> list[int]:
    """[1, e_1, ..., e_n], e_j = (2j+1)!/(6 (j-1)! j!) = 1/c_j for
    ``ell_seq``.  e_j = C(2j+1, j) j (j+1)/6 is an integer: j (j+1) is even,
    and when 3 divides neither j nor j+1 it divides 2j+1, so it divides
    (2j+1) C(2j, j) = (j+1) C(2j+1, j) and with it C(2j+1, j)."""
    f = math.factorial
    return [1] + [_exact_div(f(2 * j + 1), 6 * f(j - 1) * f(j))
                  for j in range(1, n + 1)]


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
