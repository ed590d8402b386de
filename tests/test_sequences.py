"""Exact rational sequences: frozen reference values and cross-recursions."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorconvex import sequences as sq

F = Fraction

# published reference lists, frozen
T_LIST = [F(1), F(1), F(1, 3), F(1, 18), F(1, 180), F(1, 2700), F(1, 56700),
          F(1, 1587600), F(1, 57153600)]
Q_LIST = [F(1), F(1), F(1, 2), F(5, 36), F(7, 288), F(7, 2400), F(11, 43200),
          F(143, 8467200), F(143, 162570240)]
Y_LIST = [F(1), F(1), F(1, 5), F(1, 60), F(1, 1320), F(1, 46200),
          F(1, 2356200), F(1, 164934000), F(1, 15173928000)]
U_LIST = [F(1), F(1), F(1, 2), F(1, 5), F(7, 100), F(79, 3500), F(337, 49000),
          F(2069, 1029000), F(7033, 12348000)]
ELL_LIST = [F(1), F(1), F(1, 5), F(1, 50), F(11, 10500), F(431, 12127500),
            F(2371, 2801452500)]


def test_triangle_reference_list():
    assert [sq.t_closed(n) for n in range(9)] == T_LIST


def test_square_reference_list():
    assert [sq.q_closed(n) for n in range(9)] == Q_LIST


def test_mountain_reference_list():
    assert [sq.y_closed(n) for n in range(9)] == Y_LIST


def test_tetra_upper_reference_list():
    assert sq.u_seq(8) == U_LIST


def test_tetra_lower_reference_list():
    assert sq.ell_seq(6) == ELL_LIST


@pytest.mark.parametrize("closed,recursive", [
    (sq.t_closed, sq.t_recursive),
    (sq.q_closed, sq.q_recursive),
    (sq.p_closed, sq.p_recursive),
    (sq.y_closed, sq.y_recursive),
])
def test_closed_matches_recursion(closed, recursive):
    for n in range(12):
        assert closed(n) == recursive(n)


def test_parabola_small_values():
    assert sq.p_closed(0) == 1
    assert sq.p_closed(1) == 1
    assert sq.p_closed(2) == F(2, 5)
    # p_n < t_n scaled: conditioned-inclusion probability s_n below 1
    for n in range(1, 20):
        assert 0 < sq.s_closed(n) <= 1


def test_s_two_forms_agree():
    for n in range(30):
        assert sq.s_closed(n) == (F(2, 3) ** n * sq.p_closed(n)
                                  / sq.t_closed(n))


def test_s_asymptotics_toward_sqrt_pi_over_2():
    target = math.sqrt(math.pi) / 2
    v = float(sq.s_closed(10_000)) * math.sqrt(10_001)
    assert abs(v - target) < 0.01 * target


def test_valtr_values():
    assert sq.valtr_triangle(4) == F(2, 3)
    assert sq.valtr_square(4) == F(25, 36)
    assert sq.valtr_square(3) == 1
    assert sq.valtr_triangle(2) == 1


def test_two_point_extremes():
    assert sq.q2_mountain(2) == F(1, 3)
    assert sq.q2_prism(2) == F(1, 2)
    assert sq.q2_mountain(3) == F(1, 2)
    assert sq.q2_prism(3) == F(2, 3)
    for d in range(2, 10):
        assert sq.q2_mountain(d) < sq.q2_prism(d)
    with pytest.raises(ValueError):
        sq.q2_mountain(1)


def test_beta_rational():
    assert sq.beta_rational(2, 3) == F(1, 12)
    assert sq.beta_rational(1, 1) == 1
    for a in range(1, 8):
        for b in range(1, 8):
            assert sq.beta_rational(a, b) == sq.beta_rational(b, a)
    with pytest.raises(ValueError):
        sq.beta_rational(0, 1)


def test_path_identity():
    # the convolution identity that closes the parabola recursion
    # (first-passage counts of +2/-1 lattice paths)
    def c(k):
        return F(2 * math.comb(2 + 3 * k, k), 3 * k + 2)
    for n in range(1, 30):
        assert (F(4 * math.comb(3 * n + 1, n - 1), 3 * n + 1)
                == sum(c(k) * c(n - 1 - k) for k in range(n)))


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=30)
def test_sequences_decrease_from_index_one(n):
    # all convex-position probabilities are nonincreasing in n
    for fn in (sq.t_closed, sq.q_closed, sq.p_closed, sq.y_closed):
        if n >= 1:
            assert fn(n + 1) <= fn(n)
        assert 0 < fn(n) <= 1


# Plain-Fraction sums of the four convolution recursions, one term at a
# time: the oracle for the integer kernel they share.

def ref_u(n):
    vals = [F(1)]
    for m in range(1, n + 1):
        conv = sum(vals[k] * vals[m - 1 - k] for k in range(m))
        vals.append(F(6, (m + 2) * (m + 1) * m) * conv)
    return vals


def ref_ell(n):
    vals = [F(1)]
    for m in range(1, n + 1):
        conv = sum(vals[k] * vals[m - 1 - k] for k in range(m))
        coef = F(6 * math.factorial(m - 1) * math.factorial(m),
                 math.factorial(2 * m + 1))
        vals.append(coef * conv)
    return vals


def ref_p(n):
    vals = [F(1)]
    for m in range(1, n + 1):
        s = F(0)
        for k in range(m):
            kernel = F(
                6 * math.factorial(1 + 3 * k) * math.factorial(1 + 3 * (m - k - 1)),
                math.factorial(3 * m))
            s += math.comb(m - 1, k) * vals[k] * vals[m - 1 - k] * kernel
        vals.append(s)
    return vals


def ref_q(n):
    vals = [F(1)]
    for m in range(1, n + 1):
        s = F(0)
        for k in range(m):
            s += (math.comb(m - 1, k) * sq.t_closed(k) * sq.t_closed(m - 1 - k)
                  * F(1, 2 ** (m - 1)) * sq.beta_rational(k + 1, m - k))
        vals.append(s)
    return vals


ORACLE_N = 60


def test_u_and_ell_match_fraction_oracle():
    assert sq.u_seq(ORACLE_N) == ref_u(ORACLE_N)
    assert sq.ell_seq(ORACLE_N) == ref_ell(ORACLE_N)


def test_p_and_q_recursions_match_fraction_oracle():
    p, q = ref_p(ORACLE_N), ref_q(ORACLE_N)
    assert [sq.p_recursive(n) for n in range(ORACLE_N + 1)] == p
    assert [sq.q_recursive(n) for n in range(ORACLE_N + 1)] == q


def _fraction_b(e, n, k):
    """B(n, k) = D_n / (D_k D_{n-k}) with D_m = e_1 ... e_m, as a Fraction."""
    def d(m):
        return math.prod(e[1:m + 1])
    return F(d(n), d(k) * d(n - k))


@pytest.mark.parametrize("m", [6, 7])
def test_scaled_sum_pairs_mirror_terms(m):
    # m terms: three mirror pairs, and a middle term when m is odd
    a = [3, -1, 4, 1, -5, 9, 2][:m]
    e = [1, 1, 3, 6, 10, 15, 21, 28]        # j(j+1)/2: Narayana numbers
    expected = sum(_fraction_b(e, m - 1, k) * a[k] * a[m - 1 - k]
                   for k in range(m))
    assert sq._scaled_sum(a, e) == expected
    # a single unit pair picks out B(m-1, k): twice off the middle
    for k in range(m):
        unit = [int(i in (k, m - 1 - k)) for i in range(m)]
        b = sq._scaled_sum(unit, e)
        assert b == (1 if 2 * k == m - 1 else 2) * _fraction_b(e, m - 1, k)
        assert b == (1 if 2 * k == m - 1 else 2) * math.comb(
            m, k + 1) * math.comb(m, k) // m
    # binomial B: sum_k C(N, k) = 2^N
    assert sq._scaled_sum([1] * m, list(range(m + 1))) == 2 ** (m - 1)


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1,
                max_size=12),
       st.lists(st.integers(min_value=1, max_value=12), min_size=12,
                max_size=12))
@settings(max_examples=60)
def test_scaled_sum_equals_fraction_sum(a, e):
    # the kernel raises exactly when some B(N, k) is not an integer, and
    # otherwise equals the Fraction sum
    e = [1] + e
    n = len(a) - 1
    bs = [_fraction_b(e, n, k) for k in range(n + 1)]
    if any(b.denominator != 1 for b in bs[:n // 2 + 1]):
        with pytest.raises(ArithmeticError):
            sq._scaled_sum(a, e)
    else:
        assert sq._scaled_sum(a, e) == sum(
            b * a[k] * a[n - k] for k, b in enumerate(bs))


# sha256 of "num/den;" in hex for ell_0..ell_150 and u_0..u_150, computed
# with the common-denominator kernel (sums of reduced Fractions) that the
# scaled integer kernel replaced
ELL_150_SHA256 = \
    "2b8ce890e5b73bb7a6819f1496f50e1b76ba7c488735e94035a37c7c24435537"
U_150_SHA256 = \
    "2c41a3c9e1cba5a06786d323765326a2cb417e38dc4693aca6b36ba1fd10579b"


def _sha256(vals):
    h = hashlib.sha256()
    for v in vals:
        h.update(f"{v.numerator:x}/{v.denominator:x};".encode())
    return h.hexdigest()


def test_ell_and_u_to_150_match_pinned_digests():
    assert _sha256(sq.ell_seq(150)) == ELL_150_SHA256
    assert _sha256(sq.u_seq(150)) == U_150_SHA256


def test_step_reciprocals_are_integers_and_every_b_step_divides():
    f = math.factorial
    ell_e, u_e = sq._ell_reciprocals(150), sq._u_reciprocals(150)
    for j in range(1, 151):
        assert F(1, ell_e[j]) == F(6 * f(j - 1) * f(j), f(2 * j + 1))
        assert F(1, u_e[j]) == F(6, (j + 2) * (j + 1) * j)
    # _scaled_sum raises on any remainder of B(N, k-1) e_{N+1-k} / e_k
    for e in (ell_e, u_e):
        a = sq._scaled_table(150, e)
        assert len(a) == 151 and all(isinstance(x, int) for x in a)


@pytest.mark.parametrize("j, delta", [(1, 1), (7, -1), (100, 1), (150, 1)])
def test_a_wrong_reciprocal_raises_or_fails_the_digest(monkeypatch, j,
                                                       delta):
    good = sq._ell_reciprocals

    def wrong(n):
        e = good(n)
        e[j] += delta
        return e
    monkeypatch.setattr(sq, "_ell_reciprocals", wrong)
    try:
        vals = sq.ell_seq(150)
    except ArithmeticError:
        return
    assert _sha256(vals) != ELL_150_SHA256


def test_tetra_bounds_sandwich_each_other():
    u = sq.u_seq(20)
    ell = sq.ell_seq(20)
    for n in range(21):
        assert ell[n] <= u[n]


def test_sequence_registry():
    s = sq.sequence("t", 8)
    assert s.values == T_LIST and s.method == "closed-form"
    s = sq.sequence("u", 8)
    assert s.values == U_LIST and s.method == "recursion"
    assert set(sq.SEQUENCE_NAMES) == {"p", "q", "s", "t", "y", "u", "ell",
                                      "valtr_square", "valtr_triangle"}
    with pytest.raises(ValueError):
        sq.sequence("nope", 3)
    with pytest.raises(ValueError):
        sq.sequence("t", -1)
