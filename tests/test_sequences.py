"""Exact rational sequences: frozen reference values and cross-recursions."""

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
        assert sq.s_closed(n) == sq.s_from_pt(n)


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
    for n in range(1, 30):
        assert sq.parabola_path_identity_holds(n)


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=30)
def test_sequences_decrease_from_index_one(n):
    # all convex-position probabilities are nonincreasing in n
    for fn in (sq.t_closed, sq.q_closed, sq.p_closed, sq.y_closed):
        if n >= 1:
            assert fn(n + 1) <= fn(n)
        assert 0 < fn(n) <= 1


# Plain-Fraction sums of the four convolution recursions, one term at a
# time: the oracle for the integer kernel they now share.

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


@pytest.mark.parametrize("m", [6, 7])
def test_convolve_widens_the_common_denominator(m):
    vals = [F(1), F(1, 2), F(2, 3), F(3, 5), F(4, 7), F(5, 11), F(6, 13)][:m]
    dens = [v.denominator for v in vals]
    # some pair's denominator does not divide the first, dens[0] dens[m-1]
    assert any(dens[0] * dens[m - 1] % (dens[k] * dens[m - 1 - k])
               for k in range(m))
    coef = F(7, 3)

    def weight(k):
        return (k + 1) * (m - k)
    expected = coef * sum(weight(k) * vals[k] * vals[m - 1 - k]
                          for k in range(m))
    assert sq._convolve(vals, coef, weight) == expected
    assert sq._convolve(vals, coef) == coef * sum(
        vals[k] * vals[m - 1 - k] for k in range(m))


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=40),
                min_size=1, max_size=12),
       st.fractions(min_value=-2, max_value=2, max_denominator=30))
@settings(max_examples=60)
def test_convolve_equals_fraction_sum(vals, coef):
    m = len(vals)

    def weight(k):
        return 1 + k * (m - 1 - k)
    expected = coef * sum(weight(k) * vals[k] * vals[m - 1 - k]
                          for k in range(m))
    assert sq._convolve(vals, coef, weight) == expected


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
