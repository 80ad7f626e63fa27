"""Exact series engine and the generating-series identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerexp import (
    GOE,
    GUE,
    TruncatedRationalSeries as Series,
    catalan_identities,
    catalan_series,
    nu_moment,
    order_one_coeff,
    s_components,
    s_total,
    term1_coeff,
    term2_coeff,
    term3_coeff,
    term4_coeff,
    verify_cancellation,
)

from conftest import random_valid_params
from wignerexp.cli import main
from wignerexp.series import MAX_SERIES_ORDER


def S(*coeffs):
    return Series(tuple(Fraction(c) for c in coeffs))


# -- arithmetic ---------------------------------------------------------------


def test_add_mul_basics():
    one_plus_x = S(1, 1, 0)
    one_minus_x = S(1, -1, 0)
    assert one_plus_x * one_minus_x == S(1, 0, -1)
    t = catalan_series(6)
    assert t * 0 == Series.zero(6)
    assert t + (-t) == Series.zero(6)
    assert (t - t).is_zero


def test_scalar_ops():
    a = S(1, 2, 3)
    assert 2 * a == S(2, 4, 6)
    assert a * Fraction(1, 2) == S(Fraction(1, 2), 1, Fraction(3, 2))
    assert a + 1 == S(2, 2, 3)
    assert 1 - a == S(0, -2, -3)
    assert a / 2 == S(Fraction(1, 2), 1, Fraction(3, 2))


def test_division():
    geom = Series.one(3) / S(1, -1, 0, 0)
    assert geom == S(1, 1, 1, 1)
    a = S(2, -5, 7, 1)
    assert a / Series.one(3) == a
    t = catalan_series(8)
    d = Series.one(8) - Series.monomial(1, 8) * t * t
    q = t / d
    assert q * d == t
    assert q.coeff(0) == 1


def test_division_by_non_unit_constant_is_exact():
    q = Series((1, 0, 0)) / Series((2, 1, 0))
    assert q == Series((Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)))
    assert all(type(c) is Fraction for c in q.coeffs)


def test_float_coefficients_raise():
    with pytest.raises(TypeError, match="int or Fraction"):
        Series((1, 0.5, 0))
    with pytest.raises(TypeError):
        Series((1, 2)) + 0.5


def test_scalars_keep_their_type():
    a = Series((1, 2, 3))
    assert all(type(c) is int for c in (a * 2 + 1 - a).coeffs)
    assert all(type(c) is Fraction for c in (a * Fraction(1, 3)).coeffs)
    assert Series((1, 2)) == Series((Fraction(1), Fraction(2)))


def test_division_by_noninvertible_raises():
    with pytest.raises(ZeroDivisionError):
        S(1, 1) / S(0, 1)


def test_mismatched_orders_raise():
    with pytest.raises(ValueError, match="mismatched truncation orders"):
        S(1, 1) + S(1, 1, 1)
    with pytest.raises(ValueError, match="mismatched truncation orders"):
        S(1, 1) * S(1, 1, 1)


def test_derivative():
    assert S(1, 1, 1).derivative() == S(1, 2)
    with pytest.raises(ValueError):
        S(5).derivative()


def test_pow_matches_repeated_mul():
    a = S(1, 2, -1, Fraction(1, 3), 0)
    assert a**0 == Series.one(4)
    assert a**1 == a
    assert a**4 == a * a * a * a


def test_monomial_and_coeff_bounds():
    x = Series.monomial(1, 3)
    assert x == S(0, 1, 0, 0)
    with pytest.raises(IndexError):
        x.coeff(4)
    # an index that is no int is refused by the integer rule: coeff(True) read coefficient 1
    for j in (True, 1.5, -1):
        with pytest.raises(ValueError, match=f"^coefficient index must be an int >= 0, got {j}$"):
            x.coeff(j)
    with pytest.raises(ValueError):
        Series.monomial(5, 3)
    with pytest.raises(ValueError):
        x.truncate(9)


def test_truncating_to_its_own_order_keeps_the_series():
    t = S(1, 2, 3, 4)
    assert t.truncate(t.order) == t
    assert t.truncate(1) == S(1, 2)


def test_first_difference():
    assert S(1, 2, 3).first_difference(S(1, 2, 3)) is None
    assert S(1, 2, 3).first_difference(S(1, 5, 3)) == 1


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(small_fractions, min_size=5, max_size=5),
    b=st.lists(small_fractions, min_size=5, max_size=5),
    c=st.lists(small_fractions, min_size=5, max_size=5),
)
def test_ring_axioms(a, b, c):
    sa, sb, sc = S(*a), S(*b), S(*c)
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(small_fractions, min_size=4, max_size=4),
    b=st.lists(small_fractions, min_size=4, max_size=4),
)
def test_division_round_trip(a, b):
    sb = S(*b)
    if sb.coeff(0) == 0:
        sb = sb + 1
    sa = S(*a)
    assert (sa / sb) * sb == sa


# -- the Catalan series and its identities --------------------------------------


def test_catalan_series_coefficients():
    assert catalan_series(4) == S(1, 1, 2, 5, 14)


def test_catalan_series_and_identities_stay_integer():
    order = 160
    t = catalan_series(order)
    d = 1 - Series.monomial(1, order) * t * t
    sides = [t, d]
    for _, lhs, rhs in catalan_identities(t):
        sides += [lhs, rhs]
    assert all(type(c) is int for side in sides for c in side.coeffs)


def test_check_at_max_order(capsys):
    code = main(["check", "--order", str(MAX_SERIES_ORDER), "--walks-kmax", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "11/11 identities hold"


@pytest.mark.parametrize("order", [2, 5, 17, 40])
def test_functional_equation(order):
    t = catalan_series(order)
    x = Series.monomial(1, order)
    assert t == 1 + x * t * t
    assert t * (1 - x * t) == Series.one(order)


@pytest.mark.parametrize("order", [5, 23, 40])
def test_derivative_identities(order):
    t = catalan_series(order)
    x = Series.monomial(1, order)
    d = 1 - x * t * t
    t3 = t**3
    t5 = t3 * t * t
    assert t.derivative() * d.truncate(order - 1) == t3.truncate(order - 1)
    lhs = t.derivative().derivative()
    rhs = (2 * t5 / (d * d) + 2 * t5 / d**3).truncate(order - 2)
    assert lhs == rhs


def test_cancellation_all_orders():
    assert all(verify_cancellation(order) for order in range(2, 41))


def test_cancellation_checker_detects_perturbation():
    # same four-term combination but with the second coefficient bumped 2 -> 3
    order = 12
    t = catalan_series(order)
    x = Series.monomial(1, order)
    d = 1 - x * t * t
    t3 = t**3
    t4, t5 = t3 * t, t3 * t * t
    t7 = t5 * t * t
    x2, x3 = x * x, x * x * x
    combo = -(x * t4) / (d * d) + 3 * ((x3 * t7) / (d * d)) + 2 * ((x2 * t5) / d) + (x * t3) / d
    assert not combo.is_zero


# -- family series vs direct coefficients ----------------------------------------


def test_component_coefficients_match_direct_sums():
    rng = random.Random(31337)
    params_list = [GOE, GUE] + [random_valid_params(rng) for _ in range(6)]
    order = 20
    for params in params_list:
        s1, s2, s3, s4 = s_components(order, params)
        for l in range(order + 1):
            assert s1.coeff(l) == term1_coeff(l)
            assert s2.coeff(l) == term2_coeff(l, params)
            assert s3.coeff(l) == term3_coeff(l, params)
            assert s4.coeff(l) == term4_coeff(l, params)


def test_s2_lowest_coefficient_is_fourth_ratio():
    rng = random.Random(4)
    params = random_valid_params(rng)
    _, s2, _, _ = s_components(6, params)
    assert s2.coeff(2) == params.fourth_ratio


def test_s_total_equals_component_sum():
    rng = random.Random(141)
    for _ in range(8):
        params = random_valid_params(rng)
        order = 30
        s1, s2, s3, s4 = s_components(order, params)
        assert s1 + s2 + s3 + s4 == s_total(order, params)


def test_s_total_gue_is_zero():
    assert s_total(25, GUE).is_zero


def test_s_total_goe_first_coefficients():
    total = s_total(8, GOE)
    assert [total.coeff(l) for l in range(1, 5)] == [1, 5, 22, 93]


def test_s_total_matches_nu_moment():
    rng = random.Random(53)
    for _ in range(6):
        params = random_valid_params(rng)
        total = s_total(18, params)
        for l in range(19):
            assert total.coeff(l) == nu_moment(2 * l, params)
            assert total.coeff(l) == order_one_coeff(l, params).total
