"""Exact coefficient layer, pinned against independent brute-force oracles.

The oracles here never share code with the implementation: Catalan numbers
come from the convolution recurrence, the weighted class counts from literal
enumeration of integer compositions.
"""

import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerexp import (
    GOE,
    GUE,
    RADEMACHER,
    EnsembleParams,
    catalan,
    cycle_both_ways_class_count,
    cycle_one_way_class_count,
    double_edge_class_count,
    expected_moment_expansion,
    nu_moment,
    order_one_coeff,
    self_loop_class_count,
    semicircle_moment,
    term1_coeff,
    term2_coeff,
    term3_coeff,
    term4_coeff,
)
from wignerexp.combinatorics import forest_count, marked_forest_count

from conftest import random_valid_params

# -- oracles -----------------------------------------------------------------


def catalan_by_recurrence(count: int) -> list[int]:
    cats = [1]
    for n in range(count - 1):
        cats.append(sum(cats[i] * cats[n - i] for i in range(n + 1)))
    return cats


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def marked_sum_oracle(trees: int, edges: int) -> int:
    """Literal evaluation of sum over compositions of (2 p_1 + 1) prod Cat(p_i)."""
    cats = catalan_by_recurrence(edges + 1)
    total = 0
    for combo in compositions(edges, trees):
        weight = 2 * combo[0] + 1
        for p in combo:
            weight *= cats[p]
        total += weight
    return total


def plain_sum_oracle(trees: int, edges: int) -> int:
    cats = catalan_by_recurrence(edges + 1)
    total = 0
    for combo in compositions(edges, trees):
        weight = 1
        for p in combo:
            weight *= cats[p]
        total += weight
    return total


# -- catalan and semicircle ----------------------------------------------------


def test_catalan_matches_recurrence_oracle():
    oracle = catalan_by_recurrence(16)
    assert [catalan(k) for k in range(16)] == oracle


def test_catalan_frozen_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_semicircle_moments():
    assert semicircle_moment(0) == 1
    assert semicircle_moment(2) == 1
    assert semicircle_moment(7) == 0
    assert semicircle_moment(8) == 14
    assert [semicircle_moment(k) for k in range(1, 12, 2)] == [0] * 6


# -- weighted forest counts vs enumeration oracle ------------------------------


@pytest.mark.parametrize("trees", [1, 2, 3, 4, 6, 8])
@pytest.mark.parametrize("edges", [0, 1, 2, 3, 4, 5])
def test_forest_counts_match_composition_enumeration(trees, edges):
    assert forest_count(trees, edges) == plain_sum_oracle(trees, edges)
    assert marked_forest_count(trees, edges) == marked_sum_oracle(trees, edges)


def test_family_counts_match_enumeration_oracle():
    for l in range(7):
        assert double_edge_class_count(l) == (marked_sum_oracle(4, l - 2) if l >= 2 else 0)
        assert self_loop_class_count(l) == (marked_sum_oracle(2, l - 1) if l >= 1 else 0)
        assert cycle_one_way_class_count(l) == sum(
            marked_sum_oracle(2 * p, l - p) for p in range(3, l + 1)
        )
        assert cycle_both_ways_class_count(l) == sum(
            p * marked_sum_oracle(2 * p, l - p) for p in range(3, l + 1)
        )


def test_family_counts_frozen_values():
    assert [double_edge_class_count(l) for l in range(6)] == [0, 0, 1, 6, 28, 120]
    assert [self_loop_class_count(l) for l in range(6)] == [0, 1, 4, 15, 56, 210]
    assert [cycle_one_way_class_count(l) for l in range(6)] == [0, 0, 0, 1, 9, 56]
    assert [cycle_both_ways_class_count(l) for l in range(6)] == [0, 0, 0, 3, 28, 180]


# -- the four family coefficients ----------------------------------------------


def test_term1_values():
    assert term1_coeff(0) == 0
    assert term1_coeff(1) == -1
    assert term1_coeff(3) == -30


def test_term2_values():
    assert term2_coeff(1, GOE) == 0
    assert term2_coeff(2, GOE) == 3
    params = EnsembleParams(r=0, sigma2=Fraction(1, 2), s2=1, alpha=Fraction(7, 3))
    assert term2_coeff(3, params) == 6 * params.fourth_ratio


def test_term3_values():
    params = EnsembleParams(r=1, sigma2=2, s2=Fraction(5, 3), alpha=9)
    s = params.diag_ratio
    assert term3_coeff(0, params) == 0
    assert term3_coeff(1, params) == s
    assert term3_coeff(3, params) == 15 * s
    assert term3_coeff(4, params) == 56 * s


def test_term4_values():
    for params in (GOE, GUE, RADEMACHER):
        r = params.r
        assert term4_coeff(2, params) == 0
        assert term4_coeff(3, params) == 3 + r
        assert term4_coeff(4, params) == 28 + 9 * r


# -- moments of the correction measure ------------------------------------------


def test_nu_moment_zero_total_mass():
    rng = random.Random(2024)
    for _ in range(25):
        assert nu_moment(0, random_valid_params(rng)) == 0


def test_nu_moment_goe_table():
    assert [nu_moment(2 * l, GOE) for l in range(5)] == [0, 1, 5, 22, 93]


def test_nu_moment_goe_closed_form():
    import math

    for l in range(21):
        assert nu_moment(2 * l, GOE) == Fraction(4**l - math.comb(2 * l, l), 2)


def test_nu_moment_gue_null():
    for l in range(21):
        assert nu_moment(2 * l, GUE) == 0


def test_nu_moment_odd_vanishes():
    rng = random.Random(7)
    params = random_valid_params(rng)
    for k in range(1, 30, 2):
        assert nu_moment(k, params) == 0


def test_nu_moment_affine_in_each_ratio():
    # linearity in a = alpha/sigma2^2 and s = s2/sigma2, checked at midpoints
    def params_with(a, s):
        return EnsembleParams(r=1, sigma2=1, s2=s, alpha=a)

    for k in (2, 4, 8, 12):
        lo, hi = params_with(Fraction(3, 2), 1), params_with(Fraction(9, 2), 1)
        mid = params_with(Fraction(3), 1)
        assert nu_moment(k, mid) * 2 == nu_moment(k, lo) + nu_moment(k, hi)
        lo, hi = params_with(2, Fraction(1, 2)), params_with(2, Fraction(7, 2))
        mid = params_with(2, 2)
        assert nu_moment(k, mid) * 2 == nu_moment(k, lo) + nu_moment(k, hi)


# -- order-one expansion ---------------------------------------------------------


def test_order_one_small_l_closed_forms():
    rng = random.Random(11)
    for _ in range(10):
        params = random_valid_params(rng)
        a, s = params.fourth_ratio, params.diag_ratio
        assert order_one_coeff(1, params).total == s - 1
        assert order_one_coeff(2, params).total == a + 4 * s - 6


def test_order_one_gue_null():
    assert order_one_coeff(3, GUE).total == 0


def test_order_one_parts_sum_and_match_nu():
    rng = random.Random(99)
    for _ in range(12):
        params = random_valid_params(rng)
        for l in range(21):
            term = order_one_coeff(l, params)
            assert term.total == term.c1 + term.c2 + term.c3 + term.c4
            assert term.total == nu_moment(2 * l, params)


def test_term_signs():
    rng = random.Random(5)
    for _ in range(10):
        params = random_valid_params(rng)
        for l in range(12):
            assert term1_coeff(l) <= 0
            assert term2_coeff(l, params) >= 0
            assert term3_coeff(l, params) >= 0
            assert term4_coeff(l, params) >= 0


@st.composite
def ensemble_params(draw):
    sigma2 = draw(st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=16))
    s2 = draw(st.fractions(min_value=0, max_value=4, max_denominator=16))
    excess = draw(st.fractions(min_value=0, max_value=3, max_denominator=8))
    r = draw(st.sampled_from([0, 1]))
    return EnsembleParams(r=r, sigma2=sigma2, s2=s2, alpha=sigma2**2 * (1 + excess))


@settings(max_examples=60, deadline=None)
@given(params=ensemble_params(), l=st.integers(min_value=0, max_value=14))
def test_order_one_equals_nu_property(params, l):
    assert order_one_coeff(l, params).total == nu_moment(2 * l, params)


# -- two-term expansion -----------------------------------------------------------


def test_expected_moment_expansion():
    assert expected_moment_expansion(2, 10, GOE) == Fraction(11, 10)
    for n in (1, 3, 50):
        assert expected_moment_expansion(4, n, GUE) == 2
        assert expected_moment_expansion(5, n, GOE) == 0
    with pytest.raises(ValueError):
        expected_moment_expansion(2, 0, GOE)


# -- parameter validation -----------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError, match="r must be"):
        EnsembleParams(r=2, sigma2=1, s2=1, alpha=1)
    with pytest.raises(ValueError, match="sigma2 must be positive"):
        EnsembleParams(r=1, sigma2=0, s2=1, alpha=1)
    with pytest.raises(ValueError, match="nonnegative"):
        EnsembleParams(r=1, sigma2=1, s2=-1, alpha=1)
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        EnsembleParams(r=1, sigma2=1, s2=1, alpha=Fraction(1, 2))


@pytest.mark.parametrize("r", [True, False, 1.0, 0.0, 2, -1, "1", None])
def test_r_is_refused_unless_it_is_the_integer_zero_or_one(r):
    # r = 1.0 was kept, and nu_moment then raised TypeError from Fraction(r, 2)
    message = f"^r must be 0 \\(complex\\) or 1 \\(real\\), got {re.escape(repr(r))}$"
    with pytest.raises(ValueError, match=message):
        EnsembleParams(r=r, sigma2=1, s2=2, alpha=3)


def test_r_of_a_numpy_integer_is_a_plain_int():
    params = EnsembleParams(r=np.int64(1), sigma2=1, s2=2, alpha=3)
    assert type(params.r) is int and params == GOE
    assert nu_moment(4, params) == nu_moment(4, GOE)


def test_preset_ratios():
    assert GOE.fourth_ratio == 3 and GOE.diag_ratio == 2
    assert GUE.fourth_ratio == 2 and GUE.diag_ratio == 1
    assert RADEMACHER.fourth_ratio == 1 and RADEMACHER.diag_ratio == 1
