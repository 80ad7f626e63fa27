"""Densities, atoms, quadrature moments, Stieltjes transforms."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from wignerexp import (
    GOE,
    GUE,
    RADEMACHER,
    EnsembleParams,
    SignedMeasureNu,
    nu_atoms,
    nu_density,
    nu_moment,
    nu_quadrature_moment,
    nu_stieltjes,
    nu_stieltjes_quadrature,
    s_total,
    semicircle_density,
    semicircle_stieltjes,
)

from conftest import random_valid_params

OFF_CUT_GRID = [
    3.0 + 0.0j,
    -3.0 + 0.0j,
    2.5j,
    -4.0 + 0.5j,
    1.0 + 2.0j,
    -1.5 - 3.0j,
    6.0 - 0.25j,
]


def test_semicircle_density_values():
    assert semicircle_density(0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
    assert semicircle_density(2.0) == 0.0
    assert semicircle_density(3.0) == 0.0
    assert semicircle_density(-2.5) == 0.0


def test_semicircle_density_normalized():
    # midpoint rule on the smooth density
    npts = 200_000
    step = 4.0 / npts
    total = sum(semicircle_density(-2.0 + (j + 0.5) * step) for j in range(npts)) * step
    assert total == pytest.approx(1.0, abs=1e-6)


def test_nu_density_gue_vanishes():
    for x in (-1.9, -0.5, 0.0, 0.3, 1.99):
        assert nu_density(x, GUE) == 0.0


def test_nu_density_goe_is_negative_arcsine():
    assert nu_density(0.0, GOE) == pytest.approx(-1.0 / (4.0 * math.pi), abs=1e-15)
    for x in (-1.5, 0.7):
        want = -0.5 / (math.pi * math.sqrt(4.0 - x * x))
        assert nu_density(x, GOE) == pytest.approx(want, abs=1e-15)


def test_nu_density_domain():
    for x in (2.0, -2.0, 2.5):
        with pytest.raises(ValueError):
            nu_density(x, GOE)


def test_nu_atoms():
    assert nu_atoms(GOE) == [(2.0, Fraction(1, 4)), (-2.0, Fraction(1, 4))]
    assert nu_atoms(GUE) == [(2.0, Fraction(0)), (-2.0, Fraction(0))]


def test_signed_measure_coefficients_vanish_for_presets():
    for params in (GOE, GUE):
        nu = SignedMeasureNu.from_params(params)
        assert nu.c4 == nu.c2 == nu.c0 == 0
    nu = SignedMeasureNu.from_params(RADEMACHER)
    assert (nu.c4, nu.c2, nu.c0) == (Fraction(-2), Fraction(7), Fraction(-2))


def test_signed_measure_refuses_coefficients_beyond_floats():
    huge_alpha = EnsembleParams(1, 1, 1, Fraction(10**400))
    with pytest.raises(ValueError, match="c4 exceeds the float range"):
        SignedMeasureNu.from_params(huge_alpha)
    with pytest.raises(ValueError):
        nu_stieltjes(3.0 + 0j, huge_alpha)


# -- quadrature ------------------------------------------------------------------


def test_quadrature_zero_total_mass():
    rng = random.Random(8)
    for params in (GOE, GUE, RADEMACHER, random_valid_params(rng)):
        assert abs(nu_quadrature_moment(0, params, 200)) <= 1e-10


def test_quadrature_matches_exact_moments():
    rng = random.Random(77)
    models = [GOE, GUE, RADEMACHER] + [random_valid_params(rng) for _ in range(3)]
    for params in models:
        for k in range(13):
            got = nu_quadrature_moment(k, params, 400)
            assert got == pytest.approx(float(nu_moment(k, params)), abs=1e-8)


def test_quadrature_exact_beyond_degree_threshold():
    # integrand in theta has degree k + 4; midpoint is exact once npoints > k/2 + 3
    for k in (4, 8, 12):
        coarse = nu_quadrature_moment(k, GOE, k // 2 + 4)
        fine = nu_quadrature_moment(k, GOE, 400)
        assert coarse == pytest.approx(fine, abs=1e-10)


def test_quadrature_requires_nodes():
    with pytest.raises(ValueError):
        nu_quadrature_moment(2, GOE, 0)


# -- semicircle transform -----------------------------------------------------------


def test_semicircle_stieltjes_decays_like_total_mass():
    # z H(z) = 1 + 1/z^2 + O(1/z^4); the closed form cancels catastrophically
    # for huge |z|, so check at sizes where the true deviation dominates rounding
    for scale in (1e2, 1e3, 1e4):
        for z in (scale, -scale, scale * 1j):
            assert abs(z * semicircle_stieltjes(z) - 1.0) <= 2.0 / scale**2 + 1e-8


def test_semicircle_stieltjes_closed_value():
    assert semicircle_stieltjes(3.0) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_semicircle_algebraic_identity():
    for z in OFF_CUT_GRID:
        h = semicircle_stieltjes(z)
        sq = z * cmath.sqrt(1.0 - 4.0 / (z * z))
        assert abs(1.0 - h * h - h * sq) <= 1e-12


def test_semicircle_branch_cut_raises():
    for z in (0.0, 1.5, -2.0, 2.0, -0.3 + 0j):
        with pytest.raises(ValueError, match="branch cut"):
            semicircle_stieltjes(z)


def test_herglotz_sign():
    for z in (1j, 0.5 + 2j, -3 + 0.01j, 4 - 2j, -0.2 - 5j):
        h = semicircle_stieltjes(z)
        assert h.imag * z.imag < 0


# -- correction transform --------------------------------------------------------------


def test_nu_stieltjes_gue_null():
    for z in OFF_CUT_GRID:
        assert nu_stieltjes(z, GUE) == 0


def test_nu_stieltjes_matches_quadrature_reconstruction():
    rng = random.Random(3)
    for params in (GOE, RADEMACHER, random_valid_params(rng)):
        for z in (3.0 + 0j, -2.6 + 0.4j, 1.0 + 3.0j):
            closed = nu_stieltjes(z, params)
            quad = nu_stieltjes_quadrature(z, params, 400)
            assert abs(closed - quad) <= 1e-9


def test_nu_stieltjes_matches_moment_tail():
    # H~(z) = sum nu_{2l} z^(-2l-1); compare against the exact moments
    rng = random.Random(19)
    for params in (GOE, RADEMACHER, random_valid_params(rng)):
        moments = [float(nu_moment(2 * l, params)) for l in range(41)]
        for angle in (0.0, 0.9, 2.2, 4.4):
            z = 3.0 * cmath.exp(1j * angle)
            tail = sum(moments[l] * z ** (-2 * l - 1) for l in range(1, 41))
            assert abs(nu_stieltjes(z, params) - tail) <= 1e-10


def test_nu_stieltjes_matches_series_substitution():
    # (1/z) S(1/z^2) with S the reduced generating series
    rng = random.Random(23)
    params = random_valid_params(rng)
    total = s_total(40, params)
    coeffs = [float(c) for c in total.coeffs]
    for z in (3.5 + 0j, -3.0 + 1.0j, 4.0j):
        value = sum(coeffs[l] * z ** (-2 * l - 1) for l in range(41))
        assert abs(nu_stieltjes(z, params) - value) <= 1e-10


def test_nu_stieltjes_branch_cut_raises():
    with pytest.raises(ValueError, match="branch cut"):
        nu_stieltjes(1.0, GOE)
    with pytest.raises(ValueError, match="branch cut"):
        nu_stieltjes_quadrature(-1.0 + 0j, GOE)
