"""The semicircle law and the signed correction measure as analytic objects.

The correction measure has three pieces, all supported on [-2, 2]:

  * atoms of mass r/4 at x = +2 and x = -2,
  * an arcsine component with coefficient -r/2,
  * the polynomial density (c4 x^4 + c2 x^2 + c0) / 2 times the arcsine
    weight 1 / (pi sqrt(4 - x^2)), with (c4, c2, c0) from
    ``combinatorics.nu_coefficients``.

Quadrature uses the substitution x = 2 cos(theta), which turns the arcsine
weight into the uniform measure on [0, pi]; midpoint sampling in theta is
then exact for moments once the node count exceeds half the integrand
degree, so the closed-form moments can be validated to rounding error.

Stieltjes transforms live off the cut [-2, 2].  The square root
sqrt(z^2 - 4) is realized as z sqrt(1 - 4/z^2) with the principal branch,
which makes H(z) = (z - sqrt(z^2 - 4))/2 the decaying branch (H ~ 1/z at
infinity) and keeps it continuous off the cut.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import EnsembleParams, _int_at_least, nu_coefficients


@dataclass(frozen=True)
class SignedMeasureNu:
    """Derived coefficients of the correction measure for fixed parameters."""

    params: EnsembleParams
    c4: Fraction
    c2: Fraction
    c0: Fraction
    atom_mass: Fraction  # at each of x = +2 and x = -2
    arcsine_coeff: Fraction  # coefficient of the plain arcsine density
    c2_plus_4c4: Fraction  # of H^2 / sqrt(z^2 - 4) in the Stieltjes transform

    @classmethod
    def from_params(cls, params: EnsembleParams) -> "SignedMeasureNu":
        """The measure of ``params``; ValueError if a coefficient overflows a float."""
        c4, c2, c0 = nu_coefficients(params)
        nu = cls(
            params=params,
            c4=c4,
            c2=c2,
            c0=c0,
            atom_mass=Fraction(params.r, 4),
            arcsine_coeff=Fraction(-params.r, 2),
            c2_plus_4c4=c2 + 4 * c4,
        )
        for name in ("c4", "c2", "c0", "c2_plus_4c4"):
            if abs(getattr(nu, name)) > sys.float_info.max:
                raise ValueError(f"correction coefficient {name} exceeds the float range")
        return nu

    def density_polynomial(self, x):
        """Density of the absolutely continuous part per unit arcsine weight."""
        return float(self.arcsine_coeff) + 0.5 * (
            float(self.c4) * x**4 + float(self.c2) * x**2 + float(self.c0)
        )

    def density(self, x: float) -> float:
        """Density of the absolutely continuous part; see ``nu_density``."""
        if abs(x) >= 2:
            raise ValueError(
                f"x={x} is outside (-2, 2); the density diverges at the edges and the "
                f"atoms at +-2 are reported by nu_atoms"
            )
        weight = 1.0 / (math.pi * math.sqrt(4.0 - x * x))
        return self.density_polynomial(x) * weight

    def stieltjes(self, z: complex) -> complex:
        """Stieltjes transform in closed form; see ``nu_stieltjes``."""
        z = _require_off_cut(z)
        sq = _sqrt_outside(z)
        h = 0.5 * (z - sq)
        r = self.params.r
        atom_and_arcsine = 0.5 * r * (0.5 * (1.0 / (z - 2.0) + 1.0 / (z + 2.0)) - 1.0 / sq)
        poly = (h * h / sq) * (float(self.c4) * h * h + float(self.c2_plus_4c4))
        return atom_and_arcsine + poly


def semicircle_density(x: float) -> float:
    """sqrt(4 - x^2) / (2 pi) on [-2, 2], zero outside."""
    if abs(x) >= 2:
        return 0.0
    return math.sqrt(4.0 - x * x) / (2.0 * math.pi)


def nu_density(x: float, params: EnsembleParams) -> float:
    """Density of the absolutely continuous part of the correction measure.

    Defined for |x| < 2 only; the arcsine factor has integrable singularities
    at the edges and the atoms live exactly there.  A table over many x
    builds the ``SignedMeasureNu`` once and calls its ``density``.
    """
    return SignedMeasureNu.from_params(params).density(x)


def nu_atoms(params: EnsembleParams) -> list[tuple[float, Fraction]]:
    """Atom locations and exact masses: [(+2, r/4), (-2, r/4)]."""
    mass = SignedMeasureNu.from_params(params).atom_mass
    return [(2.0, mass), (-2.0, mass)]


def _theta_nodes(npoints: int) -> np.ndarray:
    npoints = _int_at_least(npoints, 1, "npoints")
    return (np.arange(npoints) + 0.5) * (math.pi / npoints)


def nu_quadrature_moment(k: int, params: EnsembleParams, npoints: int = 400) -> float:
    """k-th moment of the correction measure by midpoint quadrature in theta.

    Exact up to rounding once npoints > k/2 + 3 (the transformed integrand is
    a trigonometric polynomial of degree k + 4); serves as the independent
    oracle for the closed-form moments.
    """
    k = _int_at_least(k, 0, "moment index")
    nu = SignedMeasureNu.from_params(params)
    x = 2.0 * np.cos(_theta_nodes(npoints))
    ac = float(np.mean(x**k * nu.density_polynomial(x)))
    atoms = float(nu.atom_mass) * (2.0**k + (-2.0) ** k)
    return ac + atoms


def _require_off_cut(z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0 and -2.0 <= z.real <= 2.0:
        raise ValueError(
            f"z={z} lies on the branch cut [-2, 2] (the spectral support); "
            f"Stieltjes transforms are defined off the cut"
        )
    return z


def _sqrt_outside(z: complex) -> complex:
    # z sqrt(1 - 4/z^2): decaying branch, continuous off [-2, 2]
    return z * cmath.sqrt(1.0 - 4.0 / (z * z))


def semicircle_stieltjes(z: complex) -> complex:
    """Stieltjes transform of the semicircle law: (z - sqrt(z^2 - 4)) / 2."""
    z = _require_off_cut(z)
    return 0.5 * (z - _sqrt_outside(z))


def nu_stieltjes(z: complex, params: EnsembleParams) -> complex:
    """Stieltjes transform of the correction measure, in closed form.

    Atoms contribute (r/4)(1/(z-2) + 1/(z+2)); the arcsine part -r/2 times
    1/sqrt(z^2-4); the polynomial part rides on powers of the semicircle
    transform H:

        (H^2 / sqrt(z^2 - 4)) (c4 H^2 + c2 + 4 c4),

    where c2 + 4 c4 = s - 1 - r in terms of a = alpha/sigma2^2 and s = s2/sigma2.
    A table over many z builds the ``SignedMeasureNu`` once and calls its
    ``stieltjes``.
    """
    return SignedMeasureNu.from_params(params).stieltjes(z)


def nu_stieltjes_quadrature(
    z: complex, params: EnsembleParams, npoints: int = 400
) -> complex:
    """Reconstruction oracle: integral of 1/(z - x) against the measure.

    Midpoint quadrature in theta for the absolutely continuous part plus the
    two atom terms.  Converges geometrically in npoints for z off the cut.
    """
    z = _require_off_cut(z)
    nu = SignedMeasureNu.from_params(params)
    x = 2.0 * np.cos(_theta_nodes(npoints))
    ac = complex(np.mean(nu.density_polynomial(x) / (z - x)))
    atoms = float(nu.atom_mass) * (1.0 / (z - 2.0) + 1.0 / (z + 2.0))
    return ac + atoms
