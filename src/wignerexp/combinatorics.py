"""Closed-form spectral moment coefficients for Wigner-type ensembles.

Everything in this module is exact arithmetic: Python integers and
``fractions.Fraction``.  The expected moments of the empirical spectral
measure of an n x n Wigner matrix expand as a semicircle moment plus a
1/n correction, and the correction splits into four combinatorial
families of closed walks:

  1. spanning-tree walks, counted with one label fewer than at leading
     order (a pure Catalan term with a negative sign),
  2. tree walks in which exactly one edge is crossed four times,
     weighted by the off-diagonal fourth moment,
  3. walks whose graph carries a self-loop, weighted by the diagonal
     variance,
  4. walks whose graph is unicyclic, with cycle edges covered either
     one way (real entries only) or both ways.

The class counts behind families 2-4 are weighted counts of tuples of
rooted plane trees.  They are evaluated here straight from the defining
sums, by recursion on the first tree of the tuple, never through the
generating-series closed forms: the series module recomputes the same
numbers by a completely different route and the test suite compares
them coefficient by coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import index


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _int_at_least(value, least: int, name: str) -> int:
    """``value`` as a plain int, refused unless it is an integer >= ``least``.

    The one integer rule of every route's arguments: a NumPy integer passes
    (``operator.index``); a bool, a float or any other type is refused.
    """
    try:
        number = None if isinstance(value, bool) else index(value)
    except TypeError:
        number = None
    if number is None or number < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return number


@dataclass(frozen=True)
class EnsembleParams:
    """The four scalars the 1/n correction depends on.

    r       -- 1 for real symmetric entries, 0 for complex Hermitian
    sigma2  -- off-diagonal variance (real case E[W^2], complex E[|W|^2])
    s2      -- diagonal variance
    alpha   -- off-diagonal fourth moment (E[W^4] resp. E[|W|^4])
    """

    r: int
    sigma2: Fraction
    s2: Fraction
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sigma2", _frac(self.sigma2))
        object.__setattr__(self, "s2", _frac(self.s2))
        object.__setattr__(self, "alpha", _frac(self.alpha))
        try:
            r = _int_at_least(self.r, 0, "r")
        except ValueError:
            r = None
        if r not in (0, 1):
            raise ValueError(f"r must be 0 (complex) or 1 (real), got {self.r!r}")
        object.__setattr__(self, "r", r)
        if self.sigma2 <= 0:
            raise ValueError(f"off-diagonal variance sigma2 must be positive, got {self.sigma2}")
        if self.s2 < 0:
            raise ValueError(f"diagonal variance s2 must be nonnegative, got {self.s2}")
        if self.alpha < self.sigma2 ** 2:
            raise ValueError(
                f"alpha must satisfy alpha >= sigma2^2 (a fourth moment is at least "
                f"the squared variance, by Cauchy-Schwarz); got alpha={self.alpha}, "
                f"sigma2^2={self.sigma2 ** 2}"
            )

    @property
    def fourth_ratio(self) -> Fraction:
        """alpha / sigma2^2, the normalized fourth moment."""
        return self.alpha / self.sigma2 ** 2

    @property
    def diag_ratio(self) -> Fraction:
        """s2 / sigma2, the normalized diagonal variance."""
        return self.s2 / self.sigma2


GOE = EnsembleParams(r=1, sigma2=Fraction(1), s2=Fraction(2), alpha=Fraction(3))
GUE = EnsembleParams(r=0, sigma2=Fraction(1), s2=Fraction(1), alpha=Fraction(2))
RADEMACHER = EnsembleParams(r=1, sigma2=Fraction(1), s2=Fraction(1), alpha=Fraction(1))

PRESETS = {"goe": GOE, "gue": GUE, "rademacher": RADEMACHER}


@dataclass(frozen=True)
class ExpansionTerm:
    """The 1/n correction to moment 2l, split into its four families."""

    l: int
    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction
    total: Fraction


def catalan(k: int) -> int:
    """Catalan number Cat(k) = C(2k, k) / (k + 1)."""
    k = _int_at_least(k, 0, "catalan index")
    return math.comb(2 * k, k) // (k + 1)


def semicircle_moment(k: int) -> int:
    """k-th moment of the semicircle law on [-2, 2]: Cat(k/2) for even k, else 0."""
    k = _int_at_least(k, 0, "moment index")
    return catalan(k // 2) if k % 2 == 0 else 0


@lru_cache(maxsize=None)
def forest_count(trees: int, edges: int) -> int:
    """Ordered tuples of `trees` rooted plane trees with `edges` edges in total.

    Defined by the sum of Cat(p_1)...Cat(p_trees) over compositions
    p_1 + ... + p_trees = edges; evaluated by recursion on the first part.
    """
    if trees < 0 or edges < 0:
        return 0
    if trees == 0:
        return 1 if edges == 0 else 0
    return sum(catalan(j) * forest_count(trees - 1, edges - j) for j in range(edges + 1))


@lru_cache(maxsize=None)
def marked_forest_count(trees: int, edges: int) -> int:
    """Like ``forest_count`` but the first tree carries a marked corner.

    A plane tree with p edges has 2p + 1 corners, so the first part enters
    with weight (2 p_1 + 1).
    """
    if trees < 1 or edges < 0:
        return 0
    return sum(
        (2 * p + 1) * catalan(p) * forest_count(trees - 1, edges - p)
        for p in range(edges + 1)
    )


def double_edge_class_count(l: int) -> int:
    """Walk classes of length 2l on a tree with one edge crossed four times."""
    l = _int_at_least(l, 0, "half-order")
    return marked_forest_count(4, l - 2) if l >= 2 else 0


def self_loop_class_count(l: int) -> int:
    """Walk classes of length 2l whose graph has a self-loop (crossed twice)."""
    l = _int_at_least(l, 0, "half-order")
    return marked_forest_count(2, l - 1) if l >= 1 else 0


def cycle_one_way_class_count(l: int) -> int:
    """Unicyclic walk classes of length 2l with all cycle edges run one way."""
    l = _int_at_least(l, 0, "half-order")
    return sum(marked_forest_count(2 * p, l - p) for p in range(3, l + 1))


def cycle_both_ways_class_count(l: int) -> int:
    """Unicyclic walk classes of length 2l with all cycle edges run both ways.

    The cycle of length p can be entered at any of its p corners next to the
    root tree, hence the extra factor p relative to the one-way count.
    """
    l = _int_at_least(l, 0, "half-order")
    return sum(p * marked_forest_count(2 * p, l - p) for p in range(3, l + 1))


def term1_coeff(l: int) -> int:
    """Family 1 coefficient: -l(l+1)/2 * Cat(l)."""
    l = _int_at_least(l, 0, "half-order")
    return -(l * (l + 1) // 2) * catalan(l)


def term2_coeff(l: int, params: EnsembleParams) -> Fraction:
    """Family 2 coefficient: (alpha/sigma2^2) times the double-edge class count."""
    return params.fourth_ratio * double_edge_class_count(l)


def term3_coeff(l: int, params: EnsembleParams) -> Fraction:
    """Family 3 coefficient: (s2/sigma2) times the self-loop class count."""
    return params.diag_ratio * self_loop_class_count(l)


def term4_coeff(l: int, params: EnsembleParams) -> Fraction:
    """Family 4 coefficient: both-way cycles always, one-way cycles only if real."""
    return Fraction(
        cycle_both_ways_class_count(l) + params.r * cycle_one_way_class_count(l)
    )


def nu_coefficients(params: EnsembleParams) -> tuple[Fraction, Fraction, Fraction]:
    """Even coefficients (c4, c2, c0) of the correction measure's polynomial part.

    With a = alpha/sigma2^2 and s = s2/sigma2,

        c4 = a - 2 - r,  c2 = s - 4a + 7 + 3r,  c0 = 2 (a - s - 1).

    The measure is then atoms of mass r/4 at +-2, an arcsine part with
    coefficient -r/2, and (c4 x^4 + c2 x^2 + c0) / 2 times the arcsine weight
    1 / (pi sqrt(4 - x^2)) on [-2, 2].
    """
    a = params.fourth_ratio
    s = params.diag_ratio
    r = params.r
    return a - 2 - r, s - 4 * a + 7 + 3 * r, 2 * (a - s - 1)


def nu_moment(k: int, params: EnsembleParams) -> Fraction:
    """k-th moment of the signed correction measure, exactly.

    Using the arcsine moment identity
    int x^(2m) / (pi sqrt(4 - x^2)) dx = C(2m, m) over [-2, 2] (validated
    against quadrature in the measure module), the moment of order k = 2l is

        (r/2) (4^l - C(2l, l))
        + (1/2) [ c4 C(2l+4, l+2) + c2 C(2l+2, l+1) + c0 C(2l, l) ]

    with (c4, c2, c0) from ``nu_coefficients``.  Odd moments vanish.
    """
    k = _int_at_least(k, 0, "moment index")
    if k % 2 == 1:
        return Fraction(0)
    l = k // 2
    c4, c2, c0 = nu_coefficients(params)
    atoms_minus_arcsine = Fraction(params.r, 2) * (4**l - math.comb(2 * l, l))
    poly = (
        c4 * math.comb(2 * l + 4, l + 2)
        + c2 * math.comb(2 * l + 2, l + 1)
        + c0 * math.comb(2 * l, l)
    )
    return atoms_minus_arcsine + Fraction(1, 2) * poly


def order_one_coeff(l: int, params: EnsembleParams) -> ExpansionTerm:
    """All four 1/n families for moment 2l; total equals nu_moment(2l)."""
    l = _int_at_least(l, 0, "half-order")
    c1 = Fraction(term1_coeff(l))
    c2 = term2_coeff(l, params)
    c3 = term3_coeff(l, params)
    c4 = term4_coeff(l, params)
    return ExpansionTerm(l=l, c1=c1, c2=c2, c3=c3, c4=c4, total=c1 + c2 + c3 + c4)


def expected_moment_expansion(k: int, n: int, params: EnsembleParams) -> Fraction:
    """Two-term truncation: semicircle moment plus nu moment over n."""
    n = _int_at_least(n, 1, "matrix size")
    return semicircle_moment(k) + nu_moment(k, params) / n
