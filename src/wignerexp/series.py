"""Truncated formal power series with exact integer or rational coefficients.

This is the generating-series route to the 1/n moment correction.  The
Catalan series T satisfies T = 1 + x T^2, and each of the four walk
families has a closed form in T and 1/(1 - x T^2):

    S1 = -x T^3 / (1 - x T^2)^3
    S2 = (alpha/sigma2^2) x^2 T^5 / (1 - x T^2)
    S3 = (s2/sigma2) x T^3 / (1 - x T^2)
    S4 = x^3 T^7 / (1 - x T^2)^3 + (2 + r) x^3 T^7 / (1 - x T^2)^2

Their sum collapses, after a four-term cancellation that encodes the
vanishing of the correction for the complex Gaussian ensemble, to

    S = r A + (a - 2) B + (s - 1) C,
    A = x^3 T^7 / (1 - x T^2)^2,  B = x^2 T^5 / (1 - x T^2),  C = x T^3 / (1 - x T^2)

with a = alpha/sigma2^2 and s = s2/sigma2.  T, x and D = 1 - x T^2 have
integer coefficients and D has constant term 1, so A, B, C and every
Catalan identity stay in Python ints; the ensemble parameters enter once,
as rational scalars on the finished series.  Coefficients are ints or
Fractions, never floats, so every identity check below is a literal
coefficient comparison, not an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import EnsembleParams, _int_at_least, catalan

_SCALARS = (int, Fraction)
# the largest order the command line accepts: the identity suite's series part
# grows about 5x per doubling of the order (some 0.5 s at 320, and 1 s for the
# whole `check --order 320 --walks-kmax 2` command, on a 2-core host)
MAX_SERIES_ORDER = 320


@dataclass(frozen=True)
class TruncatedRationalSeries:
    """Coefficients of x^0 .. x^N, each an int or a Fraction; immutable value type."""

    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a truncated series needs at least the constant coefficient")
        for c in self.coeffs:
            if not isinstance(c, _SCALARS):
                raise TypeError(f"series coefficients must be int or Fraction, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedRationalSeries":
        return cls((0,) * (_int_at_least(order, 0, "truncation order") + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedRationalSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int) -> "TruncatedRationalSeries":
        order = _int_at_least(order, 0, "truncation order")
        exponent = _int_at_least(exponent, 0, "monomial exponent")
        if exponent > order:
            raise ValueError(f"monomial exponent {exponent} outside order {order}")
        cs = [0] * (order + 1)
        cs[exponent] = 1
        return cls(tuple(cs))

    # -- inspection --------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> int | Fraction:
        if not 0 <= j <= self.order:
            raise IndexError(f"coefficient index {j} outside truncation order {self.order}")
        return self.coeffs[j]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def first_difference(self, other: "TruncatedRationalSeries") -> int | None:
        """Index of the first differing coefficient, or None if equal."""
        self._check_order(other)
        for j, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                return j
        return None

    def truncate(self, order: int) -> "TruncatedRationalSeries":
        """Drop coefficients above `order` (which must not exceed the current one)."""
        order = _int_at_least(order, 0, "truncation order")
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return TruncatedRationalSeries(self.coeffs[: order + 1])

    def _check_order(self, other: "TruncatedRationalSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mismatched truncation orders {self.order} and {other.order}"
            )

    # -- arithmetic, closed at the common truncation order ------------------

    def __add__(self, other):
        if isinstance(other, TruncatedRationalSeries):
            self._check_order(other)
            return TruncatedRationalSeries(
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
            )
        if isinstance(other, _SCALARS):
            return TruncatedRationalSeries((self.coeffs[0] + other, *self.coeffs[1:]))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return TruncatedRationalSeries(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (TruncatedRationalSeries, *_SCALARS)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TruncatedRationalSeries):
            self._check_order(other)
            n = self.order
            out = [0] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return TruncatedRationalSeries(tuple(out))
        if isinstance(other, _SCALARS):
            return TruncatedRationalSeries(tuple(a * other for a in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TruncatedRationalSeries):
            self._check_order(other)
            b0 = other.coeffs[0]
            if b0 == 0:
                raise ZeroDivisionError(
                    "series division needs a divisor with nonzero constant term"
                )
            # 1/b0 is b0 itself for a unit, which keeps integer series integer
            inverse = b0 if b0 in (1, -1) else 1 / Fraction(b0)
            q = []
            for j, c in enumerate(self.coeffs):
                acc = c - sum(qi * b for qi, b in zip(q, other.coeffs[j:0:-1]))
                q.append(acc * inverse)
            return TruncatedRationalSeries(tuple(q))
        if isinstance(other, _SCALARS):
            return TruncatedRationalSeries(tuple(a / Fraction(other) for a in self.coeffs))
        return NotImplemented

    def __pow__(self, exponent: int):
        e = _int_at_least(exponent, 0, "series exponent")
        result = TruncatedRationalSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "TruncatedRationalSeries":
        """Term-wise derivative.

        Differentiation loses the top coefficient, so the result is reliable
        (and returned) at truncation order N - 1 only.
        """
        if self.order == 0:
            raise ValueError("derivative of an order-0 truncation carries no information")
        return TruncatedRationalSeries(
            tuple(j * self.coeffs[j] for j in range(1, self.order + 1))
        )


def catalan_series(order: int) -> TruncatedRationalSeries:
    """The Catalan generating series T, truncated: coefficients Cat(0)..Cat(N).

    Built from the binomial closed form; the functional equation T = 1 + x T^2
    is then a genuine cross-check (see ``tests``), not a construction artifact.
    """
    order = _int_at_least(order, 1, "truncation order")
    return TruncatedRationalSeries(tuple(catalan(j) for j in range(order + 1)))


# the most recent order, shared by s_total and s_components: series are immutable
@lru_cache(maxsize=1)
def _blocks(order: int):
    """The integer series (A, B, C, D) of the module docstring, D = 1 - x T^2."""
    t = catalan_series(order)
    x = TruncatedRationalSeries.monomial(1, order)
    xt2 = x * t * t
    d = 1 - xt2
    c = (x * t * t * t) / d
    b = xt2 * c
    return (xt2 * b) / d, b, c, d


def s_components(
    order: int, params: EnsembleParams
) -> tuple[
    TruncatedRationalSeries,
    TruncatedRationalSeries,
    TruncatedRationalSeries,
    TruncatedRationalSeries,
]:
    """The four family series (S1, S2, S3, S4), truncated at `order`.

    Coefficient l of S_i equals the corresponding termN_coeff(l) from the
    combinatorics module; that equality is part of the verification suite.
    """
    a, b, c, d = _blocks(_int_at_least(order, 1, "truncation order"))
    s1 = -(c / (d * d))
    s4 = a / d + (2 + params.r) * a
    return s1, params.fourth_ratio * b, params.diag_ratio * c, s4


def s_total(order: int, params: EnsembleParams) -> TruncatedRationalSeries:
    """Reduced closed form r A + (a - 2) B + (s - 1) C of S1 + S2 + S3 + S4.

    Coefficient l is the full 1/n correction to moment 2l; it vanishes
    identically for the complex Gaussian ensemble.
    """
    a, b, c, _ = _blocks(_int_at_least(order, 1, "truncation order"))
    return params.r * a + (params.fourth_ratio - 2) * b + (params.diag_ratio - 1) * c


def catalan_identities(
    t: TruncatedRationalSeries,
) -> list[tuple[str, TruncatedRationalSeries, TruncatedRationalSeries]]:
    """The identities the Catalan series satisfies, as (name, lhs, rhs) triples.

    Evaluated on the given series `t` (order >= 2), so a perturbed T shows in
    every identity that involves it.  Sides that take derivatives are compared
    at the orders the derivatives leave reliable.
    """
    order = t.order
    if order < 2:
        raise ValueError(f"the identities need truncation order >= 2, got {order}")
    one = TruncatedRationalSeries.one(order)
    x = TruncatedRationalSeries.monomial(1, order)
    t2 = t * t
    d = one - x * t2
    d2 = d * d
    t3 = t2 * t
    t4 = t3 * t
    t5 = t4 * t
    t7 = t5 * t2
    x2 = x * x
    x3 = x2 * x
    combo = -(x * t4) / d2 + 2 * ((x3 * t7) / d2) + 2 * ((x2 * t5) / d) + (x * t3) / d
    return [
        ("T equals 1 + x T^2", t, one + x * t2),
        ("T (1 - x T) equals 1", t * (one - x * t), one),
        (
            "T' (1 - x T^2) equals T^3",
            t.derivative() * d.truncate(order - 1),
            t3.truncate(order - 1),
        ),
        (
            "T'' equals 2T^5/(1-xT^2)^2 + 2T^5/(1-xT^2)^3",
            t.derivative().derivative(),
            (2 * t5 / d2 + 2 * t5 / (d2 * d)).truncate(order - 2),
        ),
        ("four-term cancellation vanishes", combo, TruncatedRationalSeries.zero(order)),
    ]


def verify_cancellation(order: int) -> bool:
    """Check the four-term identity behind the complex-Gaussian nullity.

    True iff the last of ``catalan_identities`` (the combination of x T^3,
    x^2 T^5, x^3 T^7 and x T^4 over powers of 1 - x T^2) vanishes identically
    at the truncation order (>= 2).
    """
    order = _int_at_least(order, 2, "truncation order")
    _, combo, _ = catalan_identities(catalan_series(order))[-1]
    return combo.is_zero
