"""Monte Carlo estimation of the 1/n moment correction.

Matrices are sampled as X = W / (sigma sqrt(n)) with independent entries on
and above the diagonal; per-sample moments are traces of matrix powers
(trace(X^k)/n equals the k-th moment of the empirical spectral measure
exactly, no eigensolver involved).  The size-n correction estimate averages
n (trace(X^k)/n - Cat(k/2)); a Richardson combination across sizes n and 2n
cancels the leading finite-size bias, leaving the correction-measure moment.

Reproducibility: sample i draws from a generator seeded by the sequence
(seed, n) spawned at index i, so the stream is a pure function of
(seed, n, preset, samples) and independent of how the index range would be
partitioned across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .combinatorics import (
    GOE,
    GUE,
    RADEMACHER,
    EnsembleParams,
    catalan,
    nu_moment,
)


@dataclass(frozen=True)
class EnsembleSampler:
    """Entry generators consistent with an ``EnsembleParams`` quadruple.

    offdiag(rng, size) draws strictly-upper-triangle entries (complex iff
    params.r == 0); diag(rng, size) draws real diagonal entries.  Both must
    be centered with the advertised second and fourth moments.
    """

    params: EnsembleParams
    preset: str
    offdiag: Callable[[np.random.Generator, int], np.ndarray]
    diag: Callable[[np.random.Generator, int], np.ndarray]

    @property
    def complex_entries(self) -> bool:
        return self.params.r == 0


def goe_sampler() -> EnsembleSampler:
    """Real Gaussian: off-diagonal N(0, 1), diagonal N(0, 2)."""
    sqrt2 = math.sqrt(2.0)
    return EnsembleSampler(
        params=GOE,
        preset="goe",
        offdiag=lambda rng, size: rng.standard_normal(size),
        diag=lambda rng, size: sqrt2 * rng.standard_normal(size),
    )


def gue_sampler() -> EnsembleSampler:
    """Complex Gaussian: off-diagonal (X + iY)/sqrt(2), diagonal N(0, 1)."""

    def offdiag(rng: np.random.Generator, size: int) -> np.ndarray:
        re = rng.standard_normal(size)
        im = rng.standard_normal(size)
        return (re + 1j * im) / math.sqrt(2.0)

    return EnsembleSampler(
        params=GUE,
        preset="gue",
        offdiag=offdiag,
        diag=lambda rng, size: rng.standard_normal(size),
    )


def rademacher_sampler() -> EnsembleSampler:
    """Signs: off-diagonal +-1, diagonal +-1, each fair."""

    def signs(rng: np.random.Generator, size: int) -> np.ndarray:
        return 2.0 * rng.integers(0, 2, size) - 1.0

    return EnsembleSampler(params=RADEMACHER, preset="rademacher", offdiag=signs, diag=signs)


def custom_sampler(params: EnsembleParams, offdiag, diag) -> EnsembleSampler:
    """Wrap user-supplied entry generators; the params quadruple is trusted."""
    return EnsembleSampler(params=params, preset="custom", offdiag=offdiag, diag=diag)


PRESET_SAMPLERS = {
    "goe": goe_sampler,
    "gue": gue_sampler,
    "rademacher": rademacher_sampler,
}


@dataclass(frozen=True)
class CorrectionEstimate:
    """Point estimate of n (m_k(n) - sc_k) with its standard error.

    ``reference`` is the exact correction-measure moment the estimate should
    approach as n grows.  For Richardson records, n is the smaller size of the
    (n, 2n) pair and point/stderr refer to the combined estimator.
    """

    k: int
    n: int
    samples: int
    point: float
    stderr: float
    reference: float

    @property
    def z_score(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.point == self.reference else math.inf
        return (self.point - self.reference) / self.stderr


@lru_cache(maxsize=64)
def _triu(n: int):
    iu = np.triu_indices(n, 1)
    return iu, (iu[1], iu[0])


def _build_matrix(n: int, sampler: EnsembleSampler, rng: np.random.Generator) -> np.ndarray:
    dtype = complex if sampler.complex_entries else float
    w = np.zeros((n, n), dtype=dtype)
    if n > 1:
        upper, lower = _triu(n)
        off = sampler.offdiag(rng, upper[0].size)
        w[upper] = off
        w[lower] = np.conj(off)
    w[np.arange(n), np.arange(n)] = sampler.diag(rng, n)
    sigma = math.sqrt(float(sampler.params.sigma2))
    return w / (sigma * math.sqrt(n))


def sample_matrix(n: int, sampler: EnsembleSampler, seed) -> np.ndarray:
    """One Hermitian matrix X = W/(sigma sqrt(n)); deterministic in (seed, n)."""
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    return _build_matrix(n, sampler, np.random.default_rng(seed))


def empirical_moments(x: np.ndarray, kmax: int) -> list[float]:
    """[trace(X^j)/n for j = 1..kmax] by iterated matrix multiplication."""
    if kmax < 1:
        raise ValueError(f"kmax must be positive, got {kmax}")
    n = x.shape[0]
    out = []
    power = x
    for j in range(1, kmax + 1):
        out.append(float(np.trace(power).real) / n)
        if j < kmax:
            power = power @ x
    return out


def _seed_root(seed: int, n: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(seed) & (2**64 - 1), n))


def estimate_corrections(
    ks: Sequence[int],
    n: int,
    samples: int,
    sampler: EnsembleSampler,
    seed: int,
) -> list[CorrectionEstimate]:
    """Correction estimates for several even moment indices from one stream.

    The sample stream depends only on (seed, n), so each returned record is
    bit-identical to a single-k call with the same arguments.
    """
    ks = sorted(set(ks))
    if not ks:
        raise ValueError("need at least one moment index")
    for k in ks:
        if k < 2 or k % 2 == 1:
            raise ValueError(f"correction estimates are defined for even k >= 2, got {k}")
    if samples < 2:
        raise ValueError(f"need at least two samples for a standard error, got {samples}")
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    kmax = ks[-1]
    wanted = set(ks)
    sc = {k: float(catalan(k // 2)) for k in ks}
    values = np.empty((len(ks), samples))
    children = _seed_root(seed, n).spawn(samples)
    for i, child in enumerate(children):
        x = _build_matrix(n, sampler, np.random.default_rng(child))
        power = x
        traces = {}
        for j in range(2, kmax + 1):
            power = power @ x
            if j in wanted:
                traces[j] = float(np.trace(power).real)
        for row, k in enumerate(ks):
            values[row, i] = n * (traces[k] / n - sc[k])
    out = []
    for row, k in enumerate(ks):
        ys = values[row]
        out.append(
            CorrectionEstimate(
                k=k,
                n=n,
                samples=samples,
                point=float(ys.mean()),
                stderr=float(ys.std(ddof=1)) / math.sqrt(samples),
                reference=float(nu_moment(k, sampler.params)),
            )
        )
    return out


def richardson_corrections(
    ks: Sequence[int],
    n: int,
    sampler: EnsembleSampler,
    samples: int,
    seed: int,
) -> list[CorrectionEstimate]:
    """Richardson combinations 2 * estimate(2n) - estimate(n) per index.

    The even-moment expansion proceeds in integer powers of 1/n, so the
    combination cancels the leading bias of the size-n estimate and targets
    the correction-measure moment directly.
    """
    low = estimate_corrections(ks, n, samples, sampler, seed)
    high = estimate_corrections(ks, 2 * n, samples, sampler, seed)
    out = []
    for lo, hi in zip(low, high):
        out.append(
            CorrectionEstimate(
                k=lo.k,
                n=n,
                samples=samples,
                point=2.0 * hi.point - lo.point,
                stderr=math.hypot(2.0 * hi.stderr, lo.stderr),
                reference=lo.reference,
            )
        )
    return out
