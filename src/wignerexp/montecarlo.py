"""Monte Carlo estimation of the 1/n moment correction.

Matrices are sampled as X = W / (sigma sqrt(n)) with independent entries on
and above the diagonal; per-sample moments are traces of matrix powers
(trace(X^k)/n equals the k-th moment of the empirical spectral measure
exactly, no eigensolver involved), each read as a Frobenius product
tr X^(a+b) = <X^a, X^b> of two powers formed.  A dense sample forms the
fewest powers whose pairwise sums give every k asked for (X^2, X^4, X^8 for
the even k up to 10: three products, one fewer than the half powers
X^2..X^5), each into a buffer of its own that a thread's samples reuse; X
itself is only read.  The sample is gathered from its drawn upper and
diagonal entries in one indexing step, through a flat index cached per size.

Integer samples (``_narrow``): when a sample's drawn entries are real
integers with |w| <= B, the powers are formed from W itself, not from X.
Every entry of W^c, and every partial sum of the product forming it, is at
most n^(c-1) B^c; a product whose bound is at most 2^24 runs exactly in
float32 (sgemm, about half the time of dgemm), the others in float64.  So
for signs at n = 128 and 256, W^2 and W^4 run in float32 and W^8 in
float64, in buffers laid out as ``_narrow`` says.  Each trace is read in
float64 and divided once by (sigma sqrt(n))^k.  These traces are closer to
exact than the ones formed from X, so their last bits differ from those;
where sigma sqrt(n) is a power of two (n = 16 for signs) both are exact and
agree.  Which route a sample takes is read from its own entries, so a
sampler may mix both; non-integer and complex samples take the float64
route on X.

The size-n correction estimate averages n (trace(X^k)/n - Cat(k/2));
a Richardson combination across sizes n and 2n cancels the leading
finite-size bias, leaving the correction-measure moment.

GOE and GUE estimates sample the tridiagonal models of Dumitriu and
Edelman ("Matrix models for beta ensembles", J. Math. Phys. 2002) instead
of dense matrices: Householder reduction of the dense Gaussian matrix gives
a symmetric tridiagonal matrix with the same spectrum, independent
Gaussian diagonal and chi-distributed off-diagonal.  A banded sample forms
only the half powers T^1 .. T^ceil(kmax/2), as bands, so it costs
O(n kmax^2), and chunks of samples are processed as arrays, in work arrays
made once per size (161 MiB at n = 1024, kmax 32, by tracemalloc) that
every chunk reuses.  ``sample_matrix`` still returns the dense matrix, and
Rademacher and custom ensembles are estimated from dense matrices.

Reproducibility: samples come in blocks of _CHUNK, and block b draws from
one generator seeded by (seed, n, b), so the stream is a pure function of
(seed, n, preset) and a run of N samples is a prefix of a run of N + 1.
For GOE and GUE a block draws _CHUNK rows of n normals, then _CHUNK rows of
n - 1 chi-square variates, a partial last block included; for the other
ensembles the block's dense samples draw from its generator in turn, and
the blocks are split among threads, which leaves every value as it is.
A dense run takes one of three routes (``_block_workers``): one thread per
core, OpenBLAS at one thread throughout; below n = 128, one thread with
OpenBLAS at one thread throughout; else one thread whose products use
OpenBLAS's own threads and whose every trace is read at one.  Float64
products give the same bits at any thread count, and the float32 ones are
exact, so no trace depends on OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .combinatorics import (
    GOE,
    GUE,
    RADEMACHER,
    EnsembleParams,
    _int_at_least,
    catalan,
    nu_moment,
)

# samples per generator; bounds the memory of the banded power arrays, and
# fixes the stream: changing it changes every GOE, GUE and Rademacher run
_CHUNK = 64
# bounds on a command-line run, checked before the first draw: the largest
# moment index, the samples per size, and the largest size sampled (2 max(n)).
# At the bounds the arrays alive at once stay under _ARRAY_BUDGET: the trace
# array (16 rows of 10^6 floats, 122 MiB), the gather-index cache (16 MiB) and
# either the band work arrays and one chunk's draws (164 MiB peak, 161 of it
# the work arrays, made once per size) or one share per thread of a dense
# run, each within _dense_share_bytes: six power buffers, the sample, its
# entries and the draws' temporaries, 144 MiB for complex entries and 72 MiB
# for real (128 and 60 MiB peaks; every peak here measured with tracemalloc
# at n = 1024, kmax 32).  So _thread_cap allows at most 2 threads there for
# complex entries and 5 for real, and _block_workers runs one thread on a
# host with more cores than that.  Building a size's index peaks at 28 MiB,
# before any thread starts.
MAX_KMAX = 32
_ARRAY_BUDGET = 512 << 20
MAX_SAMPLES = 1_000_000
MAX_MATRIX_SIZE = 1024
# bound on a command-line run's ``estimated_seconds``, checked with the above;
# its unit costs were measured with one BLAS thread on a 2-core x86-64 host
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31), for real entries; the dense cost
# counts the products of the power plan as float64 ones.  For Rademacher
# signs, whose products partly run in float32, the estimate reads 0.9 to 4.9
# times the actual time at n = 8..1024 and kmax = 2..32, one thread (above 4
# only at kmax 2, whose time is all matrix build); all-float64 products read
# 1.4 to 4.5 times on the same host and day
MAX_RUN_SECONDS = 600
# custom_sampler pilot: draws per entry kind, its own stream, and the
# number of standard errors a claimed moment may miss by
_PILOT_DRAWS = 20_000
_PILOT_SEED = 0x9E3779B9
_PILOT_SE = 6.0


@dataclass(frozen=True)
class EnsembleSampler:
    """Entry generators consistent with an ``EnsembleParams`` quadruple.

    offdiag(rng, size) draws strictly-upper-triangle entries (complex iff
    params.r == 0); diag(rng, size) draws real diagonal entries.  Both must
    be centered with the advertised second and fourth moments.

    tridiagonal(rng, n, count), where the ensemble has one, draws the
    diagonals, shape (count, n), and off-diagonals, shape (count, n - 1), of
    ``count`` independent real symmetric tridiagonal matrices on the scale
    of W, each with the spectral law of the dense matrix.
    """

    params: EnsembleParams
    preset: str
    offdiag: Callable[[np.random.Generator, int], np.ndarray]
    diag: Callable[[np.random.Generator, int], np.ndarray]
    tridiagonal: (
        Callable[[np.random.Generator, int, int], tuple[np.ndarray, np.ndarray]] | None
    ) = None

    @property
    def complex_entries(self) -> bool:
        return self.params.r == 0

    @property
    def dtype(self) -> type:
        """Element type of the dense matrices."""
        return complex if self.complex_entries else float


def _chi_degrees(n: int, beta: int) -> np.ndarray:
    """Degrees of freedom beta (n - j) of off-diagonal j = 1 .. n-1."""
    return beta * np.arange(n - 1, 0, -1)


def goe_sampler() -> EnsembleSampler:
    """Real Gaussian: off-diagonal N(0, 1), diagonal N(0, 2).

    Tridiagonal model: diagonal N(0, 2), off-diagonal j distributed as
    chi with n - j degrees of freedom (the norm of the n - j Gaussians
    below the diagonal that a Householder step folds into one entry).
    """
    sqrt2 = math.sqrt(2.0)

    def tridiagonal(rng: np.random.Generator, n: int, count: int):
        diag = sqrt2 * rng.standard_normal((count, n))
        return diag, np.sqrt(rng.chisquare(_chi_degrees(n, 1), (count, n - 1)))

    return EnsembleSampler(
        params=GOE,
        preset="goe",
        offdiag=lambda rng, size: rng.standard_normal(size),
        diag=lambda rng, size: sqrt2 * rng.standard_normal(size),
        tridiagonal=tridiagonal,
    )


def gue_sampler() -> EnsembleSampler:
    """Complex Gaussian: off-diagonal (X + iY)/sqrt(2), diagonal N(0, 1).

    Tridiagonal model: diagonal N(0, 1), off-diagonal j distributed as
    sqrt(chi2_{2(n-j)} / 2), the norm of n - j entries with E|w|^2 = 1.
    """

    def offdiag(rng: np.random.Generator, size: int) -> np.ndarray:
        re = rng.standard_normal(size)
        im = rng.standard_normal(size)
        return (re + 1j * im) / math.sqrt(2.0)

    def tridiagonal(rng: np.random.Generator, n: int, count: int):
        diag = rng.standard_normal((count, n))
        return diag, np.sqrt(rng.chisquare(_chi_degrees(n, 2), (count, n - 1)) / 2.0)

    return EnsembleSampler(
        params=GUE,
        preset="gue",
        offdiag=offdiag,
        diag=lambda rng, size: rng.standard_normal(size),
        tridiagonal=tridiagonal,
    )


def rademacher_sampler() -> EnsembleSampler:
    """Signs: off-diagonal +-1, diagonal +-1, each fair."""

    def signs(rng: np.random.Generator, size: int) -> np.ndarray:
        # int32 draws the same values, and leaves the same state, as int64;
        # 2 s - 1 is formed in place, in one float array
        out = np.multiply(rng.integers(0, 2, size, dtype=np.int32), 2.0)
        out -= 1.0
        return out

    return EnsembleSampler(params=RADEMACHER, preset="rademacher", offdiag=signs, diag=signs)


def _pilot_miss(samples: np.ndarray, claim: float) -> float | None:
    """z of the pilot mean against the claim if beyond _PILOT_SE, else None."""
    mean = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(samples.size)
    if se == 0.0:  # constant entries such as +-1: only rounding may differ
        return None if math.isclose(mean, claim, rel_tol=1e-9, abs_tol=1e-12) else math.inf
    z = (mean - claim) / se
    return None if abs(z) <= _PILOT_SE else z


def custom_sampler(params: EnsembleParams, offdiag, diag) -> EnsembleSampler:
    """Wrap user-supplied entry generators after a pilot check of ``params``.

    A pilot of _PILOT_DRAWS entries of each kind, from a generator of its
    own (run streams do not move), must show mean 0, E|w|^2 = sigma2,
    E w^2 = sigma2 for real (r = 1) and 0 for complex entries,
    E|w|^4 = alpha, and diagonal mean 0 and variance s2, each within
    _PILOT_SE standard errors estimated from the pilot.  A miss raises
    ValueError naming the moment.
    """
    rng = np.random.default_rng(_PILOT_SEED)
    off = np.asarray(offdiag(rng, _PILOT_DRAWS))
    d = np.asarray(diag(rng, _PILOT_DRAWS))
    sq = np.abs(off) ** 2
    square = off * off
    checks = [
        ("off-diagonal mean (real part)", off.real, 0.0),
        ("off-diagonal mean (imaginary part)", np.imag(off), 0.0),
        ("E|w|^2", sq, float(params.sigma2)),
        ("E w^2 (real part)", square.real, float(params.sigma2) if params.r == 1 else 0.0),
        ("E w^2 (imaginary part)", np.imag(square), 0.0),
        ("E|w|^4", sq * sq, float(params.alpha)),
        ("diagonal mean", d, 0.0),
        ("diagonal variance", d * d, float(params.s2)),
    ]
    for name, samples, claim in checks:
        z = _pilot_miss(samples, claim)
        if z is not None:
            raise ValueError(
                f"custom sampler does not match its parameters: {name} claimed {claim!r}, "
                f"pilot of {_PILOT_DRAWS} draws gives z = {z:.3g}"
            )
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


# two sizes: a run samples one size at a time, and one entry holds 8 n^2
# bytes (8 MiB at MAX_MATRIX_SIZE), so more would break the memory budget
@lru_cache(maxsize=2)
def _gather_index(n: int, conjugate: bool) -> np.ndarray:
    """Flat read-only index taking a sample's entries to its n x n matrix.

    The entries are the m = n(n - 1)/2 strict upper ones in row order, the n
    diagonal ones, and, if ``conjugate``, the conjugates of the upper ones;
    a lower-triangle position reads the conjugate of its mirror image, or
    the upper entry itself for real matrices.
    """
    m = n * (n - 1) // 2
    i, j = np.triu_indices(n, 1)
    upper = np.arange(m, dtype=np.intp)
    index = np.empty(n * n, dtype=np.intp)
    index[i * n + j] = upper
    index[j * n + i] = upper + m + n if conjugate else upper
    index[:: n + 1] = np.arange(m, m + n, dtype=np.intp)
    index.flags.writeable = False
    return index


def _scale(sampler: EnsembleSampler, n: int) -> float:
    """sigma sqrt(n), the divisor taking W to X."""
    return math.sqrt(float(sampler.params.sigma2)) * math.sqrt(n)


def _integer_bound(entries: np.ndarray, limit: int) -> int:
    """max(1, max |w|) if the real ``entries`` are integers with |w| <= ``limit``, else 0."""
    peak = max(entries.max(), -entries.min())  # NaN when any entry is: refused below
    if not peak <= limit or not np.array_equal(np.rint(entries), entries):
        return 0
    return max(int(peak), 1)


def _build_sample(
    n: int, sampler: EnsembleSampler, rng: np.random.Generator, limit: int
) -> tuple[np.ndarray, int]:
    """Draw the upper entries, then the diagonal, and gather a sample from them.

    Returns (W, B) if the entries are real integers of magnitude at most
    ``limit`` (B = max(1, max |w|); see ``_narrow``), else (X, 0).
    """
    m = n * (n - 1) // 2
    conjugate, dtype = sampler.complex_entries, sampler.dtype
    entries = np.empty(2 * m + n if conjugate else m + n, dtype=dtype)
    if n > 1:
        np.copyto(entries[:m], sampler.offdiag(rng, m))
    np.copyto(entries[m : m + n], sampler.diag(rng, n))
    bound = _integer_bound(entries, limit) if limit and not conjugate else 0
    if not bound:  # the divisions of the assembled W, element for element
        entries[: m + n] /= _scale(sampler, n)
    if conjugate:
        np.conj(entries[:m], out=entries[m + n :])
    # an index read, not ndarray.take: take copies a read-only index first
    return entries[_gather_index(n, conjugate)].reshape(n, n), bound


def sample_matrix(n: int, sampler: EnsembleSampler, seed) -> np.ndarray:
    """One Hermitian matrix X = W/(sigma sqrt(n)); deterministic in (seed, n)."""
    n = _int_at_least(n, 1, "matrix size")
    return _build_sample(n, sampler, np.random.default_rng(seed), 0)[0]


class _PowerPlan(NamedTuple):
    """The schedule of ``_dense_traces``.

    ``products`` holds (c, a, b) per product X^c = X^a X^b, in order;
    ``pairs`` holds (a, b) with a <= b and a + b = k per k asked for, read
    as the Frobenius product <X^a, X^b> once every product is formed.
    """

    products: tuple[tuple[int, int, int], ...]
    pairs: tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def _power_plan(ks: tuple[int, ...]) -> _PowerPlan:
    """The fewest dense products that give tr X^k for every k >= 2 in ``ks``.

    A plan forms an ascending set of exponents from 1, each new one the sum
    of two formed ones, such that each k is the sum of two formed exponents
    (an addition chain whose sumset covers ``ks``; Knuth, TAOCP vol. 2
    section 4.6.3).  Iterative deepening finds a shortest one, so it never
    uses more than the ceil(kmax/2) - 1 products of the half-power chain:
    3 at kmax 10 ({1, 2, 4, 8} for even k, {1, 2, 4, 5} for every k), 6 for
    the even k up to 32.  Each k takes its most balanced pair.  The search
    deepens no further than that chain, and raises RuntimeError past it.

    Past ``MAX_KMAX``, which no command asks for, the search grows steeply
    (7.4 s for every k up to 48 on a 2-core host), so such a plan is the
    half-power chain {1, 2, ..., ceil(kmax/2)} with no search: not minimal.
    """
    need = sorted(set(ks))
    if need and need[0] < 2:
        raise ValueError(f"power plans start at k = 2, got {need[0]}")

    def missing(formed: list[int]) -> list[int]:
        return [k for k in need if not any(k - a in formed for a in formed)]

    def extend(formed: list[int], left: int) -> list[int] | None:
        miss = missing(formed)
        if not miss:
            return formed
        # left more exponents reach at most 2^left times the top one, and add
        # at most size + 1, size + 2, ... new sums each
        size, top = len(formed), formed[-1]
        if left == 0 or top << (left + 1) < miss[-1]:
            return None
        if len(miss) > left * size + left * (left + 1) // 2:
            return None
        # the smallest miss needs a new exponent below it, and new ones only grow
        steps = {a + b for a in formed for b in formed if top < a + b < miss[0]}
        for c in sorted(steps, reverse=True):
            found = extend(formed + [c], left - 1)
            if found is not None:
                return found
        return None

    chain = -(-need[-1] // 2) if need else 1  # the half-power chain's top exponent
    if need and need[-1] > MAX_KMAX:
        formed = list(range(1, chain + 1))
    else:
        # the half-power chain bounds the depth: a search that finds no plan
        # within it is at fault, and stops here rather than deepening forever
        for left in range(chain):
            if (formed := extend([1], left)) is not None:
                break
        else:
            raise RuntimeError(f"no power plan of at most {chain - 1} products for ks = {ks}")

    def split(k: int, among: list[int]) -> tuple[int, int]:
        b = min(b for b in among if 2 * b >= k and k - b in among)
        return k - b, b

    products = tuple((c, *split(c, formed[:i])) for i, c in enumerate(formed) if i)
    return _PowerPlan(products, tuple(split(k, formed) for k in ks))


# float32 holds every integer up to 2^24, so a product of integer matrices
# whose every partial sum stays there is exact in float32 (Ozaki, Ogita, Oishi
# and Rump, Numer. Algorithms 2012): the same bits from any kernel, summation
# order or thread count
_FLOAT32_EXACT = 2**24


def _integer_limit(n: int, plan: _PowerPlan) -> int:
    """The largest B whose integer samples of size n take the integer route.

    That route needs W^2 formed in float32 (n B^2 <= 2^24), so a plan with
    no product never takes it, and every k at most MAX_KMAX: then tr W^k
    <= n^(k/2) (n B^2)^(k/2) stays far inside float64's range.
    """
    if not plan.products or max(map(sum, plan.pairs)) > MAX_KMAX:
        return 0
    return math.isqrt(_FLOAT32_EXACT // n)


@lru_cache(maxsize=64)
def _narrow(n: int, plan: _PowerPlan, bound: int) -> int:
    """How many of ``plan``'s products run in float32 for a sample of size n.

    For an integer W with |w| <= B = ``bound``, every entry of W^c, and
    every partial sum of the product forming it, is at most n^(c-1) B^c;
    the products where that is at most 2^24, a prefix of the plan since c
    ascends, run in float32.  For X (``bound`` 0) every product is float64.

    The float32 layout: product i is read in float64 from ``buffers[i]``,
    into which a float32 product is widened at once.  The float32 copies,
    of W and then of products 0 .. narrow - 1, take the halves of
    ``buffers[narrow:]`` in order.  Only float64 products write those
    buffers, and only after every float32 product has run, so no copy is
    overwritten before its last read.  So a sample needs max(products,
    narrow + (narrow + 2) // 2) buffers.
    """
    products = plan.products
    return sum(bool(bound) and n ** (c - 1) * bound**c <= _FLOAT32_EXACT for c, _, _ in products)


def _dense_traces(
    sample: np.ndarray, plan: _PowerPlan, buffers: np.ndarray, dot, bound: int, scale: float
) -> list[float]:
    """tr X^k per k of ``plan`` for a Hermitian sample, which is only read.

    The sample is X (``bound`` 0, ``scale`` 1.0), or with ``bound`` B >= 1
    the integer W = sigma sqrt(n) X with |w| <= B, ``scale`` being sigma
    sqrt(n).  ``buffers``, one array of n x n rows that may be reused from
    sample to sample, is laid out as ``_narrow`` says.  Each trace is read
    as ``dot`` (a pinned one, see ``_pinned_blas``) of two float64 powers
    and divided by ``scale``^k.
    """
    n = sample.shape[0]
    narrow = _narrow(n, plan, bound)
    powers = {1: sample}
    if narrow:
        slots = buffers[narrow:].view(np.float32).reshape(-1, n, n)
        copies = {1: slots[0]}
        np.copyto(copies[1], sample, casting="same_kind")
    for i, (c, a, b) in enumerate(plan.products):
        if i < narrow:
            copies[c] = np.matmul(copies[a], copies[b], out=slots[i + 1])
            np.copyto(buffers[i], copies[c])
        else:
            np.matmul(powers[a], powers[b], out=buffers[i])
        powers[c] = buffers[i]
    return [float(dot(powers[a], powers[b]).real) / scale ** (a + b) for a, b in plan.pairs]


def empirical_moments(x: np.ndarray, kmax: int) -> list[float]:
    """[trace(X^j)/n for j = 1..kmax] for Hermitian X, from a power plan.

    kmax is checked as the sizes of ``estimate_corrections`` are, and must be
    >= 1; X must be a square matrix of size n >= 1.  The products keep
    BLAS's threads and every trace is read at one (see ``_pinned_blas``),
    so no value depends on OPENBLAS_NUM_THREADS.
    """
    kmax = _int_at_least(kmax, 1, "kmax")
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 1:
        raise ValueError(f"x must be a square matrix of size n >= 1, got shape {x.shape}")
    n = x.shape[0]
    plan = _power_plan(tuple(range(2, kmax + 1)))
    buffers = np.empty((len(plan.products), n, n), dtype=x.dtype)
    with _pinned_blas(whole=False) as dot:
        traces = [float(np.trace(x).real), *_dense_traces(x, plan, buffers, dot, 0, 1.0)]
    return [t / n for t in traces]


class _BandArrays(NamedTuple):
    """The arrays ``_band_traces`` works in, for up to S samples of size n.

    They are made for ascending ``ks``, whose reach = ceil(kmax/2) is the
    highest power formed and the widest offset read.  ``diag`` (S, n) and
    ``off`` (S, n - 1) are where the samples are written, views of
    zero-padded rows of width n + 2 reach whose padding is never written;
    ``a_win`` and ``b_win`` (S, 2 reach + 1, n) are windows over them,
    [s, reach + o, i] = a[i + o].  ``powers[m]`` (S, 2m + 1, n) holds T^m for
    m = 0 .. reach, and ``scratch`` one product term.
    """

    diag: np.ndarray
    off: np.ndarray
    a_win: np.ndarray
    b_win: np.ndarray
    powers: list[np.ndarray]
    scratch: np.ndarray

    @classmethod
    def make(cls, rows: int, n: int, ks: Sequence[int]) -> _BandArrays:
        reach = -(-ks[-1] // 2)
        a_pad = np.zeros((rows, n + 2 * reach))
        b_pad = np.zeros_like(a_pad)
        return cls(
            diag=a_pad[:, reach : reach + n],
            off=b_pad[:, reach : reach + n - 1],
            a_win=sliding_window_view(a_pad, n, axis=1),
            b_win=sliding_window_view(b_pad, n, axis=1),
            powers=[np.ones((rows, 1, n))]
            + [np.empty((rows, 2 * m + 1, n)) for m in range(1, reach + 1)],
            scratch=np.empty((rows, 2 * reach - 1, n)),
        )


def _band_traces(work: _BandArrays, count: int, ks: Sequence[int]) -> list[np.ndarray]:
    """tr T^k for the first ``count`` samples held in ``work``, made for ``ks``.

    T^m has bandwidth m and is held as its 2m + 1 diagonals, array P of shape
    (S, 2m + 1, n) with P[s, m + o, i] = (T_s^m)[i, i + o] and zeros outside
    the matrix, so (P T)[i, i + o] = P_{o-1}[i] b[i+o-1] + P_o[i] a[i+o]
    + P_{o+1}[i] b[i+o] costs O(S m n).  Only T^1 .. T^ceil(kmax/2) are
    formed, since a band times T is cheap where a band times a band is not:
    tr T^(2m) = <T^m, T^m> and tr T^(2m+1) = <T^m, T^(m+1)>.  Every array
    is read through its first ``count`` rows, so the sums run over arrays of
    ``count`` samples whatever S is.  Returns one length-``count`` array per k.
    """
    reach = len(work.powers) - 1
    a_win, b_win = work.a_win[:count], work.b_win[:count]
    powers = [power[:count] for power in work.powers]
    for m, (p, q) in enumerate(zip(powers, powers[1:])):  # T^(m+1) = T^m T
        # the middle rows' sums start from their first term, not from 0.0, which
        # changes at most the sign of a zero: no trace's sum sees it
        np.multiply(p, a_win[:, reach - m : reach + m + 1], out=q[:, 1:-1])
        q[:, 0] = q[:, -1] = 0.0
        term = work.scratch[:count, : 2 * m + 1]
        for rows, window in (
            (q[:, 2:], b_win[:, reach - m : reach + m + 1]),
            (q[:, :-2], b_win[:, reach - m - 1 : reach + m]),
        ):
            np.add(rows, np.multiply(p, window, out=term), out=rows)
    # the 2m + 1 diagonals of T^m against the middle 2m + 1 of T^(m + odd)
    return [
        np.einsum("sri,sri->s", powers[m], powers[m + odd][:, odd : odd + 2 * m + 1])
        for m, odd in (divmod(k, 2) for k in ks)
    ]


def _tridiagonal_traces(diag: np.ndarray, off: np.ndarray, ks: Sequence[int]) -> list[np.ndarray]:
    """tr T^k for a batch of symmetric tridiagonal T, k >= 2 ascending.

    ``diag`` has shape (S, n) and ``off`` shape (S, n - 1); see ``_band_traces``.
    """
    samples, n = diag.shape
    work = _BandArrays.make(samples, n, ks)
    work.diag[:] = diag
    work.off[:] = off
    return _band_traces(work, samples, ks)


def estimated_seconds(sampler: EnsembleSampler, kmax: int, sizes: Sequence[int], samples: int):
    """Wall time of ``samples`` draws per size up to ``kmax``; see ``MAX_RUN_SECONDS``."""
    if sampler.tridiagonal is not None:
        m = -(-kmax // 2)  # the highest power formed
        return samples * sum(4e-6 + 40e-9 * n + 32e-9 * n * m * (m + 1) / 2 for n in sizes)
    products = len(_power_plan(tuple(range(2, kmax + 1, 2))).products)
    return samples * sum(40e-6 + 20e-9 * n**2 + products * (4e-6 + 0.06e-9 * n**3) for n in sizes)


def _block_rng(seed: int, n: int, block: int) -> np.random.Generator:
    """Block ``block``'s generator; seeds equal mod 2^64 share a stream."""
    return np.random.default_rng((seed & (2**64 - 1), n, block))


@lru_cache(maxsize=1)
def _blas_threads() -> tuple:
    """(get, set) of each loaded OpenBLAS's thread count; empty if none is found.

    Read through ctypes from every library that /proc/self/maps shows loaded,
    under the symbol names of OpenBLAS builds with and without 64-bit
    integers and of the scipy-openblas build in numpy's wheels.  Another
    package's OpenBLAS (scipy's, say) counts too: each keeps its own threads.
    """
    import ctypes  # numpy has loaded it already

    try:
        with open("/proc/self/maps") as maps:
            # address, perms, offset, device, inode, path
            mapped = [line.split(maxsplit=5)[5] for line in maps if "openblas" in line.lower()]
    except OSError:
        return ()
    found = []
    for path in sorted({path.strip() for path in mapped}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, stem.format("get"), None)
            set_ = getattr(lib, stem.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


def _dense_rows(n: int, plan: _PowerPlan, dtype) -> int:
    """The n x n buffers of ``dtype`` one thread of a dense run forms powers in.

    One per product, and for real entries the integer route's layout (see
    ``_narrow``); B = 1 needs the most, since a larger B runs fewer
    products in float32.
    """
    if np.dtype(dtype).kind == "c" or not _integer_limit(n, plan):
        return len(plan.products)
    narrow = _narrow(n, plan, 1)
    return max(len(plan.products), narrow + (narrow + 2) // 2)


def _dense_share_bytes(n: int, plan: _PowerPlan, dtype) -> int:
    """Bound on the arrays one thread of a dense run holds at once.

    Its power buffers (float32 copies included), the sample, the sample's
    drawn entries, and one more n x n array for the temporaries of the entry
    generators and of the integer check.
    """
    return (_dense_rows(n, plan, dtype) + 3) * n * n * np.dtype(dtype).itemsize


def _thread_cap(n: int, plan: _PowerPlan, dtype, trace_bytes: int) -> int:
    """The most threads of a dense run whose shares fit in _ARRAY_BUDGET."""
    # the trace array and the gather-index cache (two sizes of 8 n^2 bytes) are shared
    return (_ARRAY_BUDGET - trace_bytes - 16 * n * n) // _dense_share_bytes(n, plan, dtype)


# below this size two threads ran a dense run 1.6-2.5 times slower than one
# (n = 32..64, 2-core host): the interpreter lock, handed over at each BLAS
# call, is what the threads wait for.  With float32 products (2,000 signs at
# kmax 10, 20 alternating pairs a size) two threads lost at 96 in 15 pairs,
# won at 104 in 12, at 112 and 120 in 15 and at 128 in 20; one thread on
# BLAS's threads lost to one pinned thread at 96..128 and tied it at 128 with
# one block.  So both switches stay at 128
_THREADED_SIZE = 128


def _block_workers(blocks: int, n: int, plan: _PowerPlan, dtype, trace_bytes: int) -> int:
    """Threads for a dense run: one per core, or one alone.

    Threads that each run one BLAS thread pay only where they fill every
    core; with fewer blocks than cores, or a memory cap below them, one
    thread whose products use BLAS's own threads keeps the cores busy.  One
    thread too when no OpenBLAS thread count can be pinned, since threads
    that each call a multithreaded BLAS would oversubscribe the cores.
    """
    if not _blas_threads() or n < _THREADED_SIZE:
        return 1
    cores = len(os.sched_getaffinity(0))
    if min(blocks, _thread_cap(n, plan, dtype, trace_bytes)) < cores:
        return 1
    return cores


# held through a pinned section: the thread count is one per process, so two
# sections at once would each restore what the other set
_BLAS_PIN = threading.Lock()


@contextmanager
def _pinned_blas(whole: bool):
    """Yield the dot product that reads a trace, summing in one order.

    OpenBLAS splits a long dot product among its threads, so the sum's last
    bits follow its thread count; a matrix product gives the same bits at
    any count.  With ``whole``, every loaded OpenBLAS runs one thread per
    call until exit; otherwise only the yielded dot product does, and the
    products between keep BLAS's threads.  Counts are restored on exit.
    """
    libs = _blas_threads()

    def set_all(counts) -> None:
        for (_, set_), count in zip(libs, counts):
            set_(count)

    with _BLAS_PIN:
        before = [get() for get, _ in libs]
        ones = [1] * len(libs)

        def dot(a, b):
            set_all(ones)
            try:
                return np.vdot(a, b)
            finally:
                set_all(before)

        if whole:
            set_all(ones)
        try:
            yield np.vdot if whole else dot
        finally:
            set_all(before)


def _dense_blocks(ks, n, sampler, seed, out) -> None:
    """Fill ``out`` (k rows, sample columns) from a dense sampler, block by block.

    The blocks are split among ``_block_workers`` threads: share s takes
    blocks s, s + workers, ..., and the calling thread takes share 0.  Each
    block draws from its own generator and each share from its own buffers,
    so the values do not depend on the split.  Every trace is read with
    OpenBLAS at one thread (see ``_pinned_blas``), so none depends on
    OPENBLAS_NUM_THREADS.  Once every thread has stopped, the lowest failing
    block's exception is raised; a share stops at the first block above a
    failed one, and at its next block if the calling thread is interrupted.
    """
    plan = _power_plan(tuple(ks))
    limit, scale = _integer_limit(n, plan), _scale(sampler, n)
    _gather_index(n, sampler.complex_entries)  # built here once, not in each thread
    blocks = -(-out.shape[1] // _CHUNK)
    workers = _block_workers(blocks, n, plan, sampler.dtype, out.nbytes)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    stop = threading.Event()

    def share(first: int, dot) -> None:
        buffers = np.empty((_dense_rows(n, plan, sampler.dtype), n, n), dtype=sampler.dtype)

        def traces(rng: np.random.Generator) -> list[float]:
            sample, bound = _build_sample(n, sampler, rng, limit)
            return _dense_traces(sample, plan, buffers, dot, bound, scale if bound else 1.0)

        for block in range(first, blocks, workers):
            with lock:
                if stop.is_set() or any(failed < block for failed in failures):
                    return
            columns = out[:, block * _CHUNK : (block + 1) * _CHUNK]
            try:
                rng = _block_rng(seed, n, block)
                columns[:] = np.array([traces(rng) for _ in range(columns.shape[1])]).T
            except BaseException as exc:  # raised again below, in the calling thread
                with lock:
                    failures[block] = exc
                return

    # below _THREADED_SIZE BLAS's threads do not speed the products up, and
    # pinning each read would cost about 4 us a sample
    with _pinned_blas(whole=workers > 1 or n < _THREADED_SIZE) as dot:
        threads = [threading.Thread(target=share, args=(s, dot)) for s in range(1, workers)]
        try:
            for thread in threads:
                thread.start()
            share(0, dot)
            for thread in threads:
                thread.join()
        finally:
            # early only when the calling thread was interrupted: the shares stop
            # at their next block, and are joined before BLAS's count is restored
            stop.set()
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
    if failures:
        raise failures[min(failures)]


def _sample_traces(ks, n, samples, sampler, seed) -> np.ndarray:
    """tr X^k per k (rows) and sample (columns); block b from generator (seed, n, b)."""
    out = np.empty((len(ks), samples))
    if sampler.tridiagonal is None:
        _dense_blocks(ks, n, sampler, seed, out)
        return out
    # made once for every block; a partial last block uses their first rows
    work = _BandArrays.make(min(samples, _CHUNK), n, ks)
    scale = _scale(sampler, n)
    for block, start in enumerate(range(0, samples, _CHUNK)):
        count = min(_CHUNK, samples - start)
        diag, off = sampler.tridiagonal(_block_rng(seed, n, block), n, _CHUNK)
        np.divide(diag[:count], scale, out=work.diag[:count])
        np.divide(off[:count], scale, out=work.off[:count])
        out[:, start : start + count] = _band_traces(work, count, ks)
    return out


def estimate_corrections(
    ks: Sequence[int],
    n: int,
    samples: int,
    sampler: EnsembleSampler,
    seed: int,
) -> list[CorrectionEstimate]:
    """Correction estimates for several even moment indices from one stream.

    The sample stream depends only on (seed, n), so each returned record is
    bit-identical to a single-k call with the same arguments.  Each k must be
    an even integer >= 2, n an integer >= 1, samples an integer >= 2, for a
    standard error, and seed any integer; a NumPy integer passes and a bool
    is refused.
    """
    ks = sorted({_int_at_least(k, 2, "moment index") for k in ks})
    if not ks:
        raise ValueError("need at least one moment index")
    for k in ks:
        if k % 2 == 1:
            raise ValueError(f"correction estimates are defined for even k >= 2, got {k}")
    samples = _int_at_least(samples, 2, "samples")
    n = _int_at_least(n, 1, "matrix size")
    seed = _int_at_least(seed, None, "seed")
    traces = _sample_traces(ks, n, samples, sampler, seed)
    out = []
    for row, k in enumerate(ks):
        ys = n * (traces[row] / n - float(catalan(k // 2)))
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


def richardson_combine(
    low: Sequence[CorrectionEstimate], high: Sequence[CorrectionEstimate]
) -> list[CorrectionEstimate]:
    """2 * high - low per index, from estimates at sizes n (low) and 2n (high)."""
    out = []
    for lo, hi in zip(low, high, strict=True):
        if (hi.k, hi.n, hi.samples) != (lo.k, 2 * lo.n, lo.samples):
            raise ValueError(
                f"Richardson pairs need equal k and samples at sizes n and 2n, got "
                f"(k={lo.k}, n={lo.n}, samples={lo.samples}) and "
                f"(k={hi.k}, n={hi.n}, samples={hi.samples})"
            )
        out.append(
            CorrectionEstimate(
                k=lo.k,
                n=lo.n,
                samples=lo.samples,
                point=2.0 * hi.point - lo.point,
                stderr=math.hypot(2.0 * hi.stderr, lo.stderr),
                reference=lo.reference,
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
    the correction-measure moment directly.  Arguments are checked as by
    ``estimate_corrections``, before any draw.
    """
    low = estimate_corrections(ks, n, samples, sampler, seed)
    high = estimate_corrections(ks, 2 * n, samples, sampler, seed)
    return richardson_combine(low, high)
