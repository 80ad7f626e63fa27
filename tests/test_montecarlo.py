"""Sampling, trace moments, correction estimates. Everything is seeded."""

import hashlib
import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wignerexp import (
    GOE,
    GUE,
    RADEMACHER,
    EnsembleParams,
    MomentModel,
    custom_sampler,
    empirical_moments,
    estimate_corrections,
    exact_moment,
    goe_model,
    goe_sampler,
    gue_model,
    gue_sampler,
    nu_moment,
    rademacher_model,
    rademacher_sampler,
    richardson_combine,
    richardson_corrections,
    sample_matrix,
    semicircle_moment,
    walk_polynomial,
)
from wignerexp import montecarlo
from wignerexp.cli import main

SAMPLERS = {
    "goe": (goe_sampler(), goe_model()),
    "gue": (gue_sampler(), gue_model()),
    "rademacher": (rademacher_sampler(), rademacher_model()),
}


# -- sampling ------------------------------------------------------------------


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_matrices_are_exactly_hermitian(name):
    sampler, _ = SAMPLERS[name]
    x = sample_matrix(20, sampler, seed=123)
    assert np.array_equal(x, x.conj().T)
    assert x.shape == (20, 20)


def test_sampling_is_deterministic():
    sampler = gue_sampler()
    a = sample_matrix(12, sampler, seed=5)
    b = sample_matrix(12, sampler, seed=5)
    c = sample_matrix(12, sampler, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_one_by_one_rademacher():
    x = sample_matrix(1, rademacher_sampler(), seed=0)
    assert x.shape == (1, 1)
    assert abs(x[0, 0]) == 1.0  # +-s / (sigma sqrt(1)) with s = sigma = 1


def test_offdiagonal_entry_variance_scales_as_one_over_n():
    sampler = goe_sampler()
    n = 32
    draws = [sample_matrix(n, sampler, seed=seed)[0, 1] for seed in range(4000)]
    second = np.mean(np.square(draws))
    se = np.std(np.square(draws), ddof=1) / math.sqrt(len(draws))
    assert abs(second - 1.0 / n) <= 3 * se


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_entry_moments_match_parameters(name):
    # sampler self-test: 10^6 draws, sample moments within 5 standard errors
    sampler, _ = SAMPLERS[name]
    params = sampler.params
    rng = np.random.default_rng(2718281828)
    ndraws = 1_000_000

    off = sampler.offdiag(rng, ndraws)
    sq = np.abs(off) ** 2
    fourth = sq**2

    def check(samples, target):
        se = samples.std(ddof=1) / math.sqrt(ndraws)
        assert abs(samples.mean() - target) <= 5 * se + 1e-12

    check(off.real, 0.0)
    if sampler.complex_entries:
        check(off.imag, 0.0)
    check(sq, float(params.sigma2))
    check(fourth, float(params.alpha))

    diag = sampler.diag(rng, ndraws)
    check(diag, 0.0)
    check(diag**2, float(params.s2))


# -- trace moments ----------------------------------------------------------------


def test_empirical_moments_identity_and_diag():
    assert empirical_moments(np.eye(3), 3) == [1.0, 1.0, 1.0]
    assert empirical_moments(np.diag([2.0, -2.0]), 2) == [0.0, 4.0]


def test_empirical_moments_match_eigenvalue_powers():
    x = sample_matrix(24, gue_sampler(), seed=99)
    eigs = np.linalg.eigvalsh(x)
    traced = empirical_moments(x, 6)
    for k in range(1, 7):
        want = float(np.mean(eigs**k))
        assert traced[k - 1] == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_empirical_moments_leave_the_callers_matrix_alone():
    x = sample_matrix(6, goe_sampler(), seed=98)
    kept = x.copy()
    got = empirical_moments(x, 41)
    assert np.array_equal(x, kept)
    eigs = np.linalg.eigvalsh(x)
    assert got[-1] == pytest.approx(float(np.mean(eigs**41)), rel=1e-8, abs=1e-10)


def test_empirical_moments_guards():
    with pytest.raises(ValueError):
        empirical_moments(np.eye(2), 0)


@pytest.mark.parametrize("kmax", [2.5, True], ids=repr)
def test_empirical_moments_refuse_a_kmax_that_is_no_integer(kmax):
    # 2.5 raised numpy's TypeError, and True answered as if kmax were 1
    with pytest.raises(ValueError, match=f"kmax must be an int >= 1, got {kmax!r}"):
        empirical_moments(np.eye(2), kmax)


@pytest.mark.parametrize(
    "x", [np.eye(3)[:2], np.zeros((0, 0)), np.ones(3), np.ones((2, 2, 2))], ids=repr
)
def test_empirical_moments_refuse_a_matrix_that_is_not_square(x):
    # a 2 x 3 matrix answered [1.0, 1.0] and a 0 x 0 one raised ZeroDivisionError
    message = f"x must be a square matrix of size n >= 1, got shape {x.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        empirical_moments(x, 2)


def test_estimates_refuse_a_moment_index_that_is_no_integer():
    with pytest.raises(ValueError, match="moment index must be an int >= 2, got 2.0"):
        estimate_corrections([2.0], 8, 4, rademacher_sampler(), 1)


def test_numpy_integers_pass_as_moment_indices_and_kmax():
    x = sample_matrix(5, goe_sampler(), seed=97)
    assert empirical_moments(x, np.int64(6)) == empirical_moments(x, 6)
    sampler = rademacher_sampler()
    got = estimate_corrections([np.int64(4)], np.int64(8), np.int64(20), sampler, 1)
    assert got == estimate_corrections([4], 8, 20, sampler, 1)


def test_empirical_moments_past_max_kmax_take_the_half_power_chain_at_once():
    # the plan search grew to 7.4 s at kmax 48; past MAX_KMAX there is no search
    kmax = 60
    montecarlo._power_plan.cache_clear()
    plan = montecarlo._power_plan(tuple(range(2, kmax + 1)))
    assert [c for c, _, _ in plan.products] == list(range(2, kmax // 2 + 1))
    x = sample_matrix(33, goe_sampler(), seed=42)
    montecarlo._power_plan.cache_clear()
    start = time.perf_counter()
    got = empirical_moments(x, kmax)
    assert time.perf_counter() - start < 1.0
    eigs = np.linalg.eigvalsh(x)
    for k, g in zip(range(1, kmax + 1), got):
        # the tolerance of test_dense_traces_match_eigenvalue_power_sums, per n
        assert abs(g - float(np.mean(eigs**k))) <= 1e-10 * float(np.mean(np.abs(eigs) ** k)), k


# -- correction estimates ------------------------------------------------------------


def _exact_correction(k, n, model):
    return float(n * (exact_moment(k, n, model) - semicircle_moment(k)))


# (ensemble, k, n, samples) of the estimates held against the exact walk oracle
FINITE_SIZE_CASES = [
    ("gue", 4, 64, 2000),
    ("goe", 2, 32, 2000),
    ("goe", 4, 64, 2000),
    ("rademacher", 2, 48, 500),
]


def estimate_misses_exact_value(name, k, n, samples) -> bool:
    """Whether the estimate misses the exact finite-size correction by more than 4 stderr."""
    sampler, model = SAMPLERS[name]
    (est,) = estimate_corrections([k], n, samples, sampler, seed=20260810)
    exact = _exact_correction(k, n, model)
    assert est.reference == float(nu_moment(k, sampler.params))
    if est.stderr == 0.0:
        # deterministic trace up to float rounding (+-1 entries, k = 2)
        return abs(est.point - exact) > 1e-11
    return abs(est.point - exact) > 4 * est.stderr


def test_estimate_matches_exact_finite_size_value():
    for case in FINITE_SIZE_CASES:
        assert not estimate_misses_exact_value(*case), case


def test_rademacher_second_moment_has_no_fluctuation():
    # trace(X^2) is deterministic for +-1 entries, so the estimate is exact
    sampler, _ = SAMPLERS["rademacher"]
    (est,) = estimate_corrections([2], 16, 200, sampler, seed=3)
    assert est.point == 0.0 and est.stderr == 0.0
    assert est.z_score == 0.0


def test_estimates_are_reproducible_and_batch_consistent():
    sampler, _ = SAMPLERS["goe"]
    (a,) = estimate_corrections([4], 24, 300, sampler, seed=11)
    (b,) = estimate_corrections([4], 24, 300, sampler, seed=11)
    assert (a.point, a.stderr) == (b.point, b.stderr)
    batch = estimate_corrections([2, 4, 6], 24, 300, sampler, seed=11)
    assert batch[1].point == a.point and batch[1].stderr == a.stderr


def test_estimate_validation():
    sampler, _ = SAMPLERS["goe"]
    with pytest.raises(ValueError):
        estimate_corrections([3], 16, 100, sampler, seed=1)
    with pytest.raises(ValueError):
        estimate_corrections([4], 16, 1, sampler, seed=1)
    with pytest.raises(ValueError):
        estimate_corrections([], 16, 100, sampler, seed=1)


def _bad_count_calls(value, least):
    """Each entry point called with ``value`` as its size, then as its sample count."""

    def no_draw(rng, size):
        raise AssertionError("drew before refusing its arguments")

    sampler = montecarlo.EnsembleSampler(RADEMACHER, "custom", no_draw, no_draw)
    if least == 1:
        yield lambda: sample_matrix(value, sampler, 0)
        yield lambda: estimate_corrections([2], value, 4, sampler, 0)
        yield lambda: richardson_corrections([2], value, sampler, 4, 0)
    else:
        yield lambda: estimate_corrections([2], 4, value, sampler, 0)
        yield lambda: richardson_corrections([2], 4, sampler, value, 0)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "4", 0, -1], ids=repr)
@pytest.mark.parametrize("name,least", [("matrix size", 1), ("samples", 2)])
def test_monte_carlo_refuses_non_int_sizes_and_sample_counts(name, least, value):
    for call in _bad_count_calls(value, least):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{name} must be an int >= {least}, got {value!r}"


def test_richardson_cancels_finite_size_bias():
    sampler, model = SAMPLERS["goe"]
    (rich,) = richardson_corrections([4], 32, sampler, 2000, seed=20260810)
    assert rich.reference == 5.0
    assert abs(rich.point - 5.0) <= 4 * rich.stderr
    # the combined standard error dominates each single-size one
    (single,) = estimate_corrections([4], 64, 2000, sampler, seed=20260810)
    assert rich.stderr >= single.stderr


def test_richardson_error_bars_match_the_spread_across_seeds():
    # over 40 independent streams, the variance of each k's Richardson point
    # against its mean squared reported stderr: for honest error bars the ratio
    # is about chi-square(39) / 39, so it lies within that law's 0.1% and 99.9%
    # points.  Halving the weight of the 2n error (hypot(se_2n, se_n)) reads
    # about 2.5; the seeds were chosen once and are not tuned.
    sampler, _ = SAMPLERS["goe"]
    runs = [richardson_corrections([2, 4, 6], 16, sampler, 200, seed) for seed in range(1, 41)]
    for j, k in enumerate([2, 4, 6]):
        points = np.array([run[j].point for run in runs])
        stderrs = np.array([run[j].stderr for run in runs])
        ratio = points.var(ddof=1) / np.mean(stderrs**2)
        assert 0.44 <= ratio <= 1.85, (k, ratio)


def test_richardson_replay_is_bit_identical():
    sampler, _ = SAMPLERS["gue"]
    (a,) = richardson_corrections([4], 16, sampler, 300, seed=77)
    (b,) = richardson_corrections([4], 16, sampler, 300, seed=77)
    assert (a.point, a.stderr, a.reference) == (b.point, b.stderr, b.reference)


def test_odd_moments_stay_centered():
    # for symmetric entries the odd trace moments have mean exactly zero;
    # n^{3/2} m_k stays bounded, checked as a 4-standard-error z-test
    for name in ("goe", "rademacher", "gue"):
        sampler, _ = SAMPLERS[name]
        for n in (32, 64, 128):
            rng_children = np.random.SeedSequence((424242, n)).spawn(400)
            values = []
            for child in rng_children:
                x = sample_matrix(n, sampler, child)
                m3 = empirical_moments(x, 3)[2]
                values.append(n**1.5 * m3)
            values = np.asarray(values)
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean()) <= 4 * se


# -- sampler streams and custom samplers -------------------------------------------

# SHA-256 of sample_matrix(n, sampler, 20261018).tobytes(), computed before the
# matrix build was rewritten: the dense stream and its rounding are pinned
MATRIX_DIGESTS = {
    ("goe", 1): "0ae7ed074ae9beb78bf11444e5559080fb60b462dea8cab314630cdca9cababd",
    ("goe", 2): "31289615a7446af77024e701887c9b3bb8415ec43cb592d2cc084fcb1c5cff76",
    ("goe", 17): "b5d3b3802b7f5ea526ee790c9e3add6efb9316a9cdc500a949a12e7c85bd4d2e",
    ("goe", 128): "53fbf05a73600fe3387279748423a9ada3a1a03664ceaa245f6c1de713e660d3",
    ("gue", 1): "2f6e02003b015c8bf709aa9bad7b6bcf43ba439035c723d34474c087f556e657",
    ("gue", 2): "fd0369f3192a9252c73a55ea22c5c8ab780770db8be5b4e92ccf7264b80dddf6",
    ("gue", 17): "fedf2ace3c62a5b2563cfe2d546ce6ecc598de521ebc2313cc44cbbe26966187",
    ("gue", 128): "e154bc578553aa4771c80d74681a0ddbc4f06940fe39ea3b3c4fc417f9271b6b",
    ("rademacher", 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("rademacher", 2): "701d8abe4f930906dc0c0b025ea8220f9ba3b981e7a4e31eabe738e3a6696a61",
    ("rademacher", 17): "e57e862f25c9939fabf18d226a6cbcf7c769cafca2867318ae5ee228a23d7dcc",
    ("rademacher", 128): "0029a1e041b64530522ebe2e9a5c273cb70f04501aec919098dd96d9aca42e61",
}


@pytest.mark.parametrize("name,n", list(MATRIX_DIGESTS))
def test_sample_matrix_bytes_are_pinned(name, n):
    x = sample_matrix(n, SAMPLERS[name][0], 20261018)
    assert hashlib.sha256(x.tobytes()).hexdigest() == MATRIX_DIGESTS[(name, n)]


def _scatter_build(n, sampler, rng):
    """The dense build before the gather: zero fill, scatter, mirror scatter."""
    dtype = sampler.dtype
    scale = montecarlo._scale(sampler, n)
    w = np.zeros(n * n, dtype=dtype)
    if n > 1:
        i, j = np.triu_indices(n, 1)
        off = np.asarray(sampler.offdiag(rng, i.size), dtype=dtype) / scale
        w[i * n + j] = off
        w[j * n + i] = np.conj(off)
    w[:: n + 1] = np.asarray(sampler.diag(rng, n), dtype=dtype) / scale
    return w.reshape(n, n)


def _dense_samplers():
    # draws of another dtype than the matrix are divided as float64 or complex128
    int_signs = lambda rng, size: 2 * rng.integers(0, 2, size) - 1  # noqa: E731
    return {name: SAMPLERS[name][0] for name in SAMPLERS} | {
        "complex custom": custom_sampler(GUE, _complex_normal, _normal),
        "float32 custom": custom_sampler(
            GOE,
            lambda rng, size: rng.standard_normal(size, dtype=np.float32),
            lambda rng, size: math.sqrt(2.0) * rng.standard_normal(size, dtype=np.float32),
        ),
        "int custom": custom_sampler(RADEMACHER, int_signs, int_signs),
    }


@pytest.mark.parametrize(
    "name", ["goe", "gue", "rademacher", "complex custom", "float32 custom", "int custom"]
)
def test_gathered_build_equals_scatter_build_bit_for_bit(name):
    sampler = _dense_samplers()[name]
    for n in (1, 2, 3, 17, 64, 129):
        for seed in (0, 7, 20261018):
            got = sample_matrix(n, sampler, seed)
            want = _scatter_build(n, sampler, np.random.default_rng(seed))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # values and sign bits of zeros


def test_one_by_one_build_never_draws_offdiagonal_entries():
    calls = {"offdiag": 0, "diag": 0}

    def counted(kind):
        def draw(rng, size):
            calls[kind] += 1
            return 2.0 * rng.integers(0, 2, size) - 1.0

        return draw

    sampler = montecarlo.EnsembleSampler(
        params=RADEMACHER, preset="custom", offdiag=counted("offdiag"), diag=counted("diag")
    )
    x = sample_matrix(1, sampler, 3)
    assert calls == {"offdiag": 0, "diag": 1} and abs(x[0, 0]) == 1.0
    sample_matrix(2, sampler, 3)
    assert calls == {"offdiag": 1, "diag": 2}


def test_int32_sign_draws_equal_int64_draws_and_leave_the_same_state():
    signs = rademacher_sampler().offdiag
    for size in (0, 1, 5, 8128, 32640):
        ours, theirs = np.random.default_rng(size), np.random.default_rng(size)
        got = signs(ours, size)
        want = 2.0 * theirs.integers(0, 2, size) - 1.0
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert ours.random(4).tobytes() == theirs.random(4).tobytes()


@pytest.mark.parametrize("conjugate", [False, True])
def test_gather_index_is_read_only(conjugate):
    index = montecarlo._gather_index(5, conjugate)
    assert index.dtype == np.intp and not index.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 1


def test_custom_sampler_accepts_matching_generators():
    gaussian = custom_sampler(
        GOE,
        lambda rng, size: rng.standard_normal(size),
        lambda rng, size: math.sqrt(2.0) * rng.standard_normal(size),
    )
    assert gaussian.preset == "custom" and gaussian.tridiagonal is None
    signs = lambda rng, size: 2.0 * rng.integers(0, 2, size) - 1.0  # noqa: E731
    custom_sampler(RADEMACHER, signs, signs)  # zero-variance moments: float slack


def _normal(rng, size):
    return rng.standard_normal(size)


def _complex_normal(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


@pytest.mark.parametrize(
    "params,offdiag,moment",
    [
        # unit-variance entries claimed to have variance 2
        (EnsembleParams(1, 2, 2, 12), _normal, r"E\|w\|\^2 claimed 2\.0"),
        # complex entries claimed real, and real entries claimed complex
        (EnsembleParams(1, 1, 1, 2), _complex_normal, r"E w\^2 \(real part\) claimed 1\.0"),
        (EnsembleParams(0, 1, 1, 3), _normal, r"E w\^2 \(real part\) claimed 0\.0"),
    ],
)
def test_custom_sampler_rejects_false_parameters(params, offdiag, moment):
    with pytest.raises(ValueError, match=moment + r", pilot of \d+ draws gives z = "):
        custom_sampler(params, offdiag, _normal)


# -- half-power and banded traces ---------------------------------------------------


def _product_chain_moments(x, kmax):
    """trace(X^j)/n for j = 1..kmax by the full chain of products."""
    n = x.shape[0]
    out, power = [], x
    for j in range(1, kmax + 1):
        out.append(float(np.trace(power).real) / n)
        power = power @ x
    return out


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_half_power_moments_match_product_chain(name):
    for n, seed in ((1, 4), (2, 5), (24, 6), (64, 7)):
        x = sample_matrix(n, SAMPLERS[name][0], seed)
        want = _product_chain_moments(x, 11)
        got = empirical_moments(x, 11)
        scale = max(abs(v) for v in want)
        assert all(abs(g - w) <= 1e-12 * scale for g, w in zip(got, want))


# -- dense power plans and their buffers ---------------------------------------------


def _plan_cases():
    for kmax in range(2, montecarlo.MAX_KMAX + 1):
        # the even indices mc asks for, and every index empirical_moments asks for
        yield kmax, tuple(range(2, kmax + 1, 2))
        yield kmax, tuple(range(2, kmax + 1))


@pytest.mark.parametrize("kmax,ks", list(_plan_cases()))
def test_power_plan_forms_each_power_once_from_formed_ones(kmax, ks):
    plan = montecarlo._power_plan(ks)
    formed = {1}
    for c, a, b in plan.products:
        assert a + b == c and a in formed and b in formed
        assert c not in formed  # a fresh buffer: never one of its own operands
        formed.add(c)
    assert len(plan.pairs) == len(ks)
    for k, (a, b) in zip(ks, plan.pairs):
        assert a + b == k and a in formed and b in formed
    assert len(plan.products) <= -(-kmax // 2) - 1  # the half-power chain
    if kmax == 10:
        assert len(plan.products) == 3


def test_power_plan_rejects_first_powers():
    with pytest.raises(ValueError, match="start at k = 2"):
        montecarlo._power_plan((1, 2))


def _complex_dense_sampler():
    return custom_sampler(GUE, _complex_normal, _normal)


@pytest.mark.parametrize(
    "make", [rademacher_sampler, _complex_dense_sampler], ids=["real", "complex"]
)
def test_block_traces_match_each_sample_alone(make):
    # a block reuses its power buffers: no sample may see the one before it
    sampler = make()
    kmax, n, count = 11, 9, 5
    ks = list(range(2, kmax + 1))
    got = montecarlo._sample_traces(ks, n, count, sampler, 606)
    assert got.shape == (len(ks), count)
    rng = montecarlo._block_rng(606, n, 0)
    scale = montecarlo._scale(sampler, n)
    for s in range(count):
        if sampler.complex_entries:
            x = sample_matrix(n, sampler, rng)
            assert list(got[:, s] / n) == empirical_moments(x, kmax)[1:]
            continue
        # signs take the integer route, whose traces are exact: the int64 ones,
        # divided once by (sigma sqrt(n))^k = 3^k
        w, bound = montecarlo._build_sample(n, sampler, rng, 1)
        powers = [np.linalg.matrix_power(w.astype(np.int64), k) for k in ks]
        assert bound == 1 and scale == 3.0
        assert list(got[:, s]) == [int(np.trace(p)) / scale**k for k, p in zip(ks, powers)]
    # the even indices of mc take their own plan, with the same values
    evens = montecarlo._sample_traces(ks[::2], n, count, sampler, 606)
    assert np.allclose(evens, got[::2], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "make", [rademacher_sampler, _complex_dense_sampler], ids=["real", "complex"]
)
def test_dense_traces_leave_x_bit_for_bit_alone(make):
    # every product goes to a buffer, so a caller's X needs no copy
    n = 7
    x = sample_matrix(n, make(), 12)
    kept = x.tobytes()
    ranges = [range(2, kmax + 1, step) for kmax in range(2, 42) for step in (2, 1)]
    for ks in dict.fromkeys(tuple(r) for r in ranges):
        plan = montecarlo._power_plan(ks)
        buffers = np.empty((len(plan.products), n, n), dtype=x.dtype)
        montecarlo._dense_traces(x, plan, buffers, np.vdot, 0, 1.0)
        assert x.tobytes() == kept, ks


@pytest.mark.parametrize("name", ["goe", "gue"])
def test_dense_traces_match_eigenvalue_power_sums(name):
    kmax = montecarlo.MAX_KMAX
    for n, seed in ((1, 40), (7, 41), (33, 42)):
        x = sample_matrix(n, SAMPLERS[name][0], seed)
        eigs = np.linalg.eigvalsh(x)
        for ks in (tuple(range(2, kmax + 1)), tuple(range(2, kmax + 1, 2))):
            plan = montecarlo._power_plan(ks)
            buffers = np.empty((len(plan.products), n, n), dtype=x.dtype)
            got = montecarlo._dense_traces(x, plan, buffers, np.vdot, 0, 1.0)
            want = [float(np.sum(eigs**k)) for k in ks]
            for k, g, w in zip(ks, got, want):
                # odd power sums nearly cancel: measure them against sum |lambda|^k
                assert abs(g - w) <= 1e-10 * float(np.sum(np.abs(eigs) ** k)), (n, k)


def test_dense_block_makes_one_matmul_per_planned_product(monkeypatch):
    # the guard against a fourth product at kmax 10: count every np.matmul, and
    # check that none writes into one of its own operands
    calls = []
    matmul = np.matmul

    def counting(a, b, *, out):
        assert not np.shares_memory(out, a) and not np.shares_memory(out, b)
        calls.append(out.shape)
        return matmul(a, b, out=out)

    ks, n, count = [2, 4, 6, 8, 10], 16, 7
    sampler = rademacher_sampler()
    want = montecarlo._sample_traces(ks, n, count, sampler, 5)
    monkeypatch.setattr(np, "matmul", counting)
    got = montecarlo._sample_traces(ks, n, count, sampler, 5)
    plan = montecarlo._power_plan(tuple(ks))
    assert len(plan.products) == 3
    assert len(calls) == len(plan.products) * count
    assert set(calls) == {(n, n)}
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 9, 64, 128])
def test_integer_route_traces_equal_int64_traces(n):
    # every partial sum stays below 2^53 for random signs at these sizes, so the
    # undivided traces (scale 1) are exact whichever products ran in float32
    sampler, ks = rademacher_sampler(), tuple(range(2, 11))
    plan = montecarlo._power_plan(ks)
    limit = montecarlo._integer_limit(n, plan)
    buffers = np.empty((montecarlo._dense_rows(n, plan, float), n, n))
    rng = np.random.default_rng(n)
    for _ in range(3):
        w, bound = montecarlo._build_sample(n, sampler, rng, limit)
        assert bound == 1
        got = montecarlo._dense_traces(w, plan, buffers, np.vdot, bound, 1.0)
        power, want = w.astype(np.int64), []
        for k in range(2, ks[-1] + 1):
            power = power @ w.astype(np.int64)
            want.append(float(np.trace(power)))
        assert got == want


# every power plan of mc's ranges: all k and even k, kmax 3 .. MAX_KMAX
EVERY_PLAN = [
    montecarlo._power_plan(tuple(range(2, kmax + 1, step)))
    for kmax in range(3, montecarlo.MAX_KMAX + 1)
    for step in (1, 2)
]


def _integer_sample(n: int, bound: int, rng) -> np.ndarray:
    """A symmetric integer matrix with entries in -bound .. bound, one of them bound."""
    upper = np.triu(rng.integers(-bound, bound + 1, (n, n)))
    w = (upper + np.triu(upper, 1).T).astype(float)
    w[0, 0] = bound
    return w


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_integer_route_traces_equal_int_traces_over_every_plan(n, bound):
    # up to 8 products run in float32 here, against 2 at kmax 10.  Every partial
    # sum of a product forming W^c, c < k, and of the read <W^a, W^b> is at most
    # n^k B^k, so each trace whose bound float64 holds is exact; the others are
    # measured against tr |W|^k, the sum of the read's magnitudes, since odd
    # traces cancel
    rng = np.random.default_rng(100 * n + bound)
    for _ in range(2):
        w = _integer_sample(n, bound, rng)
        # Python ints: W and |W| as object arrays, whose powers never round
        entries, sizes = w.astype(int).astype(object), np.abs(w).astype(int).astype(object)
        power, magnitude, exact, scale = entries, sizes, {}, {}
        for k in range(2, montecarlo.MAX_KMAX + 1):
            power, magnitude = power @ entries, magnitude @ sizes
            exact[k], scale[k] = int(np.trace(power)), int(np.trace(magnitude))
        for plan in EVERY_PLAN:
            buffers = np.empty((montecarlo._dense_rows(n, plan, float), n, n))
            got = montecarlo._dense_traces(w, plan, buffers, np.vdot, bound, 1.0)
            for (a, b), g in zip(plan.pairs, got):
                k = a + b
                if (n * bound) ** k <= 2**53:
                    assert g == exact[k], (plan.pairs, k)
                else:
                    assert abs(g - exact[k]) <= 1e-14 * scale[k], (plan.pairs, k)


class _Recorder:
    """Byte ranges each step of ``_dense_traces`` reads and writes, in order.

    Stands in for np.matmul and np.copyto, and for the trace read, without
    computing: the layout alone is checked, at any size.
    """

    def __init__(self):
        self.steps = []

    @staticmethod
    def span(array: np.ndarray) -> tuple[int, int]:
        assert array.flags.c_contiguous
        start = array.__array_interface__["data"][0]
        return start, start + array.nbytes

    def matmul(self, a, b, *, out):
        self.steps.append(([self.span(a), self.span(b)], self.span(out)))
        return out

    def copyto(self, dst, src, casting="same_kind"):
        self.steps.append(([self.span(src)], self.span(dst)))

    def dot(self, a, b) -> float:
        self.steps.append(([self.span(a), self.span(b)], None))
        return 0.0


def _overlap(one: tuple[int, int], other: tuple[int, int]) -> bool:
    return one[0] < other[1] and other[0] < one[1]


def _layout_faults(recorder: _Recorder, sample: np.ndarray) -> list[str]:
    """Each step that reads a range overwritten since the step that wrote it."""
    faults, written = [], {_Recorder.span(sample): -1}
    for t, (reads, write) in enumerate(recorder.steps):
        for read in reads:
            if read not in written:
                faults.append(f"step {t} reads {read}, never written")
            elif any(_overlap(read, w) for _, w in recorder.steps[written[read] + 1 : t] if w):
                faults.append(f"step {t} reads a range overwritten since step {written[read]}")
        if write is not None:
            if any(_overlap(write, read) for read in reads):
                faults.append(f"step {t} writes into its own operand")
            written[write] = t
    return faults


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 128, 256, 1024])
def test_integer_route_layout_fits_its_rows_and_overwrites_nothing_still_read(n, monkeypatch):
    # the layout of _narrow, checked from the byte ranges each step touches:
    # every one lies in the _dense_rows buffers, and no float32 copy or power
    # is overwritten before its last read
    recorder = _Recorder()
    monkeypatch.setattr(np, "matmul", recorder.matmul)
    monkeypatch.setattr(np, "copyto", recorder.copyto)
    sample = np.zeros((n, n))
    for plan in EVERY_PLAN:
        rows = montecarlo._dense_rows(n, plan, float)
        buffers = np.empty((rows + 2, n, n))  # untouched: nothing is computed
        recorder.steps.clear()
        montecarlo._dense_traces(sample, plan, buffers, recorder.dot, 1, 1.0)
        start, stop = _Recorder.span(buffers)
        touched = [span for reads, write in recorder.steps for span in (*reads, write) if span]
        highest = max((end for begin, end in touched if start <= begin < stop), default=start)
        assert highest <= start + rows * n * n * 8, plan.pairs
        assert _layout_faults(recorder, sample) == [], plan.pairs


def test_dense_rows_at_the_largest_run_are_the_plan_products():
    n = montecarlo.MAX_MATRIX_SIZE
    for step in (1, 2):
        plan = montecarlo._power_plan(tuple(range(2, montecarlo.MAX_KMAX + 1, step)))
        assert montecarlo._dense_rows(n, plan, float) == len(plan.products)


def test_a_larger_entry_bound_moves_products_back_to_float64():
    # entries 2 or 3 at n = 128: B = 3 puts W^4 (entries near 1.3e8) in float64,
    # where B = 1 would have rounded it in float32
    n, ks = 128, (2, 4, 6, 8, 10)
    plan = montecarlo._power_plan(ks)
    two_or_three = lambda rng, size: 2.0 + rng.integers(0, 2, size)  # noqa: E731
    sampler = montecarlo.EnsembleSampler(RADEMACHER, "custom", two_or_three, two_or_three)
    w, bound = montecarlo._build_sample(n, sampler, np.random.default_rng(5), 362)
    assert bound == 3
    assert montecarlo._narrow(n, plan, bound) == 1
    buffers = np.empty((montecarlo._dense_rows(n, plan, float), n, n))
    got = montecarlo._dense_traces(w, plan, buffers, np.vdot, bound, 1.0)
    want = [np.trace(np.linalg.matrix_power(w, k)) for k in ks]
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def all_ones_misses() -> list[tuple[int, int]]:
    """(n, k), n = 256 and 257, even k = 2..10, where the integer route misses tr J^k = n^k.

    The all-ones J is the bound's worst case: every entry of J^c, and every
    partial sum forming it, is at most n^(c-1).  J^4 runs in float32 at
    n = 256 (256^3 = 2^24) and in float64 at 257, where a float32 product
    would round its entries 257^3 > 2^24.
    """
    ks = (2, 4, 6, 8, 10)
    plan = montecarlo._power_plan(ks)
    misses = []
    for n in (256, 257):
        buffers = np.empty((montecarlo._dense_rows(n, plan, float), n, n))
        got = montecarlo._dense_traces(np.ones((n, n)), plan, buffers, np.vdot, 1, 1.0)
        # n^k itself where float64 holds it, else within rounding of the float64 reads
        misses += [(n, k) for k, g in zip(ks, got) if abs(g - n**k) > 1e-14 * n**k]
    return misses


def test_all_ones_traces_are_exact_on_both_sides_of_two_to_the_24():
    plan = montecarlo._power_plan((2, 4, 6, 8, 10))
    routes = {n: montecarlo._narrow(n, plan, 1) for n in (256, 257)}
    assert routes == {256: 2, 257: 1}
    assert all_ones_misses() == []


def _alternating_sampler():
    """Rademacher signs, the off-diagonal of every second sample scaled to +-3/4."""
    signs = rademacher_sampler().offdiag
    drawn = [0]

    def offdiag(rng, size):
        return signs(rng, size) * (0.75 if drawn[0] % 2 else 1.0)

    def diag(rng, size):
        drawn[0] += 1
        return signs(rng, size)

    return montecarlo.EnsembleSampler(RADEMACHER, "custom", offdiag, diag)


def test_samples_alternating_integer_and_other_entries_take_their_own_routes(monkeypatch):
    # one share's buffers serve both routes in turn: the integer route's float32
    # copies live in the bytes of the buffer X^8 is formed in
    ks, n, samples, seed = [2, 4, 6, 8, 10], 12, 70, 21
    want = _one_at_a_time(ks, n, samples, _alternating_sampler(), seed)
    build = montecarlo._build_sample
    bounds = []

    def recording(*args):
        sample, bound = build(*args)
        bounds.append(bound)
        return sample, bound

    monkeypatch.setattr(montecarlo, "_build_sample", recording)
    got = montecarlo._sample_traces(ks, n, samples, _alternating_sampler(), seed)
    assert bounds == [1, 0] * (samples // 2)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _dense_tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_banded_traces_match_dense_powers():
    rng = np.random.default_rng(31)
    ks = list(range(2, 12))
    for n in (1, 2, 3, 5, 16):
        diag = rng.standard_normal((7, n))
        off = rng.standard_normal((7, n - 1))
        got = np.array(montecarlo._tridiagonal_traces(diag, off, ks))
        assert got.shape == (len(ks), 7)
        for s in range(7):
            t = _dense_tridiagonal(diag[s], off[s])
            want = [np.trace(np.linalg.matrix_power(t, k)) for k in ks]
            assert np.allclose(got[:, s], want, rtol=1e-12, atol=1e-12)
        # a subset of indices, as estimate_corrections asks for them
        assert np.array_equal(
            np.array(montecarlo._tridiagonal_traces(diag, off, [4, 10])), got[[2, 8]]
        )


def test_tridiagonal_models_match_exact_moments():
    # the tridiagonal models carry the finite-n moments of the dense ensembles
    for name in ("goe", "gue"):
        sampler, model = SAMPLERS[name]
        assert sampler.tridiagonal is not None
        for n in (2, 3, 17):
            for est in estimate_corrections([2, 4, 6], n, 4000, sampler, seed=4242):
                exact = _exact_correction(est.k, n, model)
                assert abs(est.point - exact) <= 4 * est.stderr
    assert SAMPLERS["rademacher"][0].tridiagonal is None


def _per_block_traces(ks, n, samples, sampler, seed):
    """``_sample_traces`` of a banded sampler, one standalone band call per block."""
    scale = montecarlo._scale(sampler, n)
    blocks = []
    for block, start in enumerate(range(0, samples, 64)):
        count = min(64, samples - start)
        diag, off = sampler.tridiagonal(montecarlo._block_rng(seed, n, block), n, 64)
        traces = montecarlo._tridiagonal_traces(diag[:count] / scale, off[:count] / scale, ks)
        blocks.append(np.array(traces))
    return np.concatenate(blocks, axis=1)


@pytest.mark.parametrize("name", ["goe", "gue"])
@pytest.mark.parametrize(
    "kmax,n,samples",
    [(2, 1, 65), (32, 1, 3), (2, 2, 130), (32, 2, 64), (6, 17, 63), (32, 40, 129), (10, 64, 200)],
)
def test_banded_blocks_equal_standalone_calls_byte_for_byte(name, kmax, n, samples):
    # the blocks share one set of work arrays, partial last blocks included:
    # none may carry anything into the next
    sampler = SAMPLERS[name][0]
    ks = list(range(2, kmax + 1, 2))
    got = montecarlo._sample_traces(ks, n, samples, sampler, 77)
    assert got.tobytes() == _per_block_traces(ks, n, samples, sampler, 77).tobytes()


@pytest.mark.parametrize("name", ["goe", "gue"])
def test_banded_work_arrays_are_made_once_per_size(monkeypatch, name):
    # count the arrays made outside the draws, whose generators make their own
    made, drawing = Counter(), []

    def counting(maker):
        def make(*args, **kwargs):
            if not drawing:
                made[maker.__name__] += 1
            return maker(*args, **kwargs)

        return make

    def uncounted(draw):
        def call(*args):
            drawing.append(draw)
            try:
                return draw(*args)
            finally:
                drawing.pop()

        return call

    sampler = SAMPLERS[name][0]
    sampler = replace(sampler, tridiagonal=uncounted(sampler.tridiagonal))
    monkeypatch.setattr(montecarlo, "_block_rng", uncounted(montecarlo._block_rng))
    for maker in (np.empty, np.zeros, np.ones, np.empty_like, np.zeros_like):
        monkeypatch.setattr(np, maker.__name__, counting(maker))
    counts = []
    for samples in (64, 6 * 64 + 1):  # one block, and seven with a partial last one
        made.clear()
        montecarlo._sample_traces([2, 4, 6], 16, samples, sampler, 3)
        counts.append(dict(made))
    assert counts[0] == counts[1]


# -- the banded models summed exactly -----------------------------------------------


class _LawReader:
    """A stand-in generator: ``standard_normal`` gives ones, ``chisquare`` its degrees.

    A tridiagonal sampler drawing from it returns its diagonal's standard
    deviation and sqrt(c nu_j) per off-diagonal j; the degrees nu_j it asked
    for are kept.
    """

    degrees: list[int] = []

    def standard_normal(self, size):
        return np.ones(size)

    def chisquare(self, df, size):
        self.degrees = [int(nu) for nu in df]
        assert self.degrees == list(df)
        return np.broadcast_to(np.asarray(df, dtype=float), size).copy()


def banded_laws(sampler, n):
    """(diagonal variance, degrees nu_j, scale c) of the size-n model of ``sampler``.

    The off-diagonals b_j satisfy b_j^2 ~ c chi2(nu_j), read by drawing once
    from a ``_LawReader``.
    """
    reader = _LawReader()
    diag, off = sampler.tridiagonal(reader, n, 1)
    assert np.all(diag == diag[0, 0])
    variance = Fraction(float(diag[0, 0]) ** 2).limit_denominator(1000)
    scales = {
        Fraction(float(b) ** 2 / nu).limit_denominator(1000)
        for b, nu in zip(off[0], reader.degrees)
    }
    assert len(scales) <= 1
    return variance, reader.degrees, scales.pop() if scales else Fraction(1)


def _tally_moment(tally, variance, degrees, scale) -> Fraction:
    """E of the product of the entries a path reads, ``tally`` of them per slot.

    Slot 2i is diagonal i, a Gaussian: E a^(2h) = variance^h (2h - 1)!!.  Slot
    2j + 1 is off-diagonal j: E b^(2h) = E (c chi2_nu)^h = c^h nu (nu + 2) ...
    (nu + 2h - 2).
    """
    value = Fraction(1)
    for slot, power in enumerate(tally):
        half, odd = divmod(power, 2)
        if odd:
            return Fraction(0)
        if slot % 2 == 0:
            value *= variance**half * math.prod(range(1, power, 2))
        else:
            nu = degrees[slot // 2]
            value *= scale**half * math.prod(nu + 2 * t for t in range(half))
    return value


def banded_trace_expectation(k, n, variance, degrees, scale) -> Fraction:
    """E tr T^k, summed over the closed paths of length k on 0..n-1 with steps -1, 0, +1.

    A step from i to i' reads entry T[i, i'], whose slot (see ``_tally_moment``)
    is i + i'; paths are merged by start, position and tally.
    """
    total = Fraction(0)
    for start in range(n):
        paths = Counter({(start, (0,) * (2 * n - 1)): 1})
        for _ in range(k):
            nxt = Counter()
            for (i, tally), count in paths.items():
                for j in (i - 1, i, i + 1):
                    if 0 <= j < n:
                        step = list(tally)
                        step[i + j] += 1
                        nxt[j, tuple(step)] += count
            paths = nxt
        for (end, tally), count in paths.items():
            if end == start:
                total += count * _tally_moment(tally, variance, degrees, scale)
    return total


def banded_model_misses(name) -> list[tuple[int, int]]:
    """(n, k), n = 1..6 and even k = 2..8, where E tr T^k of the banded model is not P(n).

    P is ``walk_polynomial``'s, E tr W^k of the dense ensemble, which the
    tridiagonal model shares exactly.
    """
    sampler, model = SAMPLERS[name]
    misses = []
    for n in range(1, 7):
        laws = banded_laws(sampler, n)
        for k in range(2, 9, 2):
            want = 0
            for coeff in walk_polynomial(k, model):
                want = want * n + coeff
            if banded_trace_expectation(k, n, *laws) != want:
                misses.append((n, k))
    return misses


def test_banded_laws_are_the_dumitriu_edelman_ones():
    # GOE: b_j^2 ~ chi2(n - j), diagonal variance 2; GUE: b_j^2 ~ chi2(2 (n - j)) / 2, variance 1
    assert banded_laws(SAMPLERS["goe"][0], 4) == (2, [3, 2, 1], 1)
    assert banded_laws(SAMPLERS["gue"][0], 4) == (1, [6, 4, 2], Fraction(1, 2))


@pytest.mark.parametrize("name", ["goe", "gue"])
def test_banded_models_sum_exactly_to_the_walk_polynomial(name):
    assert banded_model_misses(name) == []


def every_sign_pattern(n, unit=1) -> montecarlo.EnsembleSampler:
    """A Rademacher sampler whose successive samples are the 2^(n(n+1)/2) sign matrices.

    Sample s takes its signs from the bits of s: the upper entries from the
    low n(n-1)/2 bits, the diagonal from the next n.  ``_build_sample`` draws
    a sample's upper entries, where it has any, and then its diagonal, so the
    diagonal draw moves on to the next sample.  Entries are +-``unit``, with
    parameters to match: X is the same for any unit, and off the integers it
    takes the float route.
    """
    upper = n * (n - 1) // 2
    sample = [0]
    params = EnsembleParams(1, unit**2, unit**2, unit**4)

    def signs(first, size):
        return float(unit) * (2.0 * (sample[0] >> np.arange(first, first + size) & 1) - 1.0)

    def diag(rng, size):
        out = signs(upper, size)
        sample[0] += 1
        return out

    return montecarlo.EnsembleSampler(params, "custom", lambda rng, size: signs(0, size), diag)


def dense_sign_sum_misses(sizes, unit=1) -> list[tuple[int, int]]:
    """(n, k), even k = 2..10, where the dense estimate over every sign matrix is not exact.

    With each sign matrix drawn once, ``estimate_corrections`` reads the
    exact mean through the real build, power plan and trace reads, so its
    point must equal n (m_k(n) - Cat(k/2)) of the walk oracle.  ``unit``
    is that of ``every_sign_pattern``.
    """
    model = rademacher_model()
    misses = []
    for n in sizes:
        ks = range(2, 11, 2)
        samples = 2 ** (n * (n + 1) // 2)
        estimates = estimate_corrections(ks, n, samples, every_sign_pattern(n, unit), 0)
        for k, est in zip(ks, estimates):
            want = float(n * (exact_moment(k, n, model) - semicircle_moment(k)))
            if est.point != pytest.approx(want, rel=1e-12, abs=1e-12):
                misses.append((n, k))
    return misses


def test_dense_estimates_over_every_sign_pattern_equal_the_walk_oracle():
    # signs take the integer route; half signs the float one, to n = 4 (1,024
    # matrices) where n = 5 takes 32,768
    plan = montecarlo._power_plan((2, 4, 6, 8, 10))
    for n, unit, route in ((5, 1, 1), (4, Fraction(1, 2), 0)):
        built = montecarlo._build_sample(n, every_sign_pattern(n, unit), None, 8)
        assert built[1] == route and montecarlo._integer_limit(n, plan) >= 8
    assert dense_sign_sum_misses(range(2, 6)) == []
    assert dense_sign_sum_misses(range(2, 5), Fraction(1, 2)) == []


# the off-diagonal values of the complex exact sum: W^a conj(W)^b = i^(a - b)
QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def every_quarter_turn_matrix(n) -> montecarlo.EnsembleSampler:
    """A complex sampler whose successive samples are the 4^(n(n-1)/2) 2^n matrices
    with off-diagonal entries in {1, i, -1, -i} and diagonal entries +-1.

    Sample s takes each upper entry from two bits of s, low bits first, and
    its diagonal signs from the n bits past them, as ``every_sign_pattern``
    does with one bit an entry.
    """
    upper = n * (n - 1) // 2
    sample = [0]

    def offdiag(rng, size):
        return QUARTER_TURNS[sample[0] >> 2 * np.arange(size) & 3]

    def diag(rng, size):
        out = 2.0 * (sample[0] >> np.arange(2 * upper, 2 * upper + size) & 1) - 1.0
        sample[0] += 1
        return out

    return montecarlo.EnsembleSampler(EnsembleParams(0, 1, 1, 1), "custom", offdiag, diag)


def quarter_turn_model(max_order=10) -> MomentModel:
    """The walk model of those entries: E[W^a conj(W)^b] = 1 if a = b mod 4, else 0."""
    orders = range(max_order + 1)
    grid = [[int((a - b) % 4 == 0) for b in orders] for a in orders]
    return MomentModel(False, grid, [int(m % 2 == 0) for m in orders])


def dense_complex_sum_misses(sizes) -> list[tuple[int, int]]:
    """(n, k), even k = 2..10, where the complex dense estimate over every
    quarter-turn matrix is not the walk oracle's n (m_k(n) - Cat(k/2))."""
    model = quarter_turn_model()
    misses = []
    for n in sizes:
        ks = range(2, 11, 2)
        samples = 4 ** (n * (n - 1) // 2) * 2**n
        estimates = estimate_corrections(ks, n, samples, every_quarter_turn_matrix(n), 0)
        for k, est in zip(ks, estimates):
            want = float(n * (exact_moment(k, n, model) - semicircle_moment(k)))
            if est.point != pytest.approx(want, rel=1e-12, abs=1e-12):
                misses.append((n, k))
    return misses


def test_dense_complex_estimates_over_every_quarter_turn_matrix_equal_the_walk_oracle():
    # the complex build (its conjugating gather), power plan and trace reads, summed
    # with no sampling error; n = 4 (65,536 matrices) takes about 1.5 s, so it stays out
    assert dense_complex_sum_misses((2, 3)) == []


def test_sign_matrix_trace_sums_equal_the_walk_polynomial():
    # in integers: the sum of tr W^k over the 2^(n(n+1)/2) sign matrices W is
    # 2^(n(n+1)/2) P(n), with int64 products and no sampler involved
    model = rademacher_model()
    for n in range(1, 6):
        rows, cols = np.triu_indices(n)
        bits = np.arange(2 ** len(rows))[:, None] >> np.arange(len(rows)) & 1
        w = np.zeros((len(bits), n, n), dtype=np.int64)
        w[:, rows, cols] = w[:, cols, rows] = 2 * bits - 1
        power = w
        for k in range(2, 11):
            power = power @ w
            if k % 2 == 0:
                want = 0
                for coeff in walk_polynomial(k, model):
                    want = want * n + coeff
                assert int(np.trace(power, axis1=1, axis2=2).sum()) == len(w) * want, (n, k)


def _one_at_a_time(ks, n, samples, sampler, seed):
    """tr X^k per sample, block b from generator (seed, n, b), by dense matrix powers."""
    scale = math.sqrt(float(sampler.params.sigma2) * n)
    rows = []
    for block in range(-(-samples // 64)):
        rng = np.random.default_rng((seed, n, block))
        if sampler.tridiagonal is not None:
            diags, offs = sampler.tridiagonal(rng, n, 64)
            xs = [_dense_tridiagonal(d, o) / scale for d, o in zip(diags, offs)]
        else:
            xs = [sample_matrix(n, sampler, rng) for _ in range(min(64, samples - 64 * block))]
        rows += [[np.trace(np.linalg.matrix_power(x, k)).real for k in ks] for x in xs]
    return np.array(rows[:samples]).T


@pytest.mark.parametrize("name", list(SAMPLERS))
@pytest.mark.parametrize("samples", [1, 63, 64, 65, 130])
def test_chunk_boundaries_leave_the_stream_alone(name, samples):
    sampler = SAMPLERS[name][0]
    ks, n, seed = [2, 4, 6], 12, 90210
    want = _one_at_a_time(ks, n, samples, sampler, seed)
    got = montecarlo._sample_traces(ks, n, samples, sampler, seed)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    # a run of N samples is a prefix of a run of N + 1
    longer = montecarlo._sample_traces(ks, n, samples + 1, sampler, seed)
    assert np.array_equal(got, longer[:, :samples])
    if samples < 2:
        return
    for est, traces in zip(estimate_corrections(ks, n, samples, sampler, seed), want):
        ys = traces - n * float(semicircle_moment(est.k))
        assert est.point == pytest.approx(ys.mean(), rel=1e-9, abs=1e-9)
        assert est.stderr == pytest.approx(
            ys.std(ddof=1) / math.sqrt(samples), rel=1e-9, abs=1e-12
        )


# -- one stream per size --------------------------------------------------------------


def test_richardson_combine_needs_matching_pairs():
    sampler = SAMPLERS["goe"][0]
    low = estimate_corrections([2, 4], 8, 20, sampler, seed=1)
    with pytest.raises(ValueError, match="sizes n and 2n"):
        richardson_combine(low, low)
    high = estimate_corrections([2, 4], 16, 20, sampler, seed=1)
    assert richardson_combine(low, high) == richardson_corrections([2, 4], 8, sampler, 20, 1)


def _mc_rows(capsys, *sizes, ensemble):
    argv = ["mc", "--ensemble", ensemble, "--kmax", "4", "--samples", "40", "--seed", "8",
            "--format", "json"]
    for n in sizes:
        argv += ["--n", str(n)]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["rows"]


@pytest.mark.parametrize("ensemble", ["goe", "rademacher"])
def test_mc_sizes_share_streams_without_changing_rows(capsys, ensemble):
    both = _mc_rows(capsys, 32, 64, ensemble=ensemble)
    singles = _mc_rows(capsys, 32, ensemble=ensemble) + _mc_rows(capsys, 64, ensemble=ensemble)
    assert both == singles
    sampler = SAMPLERS[ensemble][0]
    records = []
    for n in (32, 64):
        records += estimate_corrections([2, 4], n, 40, sampler, 8)
        records += richardson_corrections([2, 4], n, sampler, 40, 8)
    assert [(row["k"], row["n"], row["point"], row["stderr"]) for row in both] == [
        (rec.k, rec.n, rec.point, rec.stderr) for rec in records
    ]


def test_gather_index_cache_keeps_few_sizes():
    # one cached size holds 8 n^2 bytes, so a run over many sizes must not keep them all
    sampler = rademacher_sampler()
    for n in range(100, 110):
        sample_matrix(n, sampler, 0)
    assert montecarlo._gather_index.cache_info().currsize <= 2


# -- dense blocks on threads ----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rademacher_signs_equal_the_two_temporary_form(seed):
    signs = rademacher_sampler().offdiag
    for size in (1, 17, 8128):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want = 2.0 * ref.integers(0, 2, size, dtype=np.int32) - 1.0
        got = signs(rng, size)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [32, 128])
def test_threaded_dense_blocks_equal_one_thread(monkeypatch, n):
    # one thread at n = 128 reads each trace pinned and forms products on
    # BLAS's threads; more threads pin BLAS throughout: the values agree
    sampler, ks, samples, seed = rademacher_sampler(), [2, 4, 6, 8, 10], 4 * 64 + 17, 77
    monkeypatch.setattr(montecarlo, "_block_workers", lambda *args: 1)
    want = montecarlo._sample_traces(ks, n, samples, sampler, seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        for workers in (2, 3):
            monkeypatch.setattr(montecarlo, "_block_workers", lambda *args, w=workers: w)
            got = montecarlo._sample_traces(ks, n, samples, sampler, seed)
            assert np.array_equal(got, want), workers
    finally:
        sys.setswitchinterval(interval)


class _BlockFailure(Exception):
    pass


def _failing_sampler(errors):
    """Rademacher signs, raising errors[block] in each block of the dict."""
    signs = rademacher_sampler().offdiag

    def offdiag(rng, size):
        block = rng.bit_generator.seed_seq.entropy[2]
        if block in errors:
            raise errors[block]
        return signs(rng, size)

    return montecarlo.EnsembleSampler(RADEMACHER, "custom", offdiag, signs)


@pytest.fixture
def two_blas_threads():
    """Each loaded OpenBLAS at two threads for the test, then as it was."""
    libs = montecarlo._blas_threads()
    before = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(2)
    yield libs
    for (_, set_), count in zip(libs, before):
        set_(count)


def test_a_failing_block_raises_its_own_exception_once_threads_stop(
    monkeypatch, two_blas_threads
):
    threads = threading.active_count()
    monkeypatch.setattr(montecarlo, "_block_workers", lambda *args: 3)
    errors = {2: _BlockFailure("block 2"), 4: _BlockFailure("block 4")}
    for _ in range(3):
        # blocks 2 and 4 both fail, on different threads: the lower one is raised
        with pytest.raises(_BlockFailure) as info:
            montecarlo._sample_traces([2, 4], 8, 20 * 64, _failing_sampler(errors), 5)
        assert info.value is errors[2]
        assert threading.active_count() == threads
        assert [get() for get, _ in two_blas_threads] == [2] * len(two_blas_threads)


def test_an_interrupted_join_stops_the_other_threads(monkeypatch, two_blas_threads):
    # Ctrl-C while the calling thread waits for the others, after its own last
    # block: each other share stops at its next block, and BLAS is restored
    threads = threading.active_count()
    monkeypatch.setattr(montecarlo, "_block_workers", lambda *args: 2)
    started = []
    block_rng = montecarlo._block_rng

    def recording(seed, n, block):
        started.append(block)
        return block_rng(seed, n, block)

    signs = rademacher_sampler().offdiag

    def slow_off_main(rng, size):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.002)  # 0.13 s a block, 1.3 s for the ten odd blocks
        return signs(rng, size)

    join = threading.Thread.join
    interrupted = []

    def join_once_interrupted(thread, timeout=None):
        if not interrupted:
            interrupted.append(thread)
            raise KeyboardInterrupt
        return join(thread, timeout)

    monkeypatch.setattr(montecarlo, "_block_rng", recording)
    monkeypatch.setattr(threading.Thread, "join", join_once_interrupted)
    sampler = montecarlo.EnsembleSampler(RADEMACHER, "custom", slow_off_main, signs)
    with pytest.raises(KeyboardInterrupt):
        montecarlo._sample_traces([2, 4], 8, 20 * 64, sampler, 5)
    assert interrupted
    assert set(range(0, 20, 2)) <= set(started)  # the calling thread's share ran out
    assert len([block for block in started if block % 2]) < 10
    assert threading.active_count() == threads
    assert [get() for get, _ in two_blas_threads] == [2] * len(two_blas_threads)


class _FakeBlas:
    """A thread count with get and set, as _blas_threads finds them."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


@pytest.mark.parametrize("whole", [True, False])
def test_the_pin_sets_every_loaded_blas(monkeypatch, whole):
    libs = [_FakeBlas(2), _FakeBlas(4)]
    monkeypatch.setattr(montecarlo, "_blas_threads", lambda: [(b.get, b.set) for b in libs])
    seen = []
    vdot = np.vdot

    def recording(a, b):
        seen.append([b_.count for b_ in libs])
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", recording)
    x = np.eye(3)
    with montecarlo._pinned_blas(whole) as dot:
        assert [b.count for b in libs] == ([1, 1] if whole else [2, 4])
        assert dot(x, x) == 3.0
        assert [b.count for b in libs] == ([1, 1] if whole else [2, 4])
    assert seen == [[1, 1]]  # the dot product ran on one thread of each
    assert [b.count for b in libs] == [2, 4]


def _array_bound(n, plan, dtype, trace_bytes, workers):
    """The bytes _block_workers budgets: traces, index cache, one share per thread."""
    return trace_bytes + 16 * n * n + workers * montecarlo._dense_share_bytes(n, plan, dtype)


def test_dense_threads_are_capped_by_the_array_budget():
    # at the bounds of a command-line run
    n, kmax = montecarlo.MAX_MATRIX_SIZE, montecarlo.MAX_KMAX
    plan = montecarlo._power_plan(tuple(range(2, kmax + 1, 2)))
    trace_bytes = 8 * (kmax // 2) * montecarlo.MAX_SAMPLES
    caps = {}
    for dtype in (float, complex):
        cap = montecarlo._thread_cap(n, plan, dtype, trace_bytes)
        assert _array_bound(n, plan, dtype, trace_bytes, cap) <= 512 << 20
        assert _array_bound(n, plan, dtype, trace_bytes, cap + 1) > 512 << 20
        caps[dtype] = cap
    assert caps == {float: 5, complex: 2}  # as the comment above MAX_KMAX says


def test_dense_runs_thread_only_where_threads_fill_the_cores(monkeypatch):
    monkeypatch.setattr(montecarlo, "_blas_threads", lambda: ((None, None),))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    plan = montecarlo._power_plan(tuple(range(2, montecarlo.MAX_KMAX + 1, 2)))
    trace_bytes = 8 * 16 * 1000

    def workers(blocks, n, dtype=float, trace_bytes=trace_bytes):
        return montecarlo._block_workers(blocks, n, plan, dtype, trace_bytes)

    assert workers(16, 128) == workers(4, 1024) == 4
    assert workers(16, 127) == 1  # small matrices: the threads wait on the interpreter
    assert workers(3, 256) == 1  # fewer blocks than cores: BLAS's own threads
    assert workers(16, 1024, complex, 122 << 20) == 1  # two threads' memory only
    monkeypatch.setattr(montecarlo, "_blas_threads", lambda: ())
    assert workers(16, 256) == 1  # no count to pin
    monkeypatch.setattr(montecarlo, "_blas_threads", lambda: ((None, None),))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert workers(16, 256) == 1


@pytest.mark.parametrize(
    "make", [rademacher_sampler, _complex_dense_sampler], ids=["real", "complex"]
)
def test_threaded_dense_run_stays_within_its_array_bound(monkeypatch, make):
    # tracemalloc counts numpy's arrays on every thread
    sampler, n, samples, workers = make(), 96, 3 * 64, 3
    ks = list(range(2, montecarlo.MAX_KMAX + 1, 2))
    plan = montecarlo._power_plan(tuple(ks))
    monkeypatch.setattr(montecarlo, "_block_workers", lambda *args: workers)
    montecarlo._sample_traces(ks, n, samples, sampler, 3)  # one-time costs are not counted
    montecarlo._gather_index.cache_clear()
    tracemalloc.start()
    try:
        montecarlo._sample_traces(ks, n, samples, sampler, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _array_bound(n, plan, sampler.dtype, 8 * len(ks) * samples, workers)
