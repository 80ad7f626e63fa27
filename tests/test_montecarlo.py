"""Sampling, trace moments, correction estimates. Everything is seeded."""

import math

import numpy as np
import pytest

from wignerexp import (
    GOE,
    GUE,
    RADEMACHER,
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
    richardson_corrections,
    sample_matrix,
    semicircle_moment,
)

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


def test_empirical_moments_guards():
    with pytest.raises(ValueError):
        empirical_moments(np.eye(2), 0)


# -- correction estimates ------------------------------------------------------------


def _exact_correction(k, n, model):
    return float(n * (exact_moment(k, n, model) - semicircle_moment(k)))


def test_estimate_matches_exact_finite_size_value():
    cases = [
        ("gue", 4, 64, 2000),
        ("goe", 2, 32, 2000),
        ("goe", 4, 64, 2000),
        ("rademacher", 2, 48, 500),
    ]
    for name, k, n, samples in cases:
        sampler, model = SAMPLERS[name]
        (est,) = estimate_corrections([k], n, samples, sampler, seed=20260810)
        exact = _exact_correction(k, n, model)
        assert est.reference == float(nu_moment(k, sampler.params))
        if est.stderr == 0.0:
            # deterministic trace up to float rounding (+-1 entries, k = 2)
            assert abs(est.point - exact) <= 1e-11
        else:
            assert abs(est.point - exact) <= 4 * est.stderr


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


def test_richardson_cancels_finite_size_bias():
    sampler, model = SAMPLERS["goe"]
    (rich,) = richardson_corrections([4], 32, sampler, 2000, seed=20260810)
    assert rich.reference == 5.0
    assert abs(rich.point - 5.0) <= 4 * rich.stderr
    # the combined standard error dominates each single-size one
    (single,) = estimate_corrections([4], 64, 2000, sampler, seed=20260810)
    assert rich.stderr >= single.stderr


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
