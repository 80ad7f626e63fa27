"""Planted faults: a cross-route check catches each one.

Each test plants one wrong fact by replacing a module attribute, runs the
identity suite of ``wignerexp check`` or a Monte Carlo test's own check
against the exact walk oracle, and asserts exactly what fails.  A golden
digest would change as well, but it cannot say which route disagrees, so no
test here leans on one.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import test_montecarlo
import test_walks
from test_montecarlo import (
    FINITE_SIZE_CASES,
    banded_model_misses,
    dense_sign_sum_misses,
    estimate_misses_exact_value,
)

from wignerexp import cli, montecarlo, series, walks
from wignerexp import combinatorics as comb


def _failing_lines() -> list[str]:
    return [name for name, ok, _ in cli.identity_suite(40, comb.GOE, 6) if not ok]


def test_the_suite_passes_with_nothing_planted():
    assert _failing_lines() == []


def test_a_wrong_nu_constant_fails_every_line_that_reads_nu(monkeypatch):
    right = comb.nu_coefficients

    def shifted(params):
        c4, c2, c0 = right(params)
        return c4, c2, c0 + 1

    monkeypatch.setattr(comb, "nu_coefficients", shifted)
    assert _failing_lines() == [
        "coefficients: series = family sum = measure moment",
        "gue: correction vanishes identically",
        "goe: moments match (4^l - C(2l, l)) / 2",
        "walks: exact polynomial reads sc_k and nu_k",
    ]


def test_a_wrong_fourth_moment_fails_only_the_walk_polynomial(monkeypatch):
    # E W^4 = 4 where a Gaussian has 3: the walks see it, the closed forms do not
    def heavy_goe(max_order: int = 16) -> walks.MomentModel:
        model = walks.goe_model(max_order)
        moments = list(model.offdiag_moments)
        moments[4] = Fraction(4)
        return replace(model, offdiag_moments=tuple(moments))

    monkeypatch.setitem(walks.PRESET_MODELS, "goe", heavy_goe)
    suite = cli.identity_suite(40, comb.GOE, 6)
    failed = [(name, detail) for name, ok, detail in suite if not ok]
    assert [name for name, _ in failed] == ["walks: exact polynomial reads sc_k and nu_k"]
    assert failed[0][1].startswith("goe k=4:")


def test_a_wrong_catalan_coefficient_fails_the_series_lines(monkeypatch):
    # T + x^7, as check --inject-fault plants it; _blocks keeps the last order's T
    right = series.catalan_series

    def shifted(order):
        return right(order) + series.TruncatedRationalSeries.monomial(7, order)

    series._blocks.cache_clear()
    monkeypatch.setattr(series, "catalan_series", shifted)
    try:
        failed = _failing_lines()
    finally:
        monkeypatch.undo()
        series._blocks.cache_clear()
    names = [name for name, _, _ in series.catalan_identities(right(40))]
    assert len(names) == 5
    assert failed == [
        *(f"series: {name}" for name in names),
        "coefficients: series = family sum = measure moment",
    ]


def _one_degree_too_many(n, beta):
    """beta (n - j + 1) where the tridiagonal model has beta (n - j)."""
    return beta * np.arange(n, 1, -1)


def test_wrong_chi_degrees_fail_the_exact_oracle_check(monkeypatch):
    # each Gaussian case misses the walk oracle by z = 33..44 (within 2.2 with
    # nothing planted)
    monkeypatch.setattr(montecarlo, "_chi_degrees", _one_degree_too_many)
    gaussian = [case for case in FINITE_SIZE_CASES if case[0] in ("goe", "gue")]
    assert len(gaussian) == 3
    for case in gaussian:
        assert estimate_misses_exact_value(*case), case


def test_wrong_chi_degrees_fail_the_exact_banded_sum(monkeypatch):
    # summed exactly, with no z-score: every size with an off-diagonal misses
    monkeypatch.setattr(montecarlo, "_chi_degrees", _one_degree_too_many)
    for name in ("goe", "gue"):
        assert banded_model_misses(name) == [(n, k) for n in range(2, 7) for k in (2, 4, 6, 8)]


def test_a_diagonal_mis_scale_fails_the_exact_dense_sum(monkeypatch):
    # X_ii 1% too large after the build: every (n, k) moves, by 0.02 at k = 2
    right = montecarlo._build_matrix

    def mis_scaled(n, sampler, rng):
        x = right(n, sampler, rng)
        x[np.diag_indices(n)] *= 1.01
        return x

    monkeypatch.setattr(montecarlo, "_build_matrix", mis_scaled)
    sizes = range(2, 5)
    assert dense_sign_sum_misses(sizes) == [(n, k) for n in sizes for k in range(2, 11, 2)]


def test_a_diagonal_mis_scale_fails_the_exact_banded_sum(monkeypatch):
    # the tridiagonal model's diagonal drawn 1% too large: every size misses
    for name in ("goe", "gue"):
        sampler, model = test_montecarlo.SAMPLERS[name]

        def mis_scaled(rng, n, count, right=sampler.tridiagonal):
            diag, off = right(rng, n, count)
            return 1.01 * diag, off

        planted = replace(sampler, tridiagonal=mis_scaled)
        monkeypatch.setitem(test_montecarlo.SAMPLERS, name, (planted, model))
        assert banded_model_misses(name) == [(n, k) for n in range(1, 7) for k in (2, 4, 6, 8)]


def _base_two_code_tables(k, right):
    """``walks._code_tables(k)`` with the state of index i weighed 2 ** i, not (k + 1) ** i.

    ``right`` is the true weight per state.  Two edges in one state then sum
    to one edge in the next, so the code stops telling edge-state multisets
    apart.  The step tables are built here from the weights, apart from the
    module's.
    """
    weights = {state: 2**index for index, state in enumerate(sorted(right, key=right.get))}
    weight = {**weights, (False, 0, 0): 0, (True, 0, 0): 0}.__getitem__
    width = k + 1
    rise, fall, loop = ([0] * (width * width) for _ in range(3))
    for here in range(1, width):
        for there in range(width - here):
            at = here * width + there
            rise[at] = weight((False, here, there)) - weight((False, here - 1, there))
            fall[at] = weight((False, there, here)) - weight((False, there, here - 1))
        loop[here * width] = weight((True, here, 0)) - weight((True, here - 1, 0))
    return walks._CodeTables(weights, tuple(rise), tuple(fall), tuple(loop))


def test_a_base_two_code_fails_the_census_check(monkeypatch):
    # the census groups leaves by (v, code); a base-2 code first merges two of them
    # at k = 10, where 67 representatives become 66
    real = walks._code_tables
    walks._census.cache_clear()
    monkeypatch.setattr(walks, "_code_tables", lambda k: _base_two_code_tables(k, real(k).weights))
    try:
        for k in range(1, 10):
            test_walks.test_pruned_tallies_match_full_stream(k, monkeypatch)
        with pytest.raises(AssertionError):
            test_walks.test_pruned_tallies_match_full_stream(10, monkeypatch)
        walks._census.cache_clear()
        assert len(walks._census(10, True)[1]) == 66
    finally:
        monkeypatch.undo()
        walks._census.cache_clear()
    assert len(walks._census(10, True)[1]) == 67
