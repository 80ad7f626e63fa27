"""Planted faults: the identity suite of ``wignerexp check`` catches each one.

Each test plants one wrong fact by replacing a module attribute, runs
``cli.identity_suite`` and asserts exactly which lines fail.  A golden digest
would change as well, but it cannot say which route disagrees, so no test
here leans on one.
"""

from dataclasses import replace
from fractions import Fraction

from wignerexp import cli, walks
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
