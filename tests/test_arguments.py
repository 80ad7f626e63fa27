"""The library's integer contract: every route reads its integers through one rule.

Each exported function's integer parameter (a moment index, half-order,
size, order or count) is read by ``combinatorics._int_at_least``: a bool, a
float or a value below the parameter's bound is refused with
``<name> must be an int >= <least>, got <value!r>``, and a NumPy integer
gives the same answer as the plain int, with plain ints inside it.  A Monte
Carlo seed is read by the same rule with no bound.  This is the library
twin of the command line's argv property in ``test_cli``.
"""

import dataclasses
import inspect
import math
import re
from fractions import Fraction
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wignerexp
from wignerexp import GOE, GUE, TruncatedRationalSeries as Series
from wignerexp import montecarlo, walks

SAMPLER = wignerexp.rademacher_sampler()
X = wignerexp.sample_matrix(6, wignerexp.goe_sampler(), seed=5)
T = wignerexp.catalan_series(6)
GOE_MODEL = wignerexp.goe_model()

# (function, parameter) -> (the rule's name, least, largest value drawn, call)
SURFACE = {
    ("catalan", "k"): ("catalan index", 0, 60, wignerexp.catalan),
    ("semicircle_moment", "k"): ("moment index", 0, 40, wignerexp.semicircle_moment),
    ("nu_moment", "k"): ("moment index", 0, 40, lambda v: wignerexp.nu_moment(v, GOE)),
    ("term1_coeff", "l"): ("half-order", 0, 20, wignerexp.term1_coeff),
    ("term2_coeff", "l"): ("half-order", 0, 20, lambda v: wignerexp.term2_coeff(v, GOE)),
    ("term3_coeff", "l"): ("half-order", 0, 20, lambda v: wignerexp.term3_coeff(v, GUE)),
    ("term4_coeff", "l"): ("half-order", 0, 20, lambda v: wignerexp.term4_coeff(v, GOE)),
    ("order_one_coeff", "l"): ("half-order", 0, 20, lambda v: wignerexp.order_one_coeff(v, GOE)),
    ("double_edge_class_count", "l"): ("half-order", 0, 20, wignerexp.double_edge_class_count),
    ("self_loop_class_count", "l"): ("half-order", 0, 20, wignerexp.self_loop_class_count),
    ("cycle_one_way_class_count", "l"): (
        "half-order", 0, 20, wignerexp.cycle_one_way_class_count
    ),
    ("cycle_both_ways_class_count", "l"): (
        "half-order", 0, 20, wignerexp.cycle_both_ways_class_count
    ),
    ("expected_moment_expansion", "k"): (
        "moment index", 0, 20, lambda v: wignerexp.expected_moment_expansion(v, 8, GOE)
    ),
    ("expected_moment_expansion", "n"): (
        "matrix size", 1, 50, lambda v: wignerexp.expected_moment_expansion(4, v, GOE)
    ),
    ("nu_quadrature_moment", "k"): (
        "moment index", 0, 20, lambda v: wignerexp.nu_quadrature_moment(v, GOE, 40)
    ),
    ("nu_quadrature_moment", "npoints"): (
        "npoints", 1, 60, lambda v: wignerexp.nu_quadrature_moment(4, GOE, v)
    ),
    ("nu_stieltjes_quadrature", "npoints"): (
        "npoints", 1, 60, lambda v: wignerexp.nu_stieltjes_quadrature(3j, GOE, v)
    ),
    ("catalan_series", "order"): ("truncation order", 1, 30, wignerexp.catalan_series),
    ("s_components", "order"): (
        "truncation order", 1, 30, lambda v: wignerexp.s_components(v, GOE)
    ),
    ("s_total", "order"): ("truncation order", 1, 30, lambda v: wignerexp.s_total(v, GOE)),
    ("verify_cancellation", "order"): ("truncation order", 2, 30, wignerexp.verify_cancellation),
    ("check_word_length", "k"): (
        "word length", 1, walks.MAX_WORD_LENGTH, wignerexp.check_word_length
    ),
    ("count_classes", "k"): ("word length", 1, 8, wignerexp.count_classes),
    ("class_rows", "k"): ("word length", 1, 6, lambda v: list(wignerexp.class_rows(v, GOE_MODEL))),
    ("enumerate_canonical_words", "k"): (
        "word length", 1, 6, lambda v: list(wignerexp.enumerate_canonical_words(v))
    ),
    ("walk_polynomial", "k"): (
        "word length", 0, 10, lambda v: wignerexp.walk_polynomial(v, GOE_MODEL)
    ),
    ("exact_moment", "k"): (
        "word length", 0, 10, lambda v: wignerexp.exact_moment(v, 7, GOE_MODEL)
    ),
    ("exact_moment", "n"): (
        "matrix size", 1, 50, lambda v: wignerexp.exact_moment(6, v, GOE_MODEL)
    ),
    ("goe_model", "max_order"): ("max_order", 4, 20, wignerexp.goe_model),
    ("gue_model", "max_order"): ("max_order", 4, 12, wignerexp.gue_model),
    ("rademacher_model", "max_order"): (
        "max_order", 4, 20, lambda v: wignerexp.rademacher_model(1, 2, v)
    ),
    ("sample_matrix", "n"): (
        "matrix size", 1, 8, lambda v: wignerexp.sample_matrix(v, SAMPLER, 3)
    ),
    ("empirical_moments", "kmax"): ("kmax", 1, 12, lambda v: wignerexp.empirical_moments(X, v)),
    ("estimate_corrections", "ks"): (
        "moment index", 2, 10,
        lambda v: wignerexp.estimate_corrections([v], 4, 8, SAMPLER, 1),
    ),
    ("estimate_corrections", "n"): (
        "matrix size", 1, 8, lambda v: wignerexp.estimate_corrections([4], v, 8, SAMPLER, 1)
    ),
    ("estimate_corrections", "samples"): (
        "samples", 2, 20, lambda v: wignerexp.estimate_corrections([4], 4, v, SAMPLER, 1)
    ),
    ("richardson_corrections", "ks"): (
        "moment index", 2, 10,
        lambda v: wignerexp.richardson_corrections([v], 4, SAMPLER, 8, 1),
    ),
    ("richardson_corrections", "n"): (
        "matrix size", 1, 8, lambda v: wignerexp.richardson_corrections([4], v, SAMPLER, 8, 1)
    ),
    ("richardson_corrections", "samples"): (
        "samples", 2, 20, lambda v: wignerexp.richardson_corrections([4], 4, SAMPLER, v, 1)
    ),
}

# the integer arguments of the series value type, which is exported as a class
SERIES_METHODS = {
    ("TruncatedRationalSeries.zero", "order"): ("truncation order", 0, 20, Series.zero),
    ("TruncatedRationalSeries.one", "order"): ("truncation order", 0, 20, Series.one),
    ("TruncatedRationalSeries.monomial", "exponent"): (
        "monomial exponent", 0, 20, lambda v: Series.monomial(v, 20)
    ),
    ("TruncatedRationalSeries.monomial", "order"): (
        "truncation order", 0, 20, lambda v: Series.monomial(0, v)
    ),
    ("TruncatedRationalSeries.truncate", "order"): ("truncation order", 0, 6, T.truncate),
    ("TruncatedRationalSeries.__pow__", "exponent"): ("series exponent", 0, 9, lambda v: T**v),
    ("TruncatedRationalSeries.coeff", "j"): ("coefficient index", 0, 6, T.coeff),
}

CASES = {**SURFACE, **SERIES_METHODS}

# integer-annotated parameters the rule does not read, each with its reason
EXCLUDED = {
    ("rademacher_model", "sigma2"): "a rational variance, not an index",
    ("rademacher_model", "s2"): "a rational variance, not an index",
}


def integer_parameters() -> set[tuple[str, str]]:
    """(function, parameter) for every exported function's int-annotated parameter."""
    found = set()
    for name in dir(wignerexp):
        function = getattr(wignerexp, name)
        if inspect.isfunction(function):
            for parameter in inspect.signature(function).parameters.values():
                if re.search(r"\bint\b", str(parameter.annotation)):
                    found.add((name, parameter.name))
    return found


# seeds, read by the rule with no bound: any integer, folded mod 2^64 into the stream
SEEDS = {
    ("estimate_corrections", "seed"): lambda v: wignerexp.estimate_corrections(
        [2, 4], 4, 8, SAMPLER, v
    ),
    ("richardson_corrections", "seed"): lambda v: wignerexp.richardson_corrections(
        [2, 4], 4, SAMPLER, 8, v
    ),
}


# walk query filters, read by the rule with no bound: an integer no class has answers 0
QUERIES = {
    ("count_classes", "v"): lambda v: wignerexp.count_classes(5, v=v),
    ("count_classes", "e"): lambda v: wignerexp.count_classes(5, e=v),
    ("class_rows", "v"): lambda v: list(wignerexp.class_rows(5, GOE_MODEL, v=v)),
    ("class_rows", "e"): lambda v: list(wignerexp.class_rows(5, GOE_MODEL, e=v)),
}


def test_the_table_covers_every_integer_parameter_of_the_surface():
    found = integer_parameters()
    assert set(EXCLUDED) <= found
    assert set(SURFACE) | set(SEEDS) | set(QUERIES) == found - set(EXCLUDED)


@pytest.mark.parametrize("value", [True, False, 12.9, 12.0, "12", None, [1, 2]], ids=repr)
@pytest.mark.parametrize("key", list(SEEDS), ids="{0[0]}".format)
def test_a_seed_that_is_no_int_is_refused_by_name_before_any_draw(key, value, monkeypatch):
    # refused, not truncated: int("12"), int(12.9) and int(True) would name other streams
    def no_draw(*args):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(montecarlo, "_block_rng", no_draw)
    with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {value!r}")):
        SEEDS[key](value)


@pytest.mark.parametrize("key", list(SEEDS), ids="{0[0]}".format)
def test_numpy_integer_seeds_give_the_plain_int_records(key):
    call = SEEDS[key]
    for seed, numpy_type in ((0, np.int64), (12, np.int64), (-5, np.int32), (2**63 + 1, np.uint64)):
        got, want = call(numpy_type(seed)), call(seed)
        assert got == want and plain(got), (seed, numpy_type)
    # the stream reads the seed mod 2^64
    assert call(-5) == call(2**64 - 5) != call(5)


@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", [2]], ids=repr)
@pytest.mark.parametrize("key", list(QUERIES), ids="{0[0]}:{0[1]}".format)
def test_a_query_filter_that_is_no_int_is_refused_by_name_before_any_search(
    key, value, monkeypatch
):
    # True answered as v = 1 and 2.0 as v = 2; "2" raised a bare TypeError from _possible
    def no_search(*args):
        raise AssertionError("a search was run")

    monkeypatch.setattr(walks, "_search", no_search)
    walks._census.cache_clear()
    message = f"{key[1]} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        QUERIES[key](value)


@pytest.mark.parametrize("key", list(QUERIES), ids="{0[0]}:{0[1]}".format)
def test_numpy_integer_query_filters_give_the_plain_int_answers(key):
    call = QUERIES[key]
    for value in (-3, 0, 1, 2, 3, 5, 6):
        want = call(value)
        for numpy_type in (np.int64, np.int32, np.uint8):
            if value >= 0 or numpy_type is not np.uint8:
                got = call(numpy_type(value))
                assert got == want and plain(got), (value, numpy_type)
    # no class of length 5 has v or e below 1 or above 5
    assert call(2) and not any(call(value) for value in (-3, 0, 6))


def refusal(key, value) -> str:
    with pytest.raises(ValueError) as info:
        CASES[key][3](value)
    return str(info.value)


@pytest.mark.parametrize("key", list(CASES), ids="{0[0]}:{0[1]}".format)
def test_bools_floats_and_values_below_the_bound_are_refused(key):
    name, least, _, _ = CASES[key]
    for value in (True, False, 2.5, 4.0, least - 1):
        assert refusal(key, value) == f"{name} must be an int >= {least}, got {value!r}"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_value_below_the_bound_is_refused_by_the_rule(data):
    key = data.draw(st.sampled_from(sorted(CASES)))
    name, least, _, _ = CASES[key]
    value = data.draw(st.integers(max_value=least - 1) | st.booleans() | st.floats())
    assert refusal(key, value) == f"{name} must be an int >= {least}, got {value!r}"


def plain(answer) -> bool:
    """True when every integer inside ``answer`` is a plain int, none a NumPy integer."""
    if isinstance(answer, np.ndarray):
        return answer.dtype.kind not in "iu"
    if isinstance(answer, np.generic):
        return False
    if isinstance(answer, Fraction):
        return type(answer.numerator) is int and type(answer.denominator) is int
    if isinstance(answer, (tuple, list)):
        return all(map(plain, answer))
    if isinstance(answer, Mapping):
        return all(map(plain, answer)) and all(map(plain, answer.values()))
    if dataclasses.is_dataclass(answer):
        return all(plain(getattr(answer, field.name)) for field in dataclasses.fields(answer))
    return answer is None or type(answer) in (int, bool, float, complex, str)


def answer(call, value):
    """``call(value)``, or the message of its refusal (an odd k, say)."""
    try:
        return call(value)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_numpy_integers_give_the_plain_int_answer(data):
    key = data.draw(st.sampled_from(sorted(CASES)))
    _, least, most, call = CASES[key]
    value = data.draw(st.integers(least, most))
    numpy_type = data.draw(st.sampled_from([np.int64, np.int32]))
    want = answer(call, value)
    got = answer(call, numpy_type(value))
    equal = np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
    assert equal and plain(got), (key, value, numpy_type)


def test_catalan_of_a_numpy_integer_is_a_plain_int():
    # math.comb met a NumPy divisor and raised OverflowError
    got = wignerexp.catalan(np.int64(40))
    assert type(got) is int and got == wignerexp.catalan(40)


def test_cached_readers_are_not_reached_through_a_bool_or_a_float():
    # True == 1 and 2.0 == 2 hash alike, so each cache would answer the order-1
    # or order-2 entry: its caller refuses them before the cache is read
    assert wignerexp.s_total(1, GOE).order == 1
    for call, value in (
        (lambda v: wignerexp.s_total(v, GOE), True),
        (lambda v: wignerexp.s_components(v, GOE), 2.0),
        (lambda v: wignerexp.s_components(v, GOE), 1.0),
    ):
        message = f"^truncation order must be an int >= 1, got {value}$"
        with pytest.raises(ValueError, match=message):
            call(value)
    # walks._census, through count_classes
    assert wignerexp.count_classes(1) == 1
    for value in (True, 1.0):
        with pytest.raises(ValueError, match=rf"^word length must be an int >= 1, got {value}$"):
            wignerexp.count_classes(value)
    # montecarlo._power_plan, through estimate_corrections
    wignerexp.estimate_corrections([4], 3, 4, SAMPLER, 1)
    hits = montecarlo._power_plan.cache_info().hits
    montecarlo._power_plan((4,))
    assert montecarlo._power_plan.cache_info().hits == hits + 1
    for value in (4.0, True):
        with pytest.raises(ValueError, match=rf"^moment index must be an int >= 2, got {value}$"):
            wignerexp.estimate_corrections([value], 3, 4, SAMPLER, 1)


# a bool is no moment: True == 1 and False == 0, so each would stand for a real value
BOOL_MOMENTS = {
    "EnsembleParams sigma2": (lambda v: wignerexp.EnsembleParams(1, v, 2, 3), "sigma2"),
    "EnsembleParams s2": (lambda v: wignerexp.EnsembleParams(1, 1, v, 3), "s2"),
    "EnsembleParams alpha": (lambda v: wignerexp.EnsembleParams(1, 1, 2, v), "alpha"),
    "rademacher_model sigma2": (lambda v: wignerexp.rademacher_model(v, 1), "sigma2"),
    "rademacher_model s2": (lambda v: wignerexp.rademacher_model(1, v), "s2"),
}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("case", list(BOOL_MOMENTS))
def test_a_bool_is_refused_as_a_moment_scalar(case, value):
    call, name = BOOL_MOMENTS[case]
    message = f"^{name} must be a rational number, not a bool, got {value}$"
    with pytest.raises(ValueError, match=message):
        call(value)


def test_a_bool_is_refused_in_a_moment_table():
    # GOE's tables with each 0 and 1 written as a bool were accepted, with GOE's moments
    goe = wignerexp.goe_model(4)
    real = (True, False, True, False, 3)
    grid = ((True, False, False), (False, True, False), (False, False, 2))
    diag = (1, 0, 2, 0, 12)
    cases = [
        (True, real, diag),
        (True, goe.offdiag_moments, (True, 0, 2, 0, 12)),
        (True, goe.offdiag_moments, (1, False, 2, 0, 12)),
        (False, grid, (1, 0, 1, 0, 3)),
    ]
    for is_real, off, diagonal in cases:
        with pytest.raises(ValueError, match="^moment tables must hold ints or Fractions, not bools"):
            wignerexp.MomentModel(is_real, off, diagonal)
    # the same tables in ints are GOE's and GUE's
    assert wignerexp.MomentModel(True, (1, 0, 1, 0, 3), diag).params == GOE
    assert wignerexp.MomentModel(False, ((1, 0, 0), (0, 1, 0), (0, 0, 2)), (1, 0, 1)).params == GUE


# -- the moment rule ----------------------------------------------------------------
#
# Every exact moment a caller gives, a scalar of EnsembleParams or rademacher_model
# or an entry of a MomentModel table, is read by ``combinatorics._frac``: an int, a
# NumPy integer or a Fraction passes, and a bool, a float (NaN too), a str or any
# other type is refused with ``<name> must be a rational number, not a <type>, got
# <value!r>``.  A table entry's refusal follows TABLES and names the entry.

TABLES = (
    "moment tables must hold ints or Fractions, not bools, floats or strs, or None in a "
    "complex grid where a or b exceeds 2: "
)


def fair_signs(variance):
    """A custom sampler's draws: +-sqrt(variance), each with probability 1/2."""
    root = math.sqrt(variance)
    return lambda rng, size: root * (2.0 * rng.integers(0, 2, size) - 1.0)


def custom_params(v):
    # alpha = sigma2^2 = 1 and diagonal variance v, which fair signs meet exactly
    params = wignerexp.EnsembleParams(1, 1, v, 1)
    return wignerexp.custom_sampler(params, fair_signs(1), fair_signs(v)).params


# label -> ((callable, parameter), the name its refusal gives, the text before it, call)
MOMENTS = {
    "EnsembleParams sigma2": (
        ("EnsembleParams", "sigma2"), "sigma2", "", lambda v: wignerexp.EnsembleParams(1, v, 2, 3)
    ),
    "EnsembleParams s2": (
        ("EnsembleParams", "s2"), "s2", "", lambda v: wignerexp.EnsembleParams(1, 1, v, 3)
    ),
    "EnsembleParams alpha": (
        ("EnsembleParams", "alpha"), "alpha", "", lambda v: wignerexp.EnsembleParams(1, 1, 2, v)
    ),
    "rademacher_model sigma2": (
        ("rademacher_model", "sigma2"), "sigma2", "", lambda v: wignerexp.rademacher_model(v, 1, 6)
    ),
    "rademacher_model s2": (
        ("rademacher_model", "s2"), "s2", "", lambda v: wignerexp.rademacher_model(1, v, 6)
    ),
    "MomentModel real off-diagonal": (
        ("MomentModel", "offdiag_moments"), "offdiag_moments[4]", TABLES,
        lambda v: wignerexp.MomentModel(True, (1, 0, 1, 0, v, 0, 15), (1, 0, 2)),
    ),
    "MomentModel complex grid": (
        ("MomentModel", "offdiag_moments"), "offdiag_moments[1][1]", TABLES,
        lambda v: wignerexp.MomentModel(False, ((1, 0, 0), (0, v, 0), (0, 0, 2)), (1, 0, 1)),
    ),
    "MomentModel diagonal": (
        ("MomentModel", "diag_moments"), "diag_moments[2]", TABLES,
        lambda v: wignerexp.MomentModel(True, (1, 0, 1, 0, 3), (1, 0, v, 0)),
    ),
    "custom_sampler params": (("custom_sampler", "params"), "s2", "", custom_params),
}

# exported Fraction-annotated parameters that are no moment a caller gives
NOT_MOMENTS = {
    **{("ExpansionTerm", name): "a result record" for name in ("c1", "c2", "c3", "c4", "total")},
    **{
        ("SignedMeasureNu", name): "made from params by SignedMeasureNu.from_params"
        for name in ("c4", "c2", "c0", "atom_mass", "arcsine_coeff", "c2_plus_4c4")
    },
    ("TruncatedRationalSeries", "coeffs"): "series coefficients, a value type of their own",
}


def fraction_parameters() -> set[tuple[str, str]]:
    """(callable, parameter) for every exported function's or class's Fraction parameter."""
    found = set()
    for name in dir(wignerexp):
        obj = getattr(wignerexp, name)
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, Exception)):
            for parameter in inspect.signature(obj).parameters.values():
                if "Fraction" in str(parameter.annotation):
                    found.add((name, parameter.name))
    return found


def test_the_moment_table_covers_every_fraction_parameter_of_the_surface():
    found = fraction_parameters()
    assert set(NOT_MOMENTS) <= found
    assert found - set(NOT_MOMENTS) <= {case[0] for case in MOMENTS.values()}


def moment_refusal(label, value) -> str:
    _, name, before, call = MOMENTS[label]
    with pytest.raises(ValueError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(before), message
    return message[len(before) :]


def rule_message(name, value) -> str:
    return f"{name} must be a rational number, not a {type(value).__name__}, got {value!r}"


NOT_EXACT = [True, False, 0.5, 3.0, float("nan"), float("inf"), np.float64(1.0), "1/2", "1e4000000"]


@pytest.mark.parametrize("label", list(MOMENTS))
def test_bools_floats_and_strs_are_refused_as_moments_by_name(label):
    name = MOMENTS[label][1]
    for value in NOT_EXACT:
        assert moment_refusal(label, value) == rule_message(name, value)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_inexact_value_is_refused_by_the_moment_rule(data):
    label = data.draw(st.sampled_from(sorted(MOMENTS)))
    value = data.draw(st.booleans() | st.floats() | st.text(max_size=6) | st.none())
    assert moment_refusal(label, value) == rule_message(MOMENTS[label][1], value)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_numpy_integer_moments_give_the_plain_int_answer(data):
    label = data.draw(st.sampled_from(sorted(MOMENTS)))
    call = MOMENTS[label][3]
    value = data.draw(st.integers(0, 6))
    numpy_type = data.draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    want = answer(call, value)
    got = answer(call, numpy_type(value))
    assert got == want and plain(got), (label, value, numpy_type)
    assert answer(call, Fraction(value)) == want
