"""The library's integer contract: every route reads its integers through one rule.

Each exported function's integer parameter (a moment index, half-order,
size, order or count) is read by ``combinatorics._int_at_least``: a bool, a
float or a value below the parameter's bound is refused with
``<name> must be an int >= <least>, got <value!r>``, and a NumPy integer
gives the same answer as the plain int, with plain ints inside it.  This is
the library twin of the command line's argv property in ``test_cli``.
"""

import dataclasses
import inspect
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
    ("estimate_corrections", "seed"): "any entropy numpy's default_rng accepts",
    ("richardson_corrections", "seed"): "any entropy numpy's default_rng accepts",
    ("count_classes", "v"): "a query filter: any integer may be asked, and _possible answers 0",
    ("count_classes", "e"): "a query filter: any integer may be asked, and _possible answers 0",
    ("class_rows", "v"): "a query filter: any integer may be asked, and _possible answers 0",
    ("class_rows", "e"): "a query filter: any integer may be asked, and _possible answers 0",
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


def test_the_table_covers_every_integer_parameter_of_the_surface():
    found = integer_parameters()
    assert set(EXCLUDED) <= found
    assert set(SURFACE) == found - set(EXCLUDED)


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
