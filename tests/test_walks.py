"""Walk enumeration oracle: classification, counts, exact finite-n moments.

Independent cross-checks: Bell numbers from the Bell triangle for total class
counts, the sorted canonical forms of all words of {1..k}^k for the search's
order, and a direct sum over all index words of {1..n}^k (no equivalence
classes, no falling factorials) for finite-n moments.
"""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from wignerexp import (
    GOE,
    GUE,
    RADEMACHER,
    MissingMomentError,
    MomentModel,
    catalan,
    canonical_words,
    canonicalize,
    classify_walk,
    count_classes,
    cycle_both_ways_class_count,
    cycle_one_way_class_count,
    double_edge_class_count,
    enumerate_canonical_words,
    exact_moment,
    expected_word_product,
    goe_model,
    gue_model,
    nu_moment,
    rademacher_model,
    self_loop_class_count,
    select_classes,
    semicircle_moment,
)
from wignerexp import walks

# -- oracles -------------------------------------------------------------------


def bell_numbers(count: int) -> list[int]:
    """Bell triangle: number of set partitions of {1..k}."""
    bells = [1]
    row = [1]
    for _ in range(count - 1):
        new_row = [row[-1]]
        for value in row:
            new_row.append(new_row[-1] + value)
        bells.append(new_row[0])
        row = new_row
    return bells


def direct_moment_oracle(k: int, n: int, model: MomentModel) -> Fraction:
    """Sum over every word in {1..n}^k, grouping steps by unordered pair."""
    total = Fraction(0)
    for word in product(range(1, n + 1), repeat=k):
        factors: dict = {}
        for idx in range(k):
            a, b = word[idx], word[(idx + 1) % k]
            key = (min(a, b), max(a, b))
            fwd, bwd = factors.get(key, (0, 0))
            if (a, b) == key:
                fwd += 1
            else:
                bwd += 1
            factors[key] = (fwd, bwd)
        value = Fraction(1)
        for (a, b), (fwd, bwd) in factors.items():
            if a == b:
                value *= model.diag_moment(fwd)
            elif model.is_real:
                value *= model.offdiag_moment(fwd + bwd)
            else:
                value *= model.offdiag_mixed(fwd, bwd)
            if value == 0:
                break
        total += value
    sigma2 = model.sigma2
    return total / (Fraction(n) ** (1 + k // 2) * sigma2 ** (k // 2))


# -- enumeration ------------------------------------------------------------------


def test_small_class_lists():
    assert {cls.canonical_word for cls in tuple(enumerate_canonical_words(2))} == {(1, 2), (1, 1)}
    assert len(tuple(enumerate_canonical_words(4))) == 15


def test_class_totals_are_bell_numbers():
    bells = bell_numbers(9)
    for k in range(1, 9):
        assert len(list(canonical_words(k))) == bells[k]


def test_counts_partition_the_enumeration():
    for k in (3, 5, 8):
        classes = tuple(enumerate_canonical_words(k))
        pairs = {(cls.v, cls.e) for cls in classes}
        assert sum(count_classes(k, v, e) for v, e in pairs) == len(classes)


def full_stream_tallies(k: int):
    """Shape counts over every class, and the weighted classes of the oracle.

    The weighted part keeps the classes whose every edge is crossed at least
    twice, keyed by v and the sorted (is_loop, fwd, bwd) edge patterns, each
    with its first class in stream order and its class count.
    """
    shapes: Counter = Counter()
    weighted: dict = {}
    for cls in enumerate_canonical_words(k):
        shapes[walks._Shape(cls.v, cls.e, cls.cycle_type)] += 1
        patterns = [(i == j, f, b) for (i, j), (f, b) in cls.edge_traversals.items()]
        if all(f + b >= 2 for _, f, b in patterns):
            key = (cls.v, tuple(sorted(patterns)))
            word, count = weighted.get(key, (cls.canonical_word, 0))
            weighted[key] = (word, count + 1)
    return shapes, weighted


@pytest.mark.parametrize("k", range(1, 11))
def test_pruned_tallies_match_full_stream(k, monkeypatch):
    full_shapes, want = full_stream_tallies(k)
    got = {}
    for rep, count in walks._tallies(k)[1]:
        patterns = sorted((i == j, f, b) for (i, j), (f, b) in rep.edge_traversals.items())
        got[(rep.v, tuple(patterns))] = (rep.canonical_word, count)
    assert got == want

    # the family queries read the pruned tallies alone, and count as the full stream does
    monkeypatch.setattr(walks, "enumerate_canonical_words", None)
    l = k // 2
    families = [(l + 1, l, None), (l, l - 1, None), (None, None, "tree")]
    families += [(l, l, "cycle-one-way"), (l, l, "cycle-both-ways")]
    families += [(l, l, "self-loop")] if k % 2 == 0 else []
    assert all(walks._pruned_answers(k, *query) for query in families)
    queries = [
        (v, e, kind)
        for v in (None, *range(1, k + 2))
        for e in (None, *range(k + 2))
        for kind in (None, *walks.CYCLE_TYPES)
        if walks._pruned_answers(k, v, e, kind)
    ]
    for v, e, kind in queries:
        want_count = sum(full_shapes[s] for s in select_classes(full_shapes, v, e, kind))
        assert count_classes(k, v, e, kind) == want_count, (v, e, kind)


def test_enumeration_rejects_bad_lengths():
    with pytest.raises(ValueError):
        list(canonical_words(0))
    with pytest.raises(ValueError):
        list(enumerate_canonical_words(0))
    with pytest.raises(ValueError):
        count_classes(13)
    for empty in ((), ""):
        with pytest.raises(ValueError, match="positive, got 0"):
            classify_walk(empty)


@pytest.mark.parametrize("k", range(1, 7))
def test_canonical_words_are_the_sorted_distinct_canonical_forms(k):
    # every word over k letters, relabeled: no restricted-growth search involved
    want = sorted({canonicalize(word) for word in product(range(1, k + 1), repeat=k)})
    assert list(canonical_words(k)) == want


@pytest.mark.parametrize("k", range(1, 9))
def test_streamed_classes_match_a_fresh_classification(k):
    # the stream reads counts kept under backtracking; classify_walk counts each word anew
    for cls in enumerate_canonical_words(k):
        assert cls == classify_walk(cls.canonical_word)


# -- classification ----------------------------------------------------------------


def test_classify_examples():
    cls = classify_walk("1212")
    assert (cls.v, cls.e) == (2, 1)
    assert cls.edge_traversals == {(1, 2): (2, 2)}
    assert cls.cycle_type == "tree"

    cls = classify_walk("123123")
    assert (cls.v, cls.e) == (3, 3)
    assert cls.cycle_type == "cycle-one-way"

    cls = classify_walk("1121")
    assert (cls.v, cls.e) == (2, 2)
    assert cls.has_self_loop and cls.cycle_type == "self-loop"

    cls = classify_walk("121323")
    assert (cls.v, cls.e) == (3, 3)
    assert cls.cycle_type == "cycle-both-ways"

    cls = classify_walk("1213")
    assert cls.cycle_type == "tree"


def test_classify_other_patterns():
    # 4-cycle crossed with multiplicities (1,3,1,3): outside the three families
    cls = classify_walk((1, 2, 3, 2, 3, 4, 1, 4))
    assert (cls.v, cls.e) == (4, 4)
    assert cls.cycle_type == "other"
    # every edge once
    assert classify_walk("1234").cycle_type == "other"


def test_classify_canonicalizes_arbitrary_letters():
    assert classify_walk((5, 9, 5, 7)).canonical_word == (1, 2, 1, 3)
    assert classify_walk("xyxz").canonical_word == (1, 2, 1, 3)


def test_self_loop_split_example():
    words = {
        cls.canonical_word
        for cls in tuple(enumerate_canonical_words(4))
        if cls.v == 2 and cls.e == 2 and cls.cycle_type == "self-loop"
    }
    assert words == {(1, 1, 2, 1), (1, 2, 1, 1), (1, 1, 1, 2), (1, 2, 2, 2)}


def test_counts_match_closed_forms():
    for l in range(1, 7):
        k = 2 * l
        assert count_classes(k, l + 1, l) == catalan(l)
        assert count_classes(k, l, l - 1) == double_edge_class_count(l)
        assert count_classes(k, l, l, "self-loop") == self_loop_class_count(l)
        assert count_classes(k, l, l, "cycle-one-way") == cycle_one_way_class_count(l)
        assert count_classes(k, l, l, "cycle-both-ways") == cycle_both_ways_class_count(l)
    assert count_classes(6, 3, 3, "cycle-both-ways") == 3


def test_count_classes_rejects_unknown_type():
    with pytest.raises(ValueError):
        count_classes(4, cycle_type="spiral")


def test_nonzero_classes_satisfy_graph_inequalities():
    model = goe_model()
    for k in (4, 6, 8):
        for cls in tuple(enumerate_canonical_words(k)):
            if expected_word_product(cls, model) != 0:
                assert cls.v <= cls.e + 1
                assert cls.e <= k // 2


def test_odd_length_classes_have_an_odd_edge():
    for k in (3, 5, 7):
        for cls in tuple(enumerate_canonical_words(k)):
            assert any(sum(counts) % 2 == 1 for counts in cls.edge_traversals.values())


# -- moment models -------------------------------------------------------------------


def test_preset_models_realize_preset_params():
    assert goe_model().params == GOE
    assert gue_model().params == GUE
    assert rademacher_model().params == RADEMACHER


def test_gue_mixed_moments():
    model = gue_model()
    assert model.offdiag_mixed(1, 1) == 1
    assert model.offdiag_mixed(2, 2) == 2
    assert model.offdiag_mixed(2, 0) == 0
    assert model.offdiag_mixed(3, 3) == 6


def test_goe_moment_tables():
    model = goe_model()
    assert model.offdiag_moment(2) == 1
    assert model.offdiag_moment(4) == 3
    assert model.offdiag_moment(6) == 15
    assert model.diag_moment(2) == 2
    assert model.diag_moment(4) == 12


def test_missing_moment_errors_name_the_order():
    model = goe_model(max_order=4)
    with pytest.raises(MissingMomentError, match="order 6"):
        model.offdiag_moment(6)
    gue = gue_model(max_order=4)
    with pytest.raises(MissingMomentError, match=r"\(3, 3\)"):
        gue.offdiag_mixed(3, 3)
    with pytest.raises(MissingMomentError, match="order 5"):
        model.diag_moment(5)


def test_model_validation():
    with pytest.raises(ValueError, match="centered"):
        MomentModel(
            is_real=True,
            offdiag_moments=(Fraction(1), Fraction(1), Fraction(1), Fraction(0), Fraction(1)),
            diag_moments=(Fraction(1), Fraction(0), Fraction(1)),
        )


# -- expectations per class ------------------------------------------------------------


def test_expected_word_product_examples():
    tree_edge = classify_walk("12")
    assert expected_word_product(tree_edge, gue_model()) == 1

    double = classify_walk("1212")
    assert expected_word_product(double, goe_model()) == 3
    assert expected_word_product(double, gue_model()) == 2

    one_way = classify_walk("123123")
    assert expected_word_product(one_way, goe_model()) == 1
    assert expected_word_product(one_way, gue_model()) == 0  # E[W^2] = 0

    missing = classify_walk("11")
    assert expected_word_product(missing, goe_model()) == 2  # diagonal variance


# -- exact finite-n moments --------------------------------------------------------------


def test_exact_moment_matches_direct_sum_oracle():
    for model in (goe_model(), gue_model(), rademacher_model()):
        for k, n in [(2, 2), (2, 3), (4, 2), (4, 3), (6, 2)]:
            assert exact_moment(k, n, model) == direct_moment_oracle(k, n, model)


def test_exact_moment_closed_forms():
    for model in (goe_model(), gue_model(), rademacher_model()):
        ratio = model.params.diag_ratio
        for n in (1, 2, 10, 1000):
            assert exact_moment(2, n, model) == 1 + Fraction(ratio - 1, n)
    for n in (1, 2, 7, 64, 128):
        assert exact_moment(4, n, gue_model()) == 2 + Fraction(1, n**2)
        assert exact_moment(4, n, goe_model()) == 2 + Fraction(5, n) + Fraction(5, n**2)


def test_gue_moments_follow_harer_zagier():
    # Harer & Zagier (Invent. Math. 1986): C_l = E tr H^(2l) for unit-variance GUE obeys
    # (l+1) C_l = (4l-2) n C_(l-1) + (l-1)(2l-1)(2l-3) C_(l-2), with C_0 = n, C_1 = n^2
    for n in (1, 2, 3, 17, 64):
        c = [Fraction(n), Fraction(n * n)]
        for l in range(2, 7):
            step = (4 * l - 2) * n * c[-1] + (l - 1) * (2 * l - 1) * (2 * l - 3) * c[-2]
            c.append(step / (l + 1))
        for l, want in enumerate(c):
            assert n ** (l + 1) * exact_moment(2 * l, n, gue_model()) == want


def test_exact_moment_guards():
    model = goe_model()
    assert exact_moment(0, 5, model) == 1
    with pytest.raises(ValueError, match="even"):
        exact_moment(3, 5, model)
    with pytest.raises(ValueError):
        exact_moment(14, 5, model)
    with pytest.raises(ValueError):
        exact_moment(2, 0, model)


def test_correction_residual_shrinks_with_n():
    # n (m_k(n) - sc_k) - nu_k must fall by >= 8x per decade (or stay zero)
    for model in (goe_model(), gue_model(), rademacher_model()):
        params = model.params
        for k in (2, 4, 6, 8, 10):
            residuals = [
                n * (exact_moment(k, n, model) - semicircle_moment(k)) - nu_moment(k, params)
                for n in (100, 1000, 10000)
            ]
            for prev, nxt in zip(residuals, residuals[1:]):
                if prev == 0:
                    assert nxt == 0
                else:
                    assert abs(nxt) <= abs(prev) / 8


def test_tallies_cache_is_keyed_by_length():
    # fresh models are no cache keys: only the word lengths used are
    walks._tallies.cache_clear()
    for order in range(12, 62):
        model = goe_model(order)
        assert exact_moment(2, 3, model) == Fraction(4, 3)
        assert exact_moment(4, 3, model) == Fraction(38, 9)
    assert walks._tallies.cache_info().currsize == 2


def test_cold_exact_moment_is_small():
    # a cold k = 10 oracle keeps tallies and visits the 4,900 classes that count,
    # never all 115,975
    bound = 16 << 20
    models = (goe_model(), gue_model(), rademacher_model())
    walks._tallies.cache_clear()
    tracemalloc.start()
    try:
        for model in models:
            exact_moment(10, 64, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


# exact_moment(k, n, model) for n in ORACLE_SIZES, computed by summing E[W_c]
# class by class over every class of length k; the k = 12 rows were summed over
# the full stream of 4,213,597 classes, not by the pruned search they pin
ORACLE_SIZES = (1, 2, 64, 128, 10000)
PINNED_MOMENTS = {
    ("goe", 2): ("2", "3/2", "65/64", "129/128", "10001/10000"),
    ("goe", 4): ("12", "23/4", "8517/4096", "33413/16384", "40010001/20000000"),
    ("goe", 6): (
        "120", "273/8", "1404201/262144", "10852905/2097152", "5002200520041/1000000000000",
    ),
    ("goe", 8): (
        "1680", "4353/16", "260836989/16777216", "3959347965/268435456",
        "140093037406900509/10000000000000000",
    ),
    ("goe", 10): (
        "30240", "86955/32", "52203543525/1073741824", "1551646283685/34359738368",
        "4203862290715121438229/100000000000000000000",
    ),
    ("goe", 12): (
        "665280", "2085975/64", "11004745201065/68719476736", "638598121939305/4398046511104",
        "132158728038776717384956377/1000000000000000000000000",
    ),
    ("gue", 2): ("1", "1", "1", "1", "1"),
    ("gue", 4): ("3", "9/4", "8193/4096", "32769/16384", "200000001/100000000"),
    ("gue", 6): ("15", "15/2", "10245/2048", "40965/8192", "50000001/10000000"),
    ("gue", 8): (
        "105", "525/16", "235167765/16777216", "3759243285/268435456",
        "140000007000000021/10000000000000000",
    ),
    ("gue", 10): (
        "945", "2835/16", "706363875/16777216", "11281170915/268435456",
        "420000042000000483/10000000000000000",
    ),
    ("gue", 12): (
        "10395", "72765/64", "9109752792525/68719476736", "581162331342285/4398046511104",
        "26400004620000129360000297/200000000000000000000000",
    ),
    ("rademacher", 2): ("1", "1", "1", "1", "1"),
    ("rademacher", 4): ("1", "3/2", "127/64", "255/128", "19999/10000"),
    ("rademacher", 6): (
        "1", "5/2", "645089/131072", "5201857/1048576", "2499749995001/500000000000",
    ),
    ("rademacher", 8): (
        "1", "9/2", "28732607/2097152", "464761215/33554432", "17497624875029999/1250000000000000",
    ),
    ("rademacher", 10): (
        "1", "17/2", "11002000291/268435456", "356451139427/8589934592",
        "1049839985001875309971/25000000000000000000",
    ),
    ("rademacher", 12): (
        "1", "33/2", "1107018284975/8589934592", "71717363716767/549755813888",
        "16497549686166173856937691/125000000000000000000000",
    ),
}


@pytest.mark.parametrize("name, k", list(PINNED_MOMENTS))
def test_exact_moments_are_pinned(name, k):
    model = walks.PRESET_MODELS[name]()
    got = tuple(str(exact_moment(k, n, model)) for n in ORACLE_SIZES)
    assert got == PINNED_MOMENTS[(name, k)]
