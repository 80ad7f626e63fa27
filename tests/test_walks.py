"""Walk enumeration oracle: classification, counts, exact finite-n moments.

Independent cross-checks: Bell numbers from the Bell triangle for total class
counts, the sorted canonical forms of all words of {1..k}^k for the search's
order, and a direct sum over all index words of {1..n}^k (no equivalence
classes, no falling factorials) for finite-n moments.
"""

import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerexp import (
    GOE,
    GUE,
    RADEMACHER,
    MissingMomentError,
    MomentModel,
    catalan,
    canonicalize,
    class_rows,
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
    semicircle_moment,
    walk_polynomial,
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
        assert len(tuple(enumerate_canonical_words(k))) == bells[k]
        assert count_classes(k) == bells[k]


def count_streams(monkeypatch) -> Counter:
    """Count the (k, pruned) leaf streams read from now on, the census uncached."""
    streamed: Counter = Counter()
    search = walks._search

    def counting(k, pruned):
        streamed[k, pruned] += 1
        return search(k, pruned)

    walks._census.cache_clear()
    monkeypatch.setattr(walks, "_search", counting)
    return streamed


def test_counts_partition_the_enumeration(monkeypatch):
    # listed before the counting starts: enumerate_canonical_words streams leaves too
    enumerated = {k: tuple(enumerate_canonical_words(k)) for k in (3, 5, 8)}
    streamed = count_streams(monkeypatch)
    for k, classes in enumerated.items():
        pairs = {(cls.v, cls.e) for cls in classes}
        assert sum(count_classes(k, v, e) for v, e in pairs) == len(classes)
        assert sum(count_classes(k, v) for v in {v for v, _ in pairs}) == len(classes)
    # the full stream of each length is read once; the tree queries (e = v - 1, even k
    # only) read the pruned search, once
    assert streamed == {(3, False): 1, (5, False): 1, (8, False): 1, (8, True): 1}


def test_a_shape_no_class_has_reads_no_stream(monkeypatch):
    # a class's graph is connected and its k steps cross every edge, so
    # 1 <= v <= k, 1 <= e <= k and e >= v - 1; any other (v, e) is answered unread
    shapes = {k: full_stream_tallies(k)[0] for k in range(1, 9)}  # before the counting
    streamed = count_streams(monkeypatch)
    model = goe_model()
    for k, counts in shapes.items():
        sizes = (None, *range(-1, k + 3))
        for v, e in product(sizes, sizes):
            want = sum(c for s, c in counts.items() if v in (None, s.v) and e in (None, s.e))
            possible = (
                (v is None or 1 <= v <= k)
                and (e is None or 1 <= e <= k)
                and (v is None or e is None or e >= v - 1)
            )
            if not possible:
                walks._census.cache_clear()
                before = streamed.copy()
                assert list(class_rows(k, model, v, e)) == []
                assert count_classes(k, v, e) == want == 0, (k, v, e)
                assert streamed == before, (k, v, e)
            else:
                assert count_classes(k, v, e) == want, (k, v, e)


def full_stream_tallies(k: int):
    """Shape counts over every class, and the weighted classes of the oracle.

    Read from the full search's leaves, each shape by ``_leaf`` from the
    leaf's own edge patterns through ``_pattern`` (the recount is the
    reference in ``test_search_counters_match_a_fresh_recount``), not once per
    key as the census reads it.  The weighted part keeps the classes whose
    every edge is crossed at least twice, keyed by v and the sorted (is_loop,
    fwd, bwd) edge patterns, each with its first class in stream order and its
    class count.
    """
    shapes: Counter = Counter()
    weighted: dict = {}
    for word, crossings, v, _, _, _ in walks._search(k, False):
        patterns = walks._pattern(word, crossings)
        shapes[walks._leaf(v, patterns)] += 1
        if all(f + b >= 2 for _, f, b in patterns):
            key = (v, tuple(sorted(patterns)))
            first, count = weighted.get(key, (tuple(word), 0))
            weighted[key] = (first, count + 1)
    return shapes, weighted


@pytest.mark.parametrize("k", range(1, 11))
def test_pruned_tallies_match_full_stream(k, monkeypatch):
    full_shapes, want = full_stream_tallies(k)
    got = {}
    for rep, count in walks._census(k, True)[1]:
        patterns = sorted((i == j, f, b) for (i, j), (f, b) in rep.edge_traversals.items())
        got[(rep.v, tuple(patterns))] = (rep.canonical_word, count)
    assert got == want
    # the census of the full search counts every class and keeps the same representatives
    shapes, weighted = walks._census(k, False)
    assert shapes == full_shapes
    assert weighted == walks._census(k, True)[1]

    # the family queries stream the pruned search alone, and count as the full stream does
    monkeypatch.setattr(walks, "enumerate_canonical_words", None)
    streamed = count_streams(monkeypatch)
    l = k // 2
    families = [(l + 1, l, None), (l, l - 1, None), (None, None, "tree")]
    families += [(l, l, "cycle-one-way"), (l, l, "cycle-both-ways")]
    families += [(l, l, "self-loop")] if k % 2 == 0 else []
    assert all(walks._query(k, *query)[2] is not False for query in families)
    queries = [
        (v, e, kind)
        for v in (None, *range(1, k + 2))
        for e in (None, *range(k + 2))
        for kind in (None, *walks.CYCLE_TYPES)
        if walks._query(k, v, e, kind)[2] is not False
    ]
    for v, e, kind in queries:
        want_count = sum(c for s, c in full_shapes.items() if walks._matches(s, (v, e, kind)))
        assert count_classes(k, v, e, kind) == want_count, (v, e, kind)
    assert streamed == {(k, True): 1}


def test_oracle_and_family_counts_share_one_pruned_pass(monkeypatch):
    streamed = count_streams(monkeypatch)
    exact_moment(10, 64, goe_model())
    assert count_classes(10, 6, 5) == catalan(5)
    assert count_classes(10, 5, 5, "self-loop") == self_loop_class_count(5)
    assert streamed == {(10, True): 1}


def test_enumeration_rejects_bad_lengths():
    with pytest.raises(ValueError):
        list(enumerate_canonical_words(0))
    words = enumerate_canonical_words(13)  # a Bell(13) stream, refused before its first leaf
    with pytest.raises(ValueError, match="exceeds the enumeration bound 12"):
        next(words)
    with pytest.raises(ValueError):
        count_classes(13)
    for empty in ((), ""):
        with pytest.raises(ValueError, match="positive, got 0"):
            classify_walk(empty)


@pytest.mark.parametrize("k", range(1, 7))
def test_canonical_words_are_the_sorted_distinct_canonical_forms(k):
    # every word over k letters, relabeled: no restricted-growth search involved
    want = sorted({canonicalize(word) for word in product(range(1, k + 1), repeat=k)})
    assert [cls.canonical_word for cls in enumerate_canonical_words(k)] == want


def _crossed(once, crossings, ab, ba):
    """Edges crossed once, ``once`` before, after the step at index ``ab`` (its reverse ``ba``)."""
    total = crossings[ab] if ab == ba else crossings[ab] + crossings[ba]
    return once + (total == 1) - (total == 2)


def flat_code(k: int, crossings: list[int]) -> int:
    """A leaf's code summed edge by edge (i <= j) over its flat crossings, with no step table."""
    width = k + 1
    weights = walks._code_tables(k).weights
    code = 0
    for i in range(1, width):
        for j in range(i, width):
            fwd, bwd = crossings[i * width + j], crossings[j * width + i] if i != j else 0
            if fwd or bwd:
                code += weights[i == j, fwd, bwd]
    return code


def recursive_search(k: int, pruned: bool):
    """The search as one generator frame per position, each step tallied by a call.

    The reference the loop of ``walks._search`` is tested against: the same
    leaves, in the same order, with the same live word and crossings.  Its
    code is summed anew at each leaf by ``flat_code``.
    """
    if k < 1:
        raise ValueError(f"word length must be positive, got {k}")
    width = k + 1
    word = [1] * k
    crossings = [0] * (width * width)
    if k == 1:  # the lone step 1 -> 1, a self-loop crossed once
        if not pruned:
            crossings[width + 1] = 1
            yield word, crossings, 1, 1, "1", flat_code(k, crossings)
        return

    def rec(pos, vmax, once, text):
        a = word[pos - 1]
        row, left = a * width, k - pos
        if left > 1:
            for b in range(1, vmax + 2):
                ab = row + b
                crossings[ab] += 1
                after = _crossed(once, crossings, ab, b * width + a)
                if not pruned or after <= left:
                    word[pos] = b
                    yield from rec(pos + 1, max(vmax, b), after, f"{text}-{b}")
                crossings[ab] -= 1
            return
        # the last letter b, then the closing step b -> 1 completes the word
        for b in range(1, vmax + 2):
            ab = row + b
            crossings[ab] += 1
            after = _crossed(once, crossings, ab, b * width + a)
            if pruned and after > 1:  # the closing step leaves an edge crossed once
                crossings[ab] -= 1
                continue
            b1 = b * width + 1
            crossings[b1] += 1
            ones = _crossed(after, crossings, b1, width + b)
            if not (ones and pruned):
                word[pos] = b
                code = flat_code(k, crossings)
                yield word, crossings, max(vmax, b), ones, f"{text}-{b}", code
            crossings[b1] -= 1
            crossings[ab] -= 1

    yield from rec(1, 1, 0, "1")


def assert_same_leaves(got, want):
    """Whole leaves equal in order, each live word and ``crossings`` copied as its leaf arrives."""
    count = 0
    for leaf, ref in zip_longest(got, want):
        assert leaf is not None and ref is not None, count
        leaf, ref = copied(leaf), copied(ref)
        assert leaf == ref, ref[0]
        count += 1
    return count


def copied(leaf):
    """A ``_search`` leaf with its live word and crossings copied, to keep past the next leaf."""
    word, crossings, *rest = leaf
    return (tuple(word), tuple(crossings), *rest)


@pytest.mark.parametrize(
    "k, pruned", [(k, pruned) for k in range(1, 11) for pruned in (False, True)] + [(11, True)]
)
def test_search_loop_matches_the_recursive_search(k, pruned):
    assert_same_leaves(walks._search(k, pruned), recursive_search(k, pruned))


def test_a_search_closed_partway_leaves_a_fresh_one_whole():
    for stop in (1, 7, 500):
        search = walks._search(8, False)
        for _ in range(stop):
            next(search)
        search.close()
        assert assert_same_leaves(walks._search(8, False), recursive_search(8, False)) == 4140


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("k", [0, -1])
def test_search_readers_refuse_a_nonpositive_length(k, pruned):
    # _search takes k as given: each reader checks it, class_rows at the call and
    # enumerate_canonical_words, a generator, at its first next()
    message = f"^word length must be an int >= 1, got {k}$"
    with pytest.raises(ValueError, match=message):
        walks._census(k, pruned)
    with pytest.raises(ValueError, match=message):
        class_rows(k, goe_model())
    stream = enumerate_canonical_words(k)
    with pytest.raises(ValueError, match=message):
        next(stream)


# each crashed inside _search with numpy's TypeError, or, for True, counted k = 1
# (call, the refusal's tail): walk_polynomial takes k = 0, the search readers k >= 1
NON_INTEGER_LENGTHS = {
    "count_classes(4.0)": (lambda: count_classes(4.0), "1, got 4.0"),
    "class_rows(4.0)": (lambda: class_rows(4.0, goe_model()), "1, got 4.0"),
    "walk_polynomial(4.0)": (lambda: walk_polynomial(4.0, goe_model()), "0, got 4.0"),
    "count_classes(True)": (lambda: count_classes(True), "1, got True"),
}


@pytest.mark.parametrize("call", list(NON_INTEGER_LENGTHS))
def test_walk_readers_refuse_a_length_that_is_no_integer(call):
    run, tail = NON_INTEGER_LENGTHS[call]
    with pytest.raises(ValueError, match=f"^word length must be an int >= {re.escape(tail)}$"):
        run()


def test_walk_readers_take_numpy_integer_lengths():
    k = np.int64(6)
    assert count_classes(k) == count_classes(6)
    assert list(class_rows(k, goe_model())) == list(class_rows(6, goe_model()))
    assert walk_polynomial(k, goe_model()) == walk_polynomial(6, goe_model())


@pytest.mark.parametrize("k", range(1, 10))
def test_search_counters_match_a_fresh_recount(k):
    # the search's flat crossings, running counts and text against classify_walk's own
    # dict, and the shape ``_leaf`` reads off the leaf's pattern against the recount's
    for word, crossings, v, ones, text, _ in walks._search(k, False):
        assert text == "-".join(map(str, word)), word
        cls = classify_walk(word)
        assert v == cls.v, word
        assert ones == sum(f + b == 1 for f, b in cls.edge_traversals.values()), word
        want = [(i == j, f, b) for (i, j), (f, b) in cls.edge_traversals.items()]
        pattern = walks._pattern(word, crossings)
        assert pattern == want, word
        assert walks._leaf(v, pattern) == (cls.v, cls.e, cls.cycle_type), word


# every leaf of the full search to k = 10, and of the pruned one at 11
KEY_SEARCHES = [(k, False) for k in range(1, 11)] + [(11, True)]


@pytest.mark.parametrize("k, pruned", KEY_SEARCHES)
def test_every_leaf_has_the_recount_shape_of_its_keys_first_leaf(k, pruned):
    # the census and the rows read a class's shape once per (v, code), off its first leaf
    firsts: dict = {}
    for word, _, v, _, _, code in walks._search(k, pruned):
        cls = classify_walk(word)
        shape = cls.v, cls.e, cls.cycle_type
        assert firsts.setdefault((v, code), shape) == shape, word


def test_a_code_alone_does_not_fix_the_shape():
    # a tree of three edges and a cycle of three run both ways cross each edge once
    # each way: one multiset of edge states, so one code, and only v tells them apart
    leaves = {text: (v, code) for _, _, v, _, text, code in walks._search(6, False)}
    assert leaves["1-2-1-3-1-4"] == (4, 7203)
    assert leaves["1-2-3-1-3-2"] == (3, 7203)
    tree, cycle = classify_walk((1, 2, 1, 3, 1, 4)), classify_walk((1, 2, 3, 1, 3, 2))
    assert (tree.v, tree.e, tree.cycle_type) == (4, 3, walks.TREE)
    assert (cycle.v, cycle.e, cycle.cycle_type) == (3, 3, walks.CYCLE_BOTH_WAYS)
    rows = {row[0]: row[1:4] for row in class_rows(6, goe_model())}
    assert rows["1-2-1-3-1-4"] == (4, 3, walks.TREE)
    assert rows["1-2-3-1-3-2"] == (3, 3, walks.CYCLE_BOTH_WAYS)


def test_code_weights_are_distinct_powers_of_k_plus_one():
    # no state is on more than k edges, so each power's count is one base-(k + 1) digit
    for k in range(1, walks.MAX_WORD_LENGTH + 1):
        weights = walks._code_tables(k).weights
        states = {(False, f, b) for f in range(k + 1) for b in range(k + 1 - f) if f + b}
        states |= {(True, c, 0) for c in range(1, k + 1)}
        assert set(weights) == states
        assert sorted(weights.values()) == [(k + 1) ** i for i in range(len(states))]


# every leaf of the full search to k = 9, and of the pruned one at 10 and 11
CODE_SEARCHES = [(k, False) for k in range(1, 10)] + [(10, True), (11, True)]


@pytest.mark.parametrize("k, pruned", CODE_SEARCHES)
def test_search_codes_sum_the_weights_of_the_edge_states(k, pruned):
    # the code kept step by step against its sum over _pattern and over the recount
    weights = walks._code_tables(k).weights
    for word, crossings, *_, code in walks._search(k, pruned):
        assert code == sum(weights[state] for state in walks._pattern(word, crossings)), word
        traversals = classify_walk(word).edge_traversals.items()
        assert code == sum(weights[i == j, f, b] for (i, j), (f, b) in traversals), word


@pytest.mark.parametrize("k", range(1, 11))
def test_equal_codes_are_equal_sorted_patterns(k):
    patterns: dict = {}
    codes: dict = {}
    for word, crossings, *_, code in walks._search(k, False):
        pattern = tuple(sorted(walks._pattern(word, crossings)))
        assert patterns.setdefault(code, pattern) == pattern, word
        assert codes.setdefault(pattern, code) == code, word


@pytest.mark.parametrize("k", range(1, 11))
def test_pruned_search_keeps_the_words_with_no_edge_crossed_once(k):
    # whole leaves, each (v, ones, text, pattern) as the full search has it; the live
    # word and crossings are read as each leaf arrives
    def leaves(pruned):
        for word, crossings, v, ones, text, _ in walks._search(k, pruned):
            if pruned or not ones:
                yield tuple(word), v, ones, text, walks._pattern(word, crossings)

    got, want = list(leaves(True)), list(leaves(False))
    assert got == want
    assert [leaf[3] for leaf in got] == ["-".join(map(str, leaf[0])) for leaf in want]


def pruned_prefixes(k: int):
    """(prefix, flat crossings, edges crossed once) per length-(k - 1) prefix kept by pruning.

    Restricted-growth prefixes, each step counted anew into a flat list of
    its own; a prefix is kept while, after each step into position j, no
    more edges are crossed once than the k - j steps left.
    """
    width = k + 1

    def ones(crossings):
        return sum(
            (crossings[i * width + j] + (crossings[j * width + i] if i != j else 0)) == 1
            for i in range(1, width)
            for j in range(i, width)
        )

    def rec(prefix, crossings):
        if len(prefix) == k - 1:
            yield tuple(prefix), crossings, ones(crossings)
            return
        for b in range(1, max(prefix) + 2):
            after = crossings.copy()
            after[prefix[-1] * width + b] += 1
            if ones(after) <= k - len(prefix):
                yield from rec([*prefix, b], after)

    yield from rec([1], [0] * (width * width))


@pytest.mark.parametrize("k", range(2, 9))
def test_closing_letters_are_the_last_letters_that_leave_no_edge_crossed_once(k):
    # brute force over every last letter b: count the steps a -> b and b -> 1, then
    # look for an edge crossed once
    width = k + 1
    prefixes = 0
    for prefix, crossings, once in pruned_prefixes(k):
        a, top = prefix[-1], max(prefix)
        want = []
        for b in range(1, top + 2):
            after = crossings.copy()
            after[a * width + b] += 1
            after[b * width + 1] += 1
            totals = [
                after[i * width + j] + (after[j * width + i] if i != j else 0)
                for i in range(1, width)
                for j in range(i, width)
            ]
            if 1 not in totals:
                want.append(b)
        assert walks._closing_letters(crossings, width, a, top, once) == want, prefix
        prefixes += 1
    assert prefixes > 0


def test_pruned_census_at_twelve_is_pinned():
    # the longest word the oracle takes; the last-letter rule cuts the most there
    shapes, reps = walks._census(12, True)
    assert sum(shapes.values()) == 67880
    assert len(reps) == 192
    assert sum(count for _, count in reps) == 67880
    assert all(f + b >= 2 for rep, _ in reps for f, b in rep.edge_traversals.values())
    assert [rep.canonical_word for rep, _ in reps] == sorted(rep.canonical_word for rep, _ in reps)
    # test_walk_expansion_reads_sc_and_nu_exactly reads sc_6 and nu_12 off this census


@pytest.mark.parametrize("k", range(1, 9))
def test_streamed_classes_match_a_fresh_classification(k):
    # the stream is the recount of each canonical word, which relabels it to itself
    for cls in enumerate_canonical_words(k):
        assert cls == classify_walk(cls.canonical_word)
        assert (cls.cycle_type == walks.SELF_LOOP) == any(i == j for i, j in cls.edge_traversals)


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
    assert (1, 1) in cls.edge_traversals and cls.cycle_type == "self-loop"

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


def test_count_classes_rejects_unknown_type(monkeypatch):
    with pytest.raises(ValueError):
        count_classes(4, cycle_type="spiral")
    # refused before the full stream of 4.2 million classes is counted
    monkeypatch.setattr(walks, "_census", None)
    with pytest.raises(ValueError, match="unknown cycle type"):
        count_classes(12, 5, 7, "spiral")


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
    diag = goe_model().diag_moments
    grid = gue_model().offdiag_moments
    # complex grids smaller than 3 x 3
    for small in (((1,),), ((1, 0), (0, 1)), ((1, 0, 0), (0, 1))):
        with pytest.raises(ValueError, match="grid covering a, b <= 2"):
            MomentModel(is_real=False, offdiag_moments=small, diag_moments=diag)
    # None where the constructor reads an entry
    holed = tuple(
        tuple(None if (a, b) == (2, 2) else x for b, x in enumerate(row))
        for a, row in enumerate(grid)
    )
    bad_tables = [
        (False, holed, diag),
        (True, (1, 0, 1, 0, None), diag),
        (True, (1, 0, 1, 0, 3), (1, 0, None)),
        # a float entry, which exact_moment(6, 3, model) could not sum exactly
        (True, (1, 0, 1, 0, 3, 0, 15.0), diag),
    ]
    for is_real, off, diagonal in bad_tables:
        with pytest.raises(ValueError, match="ints or Fractions"):
            MomentModel(is_real=is_real, offdiag_moments=off, diag_moments=diagonal)
    # the preset builders need the fourth moment, and say so
    builders = (goe_model, gue_model, lambda order: rademacher_model(1, 1, order))
    for build in builders:
        for order in (0, 3):
            with pytest.raises(ValueError, match=f"^max_order must be an int >= 4, got {order}$"):
                build(order)
    # ints are exact, and a complex grid may end in None past a, b <= 2
    model = MomentModel(is_real=True, offdiag_moments=(1, 0, 1, 0, 3, 0, 15), diag_moments=diag)
    assert exact_moment(6, 3, model) == exact_moment(6, 3, goe_model())
    assert gue_model(max_order=4).offdiag_moments[3][3] is None


def test_complex_grids_must_be_three_wide():
    diag = (1, 0, 1)
    three = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    model = MomentModel(is_real=False, offdiag_moments=three, diag_moments=diag)
    assert model.params == gue_model().params
    two = ((1, 0), (0, 1), (0, 0))  # three rows, each 2 wide
    with pytest.raises(ValueError, match="grid covering a, b <= 2"):
        MomentModel(is_real=False, offdiag_moments=two, diag_moments=diag)


def test_models_keep_their_own_tables():
    # lists are stored as tuples, so the model hashes, and a caller's later change
    # to its lists moves neither the tables nor the moments
    real, real_diag = [1, 0, 1, 0, 3], [1, 0, 2, 0, 12]
    grid, grid_diag = [[1, 0, 0], [0, 1, 0], [0, 0, 2]], [1, 0, 1, 0, 3]
    models = [
        (MomentModel(True, real, real_diag), MomentModel(True, tuple(real), tuple(real_diag))),
        (
            MomentModel(False, grid, grid_diag),
            MomentModel(False, tuple(map(tuple, grid)), tuple(grid_diag)),
        ),
    ]
    before = [exact_moment(4, 10, model) for model, _ in models]
    assert before == [exact_moment(4, 10, goe_model()), exact_moment(4, 10, gue_model())]
    for model, twin in models:
        assert model == twin and hash(model) == hash(twin)
        assert type(model.diag_moments) is tuple and type(model.offdiag_moments) is tuple
        assert model.is_real or all(type(row) is tuple for row in model.offdiag_moments)
    real[4] = 7
    real_diag[2] = 5
    grid[2][2] = 9
    grid_diag[4] = 0
    for (model, twin), value in zip(models, before):
        assert model == twin
        walks._census.cache_clear()
        fresh = MomentModel(model.is_real, model.offdiag_moments, model.diag_moments)
        assert exact_moment(4, 10, model) == exact_moment(4, 10, fresh) == value


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


# W = 2 with probability 1/3, else -1: centered, E W^m = (2^m + 2 (-1)^m) / 3, so odd
# moments from the third on are not zero
SKEWED = tuple(Fraction(2**m + 2 * (-1) ** m, 3) for m in range(10))
# the presets, a skewed real model, and a real model whose moments are not all integers
# (last: test_family_rows_read_the_pruned_search reads it)
ROW_MODELS = [
    goe_model(),
    gue_model(),
    rademacher_model(),
    MomentModel(is_real=True, offdiag_moments=SKEWED, diag_moments=SKEWED),
    rademacher_model(Fraction(1, 2), 3),
]


@pytest.mark.parametrize("k", range(1, 8))
def test_class_rows_read_the_classes(k):
    classes = tuple(enumerate_canonical_words(k))
    for model in ROW_MODELS:
        want = []
        for cls in classes:
            value = expected_word_product(cls, model)
            word = "-".join(map(str, cls.canonical_word))
            want.append((word, cls.v, cls.e, cls.cycle_type, value.numerator, value.denominator))
        assert list(class_rows(k, model)) == want


# the lengths with a class whose edges are each crossed twice or more, one three times
@pytest.mark.parametrize("k", (3, 5, 7, 8, 9))
def test_rows_with_an_edge_crossed_three_times_read_the_third_moment(k):
    # only an edge crossed once zeroes a row: under the skewed model, a class whose
    # edges are each crossed twice or more, one of them three times, is not zero
    model = ROW_MODELS[-2]
    thrice = 0
    for cls, row in zip(enumerate_canonical_words(k), class_rows(k, model)):
        totals = [f + b for f, b in cls.edge_traversals.values()]
        if 3 in totals and 1 not in totals:
            value = expected_word_product(cls, model)
            assert row[0] == "-".join(map(str, cls.canonical_word))
            assert row[4:] == (value.numerator, value.denominator) and value != 0
            thrice += 1
    assert thrice > 0


def test_family_rows_read_the_pruned_search(monkeypatch):
    searches = []
    search = walks._search

    def recording(k, pruned):
        searches.append(pruned)
        return search(k, pruned)

    monkeypatch.setattr(walks, "_search", recording)
    model = ROW_MODELS[-1]
    for k in range(1, 10):
        full = list(class_rows(k, model))
        # the families of _query's docstring
        queries = [(None, None, kind) for kind in ("tree", "cycle-one-way", "cycle-both-ways")]
        queries += [(v, v - 1, kind) for v in range(1, k + 2) for kind in (None, "tree")]
        queries += [(k // 2, k // 2, kind) for kind in ("cycle-one-way", "cycle-both-ways")]
        queries += [(k // 2, k // 2, "self-loop")] if k % 2 == 0 else []
        searches.clear()
        for v, e, kind in queries:
            want = [
                row
                for row in full
                if (v is None or row[1] == v)
                and (e is None or row[2] == e)
                and (kind is None or row[3] == kind)
            ]
            assert list(class_rows(k, model, v, e, kind)) == want, (k, v, e, kind)
        # a (v, e) that no class has (v or e outside 1..k, or e < v - 1) reads no search
        possible = [v is None or (1 <= v <= k and 1 <= e <= k) for v, e, _ in queries]
        assert searches == [True] * sum(possible)


def test_class_rows_raise_missing_moments():
    # the all-loop word 1-1-1-1-1-1 needs the diagonal sixth moment
    with pytest.raises(MissingMomentError, match="order 6"):
        list(class_rows(6, goe_model(max_order=4)))
    assert len(list(class_rows(4, goe_model(max_order=4)))) == 15


# tables to order 5 at k = 9: one class has a loop crossed three times (E W_ii^3 = 0)
# and an edge crossed six times (not in the table); the second model's diagonal goes
# on to order 9, so only the off-diagonal moment is missing
SHORT_MODELS = [
    goe_model(5),
    MomentModel(
        is_real=True,
        offdiag_moments=goe_model(5).offdiag_moments,
        diag_moments=goe_model(9).diag_moments,
    ),
]


def recounted_outcome(word: tuple[int, ...], model: MomentModel):
    """(v, e, cycle_type, E[W_c] or None for a missing moment) of a word, by ``classify_walk``.

    Every edge's moment is looked up, with no stop at a zero; a class with an
    edge crossed once is 0.
    """
    cls = classify_walk(word)
    shape = cls.v, cls.e, cls.cycle_type
    if any(f + b == 1 for f, b in cls.edge_traversals.values()):
        return (*shape, Fraction(0))
    value = Fraction(1)
    try:
        for (i, j), (f, b) in cls.edge_traversals.items():
            value *= model.diag_moment(f) if i == j else model.offdiag_mixed(f, b)
    except MissingMomentError:
        return (*shape, None)
    return (*shape, value)


@pytest.mark.parametrize("model", SHORT_MODELS, ids=["goe5", "goe5-diag9"])
def test_a_code_raises_missing_moments_whichever_leaf_is_read(model):
    outcomes: dict = {}
    for word, crossings, *_, code in walks._search(9, True):
        try:
            pattern = walks._pattern(word, crossings)
            outcome = walks._edge_product(walks._EdgeFactors(model), pattern)
        except MissingMomentError:
            outcome = None
        outcomes.setdefault(code, set()).add(outcome)
        assert outcome == recounted_outcome(word, model)[3], word
    assert len(outcomes) == 15
    assert all(len(seen) == 1 for seen in outcomes.values())


@pytest.mark.parametrize("model", SHORT_MODELS, ids=["goe5", "goe5-diag9"])
def test_class_rows_raise_where_a_leaf_recount_does(model):
    leaves = [(tuple(leaf[0]), leaf[4]) for leaf in walks._search(9, False)]
    recount = [(text, *recounted_outcome(word, model)) for word, text in leaves]
    for v in (None, 2, 3):
        want = []
        for text, cv, ce, kind, value in recount:
            if v is None or cv == v:
                if value is None:
                    break
                want.append((text, cv, ce, kind, value.numerator, value.denominator))
        else:
            assert list(class_rows(9, model, v)) == want, v
            continue
        rows = class_rows(9, model, v)
        assert [next(rows) for _ in want] == want, v
        with pytest.raises(MissingMomentError):
            next(rows)


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
    for n in (1, 2, 3, 7, 17, 64):
        c = [Fraction(n), Fraction(n * n)]
        for l in range(2, 7):
            step = (4 * l - 2) * n * c[-1] + (l - 1) * (2 * l - 1) * (2 * l - 3) * c[-2]
            c.append(step / (l + 1))
        for l, want in enumerate(c):
            assert n ** (l + 1) * exact_moment(2 * l, n, gue_model()) == want


def test_exact_moment_guards():
    model = goe_model()
    assert exact_moment(0, 5, model) == 1
    assert exact_moment(0, 1, model) == 1
    with pytest.raises(ValueError, match="even"):
        exact_moment(3, 5, model)
    with pytest.raises(ValueError):
        exact_moment(14, 5, model)
    with pytest.raises(ValueError):
        exact_moment(2, 0, model)
    # the size is checked before any k, and must be an int: not a bool, not a float
    for k in (0, 2, 3):
        for n in (0, -3, 2.5, 2.0, True, Fraction(2), "2"):
            with pytest.raises(ValueError, match="matrix size"):
                exact_moment(k, n, model)


def test_exact_moment_takes_numpy_integer_sizes():
    model = goe_model()
    got = exact_moment(4, np.int64(8), model)
    assert got == exact_moment(4, 8, model) == 2 + Fraction(5, 8) + Fraction(5, 64)
    assert type(got.numerator) is int and type(got.denominator) is int
    for n in (True, 8.0, 0):
        with pytest.raises(ValueError, match=rf"^matrix size must be an int >= 1, got {n!r}$"):
            exact_moment(4, n, model)


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


EXPANSION_MODELS = {
    "goe": goe_model(),
    "gue": gue_model(),
    "rademacher": rademacher_model(),
    "rademacher-2-3": rademacher_model(2, 3),
}
# Harer & Zagier: the 1/n^2 coefficient of the unit-variance GUE moment of order 2l
GUE_SECOND_ORDER = {2: 0, 4: 1, 6: 10, 8: 70, 10: 420, 12: 2310}


def assert_polynomial_ends(k: int, model: MomentModel) -> tuple:
    """The walk polynomial P(n) = n^(1+k/2) sigma^k m_k(n), its ends checked.

    Its falling factorials n ... (n-v+1) have v <= e + 1 <= k/2 + 1, so it has
    k/2 + 2 coefficients, highest power first; the top two are sc_k and nu_k
    times sigma^k, P(0) = 0, and P(1) is the one diagonal entry's k-th moment.
    """
    coeffs = walk_polynomial(k, model)
    scale = model.sigma2 ** (k // 2)
    assert len(coeffs) == k // 2 + 2, k
    assert coeffs[0] == scale * semicircle_moment(k), k
    assert coeffs[1] == scale * nu_moment(k, model.params), k
    assert coeffs[-1] == 0, k
    assert sum(coeffs) == model.diag_moment(k), k
    return coeffs


@pytest.mark.parametrize("name", list(EXPANSION_MODELS))
@pytest.mark.parametrize("k", range(2, 13, 2))
def test_walk_expansion_reads_sc_and_nu_exactly(name, k):
    # with PINNED_MOMENTS at five sizes, these fix every coefficient up to k = 12
    coeffs = assert_polynomial_ends(k, EXPANSION_MODELS[name])
    if name == "gue":
        assert coeffs[2] == GUE_SECOND_ORDER[k]


# rationals for the moments no check constrains, and for the variances
ANY_MOMENT = st.fractions(min_value=-8, max_value=8, max_denominator=12)
VARIANCE = st.fractions(min_value=0, max_value=4, max_denominator=12)
MODEL_ORDER = 8


@st.composite
def moment_models(draw, is_real: bool) -> MomentModel:
    """A random rational model that passes ``MomentModel``'s checks, tables to order 8.

    Centered; sigma2 > 0, alpha >= sigma2^2, complex E W^2 = 0; every other
    entry drawn freely.
    """
    sigma2 = draw(VARIANCE.filter(bool))
    alpha = sigma2**2 + draw(VARIANCE)
    diag = (1, 0, draw(VARIANCE), *(draw(ANY_MOMENT) for _ in range(3, MODEL_ORDER + 1)))
    if is_real:
        off = (1, 0, sigma2, draw(ANY_MOMENT), alpha)
        off += tuple(draw(ANY_MOMENT) for _ in range(5, MODEL_ORDER + 1))
        return MomentModel(is_real=True, offdiag_moments=off, diag_moments=diag)
    fixed = {(0, 0): 1, (1, 0): 0, (0, 1): 0, (2, 0): 0, (0, 2): 0, (1, 1): sigma2, (2, 2): alpha}
    grid = tuple(
        tuple(
            fixed[a, b] if (a, b) in fixed else draw(ANY_MOMENT) if a + b <= MODEL_ORDER else None
            for b in range(MODEL_ORDER + 1)
        )
        for a in range(MODEL_ORDER + 1)
    )
    return MomentModel(is_real=False, offdiag_moments=grid, diag_moments=diag)


@pytest.mark.parametrize("is_real", [True, False], ids=["real", "complex"])
@settings(deadline=None, max_examples=13)
@given(data=st.data())
def test_walk_expansion_reads_nu_for_any_moment_model(is_real, data):
    # the walk route's 1/n coefficient depends on the model through (r, sigma2, s2,
    # alpha) alone, as nu_moment's closed form says
    model = data.draw(moment_models(is_real))
    for k in range(2, MODEL_ORDER + 1, 2):
        assert_polynomial_ends(k, model)


def test_tallies_cache_is_keyed_by_length():
    # fresh models are no cache keys: only the word lengths used are
    walks._census.cache_clear()
    for order in range(12, 62):
        model = goe_model(order)
        assert exact_moment(2, 3, model) == Fraction(4, 3)
        assert exact_moment(4, 3, model) == Fraction(38, 9)
    assert walks._census.cache_info().currsize == 2


def count_products(monkeypatch) -> list:
    """The classes ``expected_word_product`` is called with from now on."""
    seen: list = []
    product = walks.expected_word_product

    def counting(cls, model):
        seen.append(cls)
        return product(cls, model)

    monkeypatch.setattr(walks, "expected_word_product", counting)
    return seen


def test_each_model_sums_each_polynomial_once(monkeypatch):
    reps = len(walks._census(10, True)[1])
    seen = count_products(monkeypatch)
    model = goe_model()
    values = [exact_moment(10, n, model) for n in ORACLE_SIZES]
    assert walk_polynomial(10, model) == walk_polynomial(np.int64(10), model)
    assert len(seen) == reps == 67
    assert [str(value) for value in values] == list(PINNED_MOMENTS["goe", 10])
    # an equal model is no key: it sums its own, and the memo moves no comparison
    twin = goe_model()
    assert twin == model and hash(twin) == hash(model)
    assert [exact_moment(10, n, twin) for n in ORACLE_SIZES] == values
    assert len(seen) == 2 * reps
    assert list(model._polynomials) == list(twin._polynomials) == [10]
    # a replaced model starts empty, so it sums its own tables
    heavy = replace(model, offdiag_moments=(1, 0, 1, 0, 4, *model.offdiag_moments[5:]))
    assert heavy._polynomials == {}
    fresh = MomentModel(True, heavy.offdiag_moments, heavy.diag_moments)
    assert exact_moment(4, 2, heavy) == exact_moment(4, 2, fresh) != exact_moment(4, 2, model)
    # the length is checked before the memo, which now holds 4, is read: 4.0 is refused
    assert 4 in model._polynomials
    with pytest.raises(ValueError, match="^word length must be an int >= 0, got 4.0$"):
        walk_polynomial(4.0, model)


def test_cold_exact_moment_is_small():
    # a cold k = 10 oracle keeps its census and visits the 4,900 classes that count,
    # never all 115,975
    bound = 16 << 20
    models = (goe_model(), gue_model(), rademacher_model())
    walks._census.cache_clear()
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
