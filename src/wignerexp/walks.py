"""Brute-force ground truth: closed-walk classes and exact finite-n moments.

Classes.  A length-k word i_1 ... i_k (closed by the step i_k -> i_1)
determines a closed spanning walk on the graph with vertices {i_1, ...,
i_k} and the unordered step pairs as edges (self-loops allowed, no
multiplicities).  Words that differ only by a renaming of letters
contribute equally to the expected trace, so each class is enumerated once
via its canonical representative: the word whose letters appear in
increasing order of first use (a restricted-growth string).  There are
Bell(k) classes of length k, which bounds the practical word length; see
``MAX_WORD_LENGTH``.

The search.  One depth-first search over restricted-growth words,
``_search(k, pruned)``, serves every caller, in lexicographic order.  It is
one generator loop over an explicit stack, one entry per position 1..k-1:
the shape counters of the steps before it (edges, self-loops, edges
crossed once and edges crossed twice), its top letter, its text (the
letters so far joined by "-") and its code.  The directed crossing counts
sit in one flat list (the step a -> b at index a * (k + 1) + b; slot 0,
which no step reaches, is read as a loop's other way), raised on each
step and lowered on backtrack.  Every step, the last letter's and the
closing step back to letter 1 included, goes through one inline update of
the counters from its edge's new counts, the one tally rule.  Each leaf is
classified and yielded from that loop, with no call per step.

The code.  Each edge state (is_loop, fwd, bwd) a length-k word can have
weighs (k + 1) ** index, one index per state (``_code_tables``), and a
word's code is the sum of its edges' weights.  No state is on more than k
edges, so the sum is a base-(k + 1) numeral of the state counts: two words
have equal codes exactly when their multisets of edge states are equal.
The tally rule keeps it as the counters are kept: a step adds, from one of
three tables (step i -> j, step j -> i, loop), its edge's weight after the
step less its weight before.  Like Zobrist's keys for game positions, it is
kept step by step, but it is exact, with no hashing.

The leaf.  Each word reaches its caller as one tuple, (word, crossings, v,
e, cycle_type, ones, text, code) (``_Leaf``): v letters, e edges, the cycle
type ``WalkClass`` defines, ``ones`` edges crossed once, the text and the
code.  ``crossings`` is live, so read it before resuming the search.  One
reader, ``_pattern``, turns it into the leaf's per-edge counts, the
(is_loop, fwd, bwd) of each edge; ``class_rows`` calls it only for the
first leaf of each code.  ``classify_walk`` recounts a word's steps into a
dict of its own, apart from the search's counters: it is the reference the
search is tested against, and the one maker of a ``WalkClass``.

Pruning.  An edge crossed once gives a first moment, which ``MomentModel``
holds at zero (entries are centered), so only the classes whose every edge
is crossed at least twice contribute.  Each remaining step, the closing one
included, brings at most one edge crossed once to two crossings, so the
pruned search cuts a prefix with more such edges than steps left, with its
whole subtree.  It yields exactly the leaves with ``ones == 0``, in the
same order.  A (v, e, cycle_type) query that lies wholly among those
classes (``_pruned_answers``) reads the pruned search; any other reads the
full one.  Every query is tested by the one matcher ``_matcher``.

The census.  ``_census(k, pruned)`` reads one search once and keeps two
things: the class count per (v, e, cycle_type), and the weighted
representatives, one per v and code (which fix the class's moment factor),
each the ``classify_walk`` of its first leaf, with its class count.  No
leaf is read again.  At k = 10, 67 representatives stand for the 4,900
classes that count, of 115,975; at k = 12, 192 stand for 67,880 of
4,213,597.  The oracle and the family counts share the pruned census of
each k.

The polynomial.  Expected moments at finite n are exact rationals,

    m_k(n) = P(n) / (n^(1 + k/2) sigma^k),

    P(n) = sum over representatives of  count E[W_c] n (n-1) ... (n-v+1),

where E[W_c] is the product of entry moments read off the edge crossing
counts: one product, ``_edge_product``, of per-edge factors from a table
(``_EdgeFactors``) that computes each entry moment of a model on first
use.  The entry distribution enters only through its moment tables
(``MomentModel``); built-in models cover the real and complex Gaussian
ensembles and real Rademacher entries.  ``walk_polynomial`` returns P's
coefficients, and ``exact_moment`` evaluates them: the sum is written once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import starmap
from operator import eq
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .combinatorics import EnsembleParams, _int_at_least

MAX_WORD_LENGTH = 12
# "-" and the decimal string of each letter: a word's text grows by one per step
_DASHED = tuple(f"-{letter}" for letter in range(MAX_WORD_LENGTH + 1))

TREE = "tree"
SELF_LOOP = "self-loop"
CYCLE_ONE_WAY = "cycle-one-way"
CYCLE_BOTH_WAYS = "cycle-both-ways"
OTHER = "other"
CYCLE_TYPES = (TREE, SELF_LOOP, CYCLE_ONE_WAY, CYCLE_BOTH_WAYS, OTHER)
# a class's (v, e, cycle_type), the key it is counted under
_Shape = NamedTuple("_Shape", [("v", int), ("e", int), ("cycle_type", str)])
# directed crossing counts [i->j, j->i] per unordered edge (i, j), i <= j, as
# ``classify_walk`` recounts them
_Counts = dict[tuple[int, int], list[int]]
# a search leaf: (word, crossings, v, e, cycle_type, edges crossed once, text, code)
_Leaf = tuple[tuple[int, ...], list[int], int, int, str, int, str, int]
# an edge's state, as ``_pattern`` reports it: (is_loop, fwd, bwd)
_State = tuple[bool, int, int]
# a census: class count per (v, e, cycle_type), and (representative, class count) pairs
_Census = tuple[Mapping[tuple[int, int, str], int], tuple[tuple["WalkClass", int], ...]]
# the test of a (v, e, cycle_type) query, as ``_matcher`` builds it
_Match = Callable[[int, int, str], bool]


class _CodeTables(NamedTuple):
    """The leaf code's weight per edge state, and its change per step (``_code_tables``)."""

    weights: Mapping[_State, int]
    rise: tuple[int, ...]  # a step i -> j, i < j
    fall: tuple[int, ...]  # a step j -> i
    loop: tuple[int, ...]  # a step i -> i


class MissingMomentError(LookupError):
    """A walk needs an entry moment of higher order than the model provides."""


@dataclass(frozen=True)
class WalkClass:
    """Canonical representative of a letter-renaming class of closed words.

    edge_traversals maps each unordered pair (i, j) with i <= j to directed
    counts (i->j, j->i); for self-loops (i, i) the count sits in the first
    slot.  cycle_type is one of ``CYCLE_TYPES``: a tree (e = v-1), a graph
    with a self-loop, a unicyclic graph whose edges are all crossed exactly
    twice with the cycle run one way or both ways, or "other" for any
    remaining traversal pattern.
    """

    canonical_word: tuple[int, ...]
    v: int
    e: int
    edge_traversals: Mapping[tuple[int, int], tuple[int, int]]
    cycle_type: str


def canonicalize(word: Sequence) -> tuple[int, ...]:
    """Relabel letters by order of first occurrence: 1, 2, 3, ..."""
    mapping: dict = {}
    out = []
    for letter in word:
        if letter not in mapping:
            mapping[letter] = len(mapping) + 1
        out.append(mapping[letter])
    return tuple(out)


def _cross(counts: _Counts, a: int, b: int) -> None:
    """Count the step a -> b on its unordered edge; a self-loop's count sits in the first slot."""
    key = (a, b) if a <= b else (b, a)
    slot = counts.get(key)
    if slot is None:
        slot = counts[key] = [0, 0]
    slot[a > b] += 1


def _leaf(word: tuple[int, ...], counts: _Counts) -> _Shape:
    """The (v, e, cycle_type) of a canonical word from the crossing counts of all its steps.

    v counts the letters, e the edges, and the cycle type is the
    ``CYCLE_TYPES`` entry the ``WalkClass`` docstring defines.
    """
    v, e = max(word), len(counts)
    if e == v - 1:
        kind = TREE
    elif any(starmap(eq, counts)):  # a key (i, i)
        kind = SELF_LOOP
    elif e != v or any(f + b != 2 for f, b in counts.values()):
        kind = OTHER
    else:
        # a closed walk is a circulation: equal flow each way over a bridge,
        # one net flow round the cycle, so the cycle is run one way iff some
        # edge is crossed (2, 0) or (0, 2)
        one_way = any(f != b for f, b in counts.values())
        kind = CYCLE_ONE_WAY if one_way else CYCLE_BOTH_WAYS
    return _Shape(v, e, kind)


@lru_cache(maxsize=MAX_WORD_LENGTH)
def _code_tables(k: int) -> _CodeTables:
    """The weight of each edge state of a length-k word, and the search's step tables.

    The states are indexed by their total crossings first, so a word whose
    edges are crossed few times has a small code.  Each step table holds,
    by the edge's counts after the step (``here * (k + 1) + there``: this
    way, then the other way), the weight of its state then less the weight
    of its state before.  A loop has no other way, so its ``there`` is 0.
    """
    width = k + 1
    states = [(False, fwd, total - fwd) for total in range(1, width) for fwd in range(total + 1)]
    states += [(True, count, 0) for count in range(1, width)]
    states.sort(key=lambda state: state[1] + state[2])
    weights = {state: width**index for index, state in enumerate(states)}
    weight = {**weights, (False, 0, 0): 0, (True, 0, 0): 0}.__getitem__
    rise, fall, loop = ([0] * (width * width) for _ in range(3))
    for here in range(1, width):
        for there in range(width - here):
            at = here * width + there
            rise[at] = weight((False, here, there)) - weight((False, here - 1, there))
            fall[at] = weight((False, there, here)) - weight((False, there, here - 1))
        loop[here * width] = weight((True, here, 0)) - weight((True, here - 1, 0))
    return _CodeTables(MappingProxyType(weights), tuple(rise), tuple(fall), tuple(loop))


def _search(k: int, pruned: bool) -> Iterator[_Leaf]:
    """Yield one ``_Leaf`` per canonical word of length k, ``pruned`` or not.

    The search, its leaf and its pruning rule are the module docstring's.
    Position 0 is letter 1, and letter m+1 may only appear after letters
    1..m.  Step ``pos`` leads into letter ``pos`` of the word; step k is the
    closing one, back to letter 1.  Every caller checks k first.
    """
    width = k + 1
    word = [1] * k
    crossings = [0] * (width * width)
    tables = _code_tables(k)
    # by the flat index of a step a -> b: its code table, that table's entry for a new
    # edge, and the index of the step b -> a, or 0 for a loop (a slot no step reaches)
    changes = [
        tables.loop if a == b else tables.rise if a < b else tables.fall
        for a in range(width)
        for b in range(width)
    ]
    firsts = [table[width] for table in changes]
    reverse = [b * width + a if a != b else 0 for a in range(width) for b in range(width)]
    # position pos < k: the tally of word[:pos]'s steps, its top letter, its text and its code
    stack = [(0, 0, 0, 0, 1, "1", 0)] * k
    edges, loops, once, twice, top, text, code = stack[0]
    pos = a = b = 1
    while True:
        # the step a -> b; its edge's new total decides the tally: 1 adds an edge
        # (and a loop when a == b), 2 moves it from once to twice, 3 takes it out of
        # twice; its counts, this way and the other, give the change of the code
        ab = a * width + b
        here = crossings[ab] + 1
        crossings[ab] = here
        there = crossings[reverse[ab]]
        total = here + there
        if total == 1:
            edges += 1
            loops += a == b
            once += 1
            code += firsts[ab]
        else:
            code += changes[ab][here * width + there]
            if total == 2:
                once -= 1
                twice += 1
            elif total == 3:
                twice -= 1
        if not pruned or once <= k - pos:
            if pos < k:
                word[pos] = b
                text += _DASHED[b]
                if b > top:
                    top = b
                pos += 1
                if pos < k:
                    stack[pos] = edges, loops, once, twice, top, text, code
                a, b = b, 1  # at pos == k, the closing step
                continue
            if edges == top - 1:
                kind = TREE
            elif loops:
                kind = SELF_LOOP
            elif edges != top or twice != edges:
                kind = OTHER
            else:  # see ``_leaf``: one way iff some step is taken twice the same way
                steps = zip(word, word[1:] + word[:1])
                one_way = any(crossings[i * width + j] != 1 for i, j in steps)
                kind = CYCLE_ONE_WAY if one_way else CYCLE_BOTH_WAYS
            yield tuple(word), crossings, top, edges, kind, once, text, code
        crossings[ab] -= 1
        # the next letter at pos, backing up past each position whose letters are all
        # tried (the closing step has one), each step undone on the way
        while True:
            if pos < k:
                edges, loops, once, twice, top, text, code = stack[pos]
                b += 1
                if b <= top + 1:
                    break
            pos -= 1
            if not pos:
                return
            b = word[pos]
            crossings[word[pos - 1] * width + b] -= 1
        a = word[pos - 1]


def _pattern(word: tuple[int, ...], crossings: list[int]) -> list[_State]:
    """(is_loop, fwd, bwd) per edge (i, j), i <= j, of a ``_search`` leaf, first crossed first.

    fwd counts the steps i -> j and bwd the steps j -> i, read from the
    flat crossings; a self-loop's count is fwd, its bwd 0.  Edges are told
    apart by their flat index.
    """
    width = len(word) + 1
    seen = set()
    pattern = []
    for a, b in zip(word, word[1:] + word[:1]):
        i, j = (a, b) if a <= b else (b, a)
        ij = i * width + j
        if ij not in seen:
            seen.add(ij)
            pattern.append((i == j, crossings[ij], crossings[j * width + i] if i != j else 0))
    return pattern


def classify_walk(word: Sequence) -> WalkClass:
    """Classify a closed-walk word (any letter type; relabeled canonically).

    The word's steps are counted anew into a dict, apart from the search's
    counters, so this is the recount the search is tested against.
    """
    word = canonicalize(word)
    if not word:
        raise ValueError("word length must be positive, got 0")
    counts: _Counts = {}
    for a, b in zip(word, word[1:] + word[:1]):
        _cross(counts, a, b)
    v, e, kind = _leaf(word, counts)
    return WalkClass(word, v, e, {key: (fwd, bwd) for key, (fwd, bwd) in counts.items()}, kind)


def enumerate_canonical_words(k: int) -> Iterator[WalkClass]:
    """Stream ``classify_walk`` of each canonical word of length k, in the search's order.

    k is checked as by ``check_word_length``, at the first ``next()``.
    """
    for leaf in _search(check_word_length(k), False):
        yield classify_walk(leaf[0])


def check_word_length(k: int) -> int:
    """k as an int, refused unless 1 <= k <= ``MAX_WORD_LENGTH`` (a NumPy integer passes)."""
    k = _int_at_least(k, 1, "word length")
    if k > MAX_WORD_LENGTH:
        raise ValueError(
            f"word length {k} exceeds the enumeration bound {MAX_WORD_LENGTH} "
            f"(class counts grow like Bell numbers)"
        )
    return k


@lru_cache(maxsize=2 * MAX_WORD_LENGTH)
def _census(k: int, pruned: bool) -> _Census:
    """The module docstring's census of ``_search(k, pruned)``, its class counts read-only.

    k is checked, so the cache holds at most 2 * ``MAX_WORD_LENGTH`` keys.
    """
    check_word_length(k)
    shapes: Counter = Counter()
    weights: Counter = Counter()  # class count per representative key (v, code)
    firsts: dict[tuple[int, int], tuple[int, ...]] = {}  # the first word of each key
    for word, _, v, e, kind, ones, _, code in _search(k, pruned):
        shapes[v, e, kind] += 1
        if not ones:
            key = (v, code)
            weights[key] += 1
            firsts.setdefault(key, word)
    reps = tuple((classify_walk(firsts[key]), count) for key, count in weights.items())
    return MappingProxyType(shapes), reps


def _matcher(v: int | None, e: int | None, cycle_type: str | None) -> _Match | None:
    """The test (v, e, cycle_type) -> bool of a query, or None for the empty query.

    The cycle type is checked here, before any class is read.
    """
    if cycle_type is not None and cycle_type not in CYCLE_TYPES:
        raise ValueError(f"unknown cycle type {cycle_type!r}; expected one of {CYCLE_TYPES}")
    if v is None and e is None and cycle_type is None:
        return None
    return lambda cv, ce, kind: (
        (v is None or cv == v)
        and (e is None or ce == e)
        and (cycle_type is None or kind == cycle_type)
    )


def _possible(k: int, v: int | None, e: int | None) -> bool:
    """False when no class of length k has the given v or e.

    A class's graph is connected and its k steps cross every edge, so
    1 <= v <= k, 1 <= e <= k and e >= v - 1.
    """
    return (
        (v is None or 1 <= v <= k)
        and (e is None or 1 <= e <= k)
        and (v is None or e is None or e >= v - 1)
    )


def count_classes(
    k: int,
    v: int | None = None,
    e: int | None = None,
    cycle_type: str | None = None,
) -> int:
    """Number of classes of length k matching the given (v, e, cycle_type).

    Summed from the class counts of ``_census``: of the pruned search for
    the queries that ``_pruned_answers`` accepts (the closed-form
    families), of the full stream of all Bell(k) classes for any other.  A
    (v, e) that no class has (see ``_possible``) is 0 with no search.
    """
    k = check_word_length(k)
    match = _matcher(v, e, cycle_type)  # before a stream of Bell(k) classes
    if not _possible(k, v, e):
        return 0
    shapes, _ = _census(k, _pruned_answers(k, v, e, cycle_type))
    return sum(count for shape, count in shapes.items() if match is None or match(*shape))


def _pruned_answers(k: int, v: int | None, e: int | None, cycle_type: str | None) -> bool:
    """True when every class matching the query crosses each edge at least twice.

    Then the pruned search, which yields exactly those classes, counts and
    lists the query in full.  A closed walk crosses every edge of its graph
    at least once.
    - Trees (``cycle_type`` tree, or e = v - 1, which forces a tree): every
      edge is a bridge, and a closed walk crosses a bridge as often one way
      as the other, so an even number of times, hence at least twice.
    - Both cycle types are defined by f + b = 2 on every edge.
    - A self-loop class with v = e = k/2: connecting v vertices takes v - 1
      non-loop edges, so of its e = v edges one is a loop and the others
      form a spanning tree.  The tree's bridges take an even count >= 2
      each, at least 2(v - 1) = k - 2 of the k steps and an even number of
      them, so k - 2 (the loop needs one).  The loop takes the other two.
    """
    if cycle_type in (TREE, CYCLE_ONE_WAY, CYCLE_BOTH_WAYS):
        return True
    if v is not None and e == v - 1:
        return True
    return cycle_type == SELF_LOOP and v is not None and e == v and 2 * v == k


# -- entry moment models ---------------------------------------------------


@dataclass(frozen=True)
class MomentModel:
    """Full moment tables of an entry distribution, as exact rationals (ints or Fractions).

    Real case: ``offdiag_moments[m]`` is E[W^m].  Complex case:
    ``offdiag_moments[a][b]`` is E[W^a conj(W)^b] (None where a + b exceeds
    the table order).  ``diag_moments[m]`` is E[W_ii^m]; diagonal entries
    are real in both cases.  Tables must reach the longest word the oracle
    will see (one edge can absorb every step of a word).
    """

    is_real: bool
    offdiag_moments: tuple
    diag_moments: tuple[Fraction, ...]

    def __post_init__(self):
        diag, off = self.diag_moments, self.offdiag_moments
        if len(diag) < 3:
            raise ValueError("diagonal table must cover orders 0..2 at least")
        if self.is_real:
            if len(off) < 5:
                raise ValueError("real off-diagonal table must cover orders 0..4")
            entries = [*diag, *off]
        else:
            if not (
                len(off) >= 3
                and all(isinstance(row, (tuple, list)) for row in off)
                and min(map(len, off[:3])) >= 3
            ):
                raise ValueError("complex off-diagonal table must be a grid covering a, b <= 2")
            entries = [*diag]
            for a, row in enumerate(off):
                entries += (x for b, x in enumerate(row) if x is not None or max(a, b) <= 2)
        if not all(isinstance(x, (int, Fraction)) for x in entries):
            raise ValueError(
                "moment tables must hold ints or Fractions, or None in a complex grid "
                "where a or b exceeds 2"
            )
        if diag[0] != 1 or diag[1] != 0:
            raise ValueError("diagonal entries must be centered with E[W^0] = 1")
        if self.is_real:
            if off[0] != 1 or off[1] != 0:
                raise ValueError("off-diagonal entries must be centered with E[W^0] = 1")
        else:
            if off[0][0] != 1 or off[1][0] != 0 or off[0][1] != 0:
                raise ValueError("complex off-diagonal entries must be centered")
            if off[2][0] != 0 or off[0][2] != 0:
                raise ValueError("complex case requires E[W^2] = 0")
        self.params  # surfaces the alpha >= sigma2^2 violation early

    @property
    def max_order(self) -> int:
        return len(self.offdiag_moments) - 1

    @property
    def params(self) -> EnsembleParams:
        """The (r, sigma2, s2, alpha) quadruple this model realizes."""
        if self.is_real:
            return EnsembleParams(
                r=1,
                sigma2=self.offdiag_moments[2],
                s2=self.diag_moments[2],
                alpha=self.offdiag_moments[4],
            )
        return EnsembleParams(
            r=0,
            sigma2=self.offdiag_moments[1][1],
            s2=self.diag_moments[2],
            alpha=self.offdiag_moments[2][2],
        )

    @property
    def sigma2(self) -> Fraction:
        return self.params.sigma2

    def offdiag_moment(self, m: int) -> Fraction:
        """E[W^m] for a real off-diagonal entry."""
        if not self.is_real:
            raise ValueError("plain powers need mixed moments in the complex case")
        if m >= len(self.offdiag_moments):
            raise MissingMomentError(
                f"off-diagonal moment of order {m} not in the model (table stops at "
                f"{len(self.offdiag_moments) - 1})"
            )
        return self.offdiag_moments[m]

    def offdiag_mixed(self, a: int, b: int) -> Fraction:
        """E[W^a conj(W)^b] for a complex off-diagonal entry, oriented i < j."""
        if self.is_real:
            return self.offdiag_moment(a + b)
        grid = self.offdiag_moments
        value = grid[a][b] if a < len(grid) and b < len(grid[a]) else None
        if value is None:
            raise MissingMomentError(
                f"mixed off-diagonal moment of order ({a}, {b}) not in the model "
                f"(table covers total order <= {self.max_order})"
            )
        return value

    def diag_moment(self, m: int) -> Fraction:
        """E[W_ii^m] for a diagonal entry."""
        if m >= len(self.diag_moments):
            raise MissingMomentError(
                f"diagonal moment of order {m} not in the model (table stops at "
                f"{len(self.diag_moments) - 1})"
            )
        return self.diag_moments[m]


def _gaussian_moments(variance: Fraction, max_order: int) -> tuple[Fraction, ...]:
    # E[N(0, v)^(2j)] = v^j (2j - 1)!!
    out = []
    for m in range(max_order + 1):
        if m % 2 == 1:
            out.append(Fraction(0))
        else:
            j = m // 2
            out.append(variance**j * (math.factorial(2 * j) // (2**j * math.factorial(j))))
    return tuple(out)


def goe_model(max_order: int = 16) -> MomentModel:
    """Real Gaussian entries: off-diagonal variance 1, diagonal variance 2."""
    max_order = _int_at_least(max_order, 4, "max_order")
    return MomentModel(
        is_real=True,
        offdiag_moments=_gaussian_moments(Fraction(1), max_order),
        diag_moments=_gaussian_moments(Fraction(2), max_order),
    )


def gue_model(max_order: int = 16) -> MomentModel:
    """Standard complex Gaussian off-diagonal (E|W|^2 = 1), real N(0,1) diagonal.

    Mixed moments: E[W^a conj(W)^b] = a! if a = b, else 0.
    """
    max_order = _int_at_least(max_order, 4, "max_order")
    grid = tuple(
        tuple(
            (Fraction(math.factorial(a)) if a == b else Fraction(0))
            if a + b <= max_order
            else None
            for b in range(max_order + 1)
        )
        for a in range(max_order + 1)
    )
    return MomentModel(
        is_real=False,
        offdiag_moments=grid,
        diag_moments=_gaussian_moments(Fraction(1), max_order),
    )


def rademacher_model(
    sigma2: Fraction | int = 1, s2: Fraction | int = 1, max_order: int = 16
) -> MomentModel:
    """Signed entries: off-diagonal +-sigma, diagonal +-s, each fair.

    Even moments are pure powers of the variances, so alpha = sigma2^2, the
    smallest fourth moment a centered distribution of that variance allows.
    """
    max_order = _int_at_least(max_order, 4, "max_order")
    sigma2 = Fraction(sigma2)
    s2 = Fraction(s2)
    off = tuple(sigma2 ** (m // 2) if m % 2 == 0 else Fraction(0) for m in range(max_order + 1))
    diag = tuple(s2 ** (m // 2) if m % 2 == 0 else Fraction(0) for m in range(max_order + 1))
    return MomentModel(is_real=True, offdiag_moments=off, diag_moments=diag)


PRESET_MODELS = {"goe": goe_model, "gue": gue_model, "rademacher": rademacher_model}


# -- exact expectations ----------------------------------------------------


class _EdgeFactors(dict):
    """Entry moments of one model by (is_loop, fwd, bwd), each computed on first use.

    The key describes an edge (i, j), i <= j, crossed fwd times i -> j and
    bwd times j -> i.  A self-loop is a diagonal entry, its count in
    ``fwd``; any other edge is an off-diagonal entry, oriented i < j.  An
    integral moment is stored as an int, so a product of integral factors
    never builds a Fraction.
    """

    def __init__(self, model: MomentModel):
        super().__init__()
        self.model = model

    def __missing__(self, key: _State) -> int | Fraction:
        is_loop, fwd, bwd = key
        value = self.model.diag_moment(fwd) if is_loop else self.model.offdiag_mixed(fwd, bwd)
        value = self[key] = value.numerator if value.denominator == 1 else value
        return value


def _edge_product(factors: _EdgeFactors, pattern: Iterable[_State]) -> int | Fraction:
    """The product of ``factors`` over the (is_loop, fwd, bwd) keys of ``pattern``, stopped at 0."""
    value = 1
    for key in pattern:
        value *= factors[key]
        if not value:
            break
    return value


def expected_word_product(cls: WalkClass, model: MomentModel) -> Fraction:
    """E[W_c]: product of entry moments over the edges of the class graph."""
    pattern = ((i == j, fwd, bwd) for (i, j), (fwd, bwd) in cls.edge_traversals.items())
    return Fraction(_edge_product(_EdgeFactors(model), pattern))


def class_rows(
    k: int,
    model: MomentModel,
    v: int | None = None,
    e: int | None = None,
    cycle_type: str | None = None,
) -> Iterator[tuple[str, int, int, str, int, int]]:
    """(word, v, e, cycle_type, exp_num, exp_den) per class of length k matching the query.

    The rows of ``wignerexp enumerate``, in lexicographic order: ``word``
    joins the canonical letters with "-", and exp_num / exp_den is the
    ``expected_word_product`` of the class in lowest terms.  Each row is read
    straight from a search leaf, its word the leaf's text, with no
    ``WalkClass``; the query filters the leaf before its expectation is
    built, and a (v, e) that no class has (see ``_possible``) reads no
    search at all.  The product is built once per leaf code, from the first
    leaf with it, and a class with an edge crossed once is written 0 / 1
    with no product.  A query is read from the pruned search or the full
    one as the module docstring's pruning rule says.
    """
    k = check_word_length(k)
    match = _matcher(v, e, cycle_type)
    if not _possible(k, v, e):
        return
    factors = _EdgeFactors(model)
    values: dict[int, tuple[int, int]] = {}  # (exp_num, exp_den) per leaf code
    pruned = _pruned_answers(k, v, e, cycle_type)
    for word, crossings, cv, ce, kind, ones, text, code in _search(k, pruned):
        if match is None or match(cv, ce, kind):
            if ones:
                yield text, cv, ce, kind, 0, 1
                continue
            value = values.get(code)
            if value is None:
                product = _edge_product(factors, _pattern(word, crossings))
                value = values[code] = product.numerator, product.denominator
            yield text, cv, ce, kind, *value


def walk_polynomial(k: int, model: MomentModel) -> tuple[int | Fraction, ...]:
    """The coefficients of P(n) = n^(1 + k/2) sigma^k m_k(n), highest power first.

    P is the module docstring's sum over the pruned census, its weights
    summed per v and each falling factorial expanded once, by the signed
    Stirling numbers of the first kind.  A class that counts has v <= e + 1
    <= k/2 + 1, so there are k/2 + 2 coefficients, c[0] / sigma^k the
    semicircle moment and c[1] / sigma^k the 1/n correction; an integral
    one is an int.  Even k only, at most ``MAX_WORD_LENGTH``.
    """
    k = _int_at_least(k, 0, "word length")
    if k % 2 == 1:
        raise ValueError(
            "exact finite-size moments are rational for even k only; odd moments "
            "vanish for symmetric entry distributions"
        )
    if k == 0:  # P(n) = n
        return 1, 0
    top = k // 2 + 1
    weights: list[int | Fraction] = [0] * (top + 1)  # count E[W_c] summed per v
    for rep, count in _census(k, True)[1]:
        value = expected_word_product(rep, model)
        weights[rep.v] += count * (value.numerator if value.denominator == 1 else value)
    coeffs: list[int | Fraction] = [0] * (top + 1)  # lowest power first
    falling = [1]  # n (n-1) ... (n-v+1), lowest power first
    for v, weight in enumerate(weights):
        if v:
            falling = [a - (v - 1) * b for a, b in zip([0, *falling], [*falling, 0])]
        for j, stirling in enumerate(falling):
            coeffs[j] += weight * stirling
    return tuple(reversed(coeffs))


def exact_moment(k: int, n: int, model: MomentModel) -> Fraction:
    """Exact expected moment of the empirical spectral measure at size n.

    ``walk_polynomial``'s P(n) by Horner, divided once by n^(1 + k/2) sigma^k.
    n must be an integer >= 1, checked first; k is even, at most
    ``MAX_WORD_LENGTH``.
    """
    n = _int_at_least(n, 1, "matrix size")
    coeffs = walk_polynomial(k, model)
    total = 0
    for coeff in coeffs:
        total = total * n + coeff
    half = len(coeffs) - 2  # P has k/2 + 2 coefficients
    return Fraction(total) / (n ** (1 + half) * model.sigma2**half)
