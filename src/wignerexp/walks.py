"""Brute-force ground truth: closed-walk classes and exact finite-n moments.

A length-k word i_1 ... i_k (closed by the step i_k -> i_1) determines a
closed spanning walk on the graph with vertices {i_1, ..., i_k} and the
unordered step pairs as edges (self-loops allowed, no multiplicities).
Words that differ only by a renaming of letters contribute equally to the
expected trace, so each equivalence class is enumerated once via its
canonical representative: the word whose letters appear in increasing
order of first use (a restricted-growth string).  The number of classes of
length k is therefore the k-th Bell number, which bounds the practical
word length; see ``MAX_WORD_LENGTH``.

Expected moments at finite n are exact rationals

    m_k(n) = sum over classes of  n (n-1) ... (n-v+1) E[W_c]
             ----------------------------------------------
                        n^(1 + k/2) sigma^k

where v is the number of distinct letters and E[W_c] is the product of
entry moments read off the edge traversal counts.  The entry distribution
enters only through its moment tables (``MomentModel``); built-in models
cover the real and complex Gaussian ensembles and real Rademacher entries.

An edge crossed once gives a first moment, which ``MomentModel`` holds at
zero (entries are centered), so only the classes whose every edge is
crossed at least twice contribute.  Each word length is searched once for
exactly those classes: a depth-first search over restricted-growth words
that cuts a prefix as soon as it has more edges crossed once than steps
left to take.  It keeps tallies: one representative with a class count per
v and multiset of edge patterns (is_loop, fwd, bwd), which fixes the
class's moment factor, and the class count per (v, e, cycle_type).  At
k = 10, 67 representatives stand for the 4,900 classes that count, of
115,975; at k = 12, 192 stand for 67,880 of 4,213,597.  The full stream
(``canonical_words``, ``enumerate_canonical_words``) still yields every
class, for ``enumerate`` and for the counts outside the pruned families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .combinatorics import EnsembleParams

MAX_WORD_LENGTH = 12

TREE = "tree"
SELF_LOOP = "self-loop"
CYCLE_ONE_WAY = "cycle-one-way"
CYCLE_BOTH_WAYS = "cycle-both-ways"
OTHER = "other"
CYCLE_TYPES = (TREE, SELF_LOOP, CYCLE_ONE_WAY, CYCLE_BOTH_WAYS, OTHER)
# the key a class is counted under; select_classes filters it like a class
_Shape = NamedTuple("_Shape", [("v", int), ("e", int), ("cycle_type", str)])


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
    has_self_loop: bool
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


def canonical_words(k: int) -> Iterator[tuple[int, ...]]:
    """All canonical words of length k, one per equivalence class.

    Depth-first over restricted-growth strings: position 0 is letter 1 and
    letter m+1 may only appear after letters 1..m.  O(k) memory; the stream
    can be partitioned by word prefix for parallel consumption.
    """
    if k < 1:
        raise ValueError(f"word length must be positive, got {k}")
    word = [1] * k

    def rec(pos: int, vmax: int) -> Iterator[tuple[int, ...]]:
        if pos == k:
            yield tuple(word)
            return
        for letter in range(1, vmax + 2):
            word[pos] = letter
            yield from rec(pos + 1, vmax if letter <= vmax else letter)

    yield from rec(1, 1)


def _cycle_type(v, e, traversals, has_loop) -> str:
    if e == v - 1:
        return TREE
    if has_loop:
        return SELF_LOOP
    if e != v or any(f + b != 2 for f, b in traversals.values()):
        return OTHER
    # a closed walk is a circulation: equal flow each way over a bridge, one
    # net flow round the cycle, so the cycle is run one way iff some edge is
    # crossed (2, 0) or (0, 2)
    if any(f != b for f, b in traversals.values()):
        return CYCLE_ONE_WAY
    return CYCLE_BOTH_WAYS


def _classify_canonical(word: tuple[int, ...]) -> WalkClass:
    k = len(word)
    traversals: dict[tuple[int, int], list[int]] = {}
    has_loop = False
    v = 1
    for idx in range(k):
        a = word[idx]
        b = word[idx + 1] if idx + 1 < k else word[0]
        if a > v:
            v = a
        if a == b:
            has_loop = True
        key = (a, b) if a <= b else (b, a)
        slot = traversals.get(key)
        if slot is None:
            slot = traversals[key] = [0, 0]
        slot[0 if (a, b) == key else 1] += 1
    frozen = {key: (c[0], c[1]) for key, c in traversals.items()}
    e = len(frozen)
    return WalkClass(
        canonical_word=word,
        v=v,
        e=e,
        edge_traversals=frozen,
        has_self_loop=has_loop,
        cycle_type=_cycle_type(v, e, frozen, has_loop),
    )


def classify_walk(word: Sequence) -> WalkClass:
    """Classify a closed-walk word (any letter type; relabeled canonically)."""
    return _classify_canonical(canonicalize(word))


def enumerate_canonical_words(k: int) -> Iterator[WalkClass]:
    """Stream one classified ``WalkClass`` per equivalence class of length k."""
    for word in canonical_words(k):
        yield _classify_canonical(word)


def check_word_length(k: int) -> None:
    """Raise ValueError unless 1 <= k <= ``MAX_WORD_LENGTH``."""
    if k < 1:
        raise ValueError(f"word length must be positive, got {k}")
    if k > MAX_WORD_LENGTH:
        raise ValueError(
            f"word length {k} exceeds the enumeration bound {MAX_WORD_LENGTH} "
            f"(class counts grow like Bell numbers)"
        )


@lru_cache(maxsize=MAX_WORD_LENGTH)
def _tallies(k: int) -> tuple[Mapping[_Shape, int], tuple[tuple[WalkClass, int], ...]]:
    """The read-only tallies of the module docstring; k is checked, so <= MAX_WORD_LENGTH keys.

    A depth-first search over restricted-growth words, in the order of
    ``canonical_words``, that keeps the directed crossing counts of each edge
    and the number of edges crossed once.  Each remaining step, the closing
    step included, brings at most one such edge to two crossings, so a prefix
    with more of them than steps left is cut with its whole subtree.  A leaf
    is kept iff no edge is crossed once; it reads its pattern key from the
    live counts, and only the first leaf of a key is classified, as that
    key's representative.  The key fixes v, e and the cycle type, so the
    shape counts are summed from the weighted representatives.
    """
    check_word_length(k)
    word = [0] * k
    counts: dict[tuple[int, int], list[int]] = {}
    weighted: dict[tuple, tuple[WalkClass, int]] = {}

    def cross(a: int, b: int, ones: int) -> int:
        # step a -> b; returns the new number of edges crossed once
        key = (a, b) if a <= b else (b, a)
        slot = counts.get(key)
        if slot is None:
            slot = counts[key] = [0, 0]
        slot[a > b] += 1
        total = slot[0] + slot[1]
        return ones + 1 if total == 1 else ones - 1 if total == 2 else ones

    def uncross(a: int, b: int) -> None:
        key = (a, b) if a <= b else (b, a)
        slot = counts[key]
        slot[a > b] -= 1
        if slot[0] + slot[1] == 0:
            del counts[key]

    def rec(pos: int, vmax: int, ones: int) -> None:
        a = word[pos - 1]
        if pos == k:
            if not cross(a, 0, ones):
                key = (vmax + 1, tuple(sorted((i == j, *fb) for (i, j), fb in counts.items())))
                entry = weighted.get(key)
                if entry is None:
                    weighted[key] = (_classify_canonical(tuple(x + 1 for x in word)), 1)
                else:
                    weighted[key] = (entry[0], entry[1] + 1)
            uncross(a, 0)
            return
        for b in range(vmax + 2):
            after = cross(a, b, ones)
            if after <= k - pos:
                word[pos] = b
                rec(pos + 1, vmax if b <= vmax else b, after)
            uncross(a, b)

    rec(1, 0, 0)
    shapes: dict[_Shape, int] = {}
    for rep, count in weighted.values():
        shape = _Shape(rep.v, rep.e, rep.cycle_type)
        shapes[shape] = shapes.get(shape, 0) + count
    return MappingProxyType(shapes), tuple(weighted.values())


def select_classes(
    classes: Iterable[WalkClass],
    v: int | None = None,
    e: int | None = None,
    cycle_type: str | None = None,
) -> Iterator[WalkClass]:
    """Classes (or ``_Shape`` keys) matching every given (v, e, cycle_type), lazily, in order."""
    if cycle_type is not None and cycle_type not in CYCLE_TYPES:
        raise ValueError(f"unknown cycle type {cycle_type!r}; expected one of {CYCLE_TYPES}")
    return (
        cls
        for cls in classes
        if (v is None or cls.v == v)
        and (e is None or cls.e == e)
        and (cycle_type is None or cls.cycle_type == cycle_type)
    )


def count_classes(
    k: int,
    v: int | None = None,
    e: int | None = None,
    cycle_type: str | None = None,
) -> int:
    """Number of classes of length k matching the given (v, e, cycle_type).

    The closed-form families (``_pruned_answers``) are read from the tallies;
    any other query counts the full stream of ``enumerate_canonical_words``.
    """
    check_word_length(k)
    if _pruned_answers(k, v, e, cycle_type):
        shapes, _ = _tallies(k)
        return sum(shapes[shape] for shape in select_classes(shapes, v, e, cycle_type))
    return sum(1 for _ in select_classes(enumerate_canonical_words(k), v, e, cycle_type))


def _pruned_answers(k: int, v: int | None, e: int | None, cycle_type: str | None) -> bool:
    """True when every class matching the query crosses each edge at least twice.

    Then the tallies, which hold exactly those classes, count the query in
    full.  A closed walk crosses every edge of its graph at least once.
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
    """Full moment tables of an entry distribution, as exact rationals.

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
        if len(self.diag_moments) < 3:
            raise ValueError("diagonal table must cover orders 0..2 at least")
        if self.diag_moments[0] != 1 or self.diag_moments[1] != 0:
            raise ValueError("diagonal entries must be centered with E[W^0] = 1")
        if self.is_real:
            off = self.offdiag_moments
            if len(off) < 5:
                raise ValueError("real off-diagonal table must cover orders 0..4")
            if off[0] != 1 or off[1] != 0:
                raise ValueError("off-diagonal entries must be centered with E[W^0] = 1")
        else:
            grid = self.offdiag_moments
            if grid[0][0] != 1 or grid[1][0] != 0 or grid[0][1] != 0:
                raise ValueError("complex off-diagonal entries must be centered")
            if grid[2][0] != 0 or grid[0][2] != 0:
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
    return MomentModel(
        is_real=True,
        offdiag_moments=_gaussian_moments(Fraction(1), max_order),
        diag_moments=_gaussian_moments(Fraction(2), max_order),
    )


def gue_model(max_order: int = 16) -> MomentModel:
    """Standard complex Gaussian off-diagonal (E|W|^2 = 1), real N(0,1) diagonal.

    Mixed moments: E[W^a conj(W)^b] = a! if a = b, else 0.
    """
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
    sigma2 = Fraction(sigma2)
    s2 = Fraction(s2)
    off = tuple(sigma2 ** (m // 2) if m % 2 == 0 else Fraction(0) for m in range(max_order + 1))
    diag = tuple(s2 ** (m // 2) if m % 2 == 0 else Fraction(0) for m in range(max_order + 1))
    return MomentModel(is_real=True, offdiag_moments=off, diag_moments=diag)


PRESET_MODELS = {"goe": goe_model, "gue": gue_model, "rademacher": rademacher_model}


# -- exact expectations ----------------------------------------------------


def expected_word_product(cls: WalkClass, model: MomentModel) -> Fraction:
    """E[W_c]: product of entry moments over the edges of the class graph."""
    result = Fraction(1)
    for (a, b), (fwd, bwd) in cls.edge_traversals.items():
        if a == b:
            factor = model.diag_moment(fwd)
        else:
            factor = model.offdiag_mixed(fwd, bwd)
        if factor == 0:
            return Fraction(0)
        result *= factor
    return result


def exact_moment(k: int, n: int, model: MomentModel) -> Fraction:
    """Exact expected moment of the empirical spectral measure at size n.

    Even k only: the normalization n^(1 + k/2) sigma^k stays rational.  The
    falling factorial n (n-1) ... (n-v+1) is polynomial in n, so any n >= 1
    is fine; k is capped at ``MAX_WORD_LENGTH``.
    """
    if k == 0:
        return Fraction(1)
    if k % 2 == 1:
        raise ValueError(
            "exact finite-size moments are rational for even k only; odd moments "
            "vanish for symmetric entry distributions"
        )
    check_word_length(k)
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    total = Fraction(0)
    for cls, count in _tallies(k)[1]:
        total += math.prod(n - i for i in range(cls.v)) * count * expected_word_product(cls, model)
    return total / (Fraction(n) ** (1 + k // 2) * model.sigma2 ** (k // 2))
