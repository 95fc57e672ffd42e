"""Sets and multisets of permutations of a fixed degree, their products,
and the named families used throughout the check suite.

The product of two collections is taken elementwise by composition
(``(a, b) -> a after b``); multiset products keep multiplicities, set
products keep support only.  All three products compose whole blocks of
word matrices at once; descent generating functions of large products are
folded block by block, so the product is never materialized unless asked
for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .grids import (
    GridMatrix,
    SignVector,
    arc_matrices,
    enumerate_grid,
    identity_matrix,
    j_matrix,
    k_matrix,
    one_column_matrix,
    zigzag_member,
)
from .permutations import (
    DescSet,
    Perm,
    cdes_count,
    des_mask,
    distinct_words,
    identity,
    inverse,
    read_collection,
    vertical_rotate,
)
from .qsym import QSym, qsym_of
from .tableaux import (
    Partition,
    enumerate_syt,
    insertion_tableau,
    knuth_class_words,
    partitions,
    straight_shape,
)

__all__ = [
    "PermSet",
    "PermMultiset",
    "as_multiset",
    "multiset_product",
    "set_product",
    "product_qsym",
    "embed_word",
    "embed",
    "invert_collection",
    "cycle_type",
    "symmetric_group",
    "cyclic_class",
    "left_unimodal_class",
    "arc_class",
    "colayered_class",
    "one_column_class",
    "zigzag_class",
    "plus_class",
    "j_class",
    "k_class",
    "descent_class",
    "weak_descent_class",
    "inv_descent_class",
    "inv_weak_descent_class",
    "knuth_class",
    "conjugacy_class",
    "inversion_sphere",
    "inversion_ball",
    "cdes_inverse_class",
    "fine_battery",
    "BATTERY_FAMILIES",
]

PermSet = frozenset[Perm]

CollectionLike = Union["PermMultiset", Mapping[Perm, int], Iterable[Perm]]


@dataclass(frozen=True)
class PermMultiset:
    """Multiset of degree-``n`` permutations (sorted word/multiplicity
    pairs, so equal multisets compare and hash equal)."""

    n: int
    elems: tuple[tuple[Perm, int], ...]

    def __post_init__(self) -> None:
        for word, mult in self.elems:
            if len(word) != self.n:
                raise ValueError("element degree mismatch")
            if mult <= 0:
                raise ValueError("multiplicities must be positive")

    @classmethod
    def from_mapping(cls, n: int, data: Mapping[Perm, int]) -> "PermMultiset":
        return cls(n, tuple(sorted((w, m) for w, m in data.items() if m)))

    def support(self) -> PermSet:
        return frozenset(w for w, _ in self.elems)

    def multiplicity(self, word: Perm) -> int:
        return dict(self.elems).get(word, 0)

    def total_size(self) -> int:
        return sum(m for _, m in self.elems)

    def support_size(self) -> int:
        return len(self.elems)

    def is_set(self) -> bool:
        return all(m == 1 for _, m in self.elems)

    def scale(self, k: int) -> "PermMultiset":
        return PermMultiset(self.n, tuple((w, k * m) for w, m in self.elems))

    def __add__(self, other: "PermMultiset") -> "PermMultiset":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        data = dict(self.elems)
        for w, m in other.elems:
            data[w] = data.get(w, 0) + m
        return PermMultiset.from_mapping(self.n, data)

    def qsym(self) -> QSym:
        return qsym_of(dict(self.elems), self.n)


def as_multiset(x: CollectionLike, n: int | None = None) -> PermMultiset:
    """Normalize a multiset/mapping/iterable into a :class:`PermMultiset`
    (see :func:`~schurgrid.permutations.read_collection`)."""
    if isinstance(x, PermMultiset):
        return x
    return PermMultiset.from_mapping(*read_collection(x, n))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

# Cells (composed letters) per block of compositions.
_BLOCK = 1 << 20


def _word_matrix(m: PermMultiset) -> np.ndarray:
    return np.array(
        [w for w, _ in m.elems], dtype=np.min_scalar_type(m.n)
    ).reshape(len(m.elems), m.n)


def _compositions(
    am: PermMultiset, bm: PermMultiset
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All compositions ``x after y``, in blocks of ``(words, weights)``.

    ``words`` is a (k, n) matrix of 1-based words, one row per pair, and
    ``weights`` holds the products ``mult(x) * mult(y)``.  The weights are
    ``int64`` unless ``total(a) * total(b)`` reaches 2**63, when they are
    Python integers, so no sum of them can overflow.
    """
    n = am.n
    if n != bm.n:
        raise ValueError("degree mismatch")
    dtype = object if am.total_size() * bm.total_size() >= 2**63 else np.int64
    x, y = _word_matrix(am), _word_matrix(bm) - 1
    mx = np.array([m for _, m in am.elems], dtype=dtype)
    my = np.array([m for _, m in bm.elems], dtype=dtype)
    rows = max(1, _BLOCK // max(n, 1))
    for i in range(0, len(x), rows):
        xs, ms = x[i : i + rows], mx[i : i + rows]
        step = max(1, rows // len(xs))
        for j in range(0, len(y), step):
            ys = y[j : j + step]
            # xs[:, ys][r, c] is the word xs[r] after ys[c].
            words = xs[:, ys].reshape(len(xs) * len(ys), n)
            yield words, np.multiply.outer(ms, my[j : j + step]).ravel()


def multiset_product(a: CollectionLike, b: CollectionLike) -> PermMultiset:
    """Multiset of all compositions ``x after y`` with multiplicity."""
    am, bm = as_multiset(a), as_multiset(b)
    words, weights = np.empty((0, am.n), np.uint8), np.empty(0, np.int64)
    for block, block_weights in _compositions(am, bm):
        words, weights = distinct_words(
            np.concatenate([words, block]),
            np.concatenate([weights, block_weights]),
        )
    return PermMultiset.from_mapping(
        am.n, dict(zip(map(tuple, words.tolist()), weights.tolist()))
    )


def set_product(a: CollectionLike, b: CollectionLike) -> PermSet:
    """Support of the product: all compositions ``x after y``."""
    am, bm = as_multiset(a), as_multiset(b)
    words = np.empty((0, am.n), np.uint8)
    for block, _ in _compositions(am, bm):
        words, _ = distinct_words(np.concatenate([words, block]))
    return frozenset(map(tuple, words.tolist()))


def product_qsym(a: CollectionLike, b: CollectionLike) -> QSym:
    """Descent generating function of the multiset product, folded block by
    block without materializing the product."""
    am, bm = as_multiset(a), as_multiset(b)
    n = am.n
    acc = np.zeros(1 << max(n - 1, 0), np.int64)
    for words, weights in _compositions(am, bm):
        acc = acc.astype(weights.dtype, copy=False)  # object for Python ints
        masks = np.zeros(len(words), np.int64)
        for i in range(n - 1):
            masks[words[:, i + 1] < words[:, i]] += 1 << i
        np.add.at(acc, masks, weights)
    return QSym(n, tuple(acc.tolist()))


def embed_word(word: Perm, n: int) -> Perm:
    """Extend a degree-``m`` word to degree ``n`` fixing the new top values.

    >>> embed_word((2, 1), 4)
    (2, 1, 3, 4)
    """
    m = len(word)
    if n < m:
        raise ValueError("target degree too small")
    return tuple(word) + tuple(range(m + 1, n + 1))


def embed(x: CollectionLike, n: int) -> PermMultiset:
    """Embed every element of a collection into degree ``n``."""
    xm = as_multiset(x)
    return PermMultiset.from_mapping(
        n, {embed_word(w, n): m for w, m in xm.elems}
    )


def invert_collection(x: CollectionLike) -> PermMultiset:
    """Replace every element by its inverse."""
    xm = as_multiset(x)
    return PermMultiset.from_mapping(
        xm.n, {inverse(w): m for w, m in xm.elems}
    )


def cycle_type(p: Perm) -> Partition:
    """Sorted cycle lengths.

    >>> cycle_type((2, 1, 3))
    (2, 1)
    """
    n = len(p)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v - 1]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def symmetric_group(n: int) -> PermSet:
    return frozenset(itertools.permutations(range(1, n + 1)))


def cyclic_class(n: int) -> PermSet:
    """All vertical rotations of the identity (n elements)."""
    return frozenset(vertical_rotate(identity(n), k) for k in range(n))


def left_unimodal_class(n: int) -> PermSet:
    return enumerate_grid(one_column_matrix((-1, 1)), n)


def arc_class(n: int) -> PermSet:
    a1, a2 = arc_matrices()
    return enumerate_grid(a1, n) | enumerate_grid(a2, n)


def colayered_class(n: int, k: int) -> PermSet:
    """Words made of at most ``k`` increasing position blocks with strictly
    decreasing value ranges."""
    return enumerate_grid(identity_matrix(k), n)


def one_column_class(v: SignVector, n: int) -> PermSet:
    return enumerate_grid(one_column_matrix(v), n)


def zigzag_class(n: int, k: int) -> PermSet:
    """Inverse cyclic-descent ball (the 2k-row two-column grid class);
    built from the membership predicate, which the check suite verifies
    against the geometric enumeration."""
    return frozenset(
        p for p in itertools.permutations(range(1, n + 1)) if zigzag_member(p, k)
    )


def plus_class(n: int, k: int) -> PermSet:
    return one_column_class((1,) * k, n)


def j_class(n: int) -> PermSet:
    return enumerate_grid(j_matrix(), n)


def k_class(n: int) -> PermSet:
    return enumerate_grid(k_matrix(), n)


def weak_descent_class(n: int, d: DescSet) -> PermSet:
    """All words whose descent set is contained in ``d``: concatenations
    of increasing blocks, one choice of value set per block."""
    if d.n != n:
        raise ValueError("degree mismatch")
    cuts = [0, *d.members, n]
    sizes = [cuts[i + 1] - cuts[i] for i in range(len(cuts) - 1)]
    out: list[Perm] = []

    def build(rest: tuple[int, ...], sizes_left: Sequence[int], acc: tuple[int, ...]):
        if not sizes_left:
            out.append(acc)
            return
        size = sizes_left[0]
        for chosen in itertools.combinations(rest, size):
            taken = set(chosen)
            remaining = tuple(v for v in rest if v not in taken)
            build(remaining, sizes_left[1:], acc + chosen)

    build(tuple(range(1, n + 1)), sizes, ())
    return frozenset(out)


def descent_class(n: int, d: DescSet) -> PermSet:
    """All words whose descent set is exactly ``d``."""
    return frozenset(
        p for p in weak_descent_class(n, d) if des_mask(p) == d.mask
    )


def inv_descent_class(n: int, d: DescSet) -> PermSet:
    return frozenset(inverse(p) for p in descent_class(n, d))


def inv_weak_descent_class(n: int, d: DescSet) -> PermSet:
    return frozenset(inverse(p) for p in weak_descent_class(n, d))


def knuth_class(p: Perm) -> PermSet:
    """All words with the same insertion tableau as ``p``."""
    return frozenset(knuth_class_words(insertion_tableau(p)))


def conjugacy_class(n: int, rho: Sequence[int]) -> PermSet:
    rho = tuple(sorted(rho, reverse=True))
    if sum(rho) != n:
        raise ValueError("cycle type size mismatch")
    return frozenset(
        p for p in itertools.permutations(range(1, n + 1)) if cycle_type(p) == rho
    )


def _inversions(p: Perm) -> int:
    return sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )


def inversion_sphere(n: int, k: int) -> PermSet:
    """All words with exactly ``k`` inversions.

    >>> sorted(inversion_sphere(3, 1))
    [(1, 3, 2), (2, 1, 3)]
    """
    return frozenset(
        p for p in itertools.permutations(range(1, n + 1)) if _inversions(p) == k
    )


def inversion_ball(n: int, k: int) -> PermSet:
    """All words with at most ``k`` inversions."""
    return frozenset(
        p for p in itertools.permutations(range(1, n + 1)) if _inversions(p) <= k
    )


def cdes_inverse_class(n: int, k: int) -> PermSet:
    """All words whose inverse has exactly ``k`` cyclic descents."""
    return frozenset(
        p
        for p in itertools.permutations(range(1, n + 1))
        if cdes_count(inverse(p)) == k
    )


# ---------------------------------------------------------------------------
# The battery of known-fine families
# ---------------------------------------------------------------------------

BATTERY_FAMILIES = ("knuth", "conj", "invfix", "Dinv", "colayer")


def _battery_knuth(n: int) -> list[tuple[str, PermSet]]:
    out = []
    for mu in partitions(n):
        for t in enumerate_syt(straight_shape(mu)):
            words = knuth_class_words(t)
            out.append((f"knuth[{''.join(map(str, words[0]))}]", frozenset(words)))
    return out


def _battery_conj(n: int) -> list[tuple[str, PermSet]]:
    return [
        ("conj[" + ",".join(map(str, rho)) + "]", conjugacy_class(n, rho))
        for rho in partitions(n)
    ]


def _battery_invfix(n: int) -> list[tuple[str, PermSet]]:
    top = n * (n - 1) // 2
    return [(f"invfix[{k}]", inversion_sphere(n, k)) for k in range(top + 1)]


def _battery_dinv(n: int) -> list[tuple[str, PermSet]]:
    return [
        (f"Dinv{DescSet(n, mask).braces()}", inv_descent_class(n, DescSet(n, mask)))
        for mask in range(1 << max(n - 1, 0))
    ]


def _battery_colayer(n: int) -> list[tuple[str, PermSet]]:
    return [(f"colayer[{k}]", colayered_class(n, k)) for k in range(1, n + 1)]


_BATTERY_BUILDERS: dict[str, Callable[[int], list[tuple[str, PermSet]]]] = {
    "knuth": _battery_knuth,
    "conj": _battery_conj,
    "invfix": _battery_invfix,
    "Dinv": _battery_dinv,
    "colayer": _battery_colayer,
}


def fine_battery(
    n: int, families: Sequence[str] | None = None
) -> list[tuple[str, PermSet]]:
    """Named sets with symmetric, Schur-positive descent generating
    functions, drawn from the requested families (default: all of
    ``BATTERY_FAMILIES``).

    >>> [name for name, _ in fine_battery(3, families=("conj",))]
    ['conj[3]', 'conj[2,1]', 'conj[1,1,1]']
    """
    chosen = BATTERY_FAMILIES if families is None else tuple(families)
    out: list[tuple[str, PermSet]] = []
    for fam in chosen:
        if fam not in _BATTERY_BUILDERS:
            raise ValueError(f"unknown battery family {fam!r}")
        out.extend(_BATTERY_BUILDERS[fam](n))
    return out
