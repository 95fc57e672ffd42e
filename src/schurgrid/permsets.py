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
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Union

import numpy as np

from .grids import (
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
from .qsym import QSym
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


def _word_dtype(n: int) -> np.dtype:
    """Letters of degree ``n``, big-endian: a row's bytes sort as its word."""
    return np.dtype(np.min_scalar_type(n)).newbyteorder(">")


def _mult_dtype(total: int) -> type:
    """``int64`` unless the total reaches 2**63; then Python ints, so no sum
    of the multiplicities can overflow."""
    return np.int64 if total < 2**63 else object


class PermMultiset(Mapping):
    """Multiset of degree-``n`` permutations, read as a mapping from word
    to multiplicity.  ``words`` holds the distinct elements as the rows of
    a read-only matrix in lexicographic order and ``mults`` their positive
    multiplicities, so equal multisets compare and hash equal."""

    __slots__ = ("n", "words", "mults", "_elems", "_index")

    def __init__(self, n: int, elems: Iterable[tuple[Perm, int]]) -> None:
        pairs = tuple(elems)
        for word, mult in pairs:
            if len(word) != n:
                raise ValueError("element degree mismatch")
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
        words = np.array([w for w, _ in pairs], _word_dtype(n)).reshape(len(pairs), n)
        counts = [m for _, m in pairs]
        self._fill(n, *distinct_words(words, np.array(counts, _mult_dtype(sum(counts)))))

    def _fill(self, n: int, words: np.ndarray, mults: np.ndarray) -> None:
        words.flags.writeable = mults.flags.writeable = False
        self.n, self.words, self.mults = n, words, mults
        self._elems = self._index = None

    @classmethod
    def _of(cls, n: int, words: np.ndarray, mults: np.ndarray) -> "PermMultiset":
        """Wrap distinct sorted rows and multiplicities of the dtypes above."""
        out = cls.__new__(cls)
        out._fill(n, words, mults)
        return out

    @classmethod
    def from_mapping(cls, n: int, data: Mapping[Perm, int]) -> "PermMultiset":
        return cls(n, ((w, m) for w, m in data.items() if m))

    @property
    def elems(self) -> tuple[tuple[Perm, int], ...]:
        """The sorted ``(word, multiplicity)`` pairs, built on first use."""
        if self._elems is None:
            rows = map(tuple, self.words.tolist())
            self._elems = tuple(zip(rows, self.mults.tolist()))
        return self._elems

    def __getitem__(self, word: Perm) -> int:
        if self._index is None:
            self._index = dict(self.elems)
        return self._index[tuple(word)]

    def __iter__(self) -> Iterator[Perm]:
        return (w for w, _ in self.elems)

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermMultiset):
            return NotImplemented
        return self.n == other.n and self.elems == other.elems

    def __hash__(self) -> int:
        return hash((self.n, self.elems))

    def __repr__(self) -> str:
        return f"PermMultiset({self.n}, {self.elems!r})"

    def support(self) -> PermSet:
        return frozenset(map(tuple, self.words.tolist()))

    def multiplicity(self, word: Perm) -> int:
        return self.get(word, 0)

    def total_size(self) -> int:
        return int(self.mults.sum())

    def support_size(self) -> int:
        return len(self.words)

    def is_set(self) -> bool:
        return bool(np.all(self.mults == 1))

    def scale(self, k: int) -> "PermMultiset":
        if k <= 0 and len(self.words):
            raise ValueError("multiplicities must be positive")
        mults = self.mults.astype(_mult_dtype(self.total_size() * k)) * k
        return PermMultiset._of(self.n, self.words, mults)

    def __add__(self, other: "PermMultiset") -> "PermMultiset":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        dtype = _mult_dtype(self.total_size() + other.total_size())
        mults = np.concatenate([self.mults, other.mults]).astype(dtype)
        words = np.concatenate([self.words, other.words])
        return PermMultiset._of(self.n, *distinct_words(words, mults))

    def qsym(self) -> QSym:
        return _fold_descents(self.n, [(self.words, self.mults)])


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


def _compositions(
    am: PermMultiset, bm: PermMultiset
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All compositions ``x after y``, in blocks of ``(words, weights)``.

    ``words`` is a (k, n) matrix of 1-based words, one row per pair, and
    ``weights`` holds the products ``mult(x) * mult(y)``, of the dtype
    :func:`_mult_dtype` gives their total ``total(a) * total(b)``.
    """
    n = am.n
    if n != bm.n:
        raise ValueError("degree mismatch")
    dtype = _mult_dtype(am.total_size() * bm.total_size())
    x, y = am.words, bm.words - 1
    mx, my = am.mults.astype(dtype, copy=False), bm.mults.astype(dtype, copy=False)
    rows = max(1, _BLOCK // max(n, 1))
    for i in range(0, len(x), rows):
        xs, ms = x[i : i + rows], mx[i : i + rows]
        step = max(1, rows // len(xs))
        for j in range(0, len(y), step):
            ys = y[j : j + step]
            # xs[:, ys][r, c] is the word xs[r] after ys[c].
            words = xs[:, ys].reshape(len(xs) * len(ys), n)
            yield words, np.multiply.outer(ms, my[j : j + step]).ravel()


def _fold_descents(n: int, blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> QSym:
    """Descent generating function of weighted word blocks: each row's
    descent mask is its row comparison dotted with the powers of two."""
    powers = 1 << np.arange(max(n - 1, 0), dtype=np.int64)
    acc = np.zeros(1 << max(n - 1, 0), np.int64)
    for words, weights in blocks:
        acc = acc.astype(weights.dtype, copy=False)  # object for Python ints
        np.add.at(acc, (words[:, 1:] < words[:, :-1]) @ powers, weights)
    return QSym(n, tuple(acc.tolist()))


def multiset_product(a: CollectionLike, b: CollectionLike) -> PermMultiset:
    """Multiset of all compositions ``x after y`` with multiplicity."""
    am, bm = as_multiset(a), as_multiset(b)
    words, weights = am.words[:0], np.empty(0, np.int64)
    for block, block_weights in _compositions(am, bm):
        words, weights = distinct_words(
            np.concatenate([words, block]),
            np.concatenate([weights, block_weights]),
        )
    return PermMultiset._of(am.n, words, weights)


def set_product(a: CollectionLike, b: CollectionLike) -> PermSet:
    """Support of the product: all compositions ``x after y``."""
    am, bm = as_multiset(a), as_multiset(b)
    words = am.words[:0]
    for block, _ in _compositions(am, bm):
        words, _ = distinct_words(np.concatenate([words, block]))
    return frozenset(map(tuple, words.tolist()))


def product_qsym(a: CollectionLike, b: CollectionLike) -> QSym:
    """Descent generating function of the multiset product, folded block by
    block without materializing the product."""
    am, bm = as_multiset(a), as_multiset(b)
    return _fold_descents(am.n, _compositions(am, bm))


def embed(x: CollectionLike, n: int) -> PermMultiset:
    """Embed every element of a collection into degree ``n`` (the same
    fixed suffix on every row keeps the rows sorted)."""
    xm = as_multiset(x)
    if n < xm.n:
        raise ValueError("target degree too small")
    words = np.empty((len(xm.words), n), _word_dtype(n))
    words[:, : xm.n], words[:, xm.n :] = xm.words, np.arange(xm.n + 1, n + 1)
    return PermMultiset._of(n, words, xm.mults)


def invert_collection(x: CollectionLike) -> PermMultiset:
    """Replace every element by its inverse."""
    xm = as_multiset(x)
    inverses = (np.argsort(xm.words, axis=1) + 1).astype(xm.words.dtype)
    return PermMultiset._of(xm.n, *distinct_words(inverses, xm.mults))


def cycle_type(p: Perm) -> Partition:
    """Sorted cycle lengths.

    >>> cycle_type((2, 1, 3))
    (2, 1)
    """
    seen: set[int] = set()
    lengths = []
    for v in p:
        length = 0
        while v not in seen:
            seen.add(v)
            v, length = p[v - 1], length + 1
        lengths.append(length)
    return tuple(sorted((x for x in lengths if x), reverse=True))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def _members(n: int, keep: Callable[[Perm], bool]) -> PermSet:
    """The permutations of degree ``n`` that ``keep`` accepts."""
    return frozenset(filter(keep, itertools.permutations(range(1, n + 1))))


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
    return _members(n, lambda p: zigzag_member(p, k))


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
    out: list[Perm] = []

    def build(rest: tuple[int, ...], block: int, acc: tuple[int, ...]) -> None:
        if block == len(cuts) - 1:
            out.append(acc)
            return
        for chosen in itertools.combinations(rest, cuts[block + 1] - cuts[block]):
            taken = set(chosen)
            build(tuple(v for v in rest if v not in taken), block + 1, acc + chosen)

    build(tuple(range(1, n + 1)), 0, ())
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
    return _members(n, lambda p: cycle_type(p) == rho)


def _inversions(p: Perm) -> int:
    return sum(a > b for a, b in itertools.combinations(p, 2))


def inversion_sphere(n: int, k: int) -> PermSet:
    """All words with exactly ``k`` inversions.

    >>> sorted(inversion_sphere(3, 1))
    [(1, 3, 2), (2, 1, 3)]
    """
    return _members(n, lambda p: _inversions(p) == k)


def inversion_ball(n: int, k: int) -> PermSet:
    """All words with at most ``k`` inversions."""
    return _members(n, lambda p: _inversions(p) <= k)


def cdes_inverse_class(n: int, k: int) -> PermSet:
    """All words whose inverse has exactly ``k`` cyclic descents."""
    return _members(n, lambda p: cdes_count(inverse(p)) == k)


# ---------------------------------------------------------------------------
# The battery of known-fine families
# ---------------------------------------------------------------------------

BATTERY_FAMILIES = ("knuth", "conj", "invfix", "Dinv", "colayer")


def _battery_family(n: int, fam: str) -> list[tuple[str, PermSet]]:
    if fam == "knuth":
        words = [
            knuth_class_words(t)
            for mu in partitions(n)
            for t in enumerate_syt(straight_shape(mu))
        ]
        return [(f"knuth[{''.join(map(str, w[0]))}]", frozenset(w)) for w in words]
    if fam == "conj":
        return [
            ("conj[" + ",".join(map(str, rho)) + "]", conjugacy_class(n, rho))
            for rho in partitions(n)
        ]
    if fam == "invfix":
        top = n * (n - 1) // 2
        return [(f"invfix[{k}]", inversion_sphere(n, k)) for k in range(top + 1)]
    if fam == "Dinv":
        dessets = [DescSet(n, mask) for mask in range(1 << max(n - 1, 0))]
        return [(f"Dinv{d.braces()}", inv_descent_class(n, d)) for d in dessets]
    if fam == "colayer":
        return [(f"colayer[{k}]", colayered_class(n, k)) for k in range(1, n + 1)]
    raise ValueError(f"unknown battery family {fam!r}")


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
    return [entry for fam in chosen for entry in _battery_family(n, fam)]
