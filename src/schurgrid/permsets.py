"""Sets and multisets of permutations of a fixed degree, their products,
and the named families used throughout the check suite.

The product of two collections is taken elementwise by composition
(``(a, b) -> a after b``); multiset products keep multiplicities, set
products keep support only.  All three products compose whole blocks of
word matrices at once.  Descent generating functions are folded block by
block, for a whole grid of products in one composition pass
(:func:`product_qsym_grid`), so no product is materialized unless asked
for.
"""

from __future__ import annotations

import itertools
import logging
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
    "product_qsym_grid",
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
        return _frozen(self.words)

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
        acc = np.zeros(1 << max(self.n - 1, 0), self.mults.dtype)
        masks = _descent_masks(self.n, self.mults.shape, lambda c: self.words[:, c])
        np.add.at(acc, masks, self.mults)
        return QSym(self.n, tuple(acc.tolist()))


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

_log = logging.getLogger("schurgrid")


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
    if not (len(am) and len(bm)):  # the weights of one side may not fit dtype
        return
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
    return _frozen(words)


def _descent_masks(
    n: int, shape: tuple[int, ...], letter: Callable[[int], np.ndarray]
) -> np.ndarray:
    """Descent masks of an array of degree-``n`` words whose ``c``-th
    letters are ``letter(c)``: bit ``c - 1`` is set where letter ``c`` is
    below letter ``c - 1``.  One letter column is held at a time."""
    dtype = np.min_scalar_type((1 << max(n - 1, 0)) - 1)
    masks = np.zeros(shape, dtype)
    prev = None
    for c in range(n):
        cur = letter(c)
        if c:
            masks |= np.left_shift(cur < prev, c - 1, dtype=dtype)
        prev = cur
    return masks


def _stack(xs: list[PermMultiset], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words, multiplicities and member index of every row of ``xs``."""
    if any(x.n != n for x in xs):
        raise ValueError("degree mismatch")
    words = np.concatenate([x.words for x in xs] or [np.empty((0, n), _word_dtype(n))])
    mults = np.concatenate([x.mults for x in xs] or [np.empty(0, np.int64)])
    owner = np.repeat(np.arange(len(xs), dtype=np.int64), [len(x.words) for x in xs])
    return words, mults, owner


def product_qsym_grid(
    lefts: Sequence[CollectionLike], rights: Sequence[CollectionLike]
) -> np.ndarray:
    """Descent generating functions of every product ``lefts[i] * rights[j]``.

    Entry ``[i, j]`` of the ``(len(lefts), len(rights), 2**(n-1))`` result
    holds the coefficients of ``product_qsym(lefts[i], rights[j])``; its
    dtype is ``int64``, or ``object`` once ``sum(total(lefts)) *
    sum(total(rights))`` reaches 2**63.  All members are stacked into one
    word matrix per side and composed in blocks of about ``_BLOCK`` cells;
    each composition is folded at key ``(i * len(rights) + j) * 2**(n-1) +
    descent mask`` by one ``np.add.at`` per block, so no product is
    materialized.  With no members at all the degree is unknown and the
    last axis has length 1.
    """
    ls, rs = [as_multiset(a) for a in lefts], [as_multiset(b) for b in rights]
    n = next((m.n for m in ls + rs), 0)
    x, mx, lid = _stack(ls, n)
    y, my, rid = _stack(rs, n)
    width = 1 << max(n - 1, 0)
    total = sum(a.total_size() for a in ls) * sum(b.total_size() for b in rs)
    dtype = _mult_dtype(total)
    acc = np.zeros(len(ls) * len(rs) * width, dtype)
    lbase, rbase, y = lid * (len(rs) * width), rid * width, y - 1
    rows = max(1, _BLOCK // max(n, 1))
    blocks = 0
    # With no right rows the total is 0 and left weights may not fit dtype.
    for i in range(0, len(x) if len(y) else 0, rows):
        xs, ms = x[i : i + rows], mx[i : i + rows].astype(dtype, copy=False)
        step = max(1, rows // len(xs))
        for j in range(0, len(y), step):
            ys = y[j : j + step]
            # xs[:, ys[:, c]][r, s] is letter c of the word xs[r] after ys[s].
            keys = lbase[i : i + rows, None] + rbase[None, j : j + step]
            keys += _descent_masks(n, keys.shape, lambda c: xs[:, ys[:, c]])
            weights = np.multiply.outer(ms, my[j : j + step].astype(dtype, copy=False))
            np.add.at(acc, keys.ravel(), weights.ravel())
            blocks += 1
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "product_qsym_grid %d x %d: %d compositions in %d blocks",
            len(ls), len(rs), len(x) * len(y), blocks,
        )
    return acc.reshape(len(ls), len(rs), width)


def product_qsym(a: CollectionLike, b: CollectionLike) -> QSym:
    """Descent generating function of the multiset product: the one-cell
    case of :func:`product_qsym_grid`."""
    am = as_multiset(a)
    return QSym(am.n, tuple(product_qsym_grid([am], [b])[0, 0].tolist()))


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
    return PermMultiset._of(xm.n, *distinct_words(_inverses(xm.words), xm.mults))


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


def _weak_descent_words(n: int, d: DescSet) -> np.ndarray:
    """Matrix of all words whose descent set is contained in ``d``.

    Each word is the values labelled block by block, increasing within a
    block: the stable argsort of a block-label word.  The label words (one
    label per value, each block used as often as its size) are grown one
    value at a time."""
    if d.n != n:
        raise ValueError("degree mismatch")
    dtype = np.min_scalar_type(n)
    free = np.diff([0, *d.members, n]).astype(dtype)[None, :]
    labels = np.empty((1, 0), dtype)
    for _ in range(n):
        row, block = np.nonzero(free)
        labels = np.column_stack([labels[row], block.astype(dtype)])
        free = free[row]
        free[np.arange(len(row)), block] -= 1
    return (np.argsort(labels, axis=1, kind="stable") + 1).astype(_word_dtype(n))


def _descent_words(n: int, d: DescSet) -> np.ndarray:
    words = _weak_descent_words(n, d)
    masks = _descent_masks(n, (len(words),), lambda c: words[:, c])
    return words[masks == d.mask]


def _inverses(words: np.ndarray) -> np.ndarray:
    return (np.argsort(words, axis=1) + 1).astype(words.dtype)


def _frozen(words: np.ndarray) -> PermSet:
    return frozenset(map(tuple, words.tolist()))


def weak_descent_class(n: int, d: DescSet) -> PermSet:
    """All words whose descent set is contained in ``d``: concatenations
    of increasing blocks, one choice of value set per block."""
    return _frozen(_weak_descent_words(n, d))


def descent_class(n: int, d: DescSet) -> PermSet:
    """All words whose descent set is exactly ``d``."""
    return _frozen(_descent_words(n, d))


def inv_descent_class(n: int, d: DescSet) -> PermSet:
    return _frozen(_inverses(_descent_words(n, d)))


def inv_weak_descent_class(n: int, d: DescSet) -> PermSet:
    return _frozen(_inverses(_weak_descent_words(n, d)))


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
