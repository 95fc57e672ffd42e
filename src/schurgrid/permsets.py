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

import logging
import math
from collections.abc import Iterator, Sequence

import numpy as np

from .grids import (
    SignVector,
    _grid_gate,
    arc_matrices,
    enumerate_grid,
    identity_matrix,
    j_matrix,
    k_matrix,
    one_column_matrix,
)
from .permutations import (
    CollectionLike,
    DescSet,
    Perm,
    PermMultiset,
    PermSet,
    _DistinctRows,
    _descent_masks,
    _mult_dtype,
    _word_dtype,
    as_multiset,
    distinct_words,
)
from .qsym import QSym
from .tableaux import (
    Partition,
    insertion_tableau,
    knuth_class_words,
    knuth_classes,
    partitions,
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
    "inv_descent_classes",
    "inv_weak_descent_classes",
    "knuth_class",
    "conjugacy_class",
    "inversion_sphere",
    "inversion_ball",
    "cdes_inverse_class",
    "fine_battery",
    "BATTERY_FAMILIES",
]

# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

# Cells (composed letters) per block of compositions.
_BLOCK = 1 << 20

_log = logging.getLogger("schurgrid")


def _blocks(
    mx: np.ndarray, my: np.ndarray, dtype: type, rows: int
) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray]]:
    """``(left rows, right rows)`` slices that cover every pair of rows of
    two sides with multiplicities ``mx`` and ``my``, about ``rows`` pairs a
    block (one left row at least), and the weights of the two slices, cast
    to ``dtype``.  A left side of more than ``rows // 2`` rows is cut into
    slices of that many, so that each block of ``k`` left rows takes
    ``rows // k >= 2`` right rows, over ``rows - k`` pairs.  With one side
    empty there is no block, so the other side's weights, which may not fit
    ``dtype``, are never cast."""
    rows = max(1, rows)
    stride = max(1, min(len(mx), rows // 2))
    for i in range(0, len(mx) if len(my) else 0, stride):
        step = rows // min(stride, len(mx) - i)
        for j in range(0, len(my), step):
            xs, ys = slice(i, i + stride), slice(j, j + step)
            yield xs, ys, mx[xs].astype(dtype, copy=False), my[ys].astype(dtype, copy=False)


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
    for xs, ys, wx, wy in _blocks(am.mults, bm.mults, dtype, _BLOCK // max(n, 1)):
        # x[xs][:, y[ys]][r, c] is the word x[xs][r] after y[ys][c].
        weights = np.multiply.outer(wx, wy).ravel()
        yield x[xs][:, y[ys]].reshape(len(weights), n), weights


def multiset_product(a: CollectionLike, b: CollectionLike) -> PermMultiset:
    """Multiset of all compositions ``x after y`` with multiplicity."""
    am, bm = as_multiset(a), as_multiset(b)
    rows = _DistinctRows(am.n, weighted=True)
    for block, block_weights in _compositions(am, bm):
        rows.add(block, block_weights)
    return PermMultiset._of(am.n, rows.words(), rows.sums)


def set_product(a: CollectionLike, b: CollectionLike) -> PermSet:
    """Support of the product: all compositions ``x after y``, as the
    distinct rows of the composed blocks, deduplicated block by block; no
    element is turned into a tuple."""
    am, bm = as_multiset(a), as_multiset(b)
    rows = _DistinctRows(am.n)
    for block, _ in _compositions(am, bm):
        rows.add(block)
    return PermSet._of_rows(am.n, rows.words())


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
    holds the coefficients of ``product_qsym(lefts[i], rights[j])``.  All
    entries sum to ``total = sum(total(lefts)) * sum(total(rights))``, so the
    dtype is ``int32`` below 2**31, ``int64`` below 2**63 and ``object`` beyond.
    Each side is stacked into one word matrix, the left one transposed so
    that row ``c`` holds letter ``c`` of every left word.  Pairs are composed
    letter-major in blocks of ``_BLOCK // 32`` compositions: letter ``c`` of
    every left word of a block after right word ``s`` is row ``s[c]`` of the
    transposed block, one gather of whole contiguous rows indexed by one
    letter column of the block's right words (only that column is cast to
    ``intp``).  A composition holds about 24 bytes of its block (an ``int64``
    key, its weight, a descent mask, the letters in hand), so a block stays
    under ``_BLOCK`` bytes.  Each is folded at key ``(i * len(rights) + j) *
    2**(n-1) + descent mask`` by one ``np.add.at`` per block, so no product
    is materialized.  With no members the degree is unknown and the last
    axis has length 1.
    """
    ls, rs = [as_multiset(a) for a in lefts], [as_multiset(b) for b in rights]
    n = next((m.n for m in ls + rs), 0)
    x, mx, lid = _stack(ls, n)
    y, my, rid = _stack(rs, n)
    width = 1 << max(n - 1, 0)
    total = sum(a.total_size() for a in ls) * sum(b.total_size() for b in rs)
    dtype = np.int32 if total < 2**31 else _mult_dtype(total)
    acc = np.zeros(len(ls) * len(rs) * width, dtype)
    lbase, rbase, xt, y = lid * (len(rs) * width), rid * width, x.T.copy(), y - 1
    blocks = 0
    for xs, ys, wx, wy in _blocks(mx, my, dtype, _BLOCK // 32):
        # xt[:, xs][y[ys, c]][s, r] is letter c of x[r] after y[s], so the block
        # is laid out (s, r), its keys and weights too.
        keys = rbase[ys, None] + lbase[None, xs]
        keys += _descent_masks(n, keys.shape, lambda c: xt[:, xs][y[ys, c]])
        np.add.at(acc, keys.ravel(), np.multiply.outer(wy, wx).ravel())
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


def _symmetric_words(n: int) -> np.ndarray:
    """All words of degree ``n`` in lexicographic order, grown one length
    at a time: each first letter ``v``, then every shorter word with its
    letters ``>= v`` raised by one.  Refused before anything is allocated
    when its ``n! * n`` letters exceed :func:`~schurgrid.grids.grid_budget`."""
    _grid_gate(math.factorial(n) * n, f"S_{n} needs {{}} letters")
    words = np.empty((1, 0), _word_dtype(n))
    for m in range(1, n + 1):
        heads = np.repeat(np.arange(1, m + 1, dtype=words.dtype), len(words))
        tails = np.tile(words, (m, 1))
        tails += tails >= heads[:, None]
        words = np.column_stack([heads, tails])
    return words


def _level_sets(n: int, words: np.ndarray, stat: np.ndarray, levels: int) -> list[PermSet]:
    """The rows of ``words`` (distinct, in lexicographic order) at each value
    ``0..levels-1`` of the integer statistic ``stat``, cut from one stable
    sort by it: each level keeps the row order, so no slice is deduplicated."""
    cuts = np.cumsum(np.bincount(stat, minlength=levels))[:-1]
    rows = words[np.argsort(stat, kind="stable")]
    return [PermSet._of_rows(n, level) for level in np.split(rows, cuts)]


def _inverse_cdes(words: np.ndarray) -> np.ndarray:
    """Cyclic descents of the inverse of every row (see ``cdes_count``)."""
    inv = _inverses(words)
    return (inv > np.roll(inv, -1, axis=1)).sum(axis=1)


def _inverses(words: np.ndarray) -> np.ndarray:
    """Inverse of every row, by one scatter of the positions 1..n."""
    k, n = words.shape
    inv = np.empty_like(words)
    inv[np.arange(k)[:, None], words - 1] = np.arange(1, n + 1)
    return inv


def _inverse_descent_masks(words: np.ndarray) -> np.ndarray:
    """Descent mask of the inverse of every row."""
    inv = _inverses(words)
    return _descent_masks(words.shape[1], (len(inv),), lambda c: inv[:, c])


def _cycle_type_levels(words: np.ndarray) -> np.ndarray:
    """Index in ``partitions(n)`` of the cycle type of every row.  Position
    i first comes home at t = the length L of its cycle, and a type puts
    L * (its parts equal to L) <= n positions on cycles of length L, so the
    sum of (n + 1) ** L over the positions spells the type in base n + 1."""
    n = words.shape[1]
    steps = cur = words - 1
    home, keys = np.zeros(words.shape, bool), np.zeros(len(words), np.int64)
    for t in range(1, n + 1):
        back = (cur == np.arange(n)) & ~home
        keys += back.sum(axis=1) * (n + 1) ** t
        home |= back
        cur = np.take_along_axis(steps, cur, axis=1)
    types = np.array([sum(p * (n + 1) ** p for p in rho) for rho in partitions(n)], np.int64)
    order = np.argsort(types)
    return order[np.searchsorted(types[order], keys)]


def _inversion_counts(words: np.ndarray) -> np.ndarray:
    """Pairs of positions ``i < j`` with ``w_i > w_j``, per row."""
    counts = np.zeros(len(words), np.int64)
    for i in range(words.shape[1] - 1):
        counts += (words[:, i, None] > words[:, i + 1 :]).sum(axis=1)
    return counts


def symmetric_group(n: int) -> PermSet:
    return PermSet._of_rows(n, _symmetric_words(n))


def cyclic_class(n: int) -> PermSet:
    """All vertical rotations of the identity (n elements)."""
    return PermSet.from_words((np.add.outer(np.arange(n), np.arange(n)) % n) + 1)


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
    """Inverse cyclic-descent ball (the 2k-row two-column grid class):
    the words whose inverse has at most ``k`` cyclic descents, counted
    over all of S_n, which the check suite verifies against the geometric
    enumeration."""
    if k < 1:
        raise ValueError("parameter must be >= 1")
    words = _symmetric_words(n)
    return PermSet._of_rows(n, words[_inverse_cdes(words) <= k])


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


def weak_descent_class(n: int, d: DescSet) -> PermSet:
    """All words whose descent set is contained in ``d``: concatenations
    of increasing blocks, one choice of value set per block."""
    return PermSet.from_words(_weak_descent_words(n, d))


def descent_class(n: int, d: DescSet) -> PermSet:
    """All words whose descent set is exactly ``d``."""
    return PermSet.from_words(_descent_words(n, d))


def inv_descent_class(n: int, d: DescSet) -> PermSet:
    return PermSet.from_words(_inverses(_descent_words(n, d)))


def inv_weak_descent_class(n: int, d: DescSet) -> PermSet:
    return PermSet.from_words(_inverses(_weak_descent_words(n, d)))


def inv_descent_classes(n: int) -> list[PermSet]:
    """Every class ``{w : Des(w^-1) = J}`` of degree ``n``, indexed by the
    mask of ``J``: the level sets of one stable sort of S_n."""
    words = _symmetric_words(n)
    return _level_sets(n, words, _inverse_descent_masks(words), 1 << max(n - 1, 0))


def inv_weak_descent_classes(n: int) -> Iterator[PermSet]:
    """Every class ``{w : Des(w^-1) ⊆ J}`` of degree ``n``, in order of the
    mask of ``J``, each filtered from one pass over S_n; a boolean filter
    keeps the rows sorted (``masks & ~J`` would overflow unsigned masks)."""
    words = _symmetric_words(n)
    masks = _inverse_descent_masks(words)
    for j in range(1 << max(n - 1, 0)):
        yield PermSet._of_rows(n, words[(masks | j) == j])


def knuth_class(p: Perm) -> PermSet:
    """All words with the same insertion tableau as ``p``."""
    return knuth_class_words(insertion_tableau(p))


def conjugacy_class(n: int, rho: Sequence[int]) -> PermSet:
    """All words of cycle type ``rho`` (parts 0 are dropped)."""
    rho = tuple(sorted((p for p in rho if p), reverse=True))
    if sum(rho) != n:
        raise ValueError("cycle type size mismatch")
    words = _symmetric_words(n)
    types = partitions(n)
    level = types.index(rho) if rho in types else -1
    return PermSet._of_rows(n, words[_cycle_type_levels(words) == level])


def inversion_sphere(n: int, k: int) -> PermSet:
    """All words with exactly ``k`` inversions.

    >>> sorted(inversion_sphere(3, 1))
    [(1, 3, 2), (2, 1, 3)]
    """
    words = _symmetric_words(n)
    return PermSet._of_rows(n, words[_inversion_counts(words) == k])


def inversion_ball(n: int, k: int) -> PermSet:
    """All words with at most ``k`` inversions."""
    words = _symmetric_words(n)
    return PermSet._of_rows(n, words[_inversion_counts(words) <= k])


def cdes_inverse_class(n: int, k: int) -> PermSet:
    """All words whose inverse has exactly ``k`` cyclic descents."""
    words = _symmetric_words(n)
    return PermSet._of_rows(n, words[_inverse_cdes(words) == k])


# ---------------------------------------------------------------------------
# The battery of known-fine families
# ---------------------------------------------------------------------------

BATTERY_FAMILIES = ("knuth", "conj", "invfix", "Dinv", "colayer")


def _battery_family(n: int, fam: str) -> list[tuple[str, PermSet]]:
    """The named sets of one of ``BATTERY_FAMILIES`` at degree ``n``."""
    if fam == "knuth":
        return [
            (f"knuth[{''.join(map(str, c.words[0].tolist()))}]", c)
            for mu in partitions(n)
            for c in knuth_classes(mu)
        ]
    if fam == "conj":
        words, types = _symmetric_words(n), partitions(n)
        classes = _level_sets(n, words, _cycle_type_levels(words), len(types))
        return [("conj[" + ",".join(map(str, r)) + "]", c) for r, c in zip(types, classes)]
    if fam == "invfix":
        words, top = _symmetric_words(n), n * (n - 1) // 2
        classes = _level_sets(n, words, _inversion_counts(words), top + 1)
        return [(f"invfix[{k}]", c) for k, c in enumerate(classes)]
    if fam == "Dinv":
        classes = inv_descent_classes(n)
        return [(f"Dinv{DescSet(n, m).braces()}", c) for m, c in enumerate(classes)]
    return [(f"colayer[{k}]", colayered_class(n, k)) for k in range(1, n + 1)]


def fine_battery(n: int) -> list[tuple[str, PermSet]]:
    """Named sets with symmetric, Schur-positive descent generating
    functions, drawn from every family of ``BATTERY_FAMILIES`` in turn.

    >>> [name for name, _ in fine_battery(2)]  # doctest: +NORMALIZE_WHITESPACE
    ['knuth[12]', 'knuth[21]', 'conj[2]', 'conj[1,1]', 'invfix[0]', 'invfix[1]',
     'Dinv{}', 'Dinv{1}', 'colayer[1]', 'colayer[2]']
    """
    return [entry for fam in BATTERY_FAMILIES for entry in _battery_family(n, fam)]
