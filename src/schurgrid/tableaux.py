"""Partitions, skew shapes, standard Young tableaux, RSK, and the
descent-preserving rotation bijection onto strip chain tableaux.

Shapes are stored in English notation: rows are numbered from the top
starting at 1, and a skew shape is an (outer, inner) pair of partitions
with ``inner`` contained in ``outer`` componentwise.  Two skew shape
functions build shapes from descent sets:

- :func:`strip_chain_shape` -- corner-touching horizontal strips whose top
  right cell is a single box, the shape the rotation bijection maps onto;
- :func:`ribbon_shape` -- the connected ribbon encoding a descent set, a
  reference for the tests: the package reads ribbons off the descent-count
  table instead.

>>> ribbon_shape(9, DescSet.of(9, [1, 3, 5, 6])).row_sizes()
(3, 1, 2, 2, 1)
>>> strip_chain_shape(5, DescSet.of(5, [1]))
SkewShape(outer=(5, 4, 1), inner=(4, 1))

A standard tableau is also held as its *row word*, the row of each entry
``1..n`` (``StandardTableau.row_word``); entry ``i`` is a descent when
``i + 1`` lies in a lower row.  A family of tableaux is then one ``(f, n)``
uint8 matrix (:func:`syt_row_words`, :func:`knuth_classes`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .permutations import (
    DescSet,
    Perm,
    PermSet,
    _row_keys,
    compose,
    cycle_perm,
    des_mask,
    inverse,
)

__all__ = [
    "Partition",
    "partitions",
    "conjugate_partition",
    "is_partition",
    "SkewShape",
    "straight_shape",
    "ribbon_shape",
    "strip_chain_shape",
    "StandardTableau",
    "enumerate_syt",
    "syt_row_words",
    "syt_des",
    "rsk",
    "insertion_tableau",
    "knuth_classes",
    "knuth_class_words",
    "rotation_bijection",
]

# Weakly decreasing positive parts; () is the unique partition of 0.
Partition = tuple[int, ...]


def is_partition(parts: Sequence[int]) -> bool:
    return all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    ) and all(p >= 1 for p in parts)


def _check_partition(parts: Sequence[int]) -> Partition:
    mu = tuple(int(p) for p in parts)
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu!r}")
    return mu


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in descending lexicographic order.

    >>> partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(gen(n, n))


def conjugate_partition(mu: Sequence[int]) -> Partition:
    """Transpose of the diagram.

    >>> conjugate_partition((3, 2))
    (2, 2, 1)
    """
    mu = _check_partition(mu)
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p >= c) for c in range(1, mu[0] + 1))


@dataclass(frozen=True, order=True)
class SkewShape:
    """An (outer, inner) pair of partitions with inner inside outer.

    Normal form: no trailing zeros in either partition and no leading rows
    with ``outer == inner`` (fully empty top rows are meaningless here).
    """

    outer: Partition
    inner: Partition

    def __post_init__(self) -> None:
        _check_partition(self.outer)
        _check_partition(self.inner)
        if len(self.inner) > len(self.outer):
            raise ValueError("inner partition has more rows than outer")
        for r, inner_len in enumerate(self.inner):
            if inner_len > self.outer[r]:
                raise ValueError(
                    f"inner row {r + 1} is longer than the outer row"
                )
        # Derived once: tableau code asks for these per tableau.
        sizes = tuple(self.outer[r] - self.inner_len(r + 1) for r in range(self.n_rows))
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_size", sum(sizes))

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    def inner_len(self, row: int) -> int:
        """Length of the inner partition at 1-based ``row`` (0 when absent)."""
        return self.inner[row - 1] if row - 1 < len(self.inner) else 0

    def row_sizes(self) -> tuple[int, ...]:
        return self._sizes

    def size(self) -> int:
        return self._size

    def cells(self) -> tuple[tuple[int, int], ...]:
        """All (row, col) cells, both 1-based, row-major order."""
        out = []
        for r in range(1, self.n_rows + 1):
            for c in range(self.inner_len(r) + 1, self.outer[r - 1] + 1):
                out.append((r, c))
        return tuple(out)

    def is_straight(self) -> bool:
        return not self.inner


def straight_shape(mu: Sequence[int]) -> SkewShape:
    """The skew shape with empty inner partition."""
    return SkewShape(_check_partition(mu), ())


def ribbon_shape(n: int, j: DescSet) -> SkewShape:
    """The connected ribbon with ``n`` cells where cell ``i+1`` sits above
    cell ``i`` exactly when ``i`` is a member of ``j`` (else to its right),
    counting cells from the bottom-left end.

    >>> ribbon_shape(4, DescSet.of(4, [1, 2, 3]))
    SkewShape(outer=(1, 1, 1, 1), inner=())
    """
    if n < 1:
        raise ValueError("ribbon needs n >= 1")
    if j.n != n:
        raise ValueError(f"descent set has ambient degree {j.n}, expected {n}")
    # Walk the ribbon in bottom-up row coordinates.
    row_b, col = 0, 0
    cells = [(row_b, col)]
    for i in range(1, n):
        if i in j:
            row_b += 1
        else:
            col += 1
        cells.append((row_b, col))
    top = max(r for r, _ in cells)
    outer = []
    inner = []
    for r_top in range(top + 1):
        cols = [c for r, c in cells if top - r == r_top]
        outer.append(max(cols) + 1)
        inner.append(min(cols))
    while inner and inner[-1] == 0:
        inner.pop()
    return SkewShape(tuple(outer), tuple(inner))


def strip_chain_shape(n: int, j: DescSet) -> SkewShape:
    """Corner-touching horizontal strips, left to right, of sizes
    ``j_1, j_2-j_1, ..., n-1-j_t, 1`` for ``j = {j_1 < ... < j_t}``; the
    rightmost strip is the single top cell.

    Members of ``j`` must lie in ``[n-2]``.

    >>> strip_chain_shape(5, DescSet.of(5, []))
    SkewShape(outer=(5, 4), inner=(4,))
    """
    if n < 1:
        raise ValueError("strip chain needs n >= 1")
    if j.n != n:
        raise ValueError(f"descent set has ambient degree {j.n}, expected {n}")
    if any(i > n - 2 for i in j.members):
        raise ValueError(f"members {j.braces()} not inside [{n - 2}]")
    cuts = list(j.members)
    sizes = []
    prev = 0
    for cut in cuts:
        sizes.append(cut - prev)
        prev = cut
    if n >= 2:
        sizes.append(n - 1 - prev)
    sizes.append(1)
    # Strip i spans columns start_i .. start_i + size_i - 1; consecutive
    # strips touch at one corner, and strips are stacked bottom-up, so the
    # top row is the rightmost (single-cell) strip.
    outer = []
    inner = []
    start = 1
    for size in sizes:
        outer.append(start + size - 1)
        inner.append(start - 1)
        start += size
    outer.reverse()
    inner.reverse()
    while inner and inner[-1] == 0:
        inner.pop()
    return SkewShape(tuple(outer), tuple(inner))


# ---------------------------------------------------------------------------
# Standard tableaux
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _layout(
    shape: SkewShape,
) -> tuple[tuple[int, ...], frozenset[int], tuple[tuple[int, int], ...]]:
    """Row sizes, the entry set ``1..n`` and the (cell above, cell) pairs of
    a shape, cells numbered in reading order: what validating a filling
    needs, derived once per shape."""
    sizes = shape.row_sizes()
    index = {cell: i for i, cell in enumerate(shape.cells())}
    above = tuple(
        (index[r - 1, c], i) for (r, c), i in index.items() if (r - 1, c) in index
    )
    return sizes, frozenset(range(1, len(index) + 1)), above


@dataclass(frozen=True, order=True)
class StandardTableau:
    """A bijective filling of a skew shape by ``1..n`` increasing along
    rows (left to right) and down columns (top to bottom)."""

    shape: SkewShape
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        sizes, values, above = _layout(self.shape)
        if tuple(map(len, self.rows)) != sizes:
            raise ValueError("row lengths do not match the shape")
        word = self.reading_word()
        if set(word) != values:
            raise ValueError(f"entries are not exactly 1..{len(values)}")
        # The entries are distinct, so a row increases iff it is sorted.
        if any(list(row) != sorted(row) for row in self.rows):
            raise ValueError("rows must strictly increase")
        if any(word[i] >= word[j] for i, j in above):
            raise ValueError("columns must strictly increase")

    @property
    def size(self) -> int:
        return self.shape.size()

    def reading_word(self) -> tuple[int, ...]:
        """Entries row by row, top to bottom, left to right."""
        return tuple(chain.from_iterable(self.rows))

    def row_word(self) -> tuple[int, ...]:
        """The 1-based row of each entry ``1..n``."""
        rows = {e: r for r, entries in enumerate(self.rows, start=1) for e in entries}
        return tuple(rows[e] for e in range(1, self.size + 1))

    def text(self) -> str:
        """Rows top to bottom; inner cells printed as a centered dot;
        entries space-separated.

        >>> print(StandardTableau(strip_chain_shape(3, DescSet.of(3, [])),
        ...                       ((3,), (1, 2))).text())
        · · 3
        1 2
        """
        lines = []
        for r, row in enumerate(self.rows, start=1):
            cells = ["·"] * self.shape.inner_len(r) + [str(e) for e in row]
            lines.append(" ".join(cells))
        return "\n".join(lines)


def enumerate_syt(shape: SkewShape) -> list[StandardTableau]:
    """All standard tableaux of a skew shape, sorted lexicographically by
    row-reading word (deterministic canonical order).

    >>> len(enumerate_syt(straight_shape((3, 2))))
    5
    """
    sizes = shape.row_sizes()
    n = shape.size()
    inner = [shape.inner_len(r + 1) for r in range(shape.n_rows)]
    outer = list(shape.outer)
    # fill[r] = number of placed entries in row r (from the left edge of
    # the skew row).
    fill = [0] * shape.n_rows
    rows: list[list[int]] = [[] for _ in range(shape.n_rows)]
    out: list[StandardTableau] = []

    def cell_is_ready(r: int) -> bool:
        if fill[r] >= sizes[r]:
            return False
        col = inner[r] + fill[r] + 1
        if r == 0:
            return True
        # The cell directly above (if inside the shape) must be filled.
        if inner[r - 1] < col <= outer[r - 1]:
            return fill[r - 1] >= col - inner[r - 1]
        return True

    def place(value: int) -> None:
        if value > n:
            t = object.__new__(StandardTableau)  # standard by construction
            t.__dict__.update(shape=shape, rows=tuple(map(tuple, rows)))
            out.append(t)
            return
        for r in range(shape.n_rows):
            if cell_is_ready(r):
                rows[r].append(value)
                fill[r] += 1
                place(value + 1)
                fill[r] -= 1
                rows[r].pop()

    place(1)
    out.sort(key=lambda t: t.reading_word())
    return out


def syt_row_words(shape: SkewShape) -> np.ndarray:
    """Every standard tableau of a skew shape as its row word: the ``(f, n)``
    uint8 matrix of the ``row_word()`` of every tableau that
    :func:`enumerate_syt` lists, in strictly increasing lexicographic order.

    Entries are placed one at a time on all partial tableaux at once: with
    ``ends[s, r]`` the last filled column of row ``r``, the next entry may
    go to row ``r`` when ``ends[s, r]`` is below ``outer[r]`` (room) and
    below ``ends[s, r - 1]`` (the cell above is filled or outside).  Each
    step keeps the order of the partial words and extends each one by its
    rows in increasing order, so the words come out sorted.

    >>> syt_row_words(straight_shape((2, 2))).tolist()
    [[1, 1, 2, 2], [1, 2, 1, 2]]
    """
    n, outer = shape.size(), np.array(shape.outer, np.intp)
    words = np.zeros((1, n), np.uint8)
    ends = np.array([[shape.inner_len(r + 1) for r in range(shape.n_rows)]], np.intp)
    for k in range(n):
        ready = ends < outer
        ready[:, 1:] &= ends[:, 1:] < ends[:, :-1]
        state, row = np.nonzero(ready)
        words, ends = words[state], ends[state]
        words[:, k] = row + 1
        ends[np.arange(len(row)), row] += 1
    return words


def syt_des(t: StandardTableau) -> DescSet:
    """Entries ``i`` whose successor ``i+1`` sits in a strictly lower row.

    >>> syt_des(StandardTableau(straight_shape((2, 1)), ((1, 3), (2,)))).members
    (1,)
    """
    n = t.size
    row = {}
    for r, entries in enumerate(t.rows, start=1):
        for e in entries:
            row[e] = r
    return DescSet.of(n, (i for i in range(1, n) if row[i + 1] > row[i]))


# ---------------------------------------------------------------------------
# RSK and Knuth classes
# ---------------------------------------------------------------------------


def rsk(p: Perm) -> tuple[StandardTableau, StandardTableau]:
    """Row-insertion correspondence.  Returns the (insertion, recording)
    pair; the recording tableau has the descent set of ``p`` and the
    insertion tableau that of its inverse.

    >>> ins, rec = rsk((2, 3, 1))
    >>> ins.rows, rec.rows
    (((1, 3), (2,)), ((1, 2), (3,)))
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(p, start=1):
        v = value
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([v])
                q_rows.append([step])
                break
            row = p_rows[r]
            # Find the leftmost entry strictly greater than v.
            idx = bisect_right(row, v)
            if idx == len(row):
                row.append(v)
                q_rows[r].append(step)
                break
            row[idx], v = v, row[idx]
            r += 1
    shape = straight_shape(tuple(len(r) for r in p_rows))
    return (
        StandardTableau(shape, tuple(tuple(r) for r in p_rows)),
        StandardTableau(shape, tuple(tuple(r) for r in q_rows)),
    )


def insertion_tableau(p: Perm) -> StandardTableau:
    return rsk(p)[0]


def knuth_classes(mu: Sequence[int]) -> list[PermSet]:
    """The plactic classes of the straight shape ``mu``, one per insertion
    tableau in :func:`enumerate_syt` order, from all ``f**2`` pairs of row
    words at once.  Reading words compare the entry sets of row 1, then
    row 2, ..., each by its least entry not in the other; that sorts the
    row words into that order.

    >>> [sorted(c) for c in knuth_classes((2, 1))]
    [[(1, 3, 2), (3, 1, 2)], [(2, 1, 3), (2, 3, 1)]]
    """
    rows = syt_row_words(straight_shape(mu))
    f, n = rows.shape
    # Bit n - 1 - i of key r is set when entry i + 1 is not in row r.
    bits = 1 << np.arange(n - 1, -1, -1, dtype=object if n > 62 else np.int64)
    keys = [(rows != r) @ bits for r in range(len(mu) - 1, 0, -1)]
    if keys:
        rows = rows[np.lexsort(keys)]
    return _inverse_rsk_classes(np.repeat(rows, f, axis=0), np.tile(rows, (f, 1)), mu, f)


def knuth_class_words(t: StandardTableau) -> PermSet:
    """All permutations whose insertion tableau equals ``t``: ``t`` paired
    with every recording tableau of its shape under inverse RSK.

    >>> sorted(knuth_class_words(StandardTableau(straight_shape((2, 2)),
    ...                                          ((1, 3), (2, 4)))))
    [(2, 1, 4, 3), (2, 4, 1, 3)]
    """
    if not t.shape.is_straight():
        raise ValueError("insertion tableaux have straight shape")
    q = syt_row_words(t.shape)
    p = np.array([t.row_word()] * len(q))
    return _inverse_rsk_classes(p, q, t.shape.outer, len(q))[0]


def _inverse_rsk_classes(
    p_words: np.ndarray, q_words: np.ndarray, mu: Sequence[int], size: int
) -> list[PermSet]:
    """Inverse RSK of all pairs ``(p_words[s], q_words[s])`` of insertion and
    recording row words of shape ``mu``; each run of ``size`` pairs is one
    set.  P is padded with ``n + 1``.  Entry ``k = n..1`` leaves the row
    that ``q_words[:, k - 1]`` names and bumps the largest smaller entry of
    each row above; what leaves row 1 is letter ``k``."""
    m, n = q_words.shape
    p = np.full((m, len(mu), mu[0] if mu else 0), n + 1, np.min_scalar_type(n + 1))
    reading = np.argsort(p_words, axis=1, kind="stable") + 1
    for r, start in enumerate(np.cumsum(mu) - mu):
        p[:, r, : mu[r]] = reading[:, start : start + mu[r]]
    states, words = np.arange(m), np.empty((m, n), p.dtype)
    for k in range(n - 1, -1, -1):
        r = q_words[:, k].astype(np.intp) - 1
        end = (p[states, r] <= n).sum(axis=1) - 1
        v = p[states, r, end]
        p[states, r, end] = n + 1
        for upper in range(r.max() - 1, -1, -1):
            row, below = p[:, upper], r > upper
            at = (row < v[:, None]).sum(axis=1) - 1
            bumped = row[states, at]
            row[states, at] = np.where(below, v, bumped)
            v = np.where(below, bumped, v)
        words[:, k] = v
    words = words[np.lexsort((_row_keys(words, max(n, 1).bit_length()), states // size))]
    return [PermSet._of_rows(n, words[i : i + size]) for i in range(0, m, size)]


# ---------------------------------------------------------------------------
# Descent-preserving rotation bijection
# ---------------------------------------------------------------------------


def rotation_bijection(p: Perm, j: DescSet) -> StandardTableau:
    """Descent-preserving image of ``p`` on the strip chain shape.

    ``p`` must factor as ``sigma`` composed with an inverse power of the
    n-cycle, where ``sigma`` fixes ``n`` and the descent set of its inverse
    is contained in ``j``.  The tableau is built by filling the strip chain
    left to right with the inverse word of ``sigma``, adding the rotation
    amount to every entry modulo ``n`` (values stay in ``1..n``), and
    re-sorting rows; its top-right entry is the position of ``n`` in ``p``.

    >>> t = rotation_bijection((3, 1, 4, 5, 2), DescSet.of(5, [1]))
    >>> print(t.text())
    · · · · 4
    · 1 3 5
    2
    """
    n = len(p)
    if n < 1:
        raise ValueError("degree must be >= 1")
    if j.n != n or any(i > n - 2 for i in j.members):
        raise ValueError("strip chain index must satisfy members <= n-2")
    k = inverse(p)[n - 1] % n
    sigma = compose(p, _cycle_power(n, k))
    if sigma[n - 1] != n:
        raise ValueError("decomposition failed to fix the last letter")
    sigma_inv = inverse(sigma)
    if des_mask(sigma_inv) & ~j.mask:
        raise ValueError(
            "permutation does not decompose over the given strip chain index"
        )
    shape = strip_chain_shape(n, j)
    # Fill cells left to right (one cell per column) with the inverse word,
    # then rotate entries and restore increasing rows.
    column_entry = {
        col: (sigma_inv[col - 1] - 1 + k) % n + 1
        for col in range(1, n + 1)
    }
    rows = []
    for r in range(1, shape.n_rows + 1):
        lo = shape.inner_len(r) + 1
        hi = shape.outer[r - 1]
        rows.append(tuple(sorted(column_entry[c] for c in range(lo, hi + 1))))
    return StandardTableau(shape, tuple(rows))


@lru_cache(maxsize=None)
def _cycle_power(n: int, k: int) -> Perm:
    c = cycle_perm(n)
    out = tuple(range(1, n + 1))
    for _ in range(k % n):
        out = compose(c, out)
    return out
