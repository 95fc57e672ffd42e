"""Geometric grid classes of permutations.

A grid matrix has entries in {-1, 0, +1}; row 1 is the TOP row.  The class
it defines at degree ``n`` consists of all patterns of ``n`` points drawn on
a picture with one increasing segment per ``+1`` cell and one decreasing
segment per ``-1`` cell.

Enumeration is exact and takes one of two routes:

- When every nonzero cell lies in one column, the values 1..n are inserted
  in turn into each member, greedily keeping each value in the current
  cell's monotone run and opening the next cell otherwise.  Staying is
  never worse than moving up, so this gridding is unique and every member
  is built once.  The same walk counts a class without listing it: a
  partial member matters only through its cell, the position of its
  largest value and its descent set, so equal states merge into one with
  a count, and the counts per descent set at the end make the descent
  generating function, exact because no member is reached twice.
- Otherwise the matrix is oriented: row and column signs with
  ``row * col == entry`` on every nonzero cell.  Every drawing can then be
  normalized so that all points share one integer parameter, and the
  points are added in order of it.  A partial drawing is kept as its
  pattern plus its points per row and per column, built once from the
  lexicographically least parameter word of its trace (words equal up to
  swapping cells that share no row and no column).  A matrix with no
  consistent orientation is first refined by splitting every cell into a
  2x2 block (each segment cut at its midpoint), which always yields an
  orientable matrix describing the same picture.

>>> sorted(enumerate_grid(parse_grid_matrix("+"), 3))
[(1, 2, 3)]
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .permutations import (
    Perm,
    PermSet,
    _DistinctRows,
    _dedupe,
    cdes_count,
    des_set,
    distinct_words,
    inverse,
)

__all__ = [
    "GridMatrix",
    "parse_grid_matrix",
    "format_grid_matrix",
    "GridResourceError",
    "consistent_orientation",
    "refine_matrix",
    "enumerate_grid",
    "one_column_classes",
    "one_column_qsyms",
    "grid_budget",
    "complement_matrix",
    "rotate180_matrix",
    "reflect_matrix_horizontal",
    "one_column_matrix",
    "stack_matrix",
    "star_product",
    "inverse_sign_vector",
    "parse_sign_vector",
    "format_sign_vector",
    "identity_matrix",
    "zigzag_matrix",
    "fig_matrix",
    "j_matrix",
    "k_matrix",
    "arc_matrices",
    "left_unimodal_matrix",
    "is_left_unimodal",
    "is_arc",
    "is_colayered",
    "one_column_member",
    "plus_member",
    "minus_member",
    "zigzag_member",
]

SignVector = tuple[int, ...]

_CHAR_TO_ENTRY = {"0": 0, "+": 1, "-": -1}
_ENTRY_TO_CHAR = {0: "0", 1: "+", -1: "-"}


@dataclass(frozen=True)
class GridMatrix:
    """Rectangular sign matrix; ``rows[0]`` is the top row."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("matrix rows must have equal length")
            for e in row:
                if e not in (-1, 0, 1):
                    raise ValueError("entries must be -1, 0 or +1")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def cells(self) -> list[tuple[int, int]]:
        """0-based (row, col) positions of the nonzero entries."""
        return [
            (i, j)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
            if e
        ]


def parse_grid_matrix(text: str) -> GridMatrix:
    """Parse rows separated by ``/``, characters ``0``, ``+``, ``-``;
    rows are listed top to bottom.

    >>> parse_grid_matrix("0+/-0/+-").rows
    ((0, 1), (-1, 0), (1, -1))
    """
    rows = []
    for chunk in text.strip().split("/"):
        chunk = chunk.strip()
        try:
            rows.append(tuple(_CHAR_TO_ENTRY[ch] for ch in chunk))
        except KeyError as exc:
            raise ValueError(f"bad matrix character {exc.args[0]!r}") from None
    return GridMatrix(tuple(rows))


def format_grid_matrix(m: GridMatrix) -> str:
    """Inverse of :func:`parse_grid_matrix`.

    >>> format_grid_matrix(GridMatrix(((0, 1), (-1, 0), (1, -1))))
    '0+/-0/+-'
    """
    return "/".join("".join(_ENTRY_TO_CHAR[e] for e in row) for row in m.rows)


# ---------------------------------------------------------------------------
# Matrix symmetries
# ---------------------------------------------------------------------------


def complement_matrix(m: GridMatrix) -> GridMatrix:
    """Flip upside down and negate entries (complement of the class)."""
    return GridMatrix(tuple(tuple(-e for e in row) for row in reversed(m.rows)))


def rotate180_matrix(m: GridMatrix) -> GridMatrix:
    """Flip upside down and left-right (same entry signs)."""
    return GridMatrix(tuple(tuple(reversed(row)) for row in reversed(m.rows)))


def reflect_matrix_horizontal(m: GridMatrix) -> GridMatrix:
    """Flip left-right and negate entries (reverse of the class)."""
    return GridMatrix(tuple(tuple(-e for e in reversed(row)) for row in m.rows))


# ---------------------------------------------------------------------------
# Sign vectors and one-column matrices
# ---------------------------------------------------------------------------


def parse_sign_vector(text: str) -> SignVector:
    """Parse ``+``/``-`` characters, read bottom cell to top cell.

    >>> parse_sign_vector("-+")
    (-1, 1)
    """
    out = []
    for ch in text.strip():
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ValueError(f"bad sign character {ch!r}")
    if not out:
        raise ValueError("sign vector must be nonempty")
    return tuple(out)


def format_sign_vector(v: SignVector) -> str:
    return "".join("+" if s > 0 else "-" for s in v)


def one_column_matrix(v: SignVector) -> GridMatrix:
    """Single-column matrix whose bottom-to-top cell signs are ``v``.

    >>> format_grid_matrix(one_column_matrix((-1, 1)))
    '+/-'
    """
    _check_signs(v)
    return GridMatrix(tuple((s,) for s in reversed(v)))


def _check_signs(v: Sequence[int]) -> None:
    if not v or any(s not in (-1, 1) for s in v):
        raise ValueError("sign vector entries must be +1/-1 and nonempty")


def inverse_sign_vector(v: SignVector) -> SignVector:
    """Reverse the order and negate each sign.

    >>> inverse_sign_vector((1, -1, -1))
    (1, 1, -1)
    """
    _check_signs(v)
    return tuple(-s for s in reversed(v))


def star_product(v: SignVector, w: SignVector) -> SignVector:
    """Concatenate one copy of ``w`` per entry of ``v`` (bottom to top),
    using ``w`` itself for a plus and its inverse for a minus.

    >>> star_product((-1, 1), (1, -1, -1))
    (1, 1, -1, 1, -1, -1)
    """
    _check_signs(v)
    _check_signs(w)
    out: list[int] = []
    winv = inverse_sign_vector(w)
    for s in v:
        out.extend(w if s > 0 else winv)
    return tuple(out)


def stack_matrix(v: SignVector, m: GridMatrix) -> GridMatrix:
    """Stack one copy of ``m`` per entry of ``v`` (bottom to top), using
    ``m`` for a plus and its complement for a minus.

    >>> format_grid_matrix(stack_matrix((-1, 1), GridMatrix(((1,),))))
    '+/-'
    """
    _check_signs(v)
    rows: list[tuple[int, ...]] = []
    comp = complement_matrix(m)
    for s in reversed(v):
        rows.extend((m if s > 0 else comp).rows)
    return GridMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# Named matrices
# ---------------------------------------------------------------------------


def identity_matrix(k: int) -> GridMatrix:
    """k-by-k matrix with plus cells on the top-left to bottom-right
    diagonal; its class is the colayered family."""
    if k < 1:
        raise ValueError("size must be >= 1")
    return GridMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    )


def zigzag_matrix(k: int) -> GridMatrix:
    """2k-by-2 matrix whose rows from the top alternate ``+0`` and ``0+``;
    k = 1 gives the cyclic class."""
    if k < 1:
        raise ValueError("size must be >= 1")
    rows = []
    for i in range(2 * k):
        rows.append((1, 0) if i % 2 == 0 else (0, 1))
    return GridMatrix(tuple(rows))


def fig_matrix() -> GridMatrix:
    """Running 3x2 example matrix ``0+/-0/+-``."""
    return parse_grid_matrix("0+/-0/+-")


def j_matrix() -> GridMatrix:
    """4x2 plus-cell matrix ``0+/+0/+0/0+``."""
    return parse_grid_matrix("0+/+0/+0/0+")


def k_matrix() -> GridMatrix:
    """4x2 matrix ``+0/0+/-0/0-``."""
    return parse_grid_matrix("+0/0+/-0/0-")


def arc_matrices() -> tuple[GridMatrix, GridMatrix]:
    """The two 4x2 matrices whose classes union to the arc family."""
    return (
        parse_grid_matrix("+0/-0/0-/0+"),
        parse_grid_matrix("0-/0+/+0/-0"),
    )


def left_unimodal_matrix() -> GridMatrix:
    """One-column matrix (decreasing below, increasing above)."""
    return one_column_matrix((-1, 1))


# ---------------------------------------------------------------------------
# Orientation and refinement
# ---------------------------------------------------------------------------


def consistent_orientation(
    m: GridMatrix,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Signs for rows and columns with ``row*col == entry`` on every
    nonzero cell, or None when impossible.  Rows are listed top to bottom;
    the first row of each connected set of cells and untouched
    rows/columns get ``+1``.

    >>> consistent_orientation(parse_grid_matrix("+-/0+"))
    ((1, -1), (1, -1))
    >>> consistent_orientation(parse_grid_matrix("++/+-")) is None
    True
    """
    cells = [(i, j, m.rows[i][j]) for i, j in m.cells()]
    row_sign = [0] * m.n_rows
    col_sign = [0] * m.n_cols
    for start, _, _ in cells:
        if row_sign[start]:
            continue
        # A new component: fix its first row, then spread signs until stable.
        row_sign[start] = 1
        changed = True
        while changed:
            changed = False
            for i, j, e in cells:
                if row_sign[i] and not col_sign[j]:
                    col_sign[j] = row_sign[i] * e
                    changed = True
                elif col_sign[j] and not row_sign[i]:
                    row_sign[i] = col_sign[j] * e
                    changed = True
    if any(row_sign[i] * col_sign[j] != e for i, j, e in cells):
        return None
    return tuple(s or 1 for s in row_sign), tuple(s or 1 for s in col_sign)


def refine_matrix(m: GridMatrix) -> GridMatrix:
    """Split every cell into a 2x2 block, cutting each segment at its
    midpoint; the result is always consistently orientable and draws the
    same pictures.

    >>> format_grid_matrix(refine_matrix(GridMatrix(((1,),))))
    '0+/+0'
    """
    nr, nc = m.n_rows, m.n_cols
    out = [[0] * (2 * nc) for _ in range(2 * nr)]
    for i, j in m.cells():
        e = m.rows[i][j]
        if e > 0:
            out[2 * i + 1][2 * j] = 1
            out[2 * i][2 * j + 1] = 1
        else:
            out[2 * i][2 * j] = -1
            out[2 * i + 1][2 * j + 1] = -1
    return GridMatrix(tuple(tuple(row) for row in out))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class GridResourceError(RuntimeError):
    """Raised when an enumeration would exceed the word budget."""


def grid_budget() -> int:
    """Largest ``s**n`` (nonzero cells of the oriented matrix to the power
    of the degree) one enumeration may ask for, set with the
    SCHURGRID_GRID_BUDGET environment variable, though neither route visits
    those words.  It also caps the bounded states of :func:`one_column_qsyms`,
    the ``n! * n`` letters of the symmetric group that the array-built
    families start from (the default admits ``n <= 10`` and refuses
    ``n = 11``) and the terms of :meth:`~schurgrid.qsym.QSym.evaluate_monomials`."""
    return _budget("SCHURGRID_GRID_BUDGET", 100_000_000)


def _budget(var: str, default: int) -> int:
    """The integer in environment variable ``var``; unset or empty means
    ``default``, and anything else not an integer is refused by name."""
    text = os.environ.get(var)
    if not text:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{var} must be an integer, got {text!r}") from None


_CHUNK = 1 << 18

_grid_cache: dict[tuple[GridMatrix, int], PermSet] = {}

_log = logging.getLogger("schurgrid")


def enumerate_grid(m: GridMatrix, n: int) -> PermSet:
    """All degree-``n`` patterns drawable on the matrix picture, as a
    :class:`~schurgrid.permutations.PermSet`: the word matrix the route
    builds, sorted, with no element turned into a tuple.  The result is
    cached per ``(m, n)``.

    >>> sorted(enumerate_grid(zigzag_matrix(1), 3))
    [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    key = (m, n)
    debug = _log.isEnabledFor(logging.DEBUG)
    cached = _grid_cache.get(key)
    if cached is not None:
        if debug:
            _log.debug("grid %s n=%d: cache hit", format_grid_matrix(m), n)
        return cached
    work, cells, signs = m, m.cells(), _column_signs(m)
    if signs is None:  # a one-column matrix is always orientable
        oriented = consistent_orientation(m)
        if oriented is None:
            work = refine_matrix(m)
            oriented = consistent_orientation(work)
            assert oriented is not None, "refined matrix must be orientable"
        cells = work.cells()
    if n == 0 or not cells:
        out = PermSet.from_words(np.empty((int(n == 0), n), np.uint8))
    else:
        _grid_gate(len(cells) ** n, "enumeration needs {} words")
        if signs is not None:
            route = "one-column"
            (words,), sizes = _one_column_walk([signs], n)
        else:
            route = "gridded-state"
            words, sizes = _enumerate_oriented(work, oriented, n)
        out = PermSet._of_rows(n, words)
        if debug:
            _log.debug(
                "grid %s n=%d: %s route, refined=%s, states per level %s, "
                "%d permutations",
                format_grid_matrix(m), n, route, work is not m, sizes, len(out),
            )
    _grid_cache[key] = out
    return out


def _column_signs(m: GridMatrix) -> SignVector | None:
    """Bottom-to-top signs of the cells when all lie in one column, else None."""
    cells = m.cells()
    one_column = len({j for _, j in cells}) == 1
    return tuple(m.rows[i][j] for i, j in reversed(cells)) if one_column else None


def _grid_gate(total: int, need: str) -> None:
    """Refuse ``total`` units over :func:`grid_budget`; ``need`` names them, ``{}`` the count."""
    if total > grid_budget():
        budget = f"(budget {grid_budget()}); raise SCHURGRID_GRID_BUDGET"
        raise GridResourceError(f"{need.format(total)} {budget}")


def one_column_classes(vs: Sequence[SignVector], n: int) -> list[PermSet]:
    """``enumerate_grid(one_column_matrix(v), n)`` for every ``v`` in
    ``vs``; the classes not cached yet are gated as there (by the longest
    vector), listed by one walk and cached under that key.

    >>> [len(c) for c in one_column_classes([(1,), (1, -1), (1,)], 3)]
    [1, 4, 1]
    """
    mats = [one_column_matrix(v) for v in vs]
    todo = {m: v for m, v in zip(mats, vs) if (m, n) not in _grid_cache}
    if todo and n > 0:
        _grid_gate(max(map(len, todo.values())) ** n, "enumeration needs {} words")
        for m, words in zip(todo, _one_column_walk(list(todo.values()), n)[0]):
            _grid_cache[m, n] = PermSet._of_rows(n, words)
    return [enumerate_grid(m, n) for m in mats]


def _one_column_states(k: int, n: int) -> int:
    """Bound on the states :func:`one_column_qsyms` merges for a sign vector
    of length ``k`` at degree ``n``: with ``L`` values placed, ``min(k, L)``
    bands times the ``(L + 2) * 2**(L - 3)`` masks whose bit ``top`` is set
    and bit ``top - 1`` clear; the last level keeps masks alone."""
    return 1 + sum(min(k, L) * ((L + 2) << L >> 3) for L in range(2, n)) + (1 << max(n - 1, 0))


def one_column_qsyms(vs: Sequence[SignVector], n: int) -> np.ndarray:
    """Fundamental vector of the one-column class of each ``v`` in ``vs``,
    one ``int64`` row each, counted without listing a member, in batches
    of at most ``_CHUNK`` children (bounded states times n); over
    :func:`grid_budget` states in all is refused.

    >>> one_column_qsyms([(-1, 1)], 3).tolist()
    [[1, 1, 1, 1]]
    """
    index = {v: i for i, v in enumerate(dict.fromkeys(vs))}
    for v in index:
        _check_signs(v)
    bounds = [_one_column_states(len(v), n) for v in index]
    _grid_gate(sum(bounds), "counting needs up to {} states")
    uniq, out = list(index), np.zeros((len(index), 1 << max(n - 1, 0)), np.int64)
    per = max(1, _CHUNK // max(bounds, default=1) // max(n, 1))
    sizes = np.zeros(max(n - 1, 1), np.int64)
    for i in range(0, len(uniq), per):
        sizes += _one_column_walk(uniq[i : i + per], n, out[i : i + per])[1]
    if _log.isEnabledFor(logging.DEBUG):
        sizes = [*sizes.tolist(), int(np.count_nonzero(out))] if n > 1 else sizes.tolist()
        _log.debug("%d one-column counts n=%d: states per level %s", len(uniq), n, sizes)
    return out[[index[v] for v in vs]]


def _one_column_walk(
    vs: Sequence[Sequence[int]], n: int, out: np.ndarray | None = None
) -> tuple[list[np.ndarray], list[int]]:
    """The greedy gridding of the one-column classes of bottom-to-top cell
    signs ``vs[i]``: a row of vector ``vec`` holding 1..j is in band
    ``band`` with its largest value at ``top``; value j + 1 at gap 0..j
    stays in the band iff ``(gap > top) == plus[band]``, else opens the
    next, and a row whose band reaches ``len(v)`` is dropped.  Without
    ``out`` rows are words: each class's members sorted by
    :func:`distinct_words` and the rows per level.  With ``out`` they are
    states with counts merged per level; the new maximum at gap g keeps the
    descent bits below g - 1, clears bit g - 1, sets bit g unless g = j and
    shifts the bits from g up by one.  Each fundamental vector is added to
    its row of ``out``; the merged states per level are returned."""
    lengths = np.array([len(v) for v in vs])
    plus = np.array([[s > 0 for s in v] + [False] * (lengths.max() - len(v)) for v in vs])
    dtype, shape = np.min_scalar_type(n), (len(vs), plus.shape[1], n)
    vec, band = np.arange(len(vs)), np.zeros(len(vs), np.min_scalar_type(plus.shape[1]))
    top, mask, count = band, band, np.ones(len(vs), np.int64)
    words, sizes = np.ones((len(vs), 1), dtype), [len(vs)]
    for j in range(1, n):
        bands = band[:, None] + ((np.arange(j + 1) > top[:, None]) != plus[vec, band][:, None])
        rows, top = np.nonzero(bands < lengths[vec][:, None])
        vec, band = vec[rows], bands[rows, top]
        if out is None:
            old = words[rows]
            words = np.empty((len(rows), j + 1), dtype)
            new = np.arange(j + 1) == top[:, None]
            words[new] = j + 1
            words[~new] = old.ravel()
            sizes.append(len(words))
        else:
            old, count = mask[rows], count[rows]
            low = old & (np.left_shift(1, np.maximum(top - 1, 0)) - 1)
            mask = low | np.left_shift(top < j, top) | np.left_shift(old >> top, top + 1)
            if j < n - 1:
                keys = np.ravel_multi_index((vec, band, top), shape) << (n - 1) | mask
                keys, count = _dedupe(keys, count)
                mask = keys & ((1 << (n - 1)) - 1)
                vec, band, top = np.unravel_index(keys >> (n - 1), shape)
                sizes.append(len(keys))
    if out is not None:
        np.add.at(out, (vec, mask), count)
        return [], sizes
    cuts = np.cumsum(np.bincount(vec, minlength=len(vs)))[:-1]
    return [distinct_words(block)[0] for block in np.split(words, cuts)], sizes


def _enumerate_oriented(
    m: GridMatrix,
    oriented: tuple[tuple[int, ...], tuple[int, ...]],
    n: int,
) -> tuple[np.ndarray, list[int]]:
    """Patterns of an oriented matrix with at least one cell, as the rows
    of a word matrix in lexicographic order, and the number of states per
    level.

    Points are added in order of their parameter, so a drawing is a word
    over the cells, ordered as ``m.cells()`` lists them.  Two cells commute
    when they share no row and no column; words equal up to swapping
    adjacent commuting cells (one trace) reach the same gridded pattern,
    and distinct traces distinct ones.  Only the lexicographically least
    word of each trace is built (Anisimov and Knuth): bit c of a state is
    set when the longest suffix of commuting-with-c cells holds a cell
    later than c, and c is appended only where it is clear.  Appending c
    keeps the bits of the cells that commute with c, sets those of them
    earlier than c and clears the rest.  Every state is built once, so no
    level below the last is deduplicated.

    A state is a row holding the pattern, the points left of each of the
    ``nc + 1`` column lines (prefix sums), the points below each of the
    ``n_rows + 1`` row lines (suffix sums) and the bits, packed into
    bytes.  Each level is counted per appendable cell and filled chunk by
    chunk, at most ``_CHUNK`` children a chunk, into one array.  The last
    level's bare patterns, which several griddings can share, are merged
    into the running distinct rows a chunk at a time, never all held.
    """
    row_sign, col_sign = oriented
    cells = m.cells()
    nc = m.n_cols
    at_row, at_col = np.array(cells).T
    commute = (at_row[:, None] != at_row) & (at_col[:, None] != at_col)
    keep = np.packbits(commute, axis=1, bitorder="little")
    mark = np.packbits(np.tril(commute, -1), axis=1, bitorder="little")
    dtype = np.min_scalar_type(n)
    states = np.zeros((1, nc + m.n_rows + 2 + keep.shape[1]), dtype)
    sizes = [1]
    step = max(1, _CHUNK // len(cells))
    patterns = _DistinctRows(n)
    for level in range(n):
        last = level == n - 1
        bits = states.shape[1] - keep.shape[1]
        blocked = [(bits + c // 8, 1 << (c % 8)) for c in range(len(cells))]
        free = sum(len(states) - np.count_nonzero(states[:, b] & bit) for b, bit in blocked)
        width = level + 1 if last else states.shape[1] + 1
        out = np.empty((min(free, step * len(cells)) if last else free, width), dtype)
        filled = 0
        for start in range(0, len(states), step):
            block = states[start : start + step]
            for c, (i, j) in enumerate(cells):
                b, bit = blocked[c]
                kids = block[block[:, b] & bit == 0]
                _place(kids, out[filled : filled + len(kids)], level, nc, i, j,
                       row_sign[i], col_sign[j], keep[c], mark[c])
                filled += len(kids)
            if last:
                patterns.add(out[:filled])
                filled = 0
        states = out
        sizes.append(len(patterns.keys) if last else len(out))
    return patterns.words(), sizes


def _place(
    kids: np.ndarray, out: np.ndarray, level: int, nc: int, i: int, j: int,
    rs: int, cs: int, keep: np.ndarray, mark: np.ndarray,
) -> None:
    """Write to ``out`` the children of the states ``kids`` (patterns of
    length ``level``) whose newest point lies in cell (i, j), with row and
    column signs ``rs`` and ``cs`` and normal-form masks ``keep`` and
    ``mark``.  The point's position is the prefix sum at its column's left
    or right line, its value one more than the suffix sum at its row's
    lower or upper line.  An ``out`` of width ``level + 1`` takes the
    pattern only."""
    old = kids[:, :level]
    pos = kids[:, level + j + (cs > 0)]
    val = kids[:, level + nc + 1 + i + (rs < 0)] + 1
    word = out[:, : level + 1]
    new = np.arange(level + 1) == pos[:, None]
    word[new] = val
    word[~new] = (old + (old >= val[:, None])).ravel()
    if out.shape[1] > level + 1:
        tail = out[:, level + 1 :]
        tail[:] = kids[:, level:]
        tail[:, j + 1 : nc + 1] += 1
        tail[:, nc + 1 : nc + i + 2] += 1
        tail[:, -len(keep) :] &= keep
        tail[:, -len(keep) :] |= mark


# ---------------------------------------------------------------------------
# Named membership predicates
# ---------------------------------------------------------------------------


def is_left_unimodal(p: Perm) -> bool:
    """Every prefix of the word is an interval of values.

    >>> is_left_unimodal((3, 2, 4, 1, 5))
    True
    >>> is_left_unimodal((1, 3, 2))
    False
    """
    lo = hi = None
    for k, v in enumerate(p, start=1):
        lo = v if lo is None else min(lo, v)
        hi = v if hi is None else max(hi, v)
        if hi - lo + 1 != k:
            return False
    return True


def is_arc(p: Perm) -> bool:
    """Every prefix of the word is a cyclic interval of values modulo n.

    >>> is_arc((2, 1, 3, 4))
    True
    >>> is_arc((2, 4, 1, 3))
    False
    """
    n = len(p)
    seen = [False] * (n + 1)
    for k, v in enumerate(p, start=1):
        seen[v] = True
        if k in (1, n):
            continue
        runs = 0
        for u in range(1, n + 1):
            succ = u % n + 1
            if seen[u] and not seen[succ]:
                runs += 1
        if runs > 1:
            return False
    return True


def is_colayered(p: Perm, k: int) -> bool:
    """At most ``k`` increasing blocks of consecutive positions, with every
    value in a block larger than every value in later blocks.

    >>> is_colayered((4, 5, 1, 2, 3), 2)
    True
    >>> is_colayered((4, 5, 1, 2, 3), 1)
    False
    """
    if k < 1:
        raise ValueError("block bound must be >= 1")
    n = len(p)
    descents = des_set(p)
    if len(descents) > k - 1:
        return False
    prefix_min = []
    running = None
    for v in p:
        running = v if running is None else min(running, v)
        prefix_min.append(running)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = max(p[i], suffix_max[i + 1])
    return all(prefix_min[i - 1] > suffix_max[i] for i in descents)


def one_column_member(p: Perm, v: SignVector) -> bool:
    """Whether the word lies in the one-column class with bottom-to-top
    signs ``v``: the values split into consecutive intervals, one per sign,
    each placed increasingly (plus) or decreasingly (minus).

    >>> one_column_member((3, 2, 4, 1, 5), (-1, 1))
    True
    >>> one_column_member((1, 3, 2), (1,))
    False
    """
    _check_signs(v)
    n = len(p)
    if n == 0:
        return True
    q = inverse(p)
    k = len(v)
    # reachable[m] = the first m values can be assigned to intervals 1..m+1
    reachable = [False] * k
    reachable[0] = True
    for i in range(1, n):
        ascent = q[i - 1] < q[i]
        stay = [
            reachable[m] and ((v[m] > 0) == ascent) for m in range(k)
        ]
        lowest = next((m for m in range(k) if reachable[m]), None)
        nxt = [False] * k
        for m in range(k):
            if stay[m]:
                nxt[m] = True
        if lowest is not None:
            for m in range(lowest + 1, k):
                nxt[m] = True
        reachable = nxt
        if not any(reachable):
            return False
    return any(reachable)


def plus_member(p: Perm, k: int) -> bool:
    """Membership in the all-plus one-column class of ``k`` cells: the
    inverse has at most ``k-1`` descents."""
    if k < 1:
        raise ValueError("cell count must be >= 1")
    return len(des_set(inverse(p))) <= k - 1


def minus_member(p: Perm, k: int) -> bool:
    """Membership in the all-minus one-column class of ``k`` cells: the
    inverse has at most ``k-1`` ascents."""
    if k < 1:
        raise ValueError("cell count must be >= 1")
    n = len(p)
    return (n - 1) - len(des_set(inverse(p))) <= k - 1


def zigzag_member(p: Perm, k: int) -> bool:
    """Membership in the zigzag class of parameter ``k``: the inverse has
    at most ``k`` cyclic descents.

    >>> [zigzag_member((2, 3, 1), k) for k in (1, 2)]
    [True, True]
    """
    if k < 1:
        raise ValueError("parameter must be >= 1")
    return cdes_count(inverse(p)) <= k
