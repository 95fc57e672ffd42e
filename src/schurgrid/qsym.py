"""Exact arithmetic in the fundamental quasisymmetric basis and the Schur
basis.

A degree-``n`` quasisymmetric function is a dense integer vector indexed by
subsets of ``[n-1]`` (bitmask order); a symmetric function is a map from
partitions of ``n`` to integers.  The bridge between the two worlds is the
descent-count table, a ``P x 2**(n-1)`` integer matrix whose row for a
shape counts its standard tableaux by descent set, built once per degree in
memory by placing the entries ``1..n`` one count matrix at a time.  Started
from an inner shape, the same walk gives the fundamental vector of any skew
shape: the sum of ``F_{Des(T)}`` over its standard tableaux ``T`` (Gessel).

Read at the partial-sum masks of the partitions, the table's columns form
its partition block: entry ``[lambda, mu]`` counts the tableaux of shape
``lambda`` with descent set exactly the partial sums of ``mu``.  These
standardize semistandard tableaux of content ``mu`` (only the row-by-row
filling when ``lambda = mu``), so the block is unitriangular in the
lex-decreasing order of :func:`partitions`; each degree's table keeps its
integer inverse, found by back-substitution.  The Schur coefficients of a
vector are its entries at those masks times the inverse.  The vector is
symmetric exactly when they rebuild it; otherwise the first mask whose
monomial coefficient (an in-place subset-sum transform) differs from that
of the least mask of its rearrangement class witnesses that it is not.
The same transform gives the expansion in finitely many variables
(:meth:`QSym.evaluate_monomials`): the monomial coefficient at a mask is
that of each exponent vector whose nonzero entries are its blocks in order.
Every product runs in ``int64`` when its length times the largest entries
of its two sides stays below 2**63, and in Python ints otherwise.

>>> schur_expand(QSym.unit(3) + QSym.single(3, DescSet.of(3, [1]))
...              + QSym.single(3, DescSet.of(3, [2]))).serialize()
's[3] + s[2,1]'
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .grids import _grid_gate
from .permutations import (
    CollectionLike,
    DescSet,
    _descent_masks,
    _mask_braces,
    _mult_dtype,
    _row_keys,
    as_multiset,
    composition_boundary_mask,
    composition_of_descents,
)
from .tableaux import Partition, SkewShape, partitions

__all__ = [
    "QSym",
    "qsym_of",
    "SchurExpansion",
    "NotSymmetric",
    "schur_expand",
    "is_schur_positive",
    "schur_f_vector",
    "schur_f_rows",
    "schur_rows",
    "skew_schur_f_vector",
    "pieri_up",
    "pieri_down",
    "DescentCountTable",
    "descent_count_table",
    "cache_dir",
    "monomial_coefficients",
    "is_symmetric_by_monomials",
]


def _width(n: int) -> int:
    return 1 << max(n - 1, 0)


@lru_cache(maxsize=32)
def _f_terms(n: int) -> tuple[str, ...]:
    """The ``F{...}`` term of every mask of degree ``n``."""
    return tuple(f"F{_mask_braces(mask)}" for mask in range(_width(n)))


def _serialize_rows(n: int, rows: Iterable[Sequence[int]]) -> list[str]:
    """``QSym(n, row).serialize()`` of each coefficient row (Python ints, as
    ``ndarray.tolist`` gives them): the nonzero terms of a row, read from the
    degree's table of terms, joined."""
    terms = _f_terms(n)
    out = []
    for row in rows:
        body = " + ".join(
            [t if c == 1 else f"{c}*{t}" if c != -1 else f"-{t}" for t, c in zip(terms, row) if c]
        )
        out.append(f"n={n}; {body or '0'}")
    return out


@dataclass(frozen=True)
class QSym:
    """Integer vector over the fundamental basis of degree ``n``.

    ``coeffs[mask]`` is the coefficient of the basis element indexed by the
    subset of ``[n-1]`` encoded by ``mask``.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("degree must be >= 0")
        if len(self.coeffs) != _width(self.n):
            raise ValueError(
                f"expected {_width(self.n)} coefficients, got {len(self.coeffs)}"
            )

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "QSym":
        return cls(n, (0,) * _width(n))

    @classmethod
    def unit(cls, n: int) -> "QSym":
        """The basis element of the empty descent set."""
        return cls.single(n, DescSet(n, 0))

    @classmethod
    def single(cls, n: int, d: DescSet, coeff: int = 1) -> "QSym":
        if d.n != n:
            raise ValueError("descent set degree mismatch")
        v = [0] * _width(n)
        v[d.mask] = coeff
        return cls(n, tuple(v))

    # -- ring-ish operations -----------------------------------------------
    def _require_same_degree(self, other: "QSym") -> None:
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "QSym") -> "QSym":
        self._require_same_degree(other)
        return QSym(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "QSym") -> "QSym":
        self._require_same_degree(other)
        return QSym(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "QSym":
        return QSym(self.n, tuple(-a for a in self.coeffs))

    def scale(self, k: int) -> "QSym":
        return QSym(self.n, tuple(k * a for a in self.coeffs))

    def serialize(self) -> str:
        """Canonical text, e.g. ``n=3; F{} + 2*F{1} + F{1,2}``."""
        return _serialize_rows(self.n, [self.coeffs])[0]

    def evaluate_monomials(self, n_vars: int) -> dict[tuple[int, ...], int]:
        """Expansion into monomials in ``x_1..x_{n_vars}``: sorted exponent
        vectors (length ``n_vars``) to integer coefficients.  Each vector
        comes from one mask, whose blocks are its nonzero entries in order, so
        a mask of ``l`` blocks gives ``C(n_vars, l)`` terms; more terms than
        the grid budget raise :class:`GridResourceError` before any is built."""
        if n_vars < 0:
            raise ValueError("number of variables must be >= 0")
        mono = monomial_coefficients(self)
        placed = [(c, composition_of_descents(DescSet(self.n, m))) for m, c in enumerate(mono) if c]
        terms = sum(math.comb(n_vars, len(parts)) for _, parts in placed)
        _grid_gate(terms, f"expansion in {n_vars} variables needs {{}} terms")
        out: dict[tuple[int, ...], int] = {}
        for c, parts in placed:
            for cols in combinations(range(n_vars), len(parts)):
                expo = [0] * n_vars
                for col, block in zip(cols, parts):
                    expo[col] = block
                out[tuple(expo)] = c
        return dict(sorted(out.items()))


def qsym_of(elems: CollectionLike, n: int | None = None) -> QSym:
    """Descent generating function of a (multi)set of permutations.

    Accepts a :class:`~schurgrid.permutations.PermMultiset` (a
    ``PermSet`` is one), a mapping word -> multiplicity or a plain
    iterable; ``n`` is required only when the collection is empty and
    carries no degree.  The descent masks of all words are computed over
    the word matrix at once and folded by one ``np.add.at``.

    >>> qsym_of([(1, 2, 3)]).serialize()
    'n=3; F{}'
    """
    elems = as_multiset(elems, n)
    words, mults = elems.words, elems.mults
    acc = np.zeros(_width(elems.n), mults.dtype)
    np.add.at(acc, _descent_masks(elems.n, mults.shape, lambda c: words[:, c]), mults)
    return QSym(elems.n, tuple(acc.tolist()))


# ---------------------------------------------------------------------------
# Schur expansions
# ---------------------------------------------------------------------------


def _format_partition(mu: Partition) -> str:
    return "s[" + ",".join(str(p) for p in mu) + "]"


@dataclass(frozen=True)
class SchurExpansion:
    """Integer combination of Schur basis elements of degree ``n``."""

    n: int
    coeffs: tuple[tuple[Partition, int], ...]

    def __post_init__(self) -> None:
        for mu, _ in self.coeffs:
            if sum(mu) != self.n:
                raise ValueError(f"partition {mu} has size != {self.n}")

    @classmethod
    def from_dict(cls, n: int, data: Mapping[Partition, int]) -> "SchurExpansion":
        items = tuple(
            (mu, int(c))
            for mu, c in sorted(data.items(), key=lambda kv: kv[0], reverse=True)
            if c
        )
        return cls(n, items)

    @classmethod
    def from_row(cls, n: int, row: np.ndarray) -> "SchurExpansion":
        """The expansion whose coefficients, indexed like ``partitions(n)``
        (already in the order of ``coeffs``), are ``row``."""
        return cls(n, tuple((mu, c) for mu, c in zip(partitions(n), row.tolist()) if c))

    @classmethod
    def zero(cls, n: int) -> "SchurExpansion":
        return cls.from_dict(n, {})

    @classmethod
    def single(cls, mu: Sequence[int], coeff: int = 1) -> "SchurExpansion":
        mu = tuple(mu)
        return cls.from_dict(sum(mu), {mu: coeff})

    def as_dict(self) -> dict[Partition, int]:
        return dict(self.coeffs)

    def __add__(self, other: "SchurExpansion") -> "SchurExpansion":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        data = self.as_dict()
        for mu, c in other.coeffs:
            data[mu] = data.get(mu, 0) + c
        return SchurExpansion.from_dict(self.n, data)

    def serialize(self) -> str:
        """Canonical text: terms in descending lexicographic partition
        order, e.g. ``s[5] + s[4,1]``; ``0`` when empty.

        >>> SchurExpansion.from_dict(3, {(3,): 1, (2, 1): 2}).serialize()
        's[3] + 2*s[2,1]'
        """
        if not self.coeffs:
            return "0"
        parts = []
        for mu, c in self.coeffs:
            name = _format_partition(mu)
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts)


def is_schur_positive(e: SchurExpansion | NotSymmetric) -> bool:
    """Whether every Schur coefficient is nonnegative; a function that is
    not symmetric has no Schur expansion and is not Schur-positive."""
    return isinstance(e, SchurExpansion) and all(c >= 0 for _, c in e.coeffs)


@dataclass(frozen=True)
class NotSymmetric:
    """Certificate that a quasisymmetric vector is not symmetric: two
    subsets with the same sorted block-length multiset but different
    monomial coefficients."""

    n: int
    witness: tuple[DescSet, DescSet]
    values: tuple[int, int]

    def serialize(self) -> str:
        d1, d2 = self.witness
        v1, v2 = self.values
        return (
            f"NotSymmetric(n={self.n}; monomial coefficient at {d1.braces()} "
            f"is {v1} but at {d2.braces()} is {v2})"
        )


def _int_array(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """``rows`` as an array: ``int64`` unless an entry reaches 2**63."""
    return np.array(rows, _mult_dtype(max((abs(v) for r in rows for v in r), default=0)))


def _exact_matmul(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix`` in ``int64`` when no partial sum can reach 2**63
    (their length times the largest entry of each side bounds them all),
    and in Python ints otherwise."""
    big = [max(int(a.max(initial=0)), -int(a.min(initial=0))) for a in (rows, matrix)]
    dtype = _mult_dtype(rows.shape[-1] * big[0] * big[1])
    return rows.astype(dtype, copy=False) @ matrix.astype(dtype, copy=False)


def _subset_sums(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """The subset-sum (zeta) transform of the C-contiguous array ``a`` along
    ``axis``, in place: entry ``m`` (``axis`` has length ``2**k``) becomes the
    sum of the entries at the submasks of ``m``.  One add per bit, over a
    reshaped view whose pairs of slabs differ in that bit.  Returns ``a``."""
    assert a.flags.c_contiguous, "a reshaped copy would lose the sums"
    axis %= a.ndim
    head, tail, lead = a.shape[:axis], a.shape[axis + 1 :], (slice(None),) * (axis + 1)
    for bit in range(a.shape[axis].bit_length() - 1):
        pairs = a.reshape(*head, -1, 2, 1 << bit, *tail)
        pairs[lead + (1,)] += pairs[lead + (0,)]
    return a


def _monomials(q: QSym) -> np.ndarray:
    """The subset-sum transform of the fundamental coefficients.  No value
    exceeds the sum of ``|coeffs|``, so their number times the largest fixes
    the dtype."""
    return _subset_sums(
        np.array(q.coeffs, _mult_dtype(len(q.coeffs) * max(map(abs, q.coeffs))))
    )


def monomial_coefficients(q: QSym) -> list[int]:
    """Coefficients in the monomial quasisymmetric basis: the subset-sum
    (zeta) transform of the fundamental coefficients."""
    return _monomials(q).tolist()


@lru_cache(maxsize=None)
def _class_reps(n: int) -> np.ndarray:
    """For each mask of degree ``n``, the least mask whose blocks are a
    rearrangement of its blocks (the same sorted block lengths): the id of
    its rearrangement class.  Block lengths are the steps of the last block
    end (bit ``i - 1``, or ``i = n``) at or before each position ``i``."""
    ends = (np.arange(_width(n)) | 1 << n >> 1)[:, None] >> np.arange(n) & 1
    last = np.maximum.accumulate(ends * np.arange(1, n + 1), axis=1)
    lengths = np.sort(np.diff(last, axis=1, prepend=0), axis=1).astype(np.min_scalar_type(n))
    keys = _row_keys(lengths, max(n, 1).bit_length()).tolist()
    least: dict[int, int] = {}
    return np.array([least.setdefault(key, mask) for mask, key in enumerate(keys)])


def _monomial_witness(q: QSym, mono: np.ndarray) -> NotSymmetric | None:
    """The first mask, in mask order, whose monomial coefficient differs from
    that of the least mask of its rearrangement class."""
    reps = _class_reps(q.n)
    bad = np.flatnonzero(mono != mono[reps])
    if not len(bad):
        return None
    mask, rep = int(bad[0]), int(reps[bad[0]])
    return NotSymmetric(
        q.n, (DescSet(q.n, rep), DescSet(q.n, mask)), (int(mono[rep]), int(mono[mask]))
    )


def is_symmetric_by_monomials(q: QSym) -> bool:
    """Independent symmetry test: monomial coefficients must be constant on
    rearrangement classes of the block-length composition."""
    return _monomial_witness(q, _monomials(q)) is None


def schur_expand(q: QSym) -> SchurExpansion | NotSymmetric:
    """The Schur expansion of a quasisymmetric vector, or a
    :class:`NotSymmetric` certificate.

    The entries of ``q`` at the partial-sum masks of the partitions of
    ``n``, times the inverse of the table's partition block, give the
    candidate coefficients.  The candidate is returned when its fundamental
    vector, rebuilt from the table rows of its support alone, is ``q``;
    otherwise ``q`` is not symmetric and the monomial witness says where.

    >>> isinstance(schur_expand(QSym.single(3, DescSet.of(3, [1]), 2)
    ...                         + QSym.unit(3)), NotSymmetric)
    True
    """
    table = descent_count_table(q.n)
    at_bounds = _int_array([[q.coeffs[mask] for mask in _bounds(q.n).tolist()]])
    coeffs = _exact_matmul(at_bounds, table.partition_block_inverse)
    support = np.flatnonzero(coeffs[0])
    if _exact_matmul(coeffs[:, support], table.matrix[support])[0].tolist() == list(q.coeffs):
        return SchurExpansion.from_row(q.n, coeffs[0])
    witness = _monomial_witness(q, _monomials(q))
    assert witness is not None, "a vector outside the Schur span is not symmetric"
    return witness


@lru_cache(maxsize=None)
def _partition_index(n: int) -> dict[Partition, int]:
    return {mu: i for i, mu in enumerate(partitions(n))}


def schur_rows(n: int, expansions: Sequence[SchurExpansion]) -> np.ndarray:
    """The coefficients of each degree-``n`` expansion as one row, indexed
    like ``partitions(n)``.

    >>> schur_rows(3, [SchurExpansion.single((2, 1), 5)]).tolist()
    [[0, 5, 0]]
    """
    index = _partition_index(n)
    rows = [[0] * len(index) for _ in expansions]
    for row, e in zip(rows, expansions):
        for mu, c in e.coeffs:
            row[index[mu]] = c
    return _int_array(rows).reshape(len(rows), len(index))


def schur_f_rows(n: int, rows: np.ndarray) -> np.ndarray:
    """Fundamental-basis vectors of Schur coefficient rows (indexed like
    ``partitions(n)``): one product with the descent-count matrix."""
    return _exact_matmul(rows, descent_count_table(n).matrix)


def schur_f_vector(e: SchurExpansion) -> QSym:
    """Fundamental-basis vector of a Schur expansion via the
    descent-count table."""
    return QSym(e.n, tuple(schur_f_rows(e.n, schur_rows(e.n, [e]))[0].tolist()))


# ---------------------------------------------------------------------------
# Corner moves: one matrix for adding a box, its transpose for removing one
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _addable_corners(mu: Partition) -> tuple[tuple[int, Partition], ...]:
    """The row of each addable box, with the shape it makes."""
    out = []
    rows = len(mu)
    for i in range(rows + 1):
        here = mu[i] if i < rows else 0
        above = mu[i - 1] if i > 0 else None
        if above is None or above > here:
            new = list(mu[:i]) + [here + 1] + list(mu[i + 1 :] if i < rows else [])
            out.append((i, tuple(new)))
    return tuple(out)


def _corners(n: int) -> np.ndarray:
    """The corner moves of degree ``n``: the 0/1 ``P(n) x P(n+1)`` matrix,
    rows and columns in ``partitions`` order, whose entry ``[mu, lambda]`` is
    1 when ``lambda`` is ``mu`` with one box added.  By the branching rule
    (restriction is adjoint to induction) removing a box is its transpose."""
    index = _partition_index(n + 1)
    out = np.zeros((len(partitions(n)), len(index)), np.int64)
    for row, mu in zip(out, partitions(n)):
        row[[index[new] for _, new in _addable_corners(mu)]] = 1
    return out


def pieri_up(e: SchurExpansion) -> SchurExpansion:
    """Add one corner box in every possible way (linear extension).

    >>> pieri_up(SchurExpansion.single((2,))).serialize()
    's[3] + s[2,1]'
    """
    return SchurExpansion.from_row(e.n + 1, _exact_matmul(schur_rows(e.n, [e]), _corners(e.n))[0])


def pieri_down(e: SchurExpansion) -> SchurExpansion:
    """Remove one corner box in every possible way (linear extension).

    >>> pieri_up(pieri_down(SchurExpansion.single((3,)))).serialize()
    's[3] + s[2,1]'
    """
    if e.n == 0:
        return SchurExpansion.zero(0)
    row = _exact_matmul(schur_rows(e.n, [e]), _corners(e.n - 1).T)[0]
    return SchurExpansion.from_row(e.n - 1, row)


# ---------------------------------------------------------------------------
# Placement walk: skew F-vectors and the descent-count table
# ---------------------------------------------------------------------------


def _placements(
    inner: Partition, n: int, outer: Partition
) -> tuple[dict[Partition, int], np.ndarray, int]:
    """Standard fillings of ``n`` boxes added to ``inner`` inside ``outer``
    counted by final shape and descent mask: the row of each final shape, the
    count matrix, and the widest level's states.

    The entries 1..n are placed one at a time.  A state is the shape filled
    so far with the row of its largest entry; the states of level ``k`` are
    the rows of one ``(states, 2**(k-1))`` count matrix, by descent mask.
    Entry k+1 placed in a row below that of k makes k a descent; any other
    row does not, so each move (a state and one addable corner inside
    ``outer``) is one row add into the upper or the lower half of the
    child's row.  The start row lies below every row of ``outer``, so entry
    1 is no descent.  The last level (the start one when n = 0) is keyed by
    shape alone, and every level's states are in descending order, so the
    final shapes are in ``partitions`` order.  The last step composes its
    moves with those into the level before, which is never held.  An entry
    of level ``k`` is at most ``k!``: ``int64`` while ``n! < 2**63``, else
    Python ints."""
    dtype = _mult_dtype(math.factorial(n))
    index: dict = {(inner, len(outer)) if n else inner: 0}
    counts, widest = np.ones((1, 1), dtype), 1
    for k in range(n):
        width, last = _width(k), k == n - 1
        moves = []
        for (shape, row), s in index.items():
            for r, new in _addable_corners(shape):
                if r < len(outer) and new[r] <= outer[r]:
                    moves.append((s, new if last else (new, r), width if r > row else 0))
        keys = sorted({key for _, key, _ in moves}, reverse=True)
        index, widest = {key: i for i, key in enumerate(keys)}, max(widest, len(keys))
        if k == n - 2:
            # The level before the last is never built: each move of the last
            # step is composed with the moves into its source.
            into: list[list[tuple[int, int]]] = [[] for _ in keys]
            for s, key, lo in moves:
                into[index[key]].append((s, lo))
            continue
        if k and last:
            moves = [(t, key, lo + half) for s, key, lo in moves for t, half in into[s]]
            width = _width(k - 1)
        out = np.zeros((len(keys), _width(k + 1)), dtype)
        for s, key, lo in moves:
            out[index[key], lo : lo + width] += counts[s]
        counts = out
    return index, counts, widest


def skew_schur_f_vector(shape: SkewShape) -> QSym:
    """Fundamental-basis vector of a skew shape: the descent generating
    function of its standard tableaux, read off the one count row the
    placement walk from the inner shape leaves at the outer shape.

    >>> skew_schur_f_vector(SkewShape((2, 1), (1,))).serialize()
    'n=2; F{} + F{1}'
    """
    n = shape.size()
    index, counts, _ = _placements(shape.inner, n, shape.outer)
    return QSym(n, tuple(counts[index[shape.outer]].tolist()))


@dataclass(frozen=True, eq=False)
class DescentCountTable:
    """``matrix[i, mask]`` counts the standard tableaux of the ``i``-th
    partition of ``n`` (in ``partitions(n)`` order) with that descent mask:
    a ``P x 2**(n-1)`` ``int64`` array, the placement walk's last count
    matrix in that row order (an entry is at most ``f^mu``, so exact)."""

    n: int
    matrix: np.ndarray

    @cached_property
    def partition_block_inverse(self) -> np.ndarray:
        """The inverse of the unitriangular partition block ``matrix[:,
        _bounds(n)]``, by back-substitution: row ``i`` is the ``i``-th unit row
        minus the later rows weighted by row ``i`` of the block, each product
        in ``int64`` while its bound allows and in Python ints from the first
        one that does not."""
        block = self.matrix[:, _bounds(self.n)]
        inverse = np.identity(len(block), np.int64)
        for i in reversed(range(len(block))):
            later = _exact_matmul(block[i, i + 1 :], inverse[i + 1 :])
            inverse = inverse.astype(np.result_type(inverse, later), copy=False)
            inverse[i] -= later
        return inverse


@lru_cache(maxsize=None)
def _bounds(n: int) -> np.ndarray:
    """The mask of the partial sums of each partition of ``n``, in
    ``partitions(n)`` order (read-only)."""
    bounds = np.array([composition_boundary_mask(lam) for lam in partitions(n)], np.intp)
    bounds.flags.writeable = False
    return bounds


def cache_dir() -> Path:
    """Base directory of persisted scan verdicts (override with the
    SCHURGRID_CACHE_DIR environment variable)."""
    env = os.environ.get("SCHURGRID_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "schurgrid"


_table_memory: dict[int, DescentCountTable] = {}

_log = logging.getLogger("schurgrid")


def descent_count_table(n: int) -> DescentCountTable:
    """The descent-count table of degree ``n``, built once per process.

    >>> descent_count_table(3).matrix.tolist()
    [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    debug, table = _log.isEnabledFor(logging.DEBUG), _table_memory.get(n)
    if table is not None:
        if debug:
            _log.debug("descent table n=%d: memory hit", n)
        return table
    t0 = time.perf_counter()
    # The n-by-n box holds every partition, so the last count matrix is the table.
    _, counts, widest = _placements((), n, (n,) * n)
    table = _table_memory[n] = DescentCountTable(n, counts.astype(np.int64, copy=False))
    if debug:
        _log.debug("descent table n=%d: built, %d states at the widest level, %.1f ms",
                   n, widest, 1e3 * (time.perf_counter() - t0))
    return table
