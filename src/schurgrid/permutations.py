"""Permutations of [n] with descent statistics and group operations.

A permutation is stored in one-line notation as a tuple of the values
``1..n``, each appearing exactly once; the empty tuple is the (unique)
permutation of degree 0.  Descent sets are subsets of ``[n-1]`` stored as
bitmasks wrapped in :class:`DescSet` (bit ``i-1`` set  <=>  ``i`` is a
descent position).

>>> des_set(parse_perm("62354781")).braces()
'{1,4,7}'
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence, Set
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .qsym import QSym

__all__ = [
    "Perm",
    "Composition",
    "DescSet",
    "perm_from_word",
    "longest_element",
    "cycle_perm",
    "parse_perm",
    "format_perm",
    "des_mask",
    "des_set",
    "cdes_set",
    "cdes_count",
    "inverse",
    "compose",
    "composition_boundary_mask",
    "composition_of_descents",
    "is_mu_modal_mask",
    "distinct_words",
    "format_words",
    "PermMultiset",
    "PermSet",
    "as_multiset",
]

# One-line notation: word[i] is the image of position i+1.
Perm = tuple[int, ...]

# A sequence of positive integers; compositions index descent statistics.
Composition = tuple[int, ...]


def perm_from_word(word: Sequence[int]) -> Perm:
    """Validate and freeze a one-line word into a permutation.

    >>> perm_from_word([2, 3, 1])
    (2, 3, 1)
    """
    w = tuple(int(v) for v in word)
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w!r}")
    return w


def longest_element(n: int) -> Perm:
    """The order-reversing permutation ``n, n-1, ..., 1``."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return tuple(range(n, 0, -1))


def cycle_perm(n: int) -> Perm:
    """The n-cycle sending each value ``v`` to ``v+1`` modulo ``n``.

    >>> cycle_perm(4)
    (2, 3, 4, 1)
    """
    if n <= 0:
        raise ValueError("degree must be >= 1")
    return tuple(list(range(2, n + 1)) + [1])


def parse_perm(text: str) -> Perm:
    """Parse permutation text: space-free digits for degree <= 9,
    comma-separated values otherwise.

    >>> parse_perm("312")
    (3, 1, 2)
    >>> parse_perm("10,2,3,4,5,6,7,8,9,1")[0]
    10
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if "," in text:
        values = [int(part) for part in text.split(",")]
    else:
        if not text.isdigit():
            raise ValueError(f"invalid permutation text: {text!r}")
        values = [int(ch) for ch in text]
    return perm_from_word(values)


def format_perm(p: Perm) -> str:
    """Inverse of :func:`parse_perm`.

    >>> format_perm((3, 1, 2))
    '312'
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


# ---------------------------------------------------------------------------
# Descent sets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 16)
def _mask_braces(mask: int) -> str:
    """The members of the descent set with bits ``mask``, in braces, read
    straight off the bits (the same for every degree above the top bit)."""
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


@dataclass(frozen=True, order=True)
class DescSet:
    """A subset of ``[n-1]`` attached to its ambient degree ``n``.

    Stored as a bitmask for O(1) set algebra: bit ``i-1`` is set exactly
    when ``i`` is a member.

    >>> DescSet.of(8, [1, 4, 7]).braces()
    '{1,4,7}'
    >>> 4 in DescSet.of(8, [1, 4, 7])
    True
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("ambient degree must be >= 0")
        width = max(self.n - 1, 0)
        if not 0 <= self.mask < (1 << width):
            raise ValueError(
                f"mask {self.mask:#x} out of range for degree {self.n}"
            )

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "DescSet":
        mask = 0
        for i in members:
            if not 1 <= i <= n - 1:
                raise ValueError(f"member {i} outside 1..{n - 1}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(max(self.n - 1, 0)) if self.mask >> i & 1)

    def braces(self) -> str:
        return _mask_braces(self.mask)

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n - 1 and bool(self.mask >> (i - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()


def des_mask(word: Sequence[int]) -> int:
    """Descent positions of a word as a bitmask (fast inner-loop form)."""
    mask = 0
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            mask |= 1 << i
    return mask


def des_set(p: Perm) -> DescSet:
    """Positions ``i`` with ``p(i) > p(i+1)``.

    >>> des_set((6, 2, 3, 5, 4, 7, 8, 1)).members
    (1, 4, 7)
    """
    return DescSet(len(p), des_mask(p))


def cdes_set(p: Perm) -> frozenset[int]:
    """Cyclic descent set: the descents, plus ``n`` when ``p(n) > p(1)``.

    >>> sorted(cdes_set((1, 2, 3, 4, 5)))
    [5]
    >>> sorted(cdes_set((4, 3, 2, 1)))
    [1, 2, 3]
    """
    n = len(p)
    members = set(des_set(p).members)
    if n >= 1 and p[n - 1] > p[0]:
        members.add(n)
    return frozenset(members)


def cdes_count(p: Perm) -> int:
    """Number of cyclic descents."""
    return len(cdes_set(p))


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------


def inverse(p: Perm) -> Perm:
    """Group inverse.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    """
    out = [0] * len(p)
    for pos, val in enumerate(p):
        out[val - 1] = pos + 1
    return tuple(out)


def compose(p: Perm, q: Perm) -> Perm:
    """Composition ``p o q`` (apply ``q`` first): position i maps to p(q(i))."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[v - 1] for v in q)


# ---------------------------------------------------------------------------
# Compositions and modality
# ---------------------------------------------------------------------------


def composition_boundary_mask(mu: Composition) -> int:
    """Bitmask over ``[n-1]`` of the proper partial sums of ``mu``."""
    mask = total = 0
    for part in mu[:-1]:
        total += part
        mask |= 1 << (total - 1)
    return mask


def composition_of_descents(d: DescSet) -> Composition:
    """The composition of ``d.n`` whose proper partial sums are ``d``.

    >>> composition_of_descents(DescSet.of(9, [1, 3, 5, 6]))
    (1, 2, 2, 1, 3)
    """
    if d.n == 0:
        return ()
    prev = 0
    parts = []
    for i in d.members:
        parts.append(i - prev)
        prev = i
    parts.append(d.n - prev)
    return tuple(parts)


def is_mu_modal_mask(mask: int, n: int, mu: Composition) -> bool:
    """Whether some permutation of degree ``n`` whose every ``mu``-block is
    co-unimodal (strictly decreasing then strictly increasing) has the
    descent set ``mask``.  Equivalently, inside the interior of each block
    the descents form a prefix run anchored at the block start; descents at
    block boundaries are unconstrained.  ``mu`` must sum to ``n``.

    >>> is_mu_modal_mask(0b10101, 8, (3, 1, 4))
    True
    >>> is_mu_modal_mask(0b10, 6, (6,))
    False
    """
    lo = 1
    for part in mu:
        hi = lo + part - 1
        # Interior descent positions of this block are lo..hi-1.
        block = (mask >> (lo - 1)) & ((1 << (hi - lo)) - 1)
        # A prefix run anchored at the block start is a mask of the
        # form 0...011...1.
        if block & (block + 1):
            return False
        lo = hi + 1
    return True


# ---------------------------------------------------------------------------
# Collections
# ---------------------------------------------------------------------------


def _row_keys(words: np.ndarray, bits: int) -> np.ndarray:
    """One key per row of an unsigned word matrix, letters below ``2**bits``,
    that sorts as the row does: ``bits >= 1`` bits a letter, first highest, in
    ``uint64`` up to 64 bits, else Python ints (``einsum`` casts in buffers)."""
    n = words.shape[1]
    shifts = np.arange((n - 1) * bits, -1, -bits, dtype=np.uint64 if n * bits <= 64 else object)
    return np.einsum(words, [0, 1], 1 << shifts, [1])


def _key_rows(keys: np.ndarray, n: int, bits: int, dtype: np.dtype) -> np.ndarray:
    """The word matrix of ``dtype`` that :func:`_row_keys` packed: ``uint64``
    keys are shifted straight into it, Python ints through ``object``."""
    letters = np.empty((len(keys), n), object if keys.dtype == object else dtype)
    shifts = np.arange((n - 1) * bits, -1, -bits, dtype=keys.dtype)
    np.right_shift(keys[:, None], shifts, out=letters, casting="unsafe")
    letters &= (1 << bits) - 1
    return letters.astype(dtype, copy=False)


def _dedupe(keys: np.ndarray, weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """The distinct keys in increasing order, with the weights of equal keys
    summed in their own dtype; without weights ``keys`` is sorted in place."""
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
    first = np.empty(len(keys), bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if weights is not None:
        weights = np.add.reduceat(weights, np.flatnonzero(first))
    return keys[first], weights


def distinct_words(
    words: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Distinct rows of a (k, n) matrix of unsigned words, in lexicographic
    order and of its dtype, with the weights of equal rows summed when
    weights are given: the rows' :func:`_row_keys` (as many bits a letter as
    the largest needs) are sorted, argsorted with weights, and unpacked.

    >>> words = np.array([[2, 1], [1, 2], [2, 1]], np.uint8)
    >>> distinct_words(words)[0].tolist()
    [[1, 2], [2, 1]]
    >>> distinct_words(words, np.array([1, 5, 1]))[1].tolist()
    [5, 2]
    """
    bits = int(words.max(initial=1)).bit_length()
    keys, sums = _dedupe(_row_keys(words, bits), weights)
    return _key_rows(keys, words.shape[1], bits, words.dtype), sums


class _DistinctRows:
    """The distinct rows, as sorted keys with summed weights (when weighted),
    of blocks of degree-``n`` permutation words added one at a time."""

    def __init__(self, n: int, weighted: bool = False) -> None:
        self.n, self.bits, self.keys = n, max(n, 1).bit_length(), np.empty(0, np.uint64)
        self.sums = np.empty(0, np.int64) if weighted else None

    def add(self, words: np.ndarray, weights: np.ndarray | None = None) -> None:
        keys = np.concatenate([self.keys, _row_keys(words, self.bits)])
        sums = None if weights is None else np.concatenate([self.sums, weights])
        self.keys, self.sums = _dedupe(keys, sums)

    def words(self) -> np.ndarray:
        return _key_rows(self.keys, self.n, self.bits, _word_dtype(self.n))


def format_words(words: np.ndarray) -> str:
    """:func:`format_perm` of every row of a word matrix, one line each, in
    row order.  Up to degree 9 a row is its letters as ASCII digits, so the
    whole text is written by one array operation.

    >>> print(format_words(np.array([[3, 1, 2], [1, 2, 3]], np.uint8)), end="")
    312
    123
    """
    k, n = words.shape
    if n > 9:
        return "".join(f"{format_perm(row)}\n" for row in words.tolist())
    text = np.full((k, n + 1), ord("\n"), np.uint8)
    text[:, :n] = words
    text[:, :n] += ord("0")
    return text.tobytes().decode("ascii")


def _word_dtype(n: int) -> np.dtype:
    """Letters of degree ``n``: the smallest unsigned dtype, big-endian."""
    return np.dtype(np.min_scalar_type(n)).newbyteorder(">")


def _mult_dtype(total: int) -> type:
    """``int64`` unless the total reaches 2**63; then Python ints, so no sum
    of the multiplicities can overflow."""
    return np.int64 if total < 2**63 else object


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

    @property
    def elems(self) -> tuple[tuple[Perm, int], ...]:
        """The sorted ``(word, multiplicity)`` pairs, built on first use."""
        if self._elems is None:
            self._elems = tuple(zip(self, self.mults.tolist()))
        return self._elems

    def __getitem__(self, word: Perm) -> int:
        if self._index is None:
            self._index = dict(self.elems)
        return self._index[tuple(word)]

    def __iter__(self) -> Iterator[Perm]:
        return map(tuple, self.words.tolist())

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermMultiset):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.words, other.words)
            and np.array_equal(self.mults, other.mults)
        )

    def __hash__(self) -> int:
        # A set hashes as the frozenset of its words, which a PermSet equals.
        return Set._hash(self) if self.is_set() else hash((self.n, self.elems))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {self.elems!r})"

    def support(self) -> "PermSet":
        return PermSet._of_rows(self.n, self.words)

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

    def qsym(self) -> "QSym":
        from .qsym import qsym_of  # qsym imports this module

        return qsym_of(self)


class PermSet(PermMultiset, Set):
    """Set of degree-``n`` permutations: a :class:`PermMultiset` whose
    multiplicities are all 1, which is also a ``collections.abc.Set``.  It
    equals, and hashes as, the frozenset of its words.  ``|`` of two sets
    of one degree stays on the word matrices; the other set operations
    return frozensets.

    >>> s = PermSet.from_words(np.array([[2, 1], [1, 2], [2, 1]]))
    >>> s == {(1, 2), (2, 1)}, (2, 1) in s, s - {(1, 2)}
    (True, True, frozenset({(2, 1)}))
    """

    __slots__ = ()

    @classmethod
    def from_words(cls, words: np.ndarray) -> "PermSet":
        """The set of the rows of a (k, n) word matrix."""
        n = words.shape[1]
        return cls._of_rows(n, distinct_words(words.astype(_word_dtype(n), copy=False))[0])

    @classmethod
    def _of_rows(cls, n: int, rows: np.ndarray) -> "PermSet":
        """Wrap distinct rows in lexicographic order."""
        rows = rows.astype(_word_dtype(n), copy=False)
        return cls._of(n, rows, np.ones(len(rows), np.int64))

    @classmethod
    def _from_iterable(cls, it: Iterable[Perm]) -> frozenset[Perm]:
        return frozenset(it)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PermMultiset):
            return PermMultiset.__eq__(self, other)
        return Set.__eq__(self, other)

    __hash__ = PermMultiset.__hash__

    def __or__(self, other: object) -> "PermSet | frozenset[Perm]":
        if isinstance(other, PermSet) and other.n == self.n:
            return PermSet.from_words(np.concatenate([self.words, other.words]))
        return Set.__or__(self, other)


CollectionLike = Union[PermMultiset, Mapping[Perm, int], Iterable[Perm]]


def as_multiset(x: CollectionLike, n: int | None = None) -> PermMultiset:
    """The one reader of permutation collections.  A ``PermMultiset`` (a
    ``PermSet`` is one) is returned as it is; a mapping is read as word ->
    multiplicity, its zero entries dropped; an iterable counts each
    occurrence once.  ``n`` is required only when the collection is empty
    and is not a ``PermMultiset``; mixed degrees, or a degree other than
    ``n``, are rejected.

    >>> as_multiset([(2, 1), (1, 2), (2, 1)])
    PermMultiset(2, (((1, 2), 1), ((2, 1), 2)))
    """
    if isinstance(x, PermMultiset):
        degrees, counts = {x.n}, None
    else:
        counts = Counter(x)
        degrees = {len(w) for w in counts} or {n}
    if len(degrees) > 1:
        raise ValueError("mixed degrees in collection")
    degree = degrees.pop()
    if degree is None:
        raise ValueError("empty collection needs an explicit degree")
    if n not in (None, degree):
        raise ValueError(f"degree mismatch: elements have degree {degree}")
    if counts is None:
        return x
    return PermMultiset(degree, ((w, m) for w, m in counts.items() if m))
