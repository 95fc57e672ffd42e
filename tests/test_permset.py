"""Word-matrix sets: ``PermSet`` against frozensets, the word formatter
against ``format_perm``, set digests against the string route, and the
array-built families against their membership predicates."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from schurgrid.checks import _CaseLedger, _digest
from schurgrid.grids import zigzag_member
from schurgrid.permsets import (
    as_multiset,
    cdes_inverse_class,
    conjugacy_class,
    cycle_type,
    inversion_ball,
    inversion_sphere,
    one_column_class,
    symmetric_group,
    zigzag_class,
)
from schurgrid.permutations import (
    PermMultiset,
    PermSet,
    cdes_count,
    distinct_words,
    format_perm,
    format_words,
    inverse,
)
from schurgrid.tableaux import partitions


def _set(n: int, words) -> PermSet:
    return PermSet.from_words(np.array(words, np.uint8).reshape(len(words), n))


SETS = [
    (3, []),
    (3, [(2, 1, 3), (1, 2, 3), (2, 1, 3), (3, 2, 1)]),
    (4, [(1, 2, 3, 4)]),
    (0, []),
    (0, [()]),
]


@pytest.mark.parametrize("n, words", SETS)
def test_permset_is_the_frozenset_of_its_words(n, words):
    s, f = _set(n, words), frozenset(words)
    assert s == f and f == s and not s != f and not f != s
    assert hash(s) == hash(f)
    assert list(s) == sorted(f) and len(s) == len(f) and s.n == n
    assert {s: 1}[f] == 1
    other = {(1, 2, 3), (1, 3, 2)} if n == 3 else {()}
    assert s | other == f | other and other | s == other | f
    assert s - other == f - other and other - s == other - f
    for word in [*words, (1, 3, 2), (2, 1), ()]:
        assert (word in s) == (word in f)
    if words:
        assert s != _set(n, words[:-1]) and s != frozenset(words[:-1])


def test_permset_union_stays_on_word_matrices():
    a, b = _set(3, [(1, 2, 3), (3, 1, 2)]), _set(3, [(3, 1, 2), (2, 3, 1)])
    union = a | b
    assert isinstance(union, PermSet)
    assert union == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    assert union.words.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]


def test_permset_equals_its_unit_multiset():
    s = _set(3, [(2, 1, 3), (1, 3, 2)])
    m = as_multiset({(2, 1, 3): 1, (1, 3, 2): 1})
    assert type(m) is PermMultiset
    assert s == m and m == s and hash(s) == hash(m)
    assert s != m.scale(2) and m.scale(2) != s
    assert m.support() == s and isinstance(m.support(), PermSet)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 10, 12])
def test_format_words_matches_format_perm(n):
    rng = random.Random(n)
    rows = sorted({tuple(rng.sample(range(1, n + 1), n)) for _ in range(40)})
    words = np.array(rows, np.uint8).reshape(len(rows), n)
    assert format_words(words) == "".join(f"{format_perm(p)}\n" for p in rows)
    assert format_words(words[:0]) == ""


@pytest.mark.parametrize(
    "s",
    [
        _set(0, [()]),
        _set(3, []),
        symmetric_group(4),
        one_column_class((1, -1, 1), 9),
        one_column_class((1, -1), 10),
        one_column_class((-1, 1), 11),
    ],
    ids=lambda s: f"n={s.n},size={len(s)}",
)
def test_set_digest_equals_the_string_route(s):
    led = _CaseLedger()
    led.add_sets("same", s, PermSet.from_words(s.words[::-1]))
    expected = f"set of {len(s)} sha256:{_digest(sorted(map(format_perm, s)))}"
    assert led.outcome() == ("verified", expected, expected, "")


def test_add_sets_reports_the_members_outside_the_other_side():
    led = _CaseLedger()
    led.add_sets("differ", _set(3, [(1, 2, 3), (2, 1, 3)]), _set(3, [(1, 2, 3)]))
    assert led.cases == 1
    assert led.outcome()[1:3] == ("set of 2; not on right: 213", "set of 1; not on left: -")


def _inversions(p) -> int:
    return sum(a > b for a, b in itertools.combinations(p, 2))


def test_array_families_match_their_predicates():
    for n in range(0, 7):
        words = list(itertools.permutations(range(1, n + 1)))
        assert symmetric_group(n) == frozenset(words)
        assert list(symmetric_group(n)) == words
        for k in range(0, n * (n - 1) // 2 + 2):
            assert inversion_sphere(n, k) == {w for w in words if _inversions(w) == k}
            assert inversion_ball(n, k) == {w for w in words if _inversions(w) <= k}
        for k in range(0, n + 2):
            cdes = {w for w in words if cdes_count(inverse(w)) == k}
            assert cdes_inverse_class(n, k) == cdes
            if k >= 1:
                assert zigzag_class(n, k) == {w for w in words if zigzag_member(w, k)}
        for rho in partitions(n):
            assert conjugacy_class(n, rho) == {w for w in words if cycle_type(w) == rho}
    with pytest.raises(ValueError):
        zigzag_class(3, 0)


# ---------------------------------------------------------------------------
# Row dedupe on packed keys
# ---------------------------------------------------------------------------


def s_key_unique(words, weights=None):
    """Reference dedupe: each row keyed by its bytes as one ``S`` item
    through ``np.unique``; those sort as the rows do for one-byte and
    big-endian letters."""
    n = words.shape[1]
    if n == 0:
        k = min(len(words), 1)
        return words[:k], None if weights is None else weights.sum(keepdims=True)[:k]
    keys = np.ascontiguousarray(words).view(f"S{n * words.itemsize}")[:, 0]
    unique, where = np.unique(keys, return_inverse=True)
    sums = None
    if weights is not None:
        sums = np.zeros(len(unique), weights.dtype)
        np.add.at(sums, where, weights)
    return np.frombuffer(unique, words.dtype).reshape(len(unique), n), sums


def _dedupe_cases():
    rng = np.random.default_rng(7)
    for n in range(18):  # n >= 16 takes keys past 64 bits
        perms = np.array([rng.permutation(n) + 1 for _ in range(40)], np.uint8).reshape(40, n)
        yield perms  # already distinct (for n >= 5)
        yield perms[rng.integers(0, 40, 300)]  # repeats, unsorted
        yield np.repeat(perms[:1], 5, axis=0)  # all equal
        yield perms[:0]  # empty
    yield rng.integers(0, 300, (200, 3)).astype(">u2")  # nine-bit letters
    yield rng.integers(0, 2, (200, 40)).astype(">u2")[:, ::2]  # strided
    yield np.array([[2**64 - 1, 1], [0, 2], [2**64 - 1, 1]], ">u8")  # 64-bit letters


@pytest.mark.parametrize("words", list(_dedupe_cases()), ids=lambda w: f"{w.dtype}{w.shape}")
def test_distinct_words_matches_the_s_key_oracle(words):
    rng = np.random.default_rng(len(words))
    expected, _ = s_key_unique(words)
    got, none = distinct_words(words)
    assert none is None and got.dtype == words.dtype
    assert got.tolist() == expected.tolist()
    for weights in (
        rng.integers(-5, 10**6, len(words)),
        np.array([int(v) * 2**70 + 1 for v in rng.integers(1, 9, len(words))], object),
    ):
        got, sums = distinct_words(words, weights)
        expected, expected_sums = s_key_unique(words, weights)
        assert got.tolist() == expected.tolist()
        assert sums.dtype == weights.dtype and sums.tolist() == expected_sums.tolist()
