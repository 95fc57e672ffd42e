"""Permutation layer: words, descent statistics, symmetries.

Oracles are independent brute-force recomputations inside the tests.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurgrid.permutations import (
    DescSet,
    cdes_count,
    cdes_set,
    compose,
    composition_boundary_mask,
    composition_of_descents,
    des_mask,
    des_set,
    format_perm,
    inverse,
    is_mu_modal_mask,
    longest_element,
    parse_perm,
    perm_from_word,
)

perms = st.integers(1, 7).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
)


def brute_des(word):
    return frozenset(
        i for i in range(1, len(word)) if word[i - 1] > word[i]
    )


# ---------------------------------------------------------------------------
# Words, parsing, formatting
# ---------------------------------------------------------------------------


def test_identity_and_longest_element():
    assert longest_element(4) == (4, 3, 2, 1)
    assert compose(longest_element(4), longest_element(4)) == (1, 2, 3, 4)
    assert longest_element(0) == ()


def test_parse_format_round_trip_small():
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            assert parse_perm(format_perm(w)) == w


def test_parse_format_two_digit_values():
    w = tuple(range(1, 12))
    text = format_perm(w)
    assert parse_perm(text) == w


def test_perm_from_word_validates():
    with pytest.raises(ValueError):
        perm_from_word((1, 1, 2))
    with pytest.raises(ValueError):
        perm_from_word((0, 1))


# ---------------------------------------------------------------------------
# Descent statistics
# ---------------------------------------------------------------------------


def test_des_set_matches_brute_force_s4():
    for w in itertools.permutations((1, 2, 3, 4)):
        assert frozenset(des_set(w)) == brute_des(w)


@given(perms)
def test_des_mask_consistent_with_des_set(w):
    mask = des_mask(w)
    assert frozenset(i for i in range(1, len(w)) if mask >> (i - 1) & 1) == frozenset(
        des_set(w)
    )


def test_cdes_set_matches_brute_force_s4():
    for w in itertools.permutations((1, 2, 3, 4)):
        expected = set(brute_des(w))
        if w[-1] > w[0]:
            expected.add(len(w))
        assert set(cdes_set(w)) == expected
        assert cdes_count(w) == len(expected)


def test_cdes_count_range():
    for w in itertools.permutations((1, 2, 3, 4, 5)):
        assert 1 <= cdes_count(w) <= 4


# ---------------------------------------------------------------------------
# DescSet container
# ---------------------------------------------------------------------------


def test_descset_of_braces_round_trip():
    d = DescSet.of(5, [1, 3])
    assert d.braces() == "{1,3}"
    assert DescSet.of(5, []).braces() == "{}"
    assert list(DescSet.of(6, [5, 2])) == [2, 5]


def test_descset_validates_range():
    with pytest.raises(ValueError):
        DescSet.of(4, [4])
    with pytest.raises(ValueError):
        DescSet.of(4, [0])


# ---------------------------------------------------------------------------
# Group operations
# ---------------------------------------------------------------------------


def test_compose_applies_right_then_left():
    p = parse_perm("4532617")
    q = parse_perm("4176235")
    assert compose(p, q) == parse_perm("2471536")


@given(perms)
def test_inverse_is_two_sided(w):
    n = len(w)
    assert compose(w, inverse(w)) == tuple(range(1, n + 1))
    assert compose(inverse(w), w) == tuple(range(1, n + 1))


@given(perms, st.randoms())
def test_compose_associative(w, rng):
    n = len(w)
    u = tuple(rng.sample(range(1, n + 1), n))
    v = tuple(rng.sample(range(1, n + 1), n))
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_reverse_complement_rotate180():
    w, w0 = parse_perm("25134"), longest_element(5)
    assert compose(w, w0) == (4, 3, 1, 5, 2)  # reverse
    assert compose(w0, w) == (4, 1, 5, 3, 2)  # complement
    # The half turn does both, in either order; it reflects the descent set.
    rotated = compose(compose(w0, w), w0)
    assert rotated == compose(w0, compose(w, w0)) == (2, 3, 5, 1, 4)
    assert des_set(rotated).members == tuple(5 - i for i in reversed(des_set(w).members))


@given(perms)
def test_reverse_complement_via_longest_element(w):
    n = len(w)
    w0 = longest_element(n)
    assert compose(w, w0) == w[::-1]
    assert compose(w0, w) == tuple(n + 1 - v for v in w)


# ---------------------------------------------------------------------------
# Compositions
# ---------------------------------------------------------------------------


def test_composition_of_descent_set_round_trip():
    for n in range(1, 8):
        for r in range(n):
            for members in itertools.combinations(range(1, n), r):
                d = DescSet.of(n, members)
                comp = composition_of_descents(d)
                assert sum(comp) == n
                assert composition_boundary_mask(comp) == d.mask


# ---------------------------------------------------------------------------
# Modality of descent sets against a partition profile
# ---------------------------------------------------------------------------


def compositions_of(n):
    for k in range(n):
        for cuts in itertools.combinations(range(1, n), k):
            prev = 0
            parts = []
            for x in (*cuts, n):
                parts.append(x - prev)
                prev = x
            yield tuple(parts)


def block_co_unimodal(w, mu):
    lo = 0
    for part in mu:
        seg = w[lo : lo + part]
        pivot = seg.index(min(seg))
        if list(seg[: pivot + 1]) != sorted(seg[: pivot + 1], reverse=True):
            return False
        if list(seg[pivot:]) != sorted(seg[pivot:]):
            return False
        lo += part
    return True


def test_mu_modal_predicates_match_existence_oracle():
    # A descent set is mu-modal exactly when some word whose mu-blocks are
    # each decreasing-then-increasing realizes it.
    for n in range(1, 6):
        words = list(itertools.permutations(range(1, n + 1)))
        for mu in compositions_of(n):
            achieved = {
                des_mask(w) for w in words if block_co_unimodal(w, mu)
            }
            for mask in range(1 << (n - 1)):
                expected = mask in achieved
                assert is_mu_modal_mask(mask, n, mu) == expected, (mask, n, mu)
