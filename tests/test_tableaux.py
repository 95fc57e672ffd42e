"""Shapes and tableaux: partitions, skew shapes, SYT enumeration, RSK.

Tableaux are counted as the coefficient sum of the placement walk's
fundamental vector, cross-checked against the hook length formula and the
skew determinant formula, both reimplemented here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from schurgrid.permutations import DescSet, des_set, inverse, parse_perm
from schurgrid.qsym import skew_schur_f_vector
from schurgrid.tableaux import (
    SkewShape,
    StandardTableau,
    conjugate_partition,
    enumerate_syt,
    insertion_tableau,
    is_partition,
    knuth_class_words,
    knuth_classes,
    partitions,
    ribbon_shape,
    rotation_bijection,
    rsk,
    straight_shape,
    strip_chain_shape,
    syt_des,
    syt_row_words,
)


def tableau_count(shape):
    return sum(skew_schur_f_vector(shape).coeffs)


def hook_length_count(mu):
    n = sum(mu)
    conj = conjugate_partition(mu)
    prod = 1
    for i, row in enumerate(mu):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return math.factorial(n) // prod


def determinant_count(shape):
    # Number of standard tableaux of a skew shape via the determinant of
    # 1 / (outer_i - inner_j - i + j)! (zero when the argument is negative).
    outer = shape.outer
    inner = tuple(shape.inner) + (0,) * (len(outer) - len(shape.inner))
    m = len(outer)
    if m == 0:
        return 1

    def entry(i, j):
        arg = outer[i] - inner[j] - i + j
        return Fraction(0) if arg < 0 else Fraction(1, math.factorial(arg))

    mat = [[entry(i, j) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        pivot = next(
            (r for r in range(col, m) if mat[r][col] != 0), None
        )
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, m):
            factor = mat[r][col] * inv
            for c in range(col, m):
                mat[r][c] -= factor * mat[col][c]
    count = det * math.factorial(shape.size())
    assert count.denominator == 1
    return count.numerator


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, count in enumerate(expected):
        assert len(partitions(n)) == count
    for mu in partitions(6):
        assert is_partition(mu)
        assert sum(mu) == 6


def test_conjugate_partition():
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)
    for mu in partitions(7):
        assert conjugate_partition(conjugate_partition(mu)) == mu


# ---------------------------------------------------------------------------
# Skew shapes
# ---------------------------------------------------------------------------


def test_skew_shape_cells_and_containment():
    s = SkewShape((4, 2, 1), (2, 1))
    assert s.size() == 4
    assert set(s.cells()) == {(1, 3), (1, 4), (2, 2), (3, 1)}
    assert not s.is_straight()
    assert straight_shape((3, 1)).is_straight()


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape((2, 3), ())  # outer rows must weakly decrease
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))  # inner exceeds outer


def test_ribbon_shape_counts_descent_classes():
    # A ribbon's standard tableaux are in bijection with the words of the
    # corresponding exact descent class.
    for n in range(1, 7):
        words = list(itertools.permutations(range(1, n + 1)))
        for r in range(n):
            for members in itertools.combinations(range(1, n), r):
                d = DescSet.of(n, members)
                shape = ribbon_shape(n, d)
                assert shape.size() == n
                brute = sum(
                    1 for w in words if frozenset(des_set(w).members) == set(members)
                )
                assert tableau_count(shape) == brute


def test_strip_chain_shape_frozen_and_multinomial():
    s = strip_chain_shape(5, DescSet.of(5, [1]))
    assert (s.outer, s.inner) == ((5, 4, 1), (4, 1))
    assert tableau_count(s) == 20
    for n in range(2, 7):
        for r in range(n - 1):
            for members in itertools.combinations(range(1, n - 1), r):
                j = DescSet.of(n, members)
                shape = strip_chain_shape(n, j)
                sizes = []
                prev = 0
                for cut in sorted(members):
                    sizes.append(cut - prev)
                    prev = cut
                sizes.append(n - 1 - prev)
                sizes.append(1)
                want = math.factorial(n)
                for size in sizes:
                    want //= math.factorial(size)
                assert tableau_count(shape) == want


def test_strip_chain_shape_validation():
    with pytest.raises(ValueError):
        strip_chain_shape(5, DescSet.of(5, [4]))  # member beyond n-2
    with pytest.raises(ValueError):
        strip_chain_shape(5, DescSet.of(4, [1]))  # ambient degree mismatch


def test_disconnected_shape_counts():
    # Two straight shapes touching at one corner fill independently: the
    # count is a binomial times the two hook-length counts.
    shape = SkewShape((5, 4, 2, 1), (2, 2))
    a, b = (2, 1), (3, 2)
    expected = (
        math.comb(sum(a) + sum(b), sum(a))
        * hook_length_count(a)
        * hook_length_count(b)
    )
    assert tableau_count(shape) == expected


# ---------------------------------------------------------------------------
# Standard tableau enumeration
# ---------------------------------------------------------------------------


def test_count_syt_matches_hook_length_formula():
    for n in range(1, 8):
        assert sum(hook_length_count(mu) ** 2 for mu in partitions(n)) == math.factorial(n)
        for mu in partitions(n):
            assert tableau_count(straight_shape(mu)) == hook_length_count(mu)


def test_count_syt_matches_skew_determinant():
    shapes = [
        SkewShape((3, 2), (1,)),
        SkewShape((4, 4, 2), (3, 1)),
        SkewShape((5, 4, 1), (4, 1)),
        SkewShape((3, 3, 3), (2, 1)),
        SkewShape((6, 1), (1,)),
    ]
    for shape in shapes:
        assert tableau_count(shape) == determinant_count(shape)


def test_enumerate_syt_entries_are_valid_and_distinct():
    shape = SkewShape((4, 3, 1), (2,))
    tableaux = enumerate_syt(shape)
    assert len(set(tableaux)) == len(tableaux)
    for t in tableaux:
        assert t.size == shape.size()
        flat = sorted(e for row in t.rows for e in row)
        assert flat == list(range(1, shape.size() + 1))
    # enumerate_syt skips the validation of its own fillings; the
    # validating constructor accepts every one of them.
    for shape in (
        SkewShape((4, 3, 1), (2,)),
        SkewShape((3, 2, 1), (2, 2)),
        SkewShape((4, 4, 2), (3, 1)),
        SkewShape((5, 4, 2, 1), (2, 2)),
        strip_chain_shape(6, DescSet.of(6, [2, 3])),
        straight_shape((3, 2, 2)),
    ):
        for t in enumerate_syt(shape):
            assert StandardTableau(t.shape, t.rows) == t


def shapes_up_to_seven():
    """Straight shapes and strip chains with n <= 7, plus skew and
    disconnected ones (one with a fully inner row) and the empty shape."""
    out = [straight_shape(mu) for n in range(8) for mu in partitions(n)]
    for n in range(1, 8):
        for mask in range(1 << max(n - 2, 0)):
            out.append(strip_chain_shape(n, DescSet(n, mask)))
    out += [
        SkewShape((3, 2, 1), (2, 2)),
        SkewShape((4, 4, 2), (3, 1)),
        SkewShape((5, 3, 3), (2, 2)),
        SkewShape((5, 4, 2, 1), (2, 2)),
        SkewShape((3, 1, 1, 1), (1,)),
        SkewShape((), ()),
    ]
    return out


def test_syt_row_words_match_enumerate_syt():
    for shape in shapes_up_to_seven():
        words = syt_row_words(shape)
        expected = {t.row_word() for t in enumerate_syt(shape)}
        rows = list(map(tuple, words.tolist()))
        assert words.dtype == np.uint8
        assert words.shape == (len(expected), shape.size())
        assert set(rows) == expected, shape
        assert all(a < b for a, b in zip(rows, rows[1:])), shape


def test_row_word_names_the_row_of_each_entry():
    t = StandardTableau(SkewShape((5, 4, 2, 1), (2, 2)), ((2, 3, 4), (7, 8), (1, 5), (6,)))
    assert t.text() == "· · 2 3 4\n· · 7 8\n1 5\n6"
    assert t.row_word() == (3, 1, 1, 1, 3, 4, 2, 2)
    assert syt_des(t).members == (4, 5)


@pytest.mark.parametrize(
    "shape, rows, message",
    [
        (straight_shape((3, 1)), ((1, 2), (3,), (4,)), "row lengths"),
        (straight_shape((3, 1)), ((1, 2, 5), (3,)), "entries are not exactly 1..4"),
        (straight_shape((3, 1)), ((1, 2, 2), (3,)), "entries are not exactly 1..4"),
        (straight_shape((3, 1)), ((1, 3, 2), (4,)), "rows must strictly increase"),
        (straight_shape((3, 1)), ((2, 3, 4), (1,)), "columns must strictly increase"),
        (SkewShape((3, 2), (1,)), ((3, 4), (1, 2)), "columns must strictly increase"),
    ],
)
def test_tableau_validation_rejects(shape, rows, message):
    with pytest.raises(ValueError, match=message):
        StandardTableau(shape, rows)


# ---------------------------------------------------------------------------
# RSK
# ---------------------------------------------------------------------------


def test_rsk_is_a_shape_preserving_bijection():
    for n in range(0, 6):
        seen = set()
        for w in itertools.permutations(range(1, n + 1)):
            p, q = rsk(w)
            assert p.shape == q.shape
            assert p.shape.is_straight()
            seen.add((p, q))
        assert len(seen) == math.factorial(n)


def test_rsk_descents_and_inverse_symmetry():
    for w in itertools.permutations(range(1, 6)):
        p, q = rsk(w)
        assert syt_des(q) == des_set(w)
        assert syt_des(p) == des_set(inverse(w))
        pi, qi = rsk(inverse(w))
        assert (pi, qi) == (q, p)


def test_knuth_classes_group_s_n_by_insertion_tableau():
    for n in range(8):
        classes: dict = {}
        for w in itertools.permutations(range(1, n + 1)):
            classes.setdefault(insertion_tableau(w), set()).add(w)
        for t, words in classes.items():
            assert set(knuth_class_words(t)) == words
        for mu in partitions(n):
            tableaux = enumerate_syt(straight_shape(mu))
            assert [set(c) for c in knuth_classes(mu)] == [classes[t] for t in tableaux]


def test_insertion_tableau_and_knuth_classes():
    w = parse_perm("2143")
    assert set(knuth_class_words(insertion_tableau(w))) == {(2, 1, 4, 3), (2, 4, 1, 3)}
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            cls = set(knuth_class_words(insertion_tableau(w)))
            brute = {
                u
                for u in itertools.permutations(range(1, n + 1))
                if insertion_tableau(u) == insertion_tableau(w)
            }
            assert cls == brute


# ---------------------------------------------------------------------------
# Rotation bijection
# ---------------------------------------------------------------------------


def test_rotation_bijection_frozen_example():
    t = rotation_bijection(parse_perm("31452"), DescSet.of(5, [1]))
    assert t.text() == "· · · · 4\n· 1 3 5\n2"


def test_rotation_bijection_on_weak_class_rotations():
    # Domain: vertical rotations of the degree-5 embeddings of words whose
    # inverse has descents inside {1}; the map lands bijectively on the
    # strip chain tableaux and preserves descent sets.
    from schurgrid.permsets import embed, inv_weak_descent_class, multiset_product, cyclic_class

    j = DescSet.of(5, [1])
    dom = multiset_product(
        embed(inv_weak_descent_class(4, DescSet.of(4, [1])), 5), cyclic_class(5)
    )
    assert dom.is_set()
    shape = strip_chain_shape(5, j)
    images = set()
    for w in dom.support():
        t = rotation_bijection(w, j)
        assert t.shape == shape
        assert syt_des(t) == des_set(w)
        images.add(t)
    assert len(images) == dom.support_size()
    assert images == set(enumerate_syt(shape))
