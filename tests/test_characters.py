"""Symmetric group characters: recursion, orthogonality, two evaluation
routes for permutation-set class functions, Kronecker products."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from schurgrid import characters
from schurgrid.characters import (
    CharacterVector,
    char_from_signed_formula,
    char_vector,
    character_table,
    class_size,
    kronecker,
    kronecker_rows,
    mn_character,
    sign_twist,
    signed_char_vector,
    z_of,
)
from schurgrid.qsym import (
    QSym,
    SchurExpansion,
    descent_count_table,
    qsym_of,
    schur_expand,
    schur_f_vector,
    schur_rows,
    skew_schur_f_vector,
)
from schurgrid.tableaux import conjugate_partition, partitions, straight_shape


def tableau_count(lam):
    return sum(skew_schur_f_vector(straight_shape(lam)).coeffs)


def cycle_type_of(w):
    seen = [False] * len(w)
    parts = []
    for start in range(len(w)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = w[i] - 1
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def test_centralizer_orders_and_class_sizes():
    assert z_of((2, 2, 1)) == 8
    assert z_of((5,)) == 5
    assert z_of((1, 1, 1)) == 6
    with pytest.raises(ValueError):
        z_of((0, 1))
    for n in range(1, 8):
        assert sum(class_size(rho) for rho in partitions(n)) == math.factorial(n)


def test_class_sizes_by_enumeration():
    for n in range(1, 6):
        brute = {}
        for w in itertools.permutations(range(1, n + 1)):
            t = cycle_type_of(w)
            brute[t] = brute.get(t, 0) + 1
        for rho in partitions(n):
            assert class_size(rho) == brute[rho]


def test_character_table_degree_3_frozen():
    table = character_table(3)
    cols = partitions(3)  # ((3,), (2, 1), (1, 1, 1))
    assert cols == ((3,), (2, 1), (1, 1, 1))
    assert table[(3,)] == (1, 1, 1)
    assert table[(2, 1)] == (-1, 0, 2)
    assert table[(1, 1, 1)] == (1, -1, 1)


def test_character_first_column_is_tableau_count():
    for n in range(1, 8):
        for lam in partitions(n):
            assert mn_character(lam, (1,) * n) == tableau_count(lam)


def test_character_orthogonality():
    for n in range(1, 7):
        parts = partitions(n)
        weights = [class_size(rho) for rho in parts]
        table = character_table(n)
        for lam in parts:
            for nu in parts:
                inner = sum(
                    w * a * b
                    for w, a, b in zip(weights, table[lam], table[nu])
                )
                assert inner == (math.factorial(n) if lam == nu else 0)


def test_conjugate_shape_twists_by_sign():
    for n in range(1, 7):
        for lam in partitions(n):
            for rho in partitions(n):
                sign = (-1) ** (n - len(rho))
                assert mn_character(conjugate_partition(lam), rho) == sign * mn_character(
                    lam, rho
                )


def test_character_values_by_permutation_matrices():
    # chi^lambda(rho) summed over an exact construction: the number of
    # fixed points of rho acting on words gives the permutation character
    # sum_mu K_mu chi^mu; checking the regular-representation column
    # instead keeps it elementary: sum_lam f^lam * chi^lam(rho) vanishes
    # off the identity class.
    for n in range(1, 7):
        for rho in partitions(n):
            total = sum(
                tableau_count(lam) * mn_character(lam, rho)
                for lam in partitions(n)
            )
            expected = math.factorial(n) if rho == (1,) * n else 0
            assert total == expected


def test_character_vector_wrapping():
    assert CharacterVector(3, (1, 2, 3)).values == (1, 2, 3)
    with pytest.raises(ValueError):
        CharacterVector(3, (1, 2))


def test_schur_round_trip_through_class_functions():
    for n in range(1, 7):
        for lam in partitions(n):
            e = SchurExpansion.single(lam, 3)
            chars = np.array([char_vector(e).values])
            assert (characters._from_characters(n, chars) == schur_rows(n, [e])).all()


def test_from_characters_rejects_non_characters():
    bad = np.array([[1, 0]])  # half a regular character of S_2
    with pytest.raises(ValueError, match="non-integral multiplicity at"):
        characters._from_characters(2, bad)


def test_kronecker_frozen_values():
    triv = SchurExpansion.single((4,))
    sign = SchurExpansion.single((1, 1, 1, 1))
    hook = SchurExpansion.single((2, 1, 1))
    assert kronecker(triv, hook) == hook
    assert kronecker(sign, hook) == SchurExpansion.single((3, 1))
    assert sign_twist(hook) == SchurExpansion.single((3, 1))
    two_one = SchurExpansion.single((2, 1))
    assert kronecker(two_one, two_one).serialize() == "s[3] + s[2,1] + s[1,1,1]"
    with pytest.raises(ValueError):
        kronecker(triv, two_one)


def test_kronecker_dimensions_multiply():
    for n in range(2, 6):
        # The row sums of the descent-count matrix are the tableau counts.
        dims = dict(zip(partitions(n), descent_count_table(n).matrix.sum(axis=1).tolist()))
        for lam in partitions(n):
            for nu in partitions(n):
                prod = kronecker(
                    SchurExpansion.single(lam), SchurExpansion.single(nu)
                )
                dimension = sum(c * dims[mu] for mu, c in prod.coeffs)
                assert dimension == tableau_count(lam) * tableau_count(nu)


def test_kronecker_matches_triple_character_sums():
    # g(lam, mu, nu) = (1/n!) * sum over the words w of S_n of
    # chi^lam(w) chi^mu(w) chi^nu(w), each cycle type read off the word.
    for n in range(6):
        parts = partitions(n)
        types = [cycle_type_of(w) for w in itertools.permutations(range(1, n + 1))]
        chi = {(lam, t): mn_character(lam, t) for lam in parts for t in set(types)}
        rows = schur_rows(n, [SchurExpansion.single(lam) for lam in parts])
        for mu in parts:
            batched = kronecker_rows(rows, SchurExpansion.single(mu))
            for i, lam in enumerate(parts):
                single = kronecker(SchurExpansion.single(lam), SchurExpansion.single(mu))
                for j, nu in enumerate(parts):
                    total = sum(chi[lam, t] * chi[mu, t] * chi[nu, t] for t in types)
                    g, rest = divmod(total, math.factorial(n))
                    assert rest == 0
                    assert single.as_dict().get(nu, 0) == batched[i, j] == g, (lam, mu, nu)


def test_exact_beyond_int64():
    big = 2**70
    s3, s21 = SchurExpansion.single((3,)), SchurExpansion.single((2, 1))
    big_s3, big_s21 = SchurExpansion.single((3,), big), SchurExpansion.single((2, 1), big)
    assert schur_expand(schur_f_vector(big_s3 + s21)).serialize() == (
        "1180591620717411303424*s[3] + s[2,1]"
    )
    assert kronecker(big_s21, s21).serialize() == (
        "1180591620717411303424*s[3] + 1180591620717411303424*s[2,1]"
        " + 1180591620717411303424*s[1,1,1]"
    )
    assert schur_expand(QSym(0, (3,))).serialize() == "3*s[]"
    empty = SchurExpansion.single((), 2)
    assert kronecker(empty, empty).serialize() == "4*s[]"
    assert schur_expand(QSym(3, (big, big + 1, 0, 0))).serialize() == (
        "NotSymmetric(n=3; monomial coefficient at {1} is 2361183241434822606849"
        " but at {2} is 1180591620717411303424)"
    )


# ---------------------------------------------------------------------------
# Signed descent-sum evaluation versus the recursion route
# ---------------------------------------------------------------------------


def test_signed_formula_on_single_ribbon_class():
    # The inverse descent class of the empty set is {identity}; its
    # expansion is the trivial character.
    for n in range(1, 6):
        ident = [tuple(range(1, n + 1))]
        for rho in partitions(n):
            assert char_from_signed_formula(ident, rho) == 1


def test_signed_formula_matches_recursion_on_inverse_descent_classes():
    from schurgrid.permsets import inv_descent_class
    from schurgrid.permutations import DescSet

    for n in range(1, 7):
        for r in range(n):
            for members in itertools.combinations(range(1, n), r):
                cls = inv_descent_class(n, DescSet.of(n, members))
                e = schur_expand(qsym_of(cls, n))
                assert isinstance(e, SchurExpansion)
                expected = char_vector(e)
                got = signed_char_vector(cls, n)
                assert got == expected, (n, members)


def test_signed_formula_validates_input():
    with pytest.raises(ValueError):
        char_from_signed_formula([], (2, 1))
    assert char_from_signed_formula([], (2, 1), n=3) == 0
    with pytest.raises(ValueError):
        char_from_signed_formula([(1, 2)], (3,))


def test_signed_formulas_count_repeated_words():
    # A list is a multiset: every occurrence counts, as in qsym_of.
    words = [(1, 2), (1, 2)]
    assert signed_char_vector(words).values == (2, 2)
    assert signed_char_vector(words) == signed_char_vector({(1, 2): 2})
    assert [char_from_signed_formula(words, rho) for rho in partitions(2)] == [2, 2]
    assert qsym_of(words).serialize() == "n=2; 2*F{}"
