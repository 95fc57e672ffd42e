"""Fundamental-basis vectors, Schur expansion, and the descent-count table.

Independent oracles: a brute monomial evaluator, Knuth classes with one
letter inserted for the Pieri rule, skew-tableau enumeration, and
inclusion-exclusion between weak and exact inverse descent classes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurgrid import qsym
from schurgrid.permsets import symmetric_group
from schurgrid.permutations import (
    DescSet,
    composition_boundary_mask,
    composition_of_descents,
)
from schurgrid.qsym import (
    NotSymmetric,
    QSym,
    SchurExpansion,
    cache_dir,
    descent_count_table,
    is_schur_positive,
    is_symmetric_by_monomials,
    monomial_coefficients,
    pieri_down,
    pieri_up,
    qsym_of,
    schur_expand,
    schur_f_vector,
    skew_schur_f_vector,
)
from schurgrid.tableaux import (
    SkewShape,
    enumerate_syt,
    knuth_classes,
    partitions,
    ribbon_shape,
    straight_shape,
    strip_chain_shape,
    syt_des,
)


def sorted_composition_key(d):
    """Block lengths of ``d``, sorted: two subsets are rearrangements of each
    other exactly when these agree."""
    return tuple(sorted(composition_of_descents(d), reverse=True))


def all_dessets(n):
    for r in range(n):
        for members in itertools.combinations(range(1, n), r):
            yield DescSet.of(n, members)


def fundamental(n, members):
    return QSym.single(n, DescSet.of(n, members))


# ---------------------------------------------------------------------------
# Vector arithmetic and serialization
# ---------------------------------------------------------------------------


def test_qsym_algebra_basics():
    a = fundamental(3, [1])
    b = fundamental(3, [2])
    s = a + b.scale(2)
    assert s.coeffs == (0, 1, 2, 0)
    assert not any((s - s).coeffs)
    assert (-a).coeffs == (0, -1, 0, 0)
    with pytest.raises(ValueError):
        a + fundamental(4, [1])


def test_qsym_serialize_frozen():
    q = qsym_of([(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)])
    assert q.serialize() == "n=3; F{} + 2*F{1} + F{1,2}"
    assert QSym.zero(4).serialize() == "n=4; 0"
    assert QSym.unit(2).serialize() == "n=2; F{}"


def test_qsym_serialize_braces_match_descsets():
    for n in range(9):
        width = 1 << max(n - 1, 0)
        for mask in range(width):
            q = QSym.single(n, DescSet(n, mask), -3)
            assert q.serialize() == f"n={n}; -3*F{DescSet(n, mask).braces()}"
        terms = [f"F{DescSet(n, mask).braces()}" for mask in range(width)]
        assert QSym(n, (1,) * width).serialize() == f"n={n}; " + " + ".join(terms)


def reference_serialize(n, coeffs):
    """The F-vector text term by term, each set's braces from its members."""
    terms = []
    for mask, c in enumerate(coeffs):
        if c:
            term = "F{" + ",".join(map(str, DescSet(n, mask).members)) + "}"
            terms.append(term if c == 1 else f"-{term}" if c == -1 else f"{c}*{term}")
    return f"n={n}; " + (" + ".join(terms) or "0")


@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
def test_table_serializer_matches_the_term_by_term_text(n):
    width = 1 << max(n - 1, 0)
    for mask in range(width):
        term = reference_serialize(n, [0] * mask + [1]).split("; ")[1]
        assert f"F{DescSet(n, mask).braces()}" == term
    signs = np.random.default_rng(n).integers(-3, 4, width).tolist()
    huge = [2**64 + m if m % 2 else -(2**63) - m for m in range(width)]
    rows = [[0] * width, [1] * width, [-1] * width, signs]
    for matrix in (np.array(rows, np.int64), np.array([*rows, huge], object)):
        texts = qsym._serialize_rows(n, matrix.tolist())
        assert texts == [reference_serialize(n, row) for row in matrix.tolist()]
        assert texts == [QSym(n, tuple(row)).serialize() for row in matrix.tolist()]


def test_qsym_of_validates_degrees():
    with pytest.raises(ValueError):
        qsym_of([])
    assert not any(qsym_of([], 3).coeffs)
    with pytest.raises(ValueError):
        qsym_of([(1, 2), (1, 2, 3)])
    assert qsym_of({(2, 1): 5}).coeffs == (0, 5)


# ---------------------------------------------------------------------------
# Monomial evaluation
# ---------------------------------------------------------------------------


def brute_fundamental_monomials(n, members, n_vars):
    out = {}
    for f in itertools.product(range(1, n_vars + 1), repeat=n):
        ok = all(f[i] <= f[i + 1] for i in range(n - 1)) and all(
            f[i - 1] < f[i] for i in members
        )
        if ok:
            expo = [0] * n_vars
            for v in f:
                expo[v - 1] += 1
            key = tuple(expo)
            out[key] = out.get(key, 0) + 1
    return out


def test_evaluate_monomials_matches_brute_force():
    for n in range(1, 5):
        for d in all_dessets(n):
            q = QSym.single(n, d)
            for n_vars in range(0, 4):
                assert q.evaluate_monomials(n_vars) == brute_fundamental_monomials(
                    n, set(d.members), n_vars
                ), (n, d.members, n_vars)


def test_evaluate_monomials_is_linear():
    q = fundamental(3, [1]).scale(2) + fundamental(3, [2])
    brute = {}
    for members, mult in (((1,), 2), ((2,), 1)):
        for expo, c in brute_fundamental_monomials(3, set(members), 3).items():
            brute[expo] = brute.get(expo, 0) + mult * c
    assert q.evaluate_monomials(3) == {e: c for e, c in sorted(brute.items()) if c}


def test_evaluate_monomials_at_degree_zero():
    assert QSym.unit(0).evaluate_monomials(0) == {(): 1}
    assert QSym.unit(0).evaluate_monomials(2) == {(0, 0): 1}


@pytest.mark.parametrize("big", [2**64, -(2**64), 2**70])
def test_evaluate_monomials_is_exact_beyond_int64(big):
    # Coefficients this large put the subset-sum transform on object arrays.
    terms = {(): big, (1,): 3, (2, 3): -big, (1, 2, 3): 1}
    q = sum((fundamental(4, m).scale(c) for m, c in terms.items()), QSym.zero(4))
    for n_vars in range(0, 5):
        brute = {}
        for members, c in terms.items():
            for expo, k in brute_fundamental_monomials(4, set(members), n_vars).items():
                brute[expo] = brute.get(expo, 0) + c * k
        assert q.evaluate_monomials(n_vars) == {e: c for e, c in sorted(brute.items()) if c}


def test_evaluate_monomials_of_the_symmetric_group_is_a_power_of_h1():
    # The descent generating function of S_n is h_1^n, whose coefficient of
    # x^e is the multinomial n! / prod(e_i!).
    for n in range(1, 7):
        q = qsym_of(symmetric_group(n))
        for n_vars in range(0, 5):
            expected = {
                e: math.factorial(n) // math.prod(map(math.factorial, e))
                for e in itertools.product(range(n + 1), repeat=n_vars)
                if sum(e) == n
            }
            assert q.evaluate_monomials(n_vars) == expected, (n, n_vars)


def test_evaluate_monomials_sorts_by_exponent_vector():
    q = fundamental(5, [1, 3]).scale(2) + fundamental(5, [2]) + fundamental(5, [4]).scale(-7)
    for n_vars in range(0, 6):
        terms = list(q.evaluate_monomials(n_vars))
        assert terms == sorted(terms)


# ---------------------------------------------------------------------------
# Symmetry detection and Schur expansion
# ---------------------------------------------------------------------------


def test_monomial_coefficients_are_subset_sums():
    q = qsym_of(itertools.permutations((1, 2, 3)))
    mono = monomial_coefficients(q)
    for mask in range(4):
        expected = sum(
            q.coeffs[sub]
            for sub in range(4)
            if sub & mask == sub
        )
        assert mono[mask] == expected


def brute_subset_sums(a, axis):
    """Each entry along ``axis`` replaced by the sum of the entries at its
    submasks, one (mask, submask) pair at a time."""
    out = np.zeros_like(a)
    src, dst = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    for mask in range(a.shape[axis]):
        for sub in range(mask + 1):
            if sub & mask == sub:
                dst[mask] = dst[mask] + src[sub]
    return out


@pytest.mark.parametrize("width", [1, 2, 8, 32])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_subset_sums_match_submask_sums_in_place(axis, width):
    rng = np.random.default_rng(4 * width + axis)
    shape = [3, 2, 5]
    shape[axis] = width
    small = rng.integers(-1000, 1000, shape)
    huge = rng.integers(-9, 10, shape).astype(object) * 2**70 + 1
    assert max(abs(v) for v in huge.ravel().tolist()) > 2**63
    for a in (small, huge):
        expected = brute_subset_sums(a, axis)
        out = qsym._subset_sums(a, axis)
        assert out is a
        assert out.dtype == expected.dtype
        assert out.tolist() == expected.tolist()


def test_not_symmetric_witness_frozen():
    res = schur_expand(qsym_of([(2, 1, 3)]))
    assert isinstance(res, NotSymmetric)
    assert res.serialize() == (
        "NotSymmetric(n=3; monomial coefficient at {1} is 1 but at {2} is 0)"
    )
    assert not is_symmetric_by_monomials(qsym_of([(2, 1, 3)]))


def test_not_symmetric_is_not_schur_positive():
    assert is_schur_positive(schur_expand(qsym_of([(2, 1, 3)]))) is False


def test_schur_expand_full_symmetric_group():
    q = qsym_of(itertools.permutations(range(1, 5)))
    e = schur_expand(q)
    assert isinstance(e, SchurExpansion)
    assert e.serialize() == "s[4] + 3*s[3,1] + 2*s[2,2] + 3*s[2,1,1] + s[1,1,1,1]"
    assert is_schur_positive(e)
    # The row sums of the descent-count matrix are the tableau counts.
    tableaux = dict(zip(partitions(4), descent_count_table(4).matrix.sum(axis=1).tolist()))
    assert sum(c * tableaux[mu] for mu, c in e.coeffs) == 24


def test_straight_shapes_expand_to_single_schur_terms():
    for n in range(1, 8):
        for mu in partitions(n):
            e = schur_expand(skew_schur_f_vector(straight_shape(mu)))
            assert isinstance(e, SchurExpansion)
            assert e == SchurExpansion.single(mu)
            assert schur_f_vector(e) == skew_schur_f_vector(straight_shape(mu))


@pytest.mark.parametrize("n", [10, 11])
def test_schur_expand_inverts_every_schur_function_at_high_degree(n):
    # Beyond the degrees the hypothesis tests draw.
    for mu in partitions(n):
        e = SchurExpansion.single(mu)
        assert schur_expand(schur_f_vector(e)) == e


partition_strategy = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(len(partitions(n))))).map(
        lambda order: (n, order)
    )
)


@settings(max_examples=60, deadline=None)
@given(partition_strategy, st.data())
def test_schur_expand_inverts_schur_f_vector(pair, data):
    n, order = pair
    parts = partitions(n)
    coeffs = {}
    for idx in order[:3]:
        coeffs[parts[idx]] = data.draw(st.integers(-3, 3))
    e = SchurExpansion.from_dict(n, coeffs)
    assert schur_expand(schur_f_vector(e)) == e


@st.composite
def qsym_vectors(draw):
    """Random descent generating functions, or symmetric vectors with one
    coordinate perturbed (by 0 now and then, so they stay symmetric)."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        words = draw(st.lists(st.permutations(range(1, n + 1)), max_size=12))
        return qsym_of([tuple(w) for w in words], n)
    parts = partitions(n)
    picked = draw(st.lists(st.sampled_from(parts), max_size=4))
    e = SchurExpansion.from_dict(
        n, {mu: draw(st.integers(-3, 3)) for mu in picked}
    )
    mask = draw(st.integers(0, (1 << (n - 1)) - 1))
    bump = QSym.single(n, DescSet(n, mask), draw(st.integers(-2, 2)))
    return schur_f_vector(e) + bump


@settings(max_examples=150, deadline=None)
@given(qsym_vectors())
def test_schur_expand_decides_symmetry_like_monomials(q):
    result = schur_expand(q)
    assert isinstance(result, NotSymmetric) == (not is_symmetric_by_monomials(q))
    if isinstance(result, SchurExpansion):
        assert schur_f_vector(result) == q


def loop_subset_sums(v):
    """Subset sums of a vector indexed by masks, mask by mask."""
    v = list(v)
    for bit in range(max(len(v).bit_length() - 1, 0)):
        for mask in range(len(v)):
            if mask >> bit & 1:
                v[mask] += v[mask ^ 1 << bit]
    return v


def loop_schur_expand(q):
    """The loop route of monomial coefficients and Kostka numbers, kept as
    the reference: subset sums mask by mask, the Kostka number K[mu][lam]
    read off the subset sums of the table row of ``mu``, back-substitution
    against those numbers, the rebuilt vector compared, and the first mask
    whose monomial coefficient differs from the first one of its
    rearrangement class."""
    n, parts = q.n, partitions(q.n)
    rows = dict(zip(parts, descent_count_table(n).matrix.tolist()))
    bounds = [composition_boundary_mask(lam) for lam in parts]
    kostka = [[sums[b] for b in bounds] for sums in map(loop_subset_sums, rows.values())]
    mono = loop_subset_sums(q.coeffs)
    coeffs = []
    for j, b in enumerate(bounds):
        coeffs.append(mono[b] - sum(c * kostka[i][j] for i, c in enumerate(coeffs)))
    e = SchurExpansion.from_dict(n, dict(zip(partitions(n), coeffs)))
    rebuilt = [0] * len(mono)
    for mu, c in e.coeffs:
        for mask, d in enumerate(rows[mu]):
            rebuilt[mask] += c * d
    if tuple(rebuilt) == q.coeffs:
        return mono, e.serialize()
    seen = {}
    for mask, value in enumerate(mono):
        first = seen.setdefault(sorted_composition_key(DescSet(n, mask)), mask)
        if mono[first] != value:
            witness = NotSymmetric(n, (DescSet(n, first), DescSet(n, mask)), (mono[first], value))
            return mono, witness.serialize()
    raise AssertionError("a vector outside the Schur span is symmetric")


wide_ints = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


@st.composite
def wide_qsym_vectors(draw):
    """Vectors with coefficients on both sides of 2**63: dense random ones,
    and Schur expansions with at most one coordinate bumped."""
    n = draw(st.integers(0, 6))
    width = 1 << max(n - 1, 0)
    if draw(st.booleans()):
        return QSym(n, tuple(draw(st.lists(wide_ints, min_size=width, max_size=width))))
    e = SchurExpansion.from_dict(n, {mu: draw(wide_ints) for mu in partitions(n)})
    mask = draw(st.integers(0, width - 1))
    return schur_f_vector(e) + QSym.single(n, DescSet(n, mask), draw(wide_ints))


@settings(max_examples=200, deadline=None)
@given(wide_qsym_vectors())
def test_schur_expand_matches_the_loop_route(q):
    mono, text = loop_schur_expand(q)
    assert monomial_coefficients(q) == mono
    assert schur_expand(q).serialize() == text
    assert is_symmetric_by_monomials(q) == (not text.startswith("NotSymmetric"))


def test_rearrangement_classes_equal_the_desc_set_route():
    # The per-mask route the bit-level _class_reps replaced.
    for n in range(15):
        least = {}
        keys = (sorted_composition_key(DescSet(n, m)) for m in range(1 << max(n - 1, 0)))
        expected = [least.setdefault(key, m) for m, key in enumerate(keys)]
        assert qsym._class_reps(n).tolist() == expected


def test_rearrangement_classes_match_sorted_compositions():
    # Independent of sorted_composition_key, which _class_reps was built
    # from: the least mask over every ordering of a mask's block lengths.
    for n in range(9):
        expected = [
            min(
                composition_boundary_mask(c)
                for c in set(itertools.permutations(composition_of_descents(DescSet(n, m))))
            )
            for m in range(1 << max(n - 1, 0))
        ]
        assert qsym._class_reps(n).tolist() == expected


def test_weak_classes_alternate_to_exact_ribbons():
    # Inclusion-exclusion over contained descent sets turns weak inverse
    # classes into the exact one, whose vector is the ribbon's.
    from schurgrid.permsets import inv_descent_class, inv_weak_descent_class

    for n in range(1, 8):
        weak_cache = {}
        for d in all_dessets(n):
            weak_cache[d.members] = qsym_of(
                inv_weak_descent_class(n, d), n
            )
        for d in all_dessets(n):
            members = d.members
            acc = QSym.zero(n)
            for r in range(len(members) + 1):
                for sub in itertools.combinations(members, r):
                    sign = (-1) ** (len(members) - r)
                    acc = acc + weak_cache[sub].scale(sign)
            exact = qsym_of(inv_descent_class(n, d), n)
            assert acc == exact
            assert exact == skew_schur_f_vector(ribbon_shape(n, d))


# ---------------------------------------------------------------------------
# Corner moves
# ---------------------------------------------------------------------------


def test_pieri_up_matches_multiplication_by_one_box():
    # Inserting the letter n+1 anywhere into the words of one Knuth class of
    # shape mu shuffles it with a one-letter word: s_mu * s_1.
    for n in range(1, 6):
        for mu in partitions(n):
            lhs = pieri_up(SchurExpansion.single(mu))
            words = knuth_classes(mu)[0]
            rhs = schur_expand(
                qsym_of([w[:i] + (n + 1,) + w[i:] for w in words for i in range(n + 1)], n + 1)
            )
            assert lhs == rhs


def test_pieri_down_is_adjoint_to_pieri_up():
    for n in range(1, 6):
        for mu in partitions(n):
            up = pieri_up(SchurExpansion.single(mu))
            for nu in partitions(n + 1):
                down = pieri_down(SchurExpansion.single(nu))
                assert up.as_dict().get(nu, 0) == down.as_dict().get(mu, 0)


def test_pieri_down_counts_corner_removals():
    e = pieri_down(SchurExpansion.single((3, 3, 1)))
    assert e == SchurExpansion.from_dict(6, {(3, 2, 1): 1, (3, 3): 1})


# ---------------------------------------------------------------------------
# Descent-count table
# ---------------------------------------------------------------------------


def syt_tally(shape):
    """Descent generating function of a shape's enumerated tableaux."""
    v = [0] * (1 << max(shape.size() - 1, 0))
    for t in enumerate_syt(shape):
        v[syt_des(t).mask] += 1
    return v


def ssyt_count(mu, content):
    """Semistandard fillings of the straight shape ``mu`` with ``content[i]``
    copies of ``i``, by trying every arrangement in reading order."""
    letters = [i for i, c in enumerate(content) for _ in range(c)]
    count = 0
    for filling in set(itertools.permutations(letters)):
        starts = [sum(mu[:r]) for r in range(len(mu))]
        rows = [filling[s : s + length] for s, length in zip(starts, mu)]
        count += all(
            list(row) == sorted(row) for row in rows
        ) and all(
            upper[c] < lower[c] for upper, lower in zip(rows, rows[1:]) for c in range(len(lower))
        )
    return count


def test_partition_block_is_unitriangular_below_the_kostka_numbers():
    # Entry [lam, mu]: tableaux of shape lam with descent set exactly the
    # partial sums of mu, among the K[lam][mu] standardized SSYT of content mu.
    for n in range(15):
        parts = partitions(n)
        block = descent_count_table(n).matrix[:, [composition_boundary_mask(mu) for mu in parts]]
        assert block.dtype.kind == "i"
        assert (np.diag(block) == 1).all() and not np.tril(block, -1).any(), n
        if n <= 6:
            kostka = np.array([[ssyt_count(lam, mu) for mu in parts] for lam in parts])
            assert (block <= kostka).all(), n


def test_partition_block_inverse_is_the_inverse(monkeypatch):
    for n in range(13):
        table = descent_count_table(n)
        inverse = table.partition_block_inverse
        block = table.matrix[:, [composition_boundary_mask(mu) for mu in partitions(n)]]
        assert inverse.dtype == np.int64
        assert (block @ inverse == np.identity(len(inverse), np.int64)).all(), n
    # Python ints from the first product whose bound reaches 50 on.
    monkeypatch.setattr(qsym, "_mult_dtype", lambda total: np.int64 if total < 50 else object)
    table = descent_count_table(9)
    promoted = qsym.DescentCountTable(9, table.matrix).partition_block_inverse
    assert promoted.dtype == object
    assert promoted.tolist() == table.partition_block_inverse.tolist()


def test_schur_expand_reads_monomials_only_for_a_witness(monkeypatch):
    symmetric = qsym_of(itertools.permutations(range(1, 5)))
    skewed = qsym_of([(2, 1, 3)])
    witness = schur_expand(skewed)

    def refuse(q):
        raise AssertionError("monomial coefficients of a symmetric vector")

    monkeypatch.setattr(qsym, "_monomials", refuse)
    assert schur_expand(symmetric).serialize() == "s[4] + 3*s[3,1] + 2*s[2,2] + 3*s[2,1,1] + s[1,1,1,1]"
    with pytest.raises(AssertionError, match="monomial coefficients"):
        schur_expand(skewed)
    monkeypatch.undo()
    assert schur_expand(skewed) == witness
    assert witness.serialize() == (
        "NotSymmetric(n=3; monomial coefficient at {1} is 1 but at {2} is 0)"
    )


@pytest.mark.parametrize("big", [-(2**62), 2**62])
def test_exact_matmul_promotes_on_the_larger_side_of_zero(big):
    rows = np.array([[big, 1]], np.int64)
    matrix = np.array([[3], [-1]], np.int64)
    out = qsym._exact_matmul(rows, matrix)
    assert out.dtype == object
    assert out.tolist() == [[3 * big - 1]]
    small = qsym._exact_matmul(np.array([[-5, 2]]), matrix)
    assert small.dtype == np.int64 and small.tolist() == [[-17]]


def test_exact_matmul_on_object_operands():
    rows = np.array([[-(2**70), 1]], object)
    matrix = np.array([[2], [-3]], np.int64)
    out = qsym._exact_matmul(rows, matrix)
    assert out.dtype == object
    assert out.tolist() == [[-(2**71) - 3]]
    small = qsym._exact_matmul(np.array([[4, -1]], object), matrix)
    assert small.tolist() == [[11]]


def test_descent_count_table_matches_tableau_enumeration():
    for n in range(0, 9):
        matrix = descent_count_table(n).matrix
        assert matrix.shape == (len(partitions(n)), 1 << max(n - 1, 0))
        for mu, row in zip(partitions(n), matrix.tolist()):
            brute = syt_tally(straight_shape(mu))
            assert row == brute
            assert list(skew_schur_f_vector(straight_shape(mu)).coeffs) == brute
    shapes = [
        SkewShape((), ()),
        SkewShape((3, 2, 1), (2, 2)),  # a fully inner row below the top
        SkewShape((3, 2), (1,)),
        SkewShape((4, 4, 2), (3, 1)),
        SkewShape((5, 4, 1), (4, 1)),
        SkewShape((3, 3, 3), (2, 1)),
        SkewShape((6, 1), (1,)),
    ]
    for n in range(1, 9):
        for d in all_dessets(n):
            shapes.append(ribbon_shape(n, d))
            if all(i <= n - 2 for i in d.members):
                shapes.append(strip_chain_shape(n, d))
    for shape in shapes:
        assert list(skew_schur_f_vector(shape).coeffs) == syt_tally(shape), shape


def hook_length_count(mu):
    """f^mu, the number of standard tableaux of shape ``mu``, by the
    hook-length formula."""
    hooks = 1
    for i, part in enumerate(mu):
        for c in range(part):
            leg = sum(1 for below in mu[i + 1 :] if below > c)
            hooks *= part - c + leg
    return math.factorial(sum(mu)) // hooks


def descent_class_sizes(n):
    """beta_n(D) for every mask D, the number of permutations of ``n`` with
    descent set D: the multinomial of the composition of each subset T (the
    permutations with descents inside T), inverted over subsets,
    beta_n(D) = sum over T in D of (-1)^|D - T| times that multinomial
    (Stanley, EC1 section 1.4)."""
    sizes = []
    for mask in range(1 << max(n - 1, 0)):
        cuts = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1] + [n]
        count = math.factorial(n)
        for a, b in zip(cuts, cuts[1:]):
            count //= math.factorial(b - a)
        sizes.append(count)
    for bit in range(n - 1):
        for mask in range(len(sizes)):
            if mask >> bit & 1:
                sizes[mask] -= sizes[mask ^ (1 << bit)]
    return sizes


def table_identity_faults(n, matrix):
    """The identities a degree-``n`` descent-count matrix breaks: each row
    sums to f^mu, and the rows weighted by f^mu sum to beta_n (RSK)."""
    dims = [hook_length_count(mu) for mu in partitions(n)]
    faults = []
    if matrix.sum(axis=1).tolist() != dims:
        faults.append("row sums")
    if (np.array(dims, np.int64) @ matrix).tolist() != descent_class_sizes(n):
        faults.append("descent classes")
    return faults


def test_descent_count_table_beyond_tableau_tally():
    for n in range(9, 13):
        matrix = descent_count_table(n).matrix
        assert matrix.dtype == np.int64
        assert table_identity_faults(n, matrix) == []
    planted = descent_count_table(12).matrix.copy()
    planted[3, 100] += 1
    assert table_identity_faults(12, planted) == ["row sums", "descent classes"]


@pytest.mark.parametrize("n, dtype", [(20, np.int64), (21, object)])
def test_placement_walk_dtype_boundary(n, dtype):
    # A tableau of the hook (n - 3, 1, 1, 1) is fixed by the three entries
    # below its corner, and s - 1 is a descent exactly when s is one of
    # them: the F-vector is 1 at every mask with three bits, 0 elsewhere.
    hook = (n - 3, 1, 1, 1)
    index, counts, _ = qsym._placements((), n, hook)
    row = counts[index[hook]]
    assert row.dtype == dtype
    masks = np.arange(1 << (n - 1))
    bits = sum(masks >> i & 1 for i in range(n - 1))
    assert np.array_equal(row.astype(np.int64), (bits == 3).astype(np.int64))


def test_descent_count_table_is_built_without_a_second_table(monkeypatch):
    # The last step composes its moves with those into the level before, which
    # is never built, and the last count matrix is the table, so the traced
    # peak of a build stays well below two tables (holding that level and
    # copying the table took 2.09 tables at n=12).
    monkeypatch.setattr(qsym, "_table_memory", {})
    tracemalloc.start()
    try:
        matrix = descent_count_table(12).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * matrix.nbytes


def test_descent_count_table_logs_builds_and_hits(monkeypatch, caplog):
    monkeypatch.setattr(qsym, "_table_memory", {})
    caplog.set_level(logging.DEBUG, logger="schurgrid")
    descent_count_table(6)
    descent_count_table(6)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert messages[0].startswith("descent table n=6: built, 12 states at the widest level, ")
    assert messages[0].endswith(" ms")
    assert messages[1] == "descent table n=6: memory hit"


def plant_table_file(path, n, counts):
    """Write ``counts`` in the checksummed ``dtable_<n>.json`` layout that
    earlier versions kept under ``SCHURGRID_CACHE_DIR`` and loaded."""
    entries = [
        {"lambda": list(mu), "D": list(DescSet(n, mask).members), "count": c}
        for mu in partitions(n)
        for mask, c in enumerate(counts[mu])
        if c
    ]
    canonical = json.dumps(entries, separators=(",", ":"), sort_keys=True)
    checksum = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps({"n": n, "entries": entries, "checksum": checksum}))


def test_planted_table_files_are_ignored(tmp_path, monkeypatch):
    # Two wrong tables with valid checksums: the (3,1) and (2,2) columns
    # swapped (the S_4 expansion would read 2*s[3,1] + 3*s[2,2]), and one
    # entry raised off the partition block, which leaves it unchanged.  Tables
    # are built in memory only, so neither file is read and none is written.
    monkeypatch.setenv("SCHURGRID_CACHE_DIR", str(tmp_path / "planted"))
    cache = cache_dir()
    assert cache == tmp_path / "planted"
    monkeypatch.setattr(qsym, "_table_memory", {})
    good = dict(zip(partitions(4), descent_count_table(4).matrix.tolist()))
    assert not cache.exists()

    swapped = dict(good)
    swapped[(3, 1)], swapped[(2, 2)] = good[(2, 2)], good[(3, 1)]
    raised = dict(good)
    bumped = list(good[(4,)])
    bumped[DescSet.of(4, [1]).mask] += 1
    raised[(4,)] = tuple(bumped)

    cache.mkdir(parents=True)
    path = cache / "dtable_4.json"
    for counts in (swapped, raised):
        plant_table_file(path, 4, counts)
        planted = path.read_bytes()
        monkeypatch.setattr(qsym, "_table_memory", {})
        e = schur_expand(qsym_of(itertools.permutations(range(1, 5))))
        assert e.serialize() == "s[4] + 3*s[3,1] + 2*s[2,2] + 3*s[2,1,1] + s[1,1,1,1]"
        assert dict(zip(partitions(4), descent_count_table(4).matrix.tolist())) == good
        assert list(cache.iterdir()) == [path]
        assert path.read_bytes() == planted
