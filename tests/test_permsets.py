"""Multisets of permutations: products, classical families, fine sets.

The major dual-route check (folded product vector versus materialized
product multiset) is property-tested here; named-family identities are
frozen from independent counting formulas.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurgrid import permsets, qsym
from schurgrid.characters import (
    char_from_signed_formula,
    class_size,
    signed_char_vector,
)
from schurgrid.grids import GridResourceError
from schurgrid.permutations import (
    DescSet,
    cdes_count,
    des_mask,
    des_set,
    inverse,
    parse_perm,
)
from schurgrid.qsym import (
    NotSymmetric,
    SchurExpansion,
    is_schur_positive,
    qsym_of,
    schur_expand,
)
from schurgrid.permsets import (
    PermMultiset,
    PermSet,
    arc_class,
    as_multiset,
    cdes_inverse_class,
    colayered_class,
    conjugacy_class,
    cycle_type,
    cyclic_class,
    descent_class,
    embed,
    fine_battery,
    inv_descent_class,
    inv_weak_descent_class,
    inversion_ball,
    inversion_sphere,
    invert_collection,
    j_class,
    k_class,
    knuth_class,
    left_unimodal_class,
    multiset_product,
    plus_class,
    product_qsym,
    product_qsym_grid,
    set_product,
    symmetric_group,
    weak_descent_class,
    zigzag_class,
)
from schurgrid.tableaux import enumerate_syt, insertion_tableau, partitions, straight_shape


def all_dessets(n):
    for r in range(n):
        for members in itertools.combinations(range(1, n), r):
            yield DescSet.of(n, members)


def multisets_of(n):
    return st.dictionaries(
        st.permutations(tuple(range(1, n + 1))).map(tuple),
        st.sampled_from((1, 2, 3, 2**40)),
        max_size=4,
    ).map(lambda d: as_multiset(d, n))


multiset_pairs = st.integers(0, 4).flatmap(
    lambda n: st.tuples(multisets_of(n), multisets_of(n))
)


def reference_product(a, b):
    """The multiset product by one pure-Python composition per pair."""
    out = {}
    for x, mx in a.elems:
        for y, my in b.elems:
            w = tuple(x[v - 1] for v in y)
            out[w] = out.get(w, 0) + mx * my
    return as_multiset(out, a.n)


# ---------------------------------------------------------------------------
# Container behavior
# ---------------------------------------------------------------------------


def test_multiset_construction_and_counting():
    m = as_multiset([(1, 2, 3), (2, 1, 3), (1, 2, 3)])
    assert m.total_size() == 3
    assert m.support_size() == 2
    assert m[(1, 2, 3)] == 2
    assert not m.is_set()
    assert as_multiset(m) is m
    assert as_multiset({(2, 1): 4})[(2, 1)] == 4
    with pytest.raises(ValueError):
        PermMultiset(3, (((1, 2), 1),))
    with pytest.raises(ValueError):
        as_multiset({(1, 2): -1}, 2)


def test_multiset_sum_and_scale():
    a = as_multiset([(1, 2)])
    b = as_multiset([(2, 1), (1, 2)])
    total = a + b
    assert total[(1, 2)] == 2
    assert a.scale(3).total_size() == 3
    assert (a + b).qsym() == a.qsym() + b.qsym()


def test_empty_multiset_needs_degree():
    with pytest.raises(ValueError):
        as_multiset([])
    assert as_multiset([], 4).total_size() == 0


def assert_canonical(m):
    """The representation's invariants: distinct sorted rows, the
    multiplicity dtype their total asks for, and value equality."""
    rows = [tuple(r) for r in m.words.tolist()]
    assert rows == sorted(set(rows))
    assert m.words.shape == (len(rows), m.n)
    total = sum(m.mults.tolist())
    assert all(c > 0 for c in m.mults.tolist())
    assert m.mults.dtype == (np.int64 if total < 2**63 else object)
    assert m.elems == tuple(zip(rows, m.mults.tolist()))
    rebuilt = as_multiset(dict(m.elems), m.n)
    assert rebuilt == m and hash(rebuilt) == hash(m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.dictionaries(
                st.permutations(tuple(range(1, n + 1))).map(tuple),
                st.sampled_from((1, 2, 3, 2**40)),
                max_size=5,
            ),
            st.dictionaries(
                st.permutations(tuple(range(1, n + 1))).map(tuple),
                st.sampled_from((1, 7, 2**40)),
                max_size=5,
            ),
            st.sampled_from((1, 3, 2**30)),
            st.integers(0, 2),
        )
    )
)
@example((0, {}, {}, 3, 1))
@example((0, {(): 2**40}, {(): 2**40}, 2**30, 2))
@example((3, {}, {(2, 3, 1): 5}, 1, 0))
@example((2, {(1, 2): 2**40, (2, 1): 2**40}, {(2, 1): 2**40}, 2**30, 1))
def test_multiset_representation_invariants(case):
    n, data, other_data, k, lift = case
    m = PermMultiset(n, data.items())
    other = as_multiset(other_data, n)
    assert m.elems == tuple(sorted(data.items()))
    assert m == as_multiset(data, n)
    assert hash(m) == hash(as_multiset(data, n))
    assert (m == other) == (data == other_data)
    total = {w: data.get(w, 0) + other_data.get(w, 0) for w in data | other_data}
    cases = {
        "m": (m, data),
        "scale": (m.scale(k), {w: k * c for w, c in data.items()}),
        "add": (m + other, total),
        "embed": (
            embed(m, n + lift),
            {w + tuple(range(n + 1, n + lift + 1)): c for w, c in data.items()},
        ),
        "invert": (invert_collection(m), {inverse(w): c for w, c in data.items()}),
        "product": (multiset_product(m, other), reference_product(m, other).elems),
    }
    for name, (got, expected) in cases.items():
        assert_canonical(got)
        expected = dict(expected)
        assert got.elems == tuple(sorted(expected.items())), name
        assert got == as_multiset(expected, got.n), name


def test_products_never_reread_array_backed_inputs(monkeypatch):
    a = as_multiset(symmetric_group(4)).scale(2**40)
    b = as_multiset(inversion_ball(4, 2))
    small = as_multiset([(2, 1, 3)])

    def refuse(*_args, **_kwargs):
        raise AssertionError("collection re-read")

    # as_multiset returns a PermMultiset as it is and builds every other
    # collection through PermMultiset.__init__.
    monkeypatch.setattr(PermMultiset, "__init__", refuse)
    monkeypatch.setattr(PermMultiset, "elems", property(refuse))
    assert product_qsym(a, b).n == 4
    assert product_qsym_grid([a, b], [b]).shape == (2, 1, 8)
    assert multiset_product(a, b).total_size() == a.total_size() * b.total_size()
    assert set_product(b, a) == frozenset(symmetric_group(4))
    assert embed(small, 5).support_size() == 1
    assert invert_collection(small).support() == {(2, 1, 3)}
    assert a.qsym().n == 4


# ---------------------------------------------------------------------------
# Readers accept a PermMultiset, its counts taken as given
# ---------------------------------------------------------------------------

READER_DATA = {(2, 1, 3): 3, (1, 2, 3): 2, (3, 1, 2): 5}


def test_as_multiset_reads_a_multiset():
    m = as_multiset(READER_DATA, 3)
    assert dict(m) == READER_DATA
    assert as_multiset(m) is m
    assert as_multiset(m, 3) is m
    with pytest.raises(ValueError, match="degree mismatch"):
        as_multiset(m, 4)


def test_as_multiset_checks_the_degree_of_every_form():
    forms = (cyclic_class(3), as_multiset([], 3), [(1, 2, 3)], {(1, 2, 3): 2})
    for form in forms:
        assert as_multiset(form, 3).n == 3
        for reader in (as_multiset, qsym_of):
            with pytest.raises(ValueError, match="degree mismatch"):
                reader(form, 4)
    with pytest.raises(ValueError, match="mixed degrees"):
        as_multiset([(1, 2), (1, 2, 3)])
    assert as_multiset({(2, 1): 0, (1, 2): 3}) == as_multiset({(1, 2): 3})


def test_qsym_of_reads_a_multiset():
    m = as_multiset(READER_DATA, 3)
    assert qsym_of(m) == qsym_of(READER_DATA) == m.qsym()


def test_signed_char_vector_reads_a_multiset():
    m = as_multiset(READER_DATA, 3)
    assert signed_char_vector(m) == signed_char_vector(READER_DATA)


def test_char_from_signed_formula_reads_a_multiset():
    m = as_multiset(READER_DATA, 3)
    for mu in ((3,), (2, 1), (1, 1, 1)):
        assert char_from_signed_formula(m, mu) == char_from_signed_formula(
            READER_DATA, mu
        )


def test_readers_take_the_degree_of_an_empty_multiset():
    empty = as_multiset([], 3)
    assert as_multiset(empty).n == 3
    assert qsym_of(empty) == empty.qsym() == qsym.QSym.zero(3)
    assert signed_char_vector(empty) == signed_char_vector([], 3)
    assert char_from_signed_formula(empty, (2, 1)) == 0
    for reader in (qsym_of, signed_char_vector):
        with pytest.raises(ValueError, match="degree mismatch"):
            reader(empty, 4)
    with pytest.raises(ValueError, match="degree mismatch"):
        char_from_signed_formula(empty, (2, 1), 4)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def test_product_convention_applies_right_factor_first():
    a = as_multiset([parse_perm("4532617")])
    b = as_multiset([parse_perm("4176235")])
    prod = multiset_product(a, b)
    assert prod.support() == {parse_perm("2471536")}


def test_multiset_product_total_size_multiplies():
    a = as_multiset([(1, 2, 3), (2, 1, 3)]).scale(2)
    b = as_multiset([(3, 2, 1), (2, 1, 3), (1, 2, 3)])
    prod = multiset_product(a, b)
    assert prod.total_size() == a.total_size() * b.total_size()
    assert set_product(a, b) == prod.support()


HUGE = as_multiset({(1, 2): 2**62, (2, 1): 3}, 2)


@settings(max_examples=80, deadline=None)
@given(multiset_pairs, st.sampled_from((None, 2, 12)))
@example((as_multiset([()]).scale(3), as_multiset([()]).scale(5)), None)
@example((as_multiset([], 3), as_multiset(symmetric_group(3))), None)
@example((as_multiset(symmetric_group(3)), as_multiset([], 3)), None)
@example((as_multiset({(1, 2): 10**12, (2, 1): 1}, 2),) * 2, None)
@example((as_multiset({(2, 1): 2**64}, 2), as_multiset([], 2)), None)
@example((as_multiset({(2, 1): 2**64}, 2), as_multiset([], 2)), 2)
@example((as_multiset([], 2), as_multiset({(2, 1): 2**64}, 2)), 2)
@example((HUGE, HUGE.scale(5)), 2)
@example((as_multiset(inversion_ball(4, 1)).scale(3), as_multiset(inversion_sphere(4, 2))), 12)
def test_product_qsym_equals_materialized_product(pair, block):
    """Both products and the folded vector equal the pure-Python product's,
    with ``block`` (when given) patched in as the block size, so that the
    composition walk splits both sides."""
    a, b = pair
    expected = reference_product(a, b)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(permsets, "_BLOCK", block)
        assert multiset_product(a, b) == expected
        assert set_product(a, b) == expected.support()
        assert product_qsym(a, b) == expected.qsym()
    assert product_qsym(a, b) == multiset_product(a, b).qsym()


def _grid_case(n):
    return st.tuples(
        st.lists(multisets_of(n), max_size=3), st.lists(multisets_of(n), max_size=3)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(_grid_case), st.sampled_from((None, 32 * 3, 32 * 7)))
@example(([HUGE, HUGE], [HUGE.scale(5)]), None)
@example(([as_multiset([], 3), as_multiset(symmetric_group(3))], [as_multiset([], 3)]), None)
@example(([as_multiset([], 2)], []), None)
@example(([as_multiset({(2, 1): 2**64}, 2)], [as_multiset([], 2)]), None)
@example(
    (
        [symmetric_group(4), as_multiset([], 4), inversion_ball(4, 2)],
        [as_multiset(inversion_sphere(4, 3)).scale(7), symmetric_group(4)],
    ),
    32 * 3,
)
@example(
    (
        [inversion_sphere(4, 2), inversion_ball(4, 1), as_multiset([(2, 1, 4, 3)]).scale(3)],
        [inversion_sphere(4, 1), as_multiset([(4, 3, 2, 1), (1, 2, 3, 4)]).scale(2)],
    ),
    32 * 7,
)
def test_product_qsym_grid_matches_reference(case, block):
    """Every cell equals the pure-Python product's vector, with ``block``
    (when given) patched in as the block size, so that both sides split
    into blocks of several rows: ``32 * 7`` takes seven compositions a
    block, so the last example's ten left rows span two blocks, the first
    crossing a member boundary, and its five right rows end in a partial
    block of one."""
    lefts, rights = ([as_multiset(x) for x in side] for side in case)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(permsets, "_BLOCK", block)
        grid = product_qsym_grid(lefts, rights)
    n = next((m.n for m in lefts + rights), 0)
    assert grid.shape == (len(lefts), len(rights), 1 << max(n - 1, 0))
    total = sum(a.total_size() for a in lefts) * sum(b.total_size() for b in rights)
    assert grid.dtype == (np.int32 if total < 2**31 else np.int64 if total < 2**63 else object)
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            assert tuple(grid[i, j].tolist()) == reference_product(a, b).qsym().coeffs


def test_product_qsym_grid_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="degree mismatch"):
        product_qsym_grid([as_multiset([(1, 2)])], [as_multiset([(1, 2, 3)])])
    with pytest.raises(ValueError, match="degree mismatch"):
        product_qsym_grid([as_multiset([(1, 2)]), as_multiset([(1,)])], [])


def test_product_qsym_grid_logs_its_work(caplog):
    caplog.set_level(logging.DEBUG, logger="schurgrid")
    product_qsym_grid([symmetric_group(3), cyclic_class(3)], [symmetric_group(3)])
    assert [r.getMessage() for r in caplog.records] == [
        "product_qsym_grid 2 x 1: 54 compositions in 1 blocks"
    ]


@pytest.mark.parametrize("left_rows, blocks", [(5, 8), (12, 18), (28, 42)])
def test_product_qsym_grid_blocks_hold_about_a_block_of_pairs(
    monkeypatch, caplog, left_rows, blocks
):
    """At 16 compositions a block, against 24 right rows: 5 left rows are one
    slice with 3 right rows a block, as before; 12 or 28 left rows are cut in
    slices of 8 with 2 right rows a block (and a last slice of 4 with 4), where
    a slice of 12 left rows used to take one right row a block (24 and 48
    blocks)."""
    words = list(itertools.permutations(range(1, 6)))
    lefts, rights = [as_multiset(words[:left_rows])], [as_multiset(words[:24])]
    expected = product_qsym_grid(lefts, rights)
    monkeypatch.setattr(permsets, "_BLOCK", 32 * 16)
    caplog.set_level(logging.DEBUG, logger="schurgrid")
    assert np.array_equal(product_qsym_grid(lefts, rights), expected)
    assert [r.getMessage() for r in caplog.records] == [
        f"product_qsym_grid 1 x 1: {24 * left_rows} compositions in {blocks} blocks"
    ]


def test_product_qsym_edge_cases():
    empty = as_multiset([], 3)
    full = as_multiset(symmetric_group(3))
    assert not any(product_qsym(empty, full).coeffs)
    assert not any(product_qsym(full, empty).coeffs)
    unit = as_multiset([()], 0)
    assert product_qsym(unit.scale(3), unit.scale(5)).coeffs == (15,)


@pytest.mark.parametrize("total, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_product_qsym_grid_accumulates_in_int32_below_2_31(total, dtype):
    """Multiplicities straddling the boundary: the fold's dtype follows
    ``total(lefts) * total(rights)`` and every entry equals a fold in Python
    ints (2**31 - 1 is prime, so the left side has total 1)."""
    lefts = [as_multiset({(2, 1, 3): 1}, 3), as_multiset([], 3)]
    big = total - 3
    rights = [as_multiset({(1, 3, 2): big, (3, 2, 1): 1}, 3), as_multiset({(2, 3, 1): 2}, 3)]
    grid = product_qsym_grid(lefts, rights)
    assert grid.dtype == dtype
    for i, a in enumerate(lefts):
        for j, b in enumerate(rights):
            fold = [0] * 4
            for x, mx in a.elems:
                for y, my in b.elems:
                    fold[des_mask(tuple(x[v - 1] for v in y))] += mx * my
            assert grid[i, j].tolist() == fold
    assert grid.sum(dtype=object) == total


def test_product_with_huge_multiplicities_is_exact():
    big = 10**12
    a = as_multiset({(1, 2): big}, 2)
    q = product_qsym(a, a)
    assert q.coeffs[DescSet.of(2, []).mask] == big * big


def test_rotations_of_embedded_sets_are_sets():
    # Composing the degree-n vertical rotations with any embedded set of
    # degree n-1 permutations never repeats an element.
    import random

    rng = random.Random(7)
    for n in (4, 5, 6):
        pool = sorted(symmetric_group(n - 1))
        for _ in range(5):
            sample = rng.sample(pool, k=min(8, len(pool)))
            prod = multiset_product(embed(as_multiset(sample), n), cyclic_class(n))
            assert prod.is_set()
            assert prod.support_size() == len(sample) * n


# ---------------------------------------------------------------------------
# Embedding and inversion
# ---------------------------------------------------------------------------


def test_embed_word_appends_fixed_points():
    assert embed(as_multiset([(2, 1)]), 4).support() == {(2, 1, 3, 4)}
    assert embed(as_multiset([(2, 1)]), 2).support() == {(2, 1)}
    with pytest.raises(ValueError):
        embed(as_multiset([(2, 1)]), 1)


def test_embed_multiset():
    m = embed(as_multiset([(2, 1), (1, 2)]), 4)
    assert m.n == 4
    assert m.support() == {(2, 1, 3, 4), (1, 2, 3, 4)}


def test_invert_collection():
    m = as_multiset({(2, 3, 1): 2})
    assert invert_collection(m).elems == (((3, 1, 2), 2),)
    for w in symmetric_group(4):
        assert invert_collection(as_multiset([w])).support() == {inverse(w)}


def test_cycle_type():
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((2, 1, 4, 3)) == (2, 2)


# ---------------------------------------------------------------------------
# Classical families: cardinalities and membership
# ---------------------------------------------------------------------------


def test_descent_classes_match_brute_force():
    for n in range(1, 7):
        words = list(itertools.permutations(range(1, n + 1)))
        for d in all_dessets(n):
            members = set(d.members)
            exact = {w for w in words if set(des_set(w).members) == members}
            weak = {w for w in words if set(des_set(w).members) <= members}
            assert descent_class(n, d) == exact
            assert weak_descent_class(n, d) == weak
            assert inv_descent_class(n, d) == {inverse(w) for w in exact}
            assert inv_weak_descent_class(n, d) == {inverse(w) for w in weak}


def test_cyclic_class():
    assert cyclic_class(4) == {
        (1, 2, 3, 4),
        (2, 3, 4, 1),
        (3, 4, 1, 2),
        (4, 1, 2, 3),
    }
    for n in range(1, 8):
        assert len(cyclic_class(n)) == n


def test_family_cardinalities():
    for n in range(2, 8):
        assert len(left_unimodal_class(n)) == 2 ** (n - 1)
        assert len(plus_class(n, 2)) == 2**n - n
        assert len(j_class(n)) == len(k_class(n)) == (n - 2) * 2 ** (n - 1) + 2
    assert len(arc_class(4)) == 16
    for k in range(1, 5):
        assert len(colayered_class(5, k)) == sum(
            math.comb(4, j) for j in range(k)
        )


def test_inversion_spheres_are_mahonian():
    for n in range(1, 7):
        # Coefficients of prod_{i=1}^{n-1} (1 + q + ... + q^i).
        poly = [1]
        for i in range(1, n):
            new = [0] * (len(poly) + i)
            for a, c in enumerate(poly):
                for b in range(i + 1):
                    new[a + b] += c
            poly = new
        for k, expected in enumerate(poly):
            assert len(inversion_sphere(n, k)) == expected
        assert len(inversion_ball(n, 2)) == sum(poly[: min(3, len(poly))])


def test_cdes_inverse_classes_partition_sn():
    for n in range(2, 7):
        total = 0
        for k in range(1, n):
            cls = cdes_inverse_class(n, k)
            assert all(cdes_count(inverse(w)) == k for w in cls)
            total += len(cls)
        assert total == math.factorial(n)
        assert zigzag_class(n, 2) == cdes_inverse_class(n, 1) | cdes_inverse_class(
            n, 2
        )


def test_conjugacy_classes():
    for n in range(1, 6):
        for rho in {cycle_type(w) for w in symmetric_group(n)}:
            cls = conjugacy_class(n, rho)
            assert len(cls) == class_size(rho)
            assert all(cycle_type(w) == rho for w in cls)
    with pytest.raises(ValueError):
        conjugacy_class(3, (2, 2))


def test_knuth_class_frozen():
    assert knuth_class(parse_perm("2143")) == {(2, 1, 4, 3), (2, 4, 1, 3)}


def test_zigzag_base_case_is_cyclic():
    for n in range(1, 7):
        assert zigzag_class(n, 1) == cyclic_class(n)


# ---------------------------------------------------------------------------
# Fine sets and counterexamples
# ---------------------------------------------------------------------------


def fineness(q):
    e = schur_expand(q)
    if isinstance(e, NotSymmetric):
        return "not symmetric"
    return "fine" if is_schur_positive(e) else "symmetric, not positive"


def test_battery_members_are_fine():
    for n in range(2, 6):
        battery = fine_battery(n)
        assert len({name for name, _ in battery}) == len(battery)
        for name, cls in battery:
            assert fineness(qsym_of(cls, n)) == "fine", name


def test_knuth_battery_family_groups_s_n_by_insertion_tableau():
    # Names, order and word matrices of the Knuth family: S_n grouped by
    # insertion tableau, the tableaux in enumerate_syt order, each class
    # named by its least word.
    for n in range(8):
        classes: dict = {}
        for w in itertools.permutations(range(1, n + 1)):
            classes.setdefault(insertion_tableau(w), []).append(w)
        expected = [
            classes[t] for mu in partitions(n) for t in enumerate_syt(straight_shape(mu))
        ]
        family = permsets._battery_family(n, "knuth")
        assert [name for name, _ in family] == [
            f"knuth[{''.join(map(str, words[0]))}]" for words in expected
        ]
        for (_, cls), words in zip(family, expected):
            assert type(cls) is PermSet
            assert cls.words.dtype == symmetric_group(n).words.dtype
            assert cls.words.tolist() == [list(w) for w in words]


def assert_strictly_increasing(cls):
    rows = [tuple(r) for r in cls.words.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))


def test_inverse_descent_classes_are_the_single_class_routes():
    # Every class of a degree is a level set of one stable sort of S_n; it
    # must equal, word matrix and all, the class built from block labels.
    for n in range(1, 8):
        classes = permsets.inv_descent_classes(n)
        weak = list(permsets.inv_weak_descent_classes(n))
        assert len(classes) == len(weak) == 1 << (n - 1)
        assert sum(len(c) for c in classes) == math.factorial(n)
        for mask, (exact, rclass) in enumerate(zip(classes, weak)):
            d = DescSet(n, mask)
            assert exact == inv_descent_class(n, d)
            assert rclass == inv_weak_descent_class(n, d)
            assert exact.words.dtype == rclass.words.dtype == symmetric_group(n).words.dtype
            assert_strictly_increasing(exact)
            assert_strictly_increasing(rclass)


def inversions(w):
    return sum(a > b for a, b in itertools.combinations(w, 2))


def test_conj_and_invfix_families_are_level_sets():
    for n in range(1, 8):
        words = list(itertools.permutations(range(1, n + 1)))
        conj = permsets._battery_family(n, "conj")
        assert [name for name, _ in conj] == [
            "conj[" + ",".join(map(str, rho)) + "]" for rho in partitions(n)
        ]
        for rho, (_, cls) in zip(partitions(n), conj):
            assert cls == conjugacy_class(n, rho)
            assert cls == {w for w in words if cycle_type(w) == rho}
            assert_strictly_increasing(cls)
        invfix = permsets._battery_family(n, "invfix")
        assert len(invfix) == n * (n - 1) // 2 + 1
        for k, (name, cls) in enumerate(invfix):
            assert name == f"invfix[{k}]"
            assert cls == inversion_sphere(n, k)
            assert cls == {w for w in words if inversions(w) == k}
            assert_strictly_increasing(cls)
    # Parts 0 are dropped; a cycle type that is no partition has no words.
    assert conjugacy_class(3, (0, 3)) == conjugacy_class(3, (3,))
    assert conjugacy_class(3, (4, -1)) == set()


def test_level_set_passes_refuse_s_n_before_allocating(monkeypatch):
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "10")

    def allocated(*args):
        raise AssertionError("S_n statistic computed over budget")

    for name in ("_inverses", "_cycle_type_levels", "_inversion_counts"):
        monkeypatch.setattr(permsets, name, allocated)
    def refused():
        return pytest.raises(GridResourceError, match="S_4 needs 96 letters")

    with refused():
        permsets.inv_descent_classes(4)
    with refused():
        next(permsets.inv_weak_descent_classes(4))
    with refused():
        conjugacy_class(4, (2, 2))
    with refused():
        inversion_sphere(4, 2)
    for fam in ("conj", "invfix", "Dinv"):
        with refused():
            permsets._battery_family(4, fam)


def test_inverses_match_the_argsort_reference():
    rng = np.random.default_rng(7)
    big = np.array([rng.permutation(300) + 1 for _ in range(5)]).astype(">u2")
    cases = [permsets._symmetric_words(n) for n in range(0, 7)]
    cases += [big, np.empty((0, 5), np.uint8), np.empty((0, 0), np.uint8)]
    for words in cases:
        inv = permsets._inverses(words)
        assert inv.dtype == words.dtype
        assert np.array_equal(inv, (np.argsort(words, axis=1) + 1).astype(words.dtype))
    assert permsets._inverses(np.array([[1]], np.uint8)).tolist() == [[1]]


def test_inverse_descent_class_products_are_fine():
    for n in range(2, 6):
        classes = [inv_descent_class(n, d) for d in all_dessets(n)]
        for a in classes:
            for b in classes:
                q = product_qsym(as_multiset(a, n), as_multiset(b, n))
                assert fineness(q) == "fine"


def test_symmetric_but_not_positive_product():
    a = as_multiset([parse_perm(s) for s in ("2134", "3412", "1243")])
    b = as_multiset([parse_perm(s) for s in ("2143", "3412")])
    e = schur_expand(product_qsym(a, b))
    assert isinstance(e, SchurExpansion)
    assert not is_schur_positive(e)
    assert e.serialize() == "s[4] + s[3,1] + -s[2,2] + s[2,1,1] + s[1,1,1,1]"


def test_inversion_ball_products_compose_lengths():
    for n, k, r in ((4, 1, 1), (4, 1, 2), (5, 1, 2), (5, 2, 2)):
        prod = set_product(
            as_multiset(inversion_ball(n, k)), as_multiset(inversion_ball(n, r))
        )
        assert prod == inversion_ball(n, k + r)


def test_inversion_ball_squares_recorded_verdicts():
    # Open verdicts, recorded exactly: the multiset squares of small
    # inversion balls fail symmetry.
    b = as_multiset(inversion_ball(5, 2))
    e = schur_expand(product_qsym(b, b))
    assert isinstance(e, NotSymmetric)
    assert e.serialize() == (
        "NotSymmetric(n=5; monomial coefficient at {1,3} is 81 but at {2,3} is 80)"
    )
    b4 = as_multiset(inversion_ball(4, 1))
    e4 = schur_expand(product_qsym(b4, b4))
    assert isinstance(e4, NotSymmetric)
    assert e4.serialize() == (
        "NotSymmetric(n=4; monomial coefficient at {1,2} is 11 but at {1,3} is 12)"
    )


def test_set_product_of_knuth_class_with_itself_is_fine():
    # The square of a five-element plactic class: known product expansion
    # equal to the internal product of its shape with itself.
    words = [parse_perm(s) for s in ("21435", "21453", "24135", "24153", "24513")]
    cls = knuth_class(words[0])
    assert cls == frozenset(words)
    sq = multiset_product(as_multiset(cls), as_multiset(cls))
    assert sq.is_set()
    e = schur_expand(sq.qsym())
    assert e.serialize() == (
        "s[5] + s[4,1] + s[3,2] + s[3,1,1] + s[2,2,1] + s[2,1,1,1]"
    )
