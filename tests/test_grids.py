"""Geometric grid classes: matrix text forms, symmetries, enumeration
versus the picture definition and membership predicates, resource
budgeting."""

from __future__ import annotations

import itertools
import json
import logging
import math
import re

import numpy as np
import pytest

from schurgrid import grids
from schurgrid.grids import (
    GridMatrix,
    GridResourceError,
    arc_matrices,
    complement_matrix,
    consistent_orientation,
    enumerate_grid,
    fig_matrix,
    format_grid_matrix,
    format_sign_vector,
    grid_budget,
    identity_matrix,
    inverse_sign_vector,
    is_arc,
    is_colayered,
    is_left_unimodal,
    j_matrix,
    k_matrix,
    left_unimodal_matrix,
    minus_member,
    one_column_classes,
    one_column_matrix,
    one_column_member,
    one_column_qsyms,
    parse_grid_matrix,
    parse_sign_vector,
    plus_member,
    reflect_matrix_horizontal,
    refine_matrix,
    rotate180_matrix,
    star_product,
    stack_matrix,
    zigzag_matrix,
    zigzag_member,
)
from schurgrid.permutations import inverse
from schurgrid.qsym import qsym_of


def all_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def sign_vectors(max_len, min_len=1):
    for k in range(min_len, max_len + 1):
        yield from itertools.product((1, -1), repeat=k)


# ---------------------------------------------------------------------------
# Matrix text forms and symmetries
# ---------------------------------------------------------------------------


def test_parse_format_round_trip():
    for text in ("+", "-", "0+", "+0/0-", "0+/-0/+-", "+0/0+/-0/0-"):
        m = parse_grid_matrix(text)
        assert format_grid_matrix(m) == text
    with pytest.raises(ValueError):
        parse_grid_matrix("+x")
    with pytest.raises(ValueError):
        parse_grid_matrix("+0/+")  # ragged rows


def test_sign_vector_text_forms():
    assert parse_sign_vector("-+") == (-1, 1)
    assert format_sign_vector((-1, 1)) == "-+"
    with pytest.raises(ValueError):
        parse_sign_vector("+0")


def test_named_matrices_frozen():
    assert format_grid_matrix(j_matrix()) == "0+/+0/+0/0+"
    assert format_grid_matrix(k_matrix()) == "+0/0+/-0/0-"
    a1, a2 = arc_matrices()
    assert format_grid_matrix(a1) == "+0/-0/0-/0+"
    assert format_grid_matrix(a2) == "0-/0+/+0/-0"
    assert format_grid_matrix(fig_matrix()) == "0+/-0/+-"
    assert format_grid_matrix(identity_matrix(2)) == "+0/0+"
    assert format_grid_matrix(zigzag_matrix(2)) == "+0/0+/+0/0+"
    assert format_grid_matrix(left_unimodal_matrix()) == "+/-"
    assert format_grid_matrix(one_column_matrix((-1, 1))) == "+/-"


def test_matrix_transform_involutions():
    for text in ("0+/-0/+-", "+0/0+", "+-"):
        m = parse_grid_matrix(text)
        assert complement_matrix(complement_matrix(m)) == m
        assert rotate180_matrix(rotate180_matrix(m)) == m
        assert reflect_matrix_horizontal(reflect_matrix_horizontal(m)) == m
        assert rotate180_matrix(m) == reflect_matrix_horizontal(complement_matrix(m))


def test_matrix_transforms_act_on_classes():
    # Complementing the picture complements every drawn pattern; the
    # left-right flip reverses them; the half turn does both.
    n = 4
    for m in (fig_matrix(), one_column_matrix((1, 1))):
        base = enumerate_grid(m, n)
        complemented = enumerate_grid(complement_matrix(m), n)
        assert complemented == frozenset(
            tuple(n + 1 - v for v in w) for w in base
        )
        mirrored = enumerate_grid(reflect_matrix_horizontal(m), n)
        assert mirrored == frozenset(tuple(reversed(w)) for w in base)
        rotated = enumerate_grid(rotate180_matrix(m), n)
        assert rotated == frozenset(
            tuple(n + 1 - v for v in reversed(w)) for w in base
        )
    # The all-increasing two-cell class is genuinely asymmetric, so the
    # assertions above are not vacuous.
    m = one_column_matrix((1, 1))
    assert enumerate_grid(m, n) != enumerate_grid(complement_matrix(m), n)


def test_diagonal_reflection_inverts_patterns():
    # Reflecting a matrix across its main diagonal, entry (a, b) from entry
    # (rows+1-b, cols+1-a), gives the class of inverses.
    for text, reflected in (("+0/0+", "+0/0+"), ("0+/-0/+-", "-0+/+-0"), ("+-", "-/+")):
        base = enumerate_grid(parse_grid_matrix(text), 4)
        inverted = enumerate_grid(parse_grid_matrix(reflected), 4)
        assert inverted == frozenset(inverse(w) for w in base)


def test_consistent_orientation_and_refinement():
    oriented = consistent_orientation(parse_grid_matrix("+0/0+"))
    assert oriented is not None
    row_sign, col_sign = oriented
    assert len(row_sign) == 2 and len(col_sign) == 2
    # Signs must factor as row*column; this square has an odd sign cycle.
    clash = parse_grid_matrix("++/+-")
    assert consistent_orientation(clash) is None
    refined = refine_matrix(clash)
    assert consistent_orientation(refined) is not None
    for n in range(0, 5):
        assert enumerate_grid(clash, n) == enumerate_grid(refined, n)


def _brute_orientable(m: GridMatrix) -> bool:
    cells = [(i, j, m.rows[i][j]) for i, j in m.cells()]
    return any(
        all(rows[i] * cols[j] == e for i, j, e in cells)
        for rows in itertools.product((1, -1), repeat=m.n_rows)
        for cols in itertools.product((1, -1), repeat=m.n_cols)
    )


def test_consistent_orientation_every_matrix_up_to_3x3():
    for nr, nc in itertools.product(range(1, 4), repeat=2):
        for entries in itertools.product((-1, 0, 1), repeat=nr * nc):
            m = GridMatrix(
                tuple(tuple(entries[i * nc : (i + 1) * nc]) for i in range(nr))
            )
            oriented = consistent_orientation(m)
            assert (oriented is not None) == _brute_orientable(m), m
            if oriented is None:
                continue
            rows, cols = oriented
            cells = m.cells()
            assert all(rows[i] * cols[j] == m.rows[i][j] for i, j in cells)
            # Label rows 0..nr-1 and columns nr.. by connected component;
            # the lowest row of each component is the one fixed to +1.
            label = list(range(nr + nc))
            for i, j in cells:
                a, b = label[i], label[nr + j]
                label = [a if x == b else x for x in label]
            for c in set(label[:nr]):
                assert rows[min(i for i in range(nr) if label[i] == c)] == 1
            # Untouched rows and columns.
            assert all(rows[i] == 1 for i in range(nr) if not any(m.rows[i]))
            assert all(cols[j] == 1 for j in range(nc) if not any(r[j] for r in m.rows))


# ---------------------------------------------------------------------------
# Enumeration versus the picture definition
# ---------------------------------------------------------------------------


def picture_patterns(m, n):
    """Brute-force reference: every word of ``n`` parameters over the cells
    of the oriented (refined when needed) matrix, the point with parameter
    t in cell (i, j) drawn at (bx + ax*t, by + ay*t) with its column and
    row signs, and the pattern of the drawing read off."""
    if n == 0:
        return frozenset({()})
    oriented = consistent_orientation(m)
    if oriented is None:
        m = refine_matrix(m)
        oriented = consistent_orientation(m)
    row_sign, col_sign = oriented
    band = n + 1
    coeffs = []
    for i, j in m.cells():
        ax, bx = (1, j * band) if col_sign[j] > 0 else (-1, (j + 1) * band)
        height = m.n_rows - 1 - i
        ay, by = (1, height * band) if row_sign[i] > 0 else (-1, (height + 1) * band)
        coeffs.append((ax, bx, ay, by))
    ax, bx, ay, by = np.array(coeffs).T
    words = np.indices((len(coeffs),) * n).reshape(n, -1).T
    t = np.arange(1, n + 1)
    x = bx[words] + ax[words] * t
    y = by[words] + ay[words] * t
    y_by_x = np.take_along_axis(y, np.argsort(x, axis=1), axis=1)
    ranks = np.argsort(np.argsort(y_by_x, axis=1), axis=1) + 1
    return frozenset(map(tuple, ranks.tolist()))


def reference_matrices():
    yield from (identity_matrix(k) for k in range(1, 5))
    yield from (zigzag_matrix(k) for k in range(1, 4))
    yield from (fig_matrix(), j_matrix(), k_matrix(), left_unimodal_matrix())
    yield from arc_matrices()
    yield from (one_column_matrix(v) for v in sign_vectors(4))
    # Zero rows, all cells in one of two columns, no consistent
    # orientation, one row.
    for text in ("+/0/-", "0/+/0/-/0", "0+/0-", "++/+-", "+-+-"):
        yield parse_grid_matrix(text)


def test_enumeration_matches_picture_definition():
    for m in reference_matrices():
        for n in range(0, 7):
            assert enumerate_grid(m, n) == picture_patterns(m, n), (
                format_grid_matrix(m), n,
            )


def test_enumeration_logs_route_and_states(monkeypatch, caplog):
    monkeypatch.setattr(grids, "_grid_cache", {})
    caplog.set_level(logging.DEBUG, logger="schurgrid")
    enumerate_grid(parse_grid_matrix("+-"), 2)
    enumerate_grid(parse_grid_matrix("+/-"), 3)
    enumerate_grid(parse_grid_matrix("++/+-"), 1)
    enumerate_grid(parse_grid_matrix("+/-"), 3)
    assert [r.getMessage() for r in caplog.records] == [
        "grid +- n=2: gridded-state route, refined=False, "
        "states per level [1, 2, 2], 2 permutations",
        "grid +/- n=3: one-column route, refined=False, "
        "states per level [1, 2, 4], 4 permutations",
        "grid ++/+- n=1: gridded-state route, refined=True, "
        "states per level [1, 1], 1 permutations",
        "grid +/- n=3: cache hit",
    ]


def test_one_column_matrices_skip_orientation(monkeypatch):
    monkeypatch.setattr(grids, "_grid_cache", {})
    monkeypatch.setattr(grids, "consistent_orientation", None)
    assert enumerate_grid(parse_grid_matrix("0+/0-/0+"), 4) == picture_patterns(
        parse_grid_matrix("0+/0-/0+"), 4
    )


def _states_per_level(caplog, m, n):
    caplog.clear()
    enumerate_grid(m, n)
    (message,) = [r.getMessage() for r in caplog.records]
    assert "gridded-state route" in message, message
    return json.loads(re.search(r"states per level (\[.*?\])", message)[1])


@pytest.mark.parametrize("k", [2, 3])
def test_states_per_level_count_traces(monkeypatch, caplog, k):
    """One state per trace (word over the cells up to swapping cells that
    share no row and no column) at every level below the last: zigzag(k)
    is two columns of k cells, identity(k) k mutually commuting cells."""
    monkeypatch.setattr(grids, "_grid_cache", {})
    caplog.set_level(logging.DEBUG, logger="schurgrid")
    for n in range(1, 8):
        zigzag = _states_per_level(caplog, zigzag_matrix(k), n)
        identity = _states_per_level(caplog, identity_matrix(k), n)
        assert zigzag[:-1] == [(level + 1) * k**level for level in range(n)]
        assert identity[:-1] == [math.comb(level + k - 1, k - 1) for level in range(n)]


def test_chunked_fill_and_wide_matrices(monkeypatch):
    monkeypatch.setattr(grids, "_grid_cache", {})
    wide = GridMatrix(((1,) * 9,) * 9)  # 81 cells: 11 bytes of normal-form bits
    for n in range(0, 4):
        assert enumerate_grid(wide, n) == picture_patterns(wide, n), n
    for m in (fig_matrix(), zigzag_matrix(2), k_matrix(), parse_grid_matrix("++/+-")):
        work = m if consistent_orientation(m) else refine_matrix(m)
        monkeypatch.setattr(grids, "_CHUNK", 3 * len(work.cells()))  # 3 states a chunk
        _, sizes = grids._enumerate_oriented(work, consistent_orientation(work), 6)
        assert any(size > 3 and size % 3 for size in sizes[:-1])
        for n in range(0, 7):
            monkeypatch.setattr(grids, "_grid_cache", {})
            assert enumerate_grid(m, n) == picture_patterns(m, n), (
                format_grid_matrix(m), n,
            )


def test_last_level_is_deduplicated_chunk_by_chunk(monkeypatch):
    """With ``_CHUNK`` small the last level's patterns are merged into the
    running distinct rows a few at a time, and patterns repeat across
    chunks; the words and per-level sizes still equal those of one chunk,
    and the words are the picture definition's, sorted."""
    chunks = []

    class Recording(grids._DistinctRows):
        def add(self, words, weights=None):
            chunks.append({tuple(w) for w in words.tolist()})
            super().add(words, weights)

    monkeypatch.setattr(grids, "_DistinctRows", Recording)
    repeated = False
    for m in (fig_matrix(), zigzag_matrix(2), k_matrix(), parse_grid_matrix("++/+-")):
        work = m if consistent_orientation(m) else refine_matrix(m)
        for n in range(1, 7):
            monkeypatch.setattr(grids, "_CHUNK", 1 << 18)
            words, sizes = grids._enumerate_oriented(work, consistent_orientation(work), n)
            monkeypatch.setattr(grids, "_CHUNK", 2 * len(work.cells()))  # 2 states a chunk
            chunks.clear()
            chunked, chunked_sizes = grids._enumerate_oriented(
                work, consistent_orientation(work), n
            )
            assert chunked.tolist() == words.tolist() and chunked_sizes == sizes
            assert list(map(tuple, words.tolist())) == sorted(picture_patterns(m, n))
            assert sizes[-1] == len(words)
            repeated |= any(a & b for a, b in itertools.combinations(chunks, 2))
    assert repeated


# ---------------------------------------------------------------------------
# Enumeration versus membership predicates
# ---------------------------------------------------------------------------


def test_one_column_enumeration_matches_predicate():
    for v in sign_vectors(3):
        matrix = one_column_matrix(v)
        for n in range(0, 6):
            enumerated = enumerate_grid(matrix, n)
            brute = frozenset(
                w for w in itertools.permutations(range(1, n + 1))
                if one_column_member(w, v)
            )
            assert enumerated == brute, (v, n)


def test_plus_minus_classes_match_predicates():
    for k in range(1, 4):
        for n in range(1, 6):
            plus = enumerate_grid(one_column_matrix((1,) * k), n)
            assert plus == frozenset(
                w for w in all_perms(n) if plus_member(w, k)
            )
            minus = enumerate_grid(one_column_matrix((-1,) * k), n)
            assert minus == frozenset(
                w for w in all_perms(n) if minus_member(w, k)
            )


def test_left_unimodal_matches_predicate():
    for n in range(0, 7):
        enumerated = enumerate_grid(left_unimodal_matrix(), n)
        assert enumerated == frozenset(
            w for w in itertools.permutations(range(1, n + 1))
            if is_left_unimodal(w)
        )
        assert len(enumerated) == (2 ** (n - 1) if n else 1)


def test_colayered_matches_predicate():
    for k in range(1, 5):
        for n in range(1, 6):
            enumerated = enumerate_grid(identity_matrix(k), n)
            assert enumerated == frozenset(
                w for w in all_perms(n) if is_colayered(w, k)
            )


def test_arc_union_matches_predicate():
    a1, a2 = arc_matrices()
    for n in range(1, 7):
        union = enumerate_grid(a1, n) | enumerate_grid(a2, n)
        assert union == frozenset(w for w in all_perms(n) if is_arc(w))


def test_zigzag_matches_predicate():
    for k in range(1, 4):
        for n in range(1, 6):
            enumerated = enumerate_grid(zigzag_matrix(k), n)
            assert enumerated == frozenset(
                w for w in all_perms(n) if zigzag_member(w, k)
            )


def test_zigzag_one_strip_is_the_cyclic_class():
    from schurgrid.permsets import cyclic_class

    for n in range(1, 7):
        assert enumerate_grid(zigzag_matrix(1), n) == cyclic_class(n)


# ---------------------------------------------------------------------------
# Sign-vector algebra
# ---------------------------------------------------------------------------


def test_inverse_sign_vector_reverses_and_negates():
    assert inverse_sign_vector((1, -1, -1)) == (1, 1, -1)
    for v in sign_vectors(4):
        assert inverse_sign_vector(inverse_sign_vector(v)) == v


def test_star_product_frozen_and_shapes():
    got = star_product((-1, 1), (1, -1, -1))
    assert format_sign_vector(got) == "++-+--"
    for v in sign_vectors(2):
        for w in sign_vectors(2):
            assert len(star_product(v, w)) == len(v) * len(w)


def test_stack_matrix_frozen():
    stacked = stack_matrix((-1, 1), identity_matrix(2))
    assert format_grid_matrix(stacked) == "+0/0+/0-/-0"


# ---------------------------------------------------------------------------
# Resource budgeting and caching
# ---------------------------------------------------------------------------


def test_budget_exceeded_raises(monkeypatch):
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "100")
    assert grid_budget() == 100
    matrix = parse_grid_matrix("0-/+0/0-/+0")  # 4 cells, 4^4 = 256 words
    with pytest.raises(GridResourceError):
        enumerate_grid(matrix, 4)
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "256")
    assert len(enumerate_grid(matrix, 4)) > 0


def test_enumeration_uses_cache(monkeypatch):
    m = parse_grid_matrix("+0/0+")
    first = enumerate_grid(m, 5)
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "1")
    # Cached result is served even though the budget would now forbid it.
    assert enumerate_grid(m, 5) is first


def test_degrees_beyond_base_n_codes():
    # Base-n integer codes of the words overflow int64 from n = 17 on.
    assert len(enumerate_grid(parse_grid_matrix("+/+"), 17)) == 2**17 - 17
    assert enumerate_grid(parse_grid_matrix("-"), 300) == {tuple(range(300, 0, -1))}


def test_empty_and_degenerate_cases():
    m = parse_grid_matrix("+")
    assert enumerate_grid(m, 0) == frozenset({()})
    assert enumerate_grid(m, 3) == frozenset({(1, 2, 3)})
    with pytest.raises(ValueError):
        enumerate_grid(m, -1)


# ---------------------------------------------------------------------------
# One-column classes counted and listed in batches
# ---------------------------------------------------------------------------


def _enumerated_qsym(v, n):
    return list(qsym_of(enumerate_grid(one_column_matrix(v), n), n).coeffs)


@pytest.mark.parametrize("n", range(0, 8))
def test_one_column_counts_equal_enumeration(n):
    """Every sign vector of length <= 6, each length a batch of its own and
    all lengths mixed in one batch."""
    vs = list(sign_vectors(6))
    for k in range(1, 7):
        batch = list(sign_vectors(k, min_len=k))
        assert one_column_qsyms(batch, n).tolist() == [_enumerated_qsym(v, n) for v in batch]
    counted = one_column_qsyms(vs, n)
    assert counted.dtype == np.int64
    assert counted.tolist() == [_enumerated_qsym(v, n) for v in vs]


def test_one_column_counts_keep_repeats_and_order():
    vs = [(1, -1), (-1,), (1, -1), (1, 1, -1, 1), (-1,)]
    assert one_column_qsyms(vs, 5).tolist() == [_enumerated_qsym(v, 5) for v in vs]
    assert one_column_qsyms([], 4).shape == (0, 8)
    with pytest.raises(ValueError):
        one_column_qsyms([(1, 0)], 3)


def test_one_column_counts_in_small_batches(monkeypatch):
    """With ``_CHUNK`` below one vector's bound every batch holds one vector,
    and the rows are those of one batch."""
    vs = list(sign_vectors(4))
    whole = one_column_qsyms(vs, 6)
    monkeypatch.setattr(grids, "_CHUNK", 1)
    assert np.array_equal(one_column_qsyms(vs, 6), whole)


def test_one_column_states_bound_the_merged_states(monkeypatch, caplog):
    """Each level's merged states stay within the bound the gate reads, and
    the count is logged at DEBUG like the enumeration's states."""
    caplog.set_level(logging.DEBUG, logger="schurgrid")
    for n in range(2, 9):
        for k in range(1, n):
            caplog.clear()
            vs = list(sign_vectors(k, min_len=k))
            one_column_qsyms(vs, n)
            (message,) = [r.getMessage() for r in caplog.records]
            assert message.startswith(f"{len(vs)} one-column counts n={n}: states per level [")
            sizes = json.loads(re.search(r"states per level (\[.*?\])", message)[1])
            assert len(sizes) == n - 1 + (n > 1)
            assert sum(sizes) <= len(vs) * grids._one_column_states(k, n)
    caplog.clear()
    caplog.set_level(logging.INFO, logger="schurgrid")
    one_column_qsyms([(1, -1)], 5)
    assert not caplog.records


def test_one_column_counting_gate_counts_states(monkeypatch):
    bound = 2 * grids._one_column_states(3, 6)
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", str(bound - 1))
    with pytest.raises(GridResourceError) as err:
        one_column_qsyms([(1, -1, 1), (-1, -1, 1), (1, -1, 1)], 6)
    assert str(err.value) == (
        f"counting needs up to {bound} states (budget {bound - 1}); raise SCHURGRID_GRID_BUDGET"
    )
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", str(bound))
    assert one_column_qsyms([(1, -1, 1), (-1, -1, 1)], 6).shape == (2, 32)


def test_batched_listing_equals_per_vector_enumeration(monkeypatch):
    vs = [(1, -1, 1), (-1,), (1, 1), (-1, 1, 1, -1), (1, 1)]
    for n in range(0, 7):
        monkeypatch.setattr(grids, "_grid_cache", {})
        alone = [enumerate_grid(one_column_matrix(v), n) for v in vs]
        monkeypatch.setattr(grids, "_grid_cache", {})
        listed = one_column_classes(vs, n)
        for a, b in zip(alone, listed):
            assert b.words.dtype == a.words.dtype
            assert np.array_equal(b.words, a.words), n
        assert listed[2] is listed[4]
        assert all(enumerate_grid(one_column_matrix(v), n) is c for v, c in zip(vs, listed))


def test_batched_listing_gates_each_vector(monkeypatch):
    monkeypatch.setattr(grids, "_grid_cache", {})
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "300")
    with pytest.raises(GridResourceError) as err:
        one_column_classes([(1, -1), (1, -1, 1, 1), (1,)], 5)  # 4**5 = 1024 words
    assert str(err.value) == (
        "enumeration needs 1024 words (budget 300); raise SCHURGRID_GRID_BUDGET"
    )
    assert not grids._grid_cache  # refused before any class is listed
    assert len(one_column_classes([(1, -1), (1, -1, 1)], 5)) == 2  # 3**5 = 243 words
