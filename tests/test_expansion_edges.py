"""Edges of the two expansions out of the fundamental basis: a Schur
expansion whose candidate has no support, and a monomial expansion in
finitely many variables refused by the grid budget before any term is built.
"""

from __future__ import annotations

from itertools import product

import pytest

from schurgrid.cli import EXIT_OK, EXIT_USAGE, main
from schurgrid.permutations import DescSet
from schurgrid.qsym import NotSymmetric, QSym, is_symmetric_by_monomials, schur_expand


@pytest.mark.parametrize("n", range(0, 7))
def test_zero_vector_expands_to_zero(n):
    assert schur_expand(QSym.zero(n)).serialize() == "0"


def test_vector_off_the_partition_masks_keeps_its_witness():
    # F{1} of degree 3 is zero at every partial-sum mask ({}, {2}, {1,2}), so
    # the candidate has empty support; the rebuild misses it and the monomial
    # witness names the two masks.
    e = schur_expand(QSym.single(3, DescSet.of(3, [1])))
    assert e.serialize() == (
        "NotSymmetric(n=3; monomial coefficient at {1} is 1 but at {2} is 0)"
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_single_fundamentals_expand_exactly_when_symmetric(n):
    for mask in range(1 << (n - 1)):
        q = QSym.single(n, DescSet(n, mask))
        assert isinstance(schur_expand(q), NotSymmetric) != is_symmetric_by_monomials(q)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_n_vars_expansion_over_the_grid_budget_is_refused(capsys, monkeypatch):
    # F{} of degree 4 is h_4: in 5 variables, one term per monomial of degree
    # 4, C(8, 4) = 70 of them.  (S(4) has the same count, but its 96 letters
    # are refused first at these budgets.)
    expr = 'knuth("1234")'
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "69")
    code, out, err = _run(capsys, ["qsym", expr, "--n-vars", "5"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "resource error: expansion in 5 variables needs 70 terms (budget 69); "
        "raise SCHURGRID_GRID_BUDGET\n"
    )
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "70")
    code, out, _ = _run(capsys, ["qsym", expr, "--n-vars", "5"])
    assert code == EXIT_OK
    monkeypatch.delenv("SCHURGRID_GRID_BUDGET")
    assert _run(capsys, ["qsym", expr, "--n-vars", "5"]) == (EXIT_OK, out, "")
    terms = out.rstrip("\n").split(" + ")
    assert len(terms) == 70 and all(not t[0].isdigit() for t in terms)


def test_n_vars_term_count_matches_the_expansion():
    # The count the gate compares is the number of terms the expansion builds.
    for q, n_vars, count in [
        (QSym.unit(4), 5, 70),
        (QSym.single(3, DescSet.of(3, [1])), 3, 4),
        (QSym.zero(3), 4, 0),
        (QSym.unit(0), 3, 1),
    ]:
        assert len(q.evaluate_monomials(n_vars)) == count
    h4 = {e: 1 for e in product(range(5), repeat=5) if sum(e) == 4}
    assert QSym.unit(4).evaluate_monomials(5) == h4
