"""Corner moves as one matrix: box removal against an independent
containment oracle, and the margins of the corner matrix itself.

The oracle never reads the addable corners: a partition of ``n - 1`` lies
below a partition of ``n`` in Young's lattice exactly when it fits inside it
part by part.
"""

from __future__ import annotations

from itertools import zip_longest

import pytest

from schurgrid.qsym import SchurExpansion, _corners, pieri_down
from schurgrid.tableaux import partitions


def _contained(mu, lam):
    return all(m <= l for m, l in zip_longest(mu, lam, fillvalue=0))


@pytest.mark.parametrize("n", range(1, 9))
def test_pieri_down_sums_the_partitions_contained_in_the_shape(n):
    for lam in partitions(n):
        below = {mu: 1 for mu in partitions(n - 1) if _contained(mu, lam)}
        assert pieri_down(SchurExpansion.single(lam)) == SchurExpansion.from_dict(n - 1, below)


@pytest.mark.parametrize("n", range(0, 13))
def test_corner_matrix_margins_count_distinct_parts(n):
    # A partition has one addable box per distinct part, plus one in a new
    # row, and one removable box per distinct part.
    corners = _corners(n)
    assert corners.shape == (len(partitions(n)), len(partitions(n + 1)))
    assert set(corners.ravel().tolist()) <= {0, 1}
    assert corners.sum(axis=1).tolist() == [len(set(mu)) + 1 for mu in partitions(n)]
    assert corners.sum(axis=0).tolist() == [len(set(lam)) for lam in partitions(n + 1)]
