"""Characters of symmetric groups, Kronecker products, and the signed
descent-sum evaluation of the character attached to a permutation set.

Irreducible character values are computed by border-strip removal on
first-column hook lengths (beta-sets).  Each degree keeps, built on first
use, its character table as an integer array and the same table weighted
by the class sizes.  A Schur coefficient row times the table is a class
function; the pointwise product of two class functions times the weighted
table, divided by ``n!``, is their Kronecker product.  So
:func:`kronecker_rows` takes a whole matrix of rows against one expansion
at once, and :func:`kronecker` is its one-row case.  Every product runs in
``int64`` when a bound on its inputs stays below 2**63 and in Python ints
(``object`` arrays) otherwise, so the arithmetic is exact throughout.

>>> mn_character((2, 1), (1, 1, 1))
2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .permutations import (
    Perm,
    composition_boundary_mask,
    is_mu_modal_mask,
)
from .qsym import (
    QSym,
    SchurExpansion,
    _exact_matmul,
    _int_array,
    qsym_of,
    schur_rows,
)
from .tableaux import Partition, conjugate_partition, partitions

__all__ = [
    "z_of",
    "class_size",
    "mn_character",
    "character_row",
    "character_table",
    "CharacterVector",
    "char_vector",
    "kronecker",
    "kronecker_rows",
    "sign_twist",
    "char_from_signed_formula",
    "signed_char_vector",
]


def z_of(rho: Sequence[int]) -> int:
    """Order of the centralizer of a permutation of cycle type ``rho``.

    >>> z_of((2, 2, 1))
    8
    """
    mult: dict[int, int] = {}
    for part in rho:
        if part <= 0:
            raise ValueError("cycle type parts must be positive")
        mult[part] = mult.get(part, 0) + 1
    out = 1
    for part, m in mult.items():
        out *= part**m * math.factorial(m)
    return out


def class_size(rho: Sequence[int]) -> int:
    """Number of permutations with cycle type ``rho``."""
    return math.factorial(sum(rho)) // z_of(rho)


@lru_cache(maxsize=None)
def _mn_beta(beta: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Character value from a beta-set (strictly decreasing first-column
    hook lengths); one cycle length is stripped per recursion step."""
    if not rho:
        return 1
    r = rho[0]
    rest = rho[1:]
    members = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        target = b - r
        if target < 0 or target in members:
            continue
        # Sign = parity of the number of beta entries strictly between.
        jumped = sum(1 for x in beta if target < x < b)
        new = tuple(sorted((*(x for x in beta if x != b), target), reverse=True))
        term = _mn_beta(new, rest)
        total += -term if jumped % 2 else term
    return total


def _beta_set(lam: Partition) -> tuple[int, ...]:
    k = len(lam)
    return tuple(lam[i] + (k - 1 - i) for i in range(k))


def mn_character(lam: Sequence[int], rho: Sequence[int]) -> int:
    """Irreducible character of shape ``lam`` at cycle type ``rho``.

    >>> mn_character((3, 2), (2, 2, 1))
    1
    >>> mn_character((1, 1, 1), (3,))
    1
    """
    lam = tuple(lam)
    rho = tuple(sorted(rho, reverse=True))
    if sum(lam) != sum(rho):
        raise ValueError("shape and cycle type have different sizes")
    if not lam:
        return 1
    return _mn_beta(_beta_set(lam), rho)


def character_row(lam: Partition, n: int) -> tuple[int, ...]:
    """Values of one irreducible character, indexed like ``partitions(n)``."""
    return tuple(mn_character(lam, rho) for rho in partitions(n))


def character_table(n: int) -> dict[Partition, tuple[int, ...]]:
    """Full character table of degree ``n``: rows by shape, columns by
    cycle type in ``partitions(n)`` order."""
    return {lam: character_row(lam, n) for lam in partitions(n)}


@dataclass(frozen=True)
class CharacterVector:
    """A class function of degree ``n``: one integer per cycle type,
    in ``partitions(n)`` order."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(partitions(self.n)):
            raise ValueError("wrong number of class values")


@lru_cache(maxsize=None)
def _characters(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The character arrays of degree ``n``, rows and columns in
    ``partitions(n)`` order: ``table[i, k]`` is the character of the
    ``i``-th shape at the ``k``-th cycle type, and ``weighted[k, i]`` is
    that value times the size of the class."""
    rows = list(character_table(n).values())
    weighted = [[class_size(rho) * row[k] for row in rows] for k, rho in enumerate(partitions(n))]
    return _int_array(rows), _int_array(weighted)


def _from_characters(n: int, chars: np.ndarray) -> np.ndarray:
    """Schur coefficient rows of class-function rows: inner products with
    the irreducibles, asserted integral."""
    totals = _exact_matmul(chars, _characters(n)[1])
    broken = np.flatnonzero(totals % math.factorial(n))
    if len(broken):
        lam = partitions(n)[broken[0] % totals.shape[1]]
        raise ValueError(f"class function has non-integral multiplicity at {lam}")
    return totals // math.factorial(n)


def char_vector(e: SchurExpansion) -> CharacterVector:
    """Class-function values of a Schur expansion."""
    chars = _exact_matmul(schur_rows(e.n, [e]), _characters(e.n)[0])
    return CharacterVector(e.n, tuple(chars[0].tolist()))


def kronecker_rows(rows: np.ndarray, e: SchurExpansion) -> np.ndarray:
    """Kronecker products of Schur coefficient rows (indexed like
    ``partitions(e.n)``) with ``e``: the character rows times the character
    of ``e``, class by class, re-expanded over the irreducibles.

    >>> kronecker_rows(schur_rows(3, [SchurExpansion.single((3,)),
    ...                               SchurExpansion.single((2, 1))]),
    ...                SchurExpansion.single((1, 1, 1))).tolist()
    [[0, 0, 1], [0, 1, 0]]
    """
    table = _characters(e.n)[0]
    other = _exact_matmul(schur_rows(e.n, [e]), table)[0]
    return _from_characters(e.n, _exact_matmul(_exact_matmul(rows, table), np.diag(other)))


def kronecker(a: SchurExpansion, b: SchurExpansion) -> SchurExpansion:
    """Kronecker (internal) product: the one-row case of
    :func:`kronecker_rows`.

    >>> kronecker(SchurExpansion.single((2, 1)),
    ...           SchurExpansion.single((1, 1, 1))).serialize()
    's[2,1]'
    """
    if a.n != b.n:
        raise ValueError("Kronecker product needs equal degrees")
    return SchurExpansion.from_row(a.n, kronecker_rows(schur_rows(a.n, [a]), b)[0])


def sign_twist(e: SchurExpansion) -> SchurExpansion:
    """Kronecker product with the sign character: conjugate every shape.

    >>> sign_twist(SchurExpansion.single((3, 1))).serialize()
    's[2,1,1]'
    """
    return SchurExpansion.from_dict(
        e.n, {conjugate_partition(mu): c for mu, c in e.coeffs}
    )


def char_from_signed_formula(
    elems: Union[Mapping[Perm, int], Iterable[Perm]],
    mu: Sequence[int],
    n: int | None = None,
) -> int:
    """Signed descent-sum character evaluation at cycle type ``mu``: sum,
    over block-unimodal members, of (-1)**(descents outside the block
    boundaries).

    >>> char_from_signed_formula([(2, 1, 3), (2, 3, 1)], (2, 1))
    0
    """
    return _signed_sum(qsym_of(elems, n), tuple(mu))


def _signed_sum(q: QSym, mu: tuple[int, ...]) -> int:
    """The signed descent sum at ``mu`` of a collection whose descent sets
    are counted by ``q``."""
    if sum(mu) != q.n:
        raise ValueError("cycle type size must match the degree")
    boundary = composition_boundary_mask(mu)
    total = 0
    for mask, mult in enumerate(q.coeffs):
        if mult and is_mu_modal_mask(mask, q.n, mu):
            total += -mult if (mask & ~boundary).bit_count() % 2 else mult
    return total


def signed_char_vector(
    elems: Union[Mapping[Perm, int], Iterable[Perm]],
    n: int | None = None,
) -> CharacterVector:
    """All signed descent-sum values of a permutation collection, one per
    cycle type (an independent route to its class function)."""
    q = qsym_of(elems, n)
    return CharacterVector(q.n, tuple(_signed_sum(q, rho) for rho in partitions(q.n)))
