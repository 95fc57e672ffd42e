"""Independent-route checks of the seeded jobs' printed output.

These run in their own child interpreter after the timed repetitions, so
they never count towards a measured time.

- ``qsym EXPR --schur`` printing a Schur expansion: the expansion's
  fundamental vector (``schur_f_vector``) must equal ``qsym_of`` of the
  evaluated collection.  Printing a ``NotSymmetric`` certificate: the
  monomial symmetry test (``is_symmetric_by_monomials``) must say False.
- ``grid enum`` of a one-column matrix: the printed words must be exactly
  the permutations of S_n accepted by ``one_column_member``, sorted, once
  each.
"""

from __future__ import annotations

import itertools
import re

_TERM = re.compile(r"^(-?)(?:(\d+)\*)?s\[([\d,]+)\]$")


def parse_schur(text: str, n: int):
    """Parse ``SchurExpansion.serialize`` text, e.g. ``s[3] + -2*s[2,1]``."""
    from schurgrid.qsym import SchurExpansion

    text = text.strip()
    if text == "0":
        return SchurExpansion.zero(n)
    coeffs: dict[tuple[int, ...], int] = {}
    for term in text.split(" + "):
        match = _TERM.match(term.strip())
        if match is None:
            raise ValueError(f"unparseable Schur term {term!r}")
        sign, coeff, parts = match.groups()
        value = int(coeff or 1) * (-1 if sign else 1)
        mu = tuple(int(p) for p in parts.split(","))
        if mu in coeffs:
            raise ValueError(f"repeated Schur term {term!r}")
        coeffs[mu] = value
    return SchurExpansion.from_dict(n, coeffs)


def check_qsym(expr: str, stdout: str) -> str | None:
    """None when the printed expansion is confirmed, else the reason."""
    from schurgrid.qsym import is_symmetric_by_monomials, qsym_of, schur_f_vector
    from schurgrid.setexpr import evaluate

    collection = evaluate(expr)
    q = qsym_of(dict(collection.elems), collection.n)
    text = stdout.strip()
    if text.startswith("NotSymmetric("):
        if is_symmetric_by_monomials(q):
            return "NotSymmetric printed but the monomial test finds the function symmetric"
        return None
    expansion = parse_schur(text, collection.n)
    if schur_f_vector(expansion) != q:
        return "Schur expansion does not reproduce the collection's fundamental vector"
    return None


def check_onecol(signs: str, n: int, stdout: str) -> str | None:
    """None when the printed words are exactly the one-column class."""
    from schurgrid.grids import one_column_member, parse_sign_vector
    from schurgrid.permutations import format_perm

    v = parse_sign_vector(signs)
    # itertools.permutations yields in lexicographic order, the CLI's order.
    expected = [
        format_perm(p)
        for p in itertools.permutations(range(1, n + 1))
        if one_column_member(p, v)
    ]
    printed = stdout.splitlines()
    if printed != expected:
        return (
            f"printed {len(printed)} words; the membership test accepts "
            f"{len(expected)}"
        )
    return None


def check(spec: dict, stdout: str) -> str | None:
    if spec["kind"] == "qsym":
        return check_qsym(spec["expr"], stdout)
    if spec["kind"] == "onecol":
        return check_onecol(spec["signs"], spec["n"], stdout)
    raise ValueError(f"unknown verification kind {spec['kind']!r}")
