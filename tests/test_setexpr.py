"""Expression language for naming permutation collections on the CLI."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from schurgrid.grids import enumerate_grid, one_column_matrix, parse_grid_matrix
from schurgrid.permutations import DescSet, parse_perm
from schurgrid.permsets import (
    arc_class,
    cdes_inverse_class,
    colayered_class,
    conjugacy_class,
    cyclic_class,
    descent_class,
    embed,
    as_multiset,
    inv_descent_class,
    inv_weak_descent_class,
    inversion_sphere,
    knuth_class,
    left_unimodal_class,
    symmetric_group,
    weak_descent_class,
)
from schurgrid.setexpr import _BUILDERS, ExprError, evaluate


def support(text):
    return evaluate(text).support()


# ---------------------------------------------------------------------------
# Individual productions
# ---------------------------------------------------------------------------


def test_degree_families():
    assert support("S(3)") == symmetric_group(3)
    assert support("C(4)") == cyclic_class(4)
    assert support("arc(4)") == arc_class(4)
    assert support("L(4)") == left_unimodal_class(4)
    assert evaluate("S(4)").is_set()


def test_descent_class_families():
    d = DescSet.of(4, [1, 3])
    assert support("D(4, {1,3})") == descent_class(4, d)
    assert support("Dinv(4, {1,3})") == inv_descent_class(4, d)
    assert support("R(4, {1,3})") == weak_descent_class(4, d)
    assert support("Rinv(4, {1,3})") == inv_weak_descent_class(4, d)
    assert support("D(3, {})") == {(1, 2, 3)}


def test_parameterized_families():
    assert support("colayer(2, 5)") == colayered_class(5, 2)
    assert support('conj("2,1,1", 4)') == conjugacy_class(4, (2, 1, 1))
    assert support("invfix(4, 2)") == inversion_sphere(4, 2)
    assert support("cdesinv(5, 2)") == cdes_inverse_class(5, 2)
    assert len(support("cdesinv(5, 2)")) == 55
    assert support('knuth("2143")') == knuth_class(parse_perm("2143"))
    assert support('onecol("+-", 4)') == enumerate_grid(
        one_column_matrix((1, -1)), 4
    )
    assert support('grid("-+", 3)') == {
        (1, 2, 3),
        (2, 1, 3),
        (3, 1, 2),
        (3, 2, 1),
    }
    assert support('grid("0+/+0/+0/0+", 4)') == enumerate_grid(
        parse_grid_matrix("0+/+0/+0/0+"), 4
    )


def test_combinators():
    assert support("embed(C(3), 5)") == embed(as_multiset(cyclic_class(3)), 5).support()
    assert support("inv(Rinv(4, {2}))") == weak_descent_class(4, DescSet.of(4, [2]))
    prod = evaluate("prod(C(2), C(2))")
    assert prod.total_size() == 4
    assert prod.support() == {(1, 2), (2, 1)}
    setprod = evaluate("setprod(C(2), C(2))")
    assert setprod.is_set()
    assert setprod.total_size() == 2
    assert support('union(knuth("21"), C(2))') == {(1, 2), (2, 1)}
    assert evaluate("union(C(2), C(2))").is_set()


def test_nesting_and_whitespace():
    nested = evaluate(" prod ( embed( C(3), 4 ) , inv( D(4, {2}) ) ) ")
    direct = evaluate("prod(embed(C(3),4),inv(D(4,{2})))")
    assert nested.elems == direct.elems
    deep = evaluate("union(setprod(C(3), C(3)), inv(union(C(3), S(3))))")
    assert deep.support() == symmetric_group(3)


# ---------------------------------------------------------------------------
# Errors, with positions
# ---------------------------------------------------------------------------


ERRORS = [
    ("S(3", "position 3: expected ')', found end of input"),
    (
        "frob(3)",
        "position 0: unknown name 'frob'; expected one of C, D, Dinv, L, R, "
        "Rinv, S, arc, cdesinv, colayer, conj, embed, grid, inv, invfix, "
        "knuth, onecol, prod, setprod, union",
    ),
    ("S(x)", "position 2: expected a number, found 'x'"),
    ("D(4, 1,3)", "position 5: expected '{', found '1'"),
    ("D(4,{1,3)", "position 8: expected ',' or '}', found ')'"),
    ("prod(S(3), C(4))", "position 0: prod: degree mismatch"),
    ("union(C(3), S(4))", "position 0: union: degree mismatch: 3 vs 4"),
    ('onecol("+*", 3)', "position 0: onecol: bad sign character '*'"),
    ("S(3) C(4)", "position 5: expected end of input, found 'C'"),
    ("", "position 0: expected a family or combinator name, found end of input"),
    ('conj("2,2", 3)', "position 0: conj: cycle type '2,2' does not sum to 3"),
    ("invfix(3)", "position 8: expected ',', found ')'"),
    # A quoted string is converted as soon as it is read, and a family runs
    # before the closing parenthesis is read.
    ('grid("+x")', "position 0: grid: bad matrix character 'x'"),
    ('knuth("1,1")', "position 0: knuth: not a permutation of 1..2: (1, 1)"),
    ('conj("a")', "position 0: conj: bad cycle type 'a'"),
    ('onecol("*", x)', "position 0: onecol: bad sign character '*'"),
    ("D(4, {9}", "position 0: D: member 9 outside 1..3"),
    ("colayer(0, 3)", "position 0: colayer: size must be >= 1"),
    ("inv(S(3), 1)", "position 8: expected ')', found ','"),
]


@pytest.mark.parametrize("text,message", ERRORS, ids=[t or "<empty>" for t, _ in ERRORS])
def test_error_messages(text, message):
    with pytest.raises(ExprError) as exc:
        evaluate(text)
    assert str(exc.value) == message


def test_errors_are_value_errors():
    assert issubclass(ExprError, ValueError)
    with pytest.raises(ValueError):
        evaluate("D(4, {9})")


def test_readme_table_names_every_expression():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Expression language\n", 1)[1].split("\n#", 1)[0]
    cells = re.findall(r"^\| (.+?) \| .+ \|$", section, re.M)
    names = [n for cell in cells for n in re.findall(r"`([A-Za-z][\w-]*)\(", cell)]
    assert sorted(names) == sorted(_BUILDERS)
