"""Text expressions denoting permutation multisets.

The grammar is a small prefix language: named families take numeric or
string arguments, and combinators (``embed``, ``prod``, ``setprod``,
``inv``, ``union``) build on sub-expressions.  Parse errors report the
offending position and the tokens that would have been accepted.

>>> evaluate("C(3)").support_size()
3
>>> sorted(map(format_perm, evaluate('prod(knuth("21"), C(2))').support()))
['12', '21']
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .grids import enumerate_grid, parse_grid_matrix, parse_sign_vector
from .permutations import DescSet, format_perm, parse_perm
from .permsets import (
    PermMultiset,
    arc_class,
    cdes_inverse_class,
    colayered_class,
    conjugacy_class,
    cyclic_class,
    descent_class,
    embed,
    inv_descent_class,
    inv_weak_descent_class,
    invert_collection,
    inversion_sphere,
    knuth_class,
    left_unimodal_class,
    multiset_product,
    one_column_class,
    set_product,
    symmetric_group,
    weak_descent_class,
)

__all__ = ["ExprError", "evaluate", "tokenize"]


class ExprError(ValueError):
    """Set-expression parse or evaluation error with position context."""


@dataclass(frozen=True)
class _Token:
    kind: str  # name | number | string | punct | end
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z][A-Za-z0-9-]*)
  | (?P<number>\d+)
  | (?P<string>"[^"]*")
  | (?P<punct>[(){},])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(
                f"position {pos}: unexpected character {text[pos]!r}; expected "
                "a name, number, quoted string, parenthesis, brace or comma"
            )
        kind = m.lastgroup or ""
        if kind != "ws":
            out.append(_Token(kind, m.group(), pos))
        pos = m.end()
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str) -> "ExprError":
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        return ExprError(f"position {tok.pos}: expected {expected}, found {found}")

    def expect_punct(self, symbol: str) -> None:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != symbol:
            raise self.fail(f"'{symbol}'")
        self.take()

    def number(self) -> int:
        tok = self.peek()
        if tok.kind != "number":
            raise self.fail("a number")
        self.take()
        return int(tok.text)

    def string(self) -> str:
        tok = self.peek()
        if tok.kind != "string":
            raise self.fail("a quoted string")
        self.take()
        return tok.text[1:-1]

    def braced_set(self) -> tuple[int, ...]:
        self.expect_punct("{")
        items: list[int] = []
        if self.peek().kind == "punct" and self.peek().text == "}":
            self.take()
            return ()
        while True:
            items.append(self.number())
            tok = self.peek()
            if tok.kind == "punct" and tok.text == ",":
                self.take()
                continue
            if tok.kind == "punct" and tok.text == "}":
                self.take()
                return tuple(items)
            raise self.fail("',' or '}'")

    def expr(self) -> PermMultiset:
        tok = self.peek()
        if tok.kind != "name":
            raise self.fail("a family or combinator name")
        name = tok.text
        builder = _BUILDERS.get(name)
        if builder is None:
            known = ", ".join(sorted(_BUILDERS))
            raise ExprError(
                f"position {tok.pos}: unknown name {name!r}; expected one of {known}"
            )
        self.take()
        self.expect_punct("(")
        try:
            value = builder(self)
        except ExprError:
            raise
        except ValueError as exc:
            raise ExprError(f"position {tok.pos}: {name}: {exc}") from exc
        self.expect_punct(")")
        return value

    def comma(self) -> None:
        self.expect_punct(",")


def _build_degree_set(
    fn: Callable[[int], PermMultiset]
) -> Callable[[_Parser], PermMultiset]:
    def build(p: _Parser) -> PermMultiset:
        n = p.number()
        return fn(n)

    return build


def _build_descents(
    fn: Callable[[int, DescSet], PermMultiset]
) -> Callable[[_Parser], PermMultiset]:
    def build(p: _Parser) -> PermMultiset:
        n = p.number()
        p.comma()
        members = p.braced_set()
        return fn(n, DescSet.of(n, members))

    return build


def _build_colayer(p: _Parser) -> PermMultiset:
    k = p.number()
    p.comma()
    n = p.number()
    return colayered_class(n, k)


def _build_onecol(p: _Parser) -> PermMultiset:
    signs = parse_sign_vector(p.string())
    p.comma()
    n = p.number()
    return one_column_class(signs, n)


def _build_grid(p: _Parser) -> PermMultiset:
    matrix = parse_grid_matrix(p.string())
    p.comma()
    n = p.number()
    return enumerate_grid(matrix, n)


def _build_knuth(p: _Parser) -> PermMultiset:
    word = parse_perm(p.string())
    return knuth_class(word)


def _build_conj(p: _Parser) -> PermMultiset:
    parts_text = p.string()
    try:
        parts = tuple(int(piece) for piece in parts_text.split(",") if piece.strip())
    except ValueError as exc:
        raise ValueError(f"bad cycle type {parts_text!r}") from exc
    p.comma()
    n = p.number()
    if sum(parts) != n:
        raise ValueError(f"cycle type {parts_text!r} does not sum to {n}")
    return conjugacy_class(n, parts)


def _build_pair_int(
    fn: Callable[[int, int], PermMultiset]
) -> Callable[[_Parser], PermMultiset]:
    def build(p: _Parser) -> PermMultiset:
        n = p.number()
        p.comma()
        k = p.number()
        return fn(n, k)

    return build


def _build_embed(p: _Parser) -> PermMultiset:
    inner = p.expr()
    p.comma()
    n = p.number()
    return embed(inner, n)


def _build_prod(p: _Parser) -> PermMultiset:
    a = p.expr()
    p.comma()
    b = p.expr()
    return multiset_product(a, b)


def _build_setprod(p: _Parser) -> PermMultiset:
    a = p.expr()
    p.comma()
    b = p.expr()
    return set_product(a, b)


def _build_inv(p: _Parser) -> PermMultiset:
    return invert_collection(p.expr())


def _build_union(p: _Parser) -> PermMultiset:
    a = p.expr()
    p.comma()
    b = p.expr()
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} vs {b.n}")
    return a.support() | b.support()


_BUILDERS: dict[str, Callable[[_Parser], PermMultiset]] = {
    "S": _build_degree_set(symmetric_group),
    "C": _build_degree_set(cyclic_class),
    "arc": _build_degree_set(arc_class),
    "L": _build_degree_set(left_unimodal_class),
    "colayer": _build_colayer,
    "D": _build_descents(descent_class),
    "Dinv": _build_descents(inv_descent_class),
    "R": _build_descents(weak_descent_class),
    "Rinv": _build_descents(inv_weak_descent_class),
    "onecol": _build_onecol,
    "grid": _build_grid,
    "knuth": _build_knuth,
    "conj": _build_conj,
    "invfix": _build_pair_int(inversion_sphere),
    "cdesinv": _build_pair_int(cdes_inverse_class),
    "embed": _build_embed,
    "prod": _build_prod,
    "setprod": _build_setprod,
    "inv": _build_inv,
    "union": _build_union,
}


def evaluate(text: str) -> PermMultiset:
    """Parse and evaluate a set expression into a permutation multiset.

    ``union`` takes the set union of the two supports; ``prod`` keeps
    multiplicities while ``setprod`` keeps only the support.
    """
    parser = _Parser(text)
    value = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprError(
            f"position {tok.pos}: expected end of input, found {tok.text!r}"
        )
    return value
