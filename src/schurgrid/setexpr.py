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
from typing import Any, Callable

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
        entry = _BUILDERS.get(name)
        if entry is None:
            known = ", ".join(sorted(_BUILDERS))
            raise ExprError(
                f"position {tok.pos}: unknown name {name!r}; expected one of {known}"
            )
        readers, fn = entry
        self.take()
        self.expect_punct("(")
        try:
            args = []
            for k, read in enumerate(readers):
                if k:
                    self.expect_punct(",")
                args.append(read(self))
            value = fn(*args)
        except ExprError:
            raise
        except ValueError as exc:
            raise ExprError(f"position {tok.pos}: {name}: {exc}") from exc
        self.expect_punct(")")
        return value


# Argument readers.  A quoted string is converted as soon as it is read, so
# a bad string is reported before the arguments after it are parsed.
_Reader = Callable[[_Parser], Any]
_NUM: _Reader = _Parser.number
_SET: _Reader = _Parser.braced_set
_EXPR: _Reader = _Parser.expr


def _quoted(convert: Callable[[str], Any]) -> _Reader:
    return lambda p: convert(p.string())


def _cycle_type(text: str) -> tuple[str, tuple[int, ...]]:
    """The cycle type's text, kept for messages, and its parts."""
    try:
        return text, tuple(int(piece) for piece in text.split(",") if piece.strip())
    except ValueError as exc:
        raise ValueError(f"bad cycle type {text!r}") from exc


def _conj(cycle_type: tuple[str, tuple[int, ...]], n: int) -> PermMultiset:
    text, parts = cycle_type
    if sum(parts) != n:
        raise ValueError(f"cycle type {text!r} does not sum to {n}")
    return conjugacy_class(n, parts)


def _union(a: PermMultiset, b: PermMultiset) -> PermMultiset:
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} vs {b.n}")
    return a.support() | b.support()


# Each name: the readers of its arguments, in order, and the function their
# values are passed to.
_BUILDERS: dict[str, tuple[tuple[_Reader, ...], Callable[..., PermMultiset]]] = {
    "S": ((_NUM,), symmetric_group),
    "C": ((_NUM,), cyclic_class),
    "arc": ((_NUM,), arc_class),
    "L": ((_NUM,), left_unimodal_class),
    "colayer": ((_NUM, _NUM), lambda k, n: colayered_class(n, k)),
    "D": ((_NUM, _SET), lambda n, s: descent_class(n, DescSet.of(n, s))),
    "Dinv": ((_NUM, _SET), lambda n, s: inv_descent_class(n, DescSet.of(n, s))),
    "R": ((_NUM, _SET), lambda n, s: weak_descent_class(n, DescSet.of(n, s))),
    "Rinv": ((_NUM, _SET), lambda n, s: inv_weak_descent_class(n, DescSet.of(n, s))),
    "onecol": ((_quoted(parse_sign_vector), _NUM), one_column_class),
    "grid": ((_quoted(parse_grid_matrix), _NUM), enumerate_grid),
    "knuth": ((_quoted(parse_perm),), knuth_class),
    "conj": ((_quoted(_cycle_type), _NUM), _conj),
    "invfix": ((_NUM, _NUM), inversion_sphere),
    "cdesinv": ((_NUM, _NUM), cdes_inverse_class),
    "embed": ((_EXPR, _NUM), embed),
    "prod": ((_EXPR, _EXPR), multiset_product),
    "setprod": ((_EXPR, _EXPR), set_product),
    "inv": ((_EXPR,), invert_collection),
    "union": ((_EXPR, _EXPR), _union),
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
