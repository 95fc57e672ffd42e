"""Command line interface, run as ``schurgrid`` or ``python -m schurgrid``.

Subcommands::

    qsym <expr> [--schur] [--n-vars N]   quasisymmetric function of a set
    grid enum <matrix> --n N             enumerate a geometric grid class
    check <id> [--n N] [--json FILE]     run one registered identity check
    scan <conj-id> --max-n N [--json FILE]
                                         scan a conjecture degree by degree
    list-checks                          list check and conjecture ids

Exit status: 0 when the requested computation verified or holds up to the
scanned degree, 2 when a check or scan refuted its statement, 1 on usage
or resource errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from .checks import (
    GRID_REFUSAL,
    STATUS_HOLDS,
    STATUS_REFUTED,
    STATUS_SKIPPED,
    STATUS_VERIFIED,
    list_checks,
    list_scans,
    run_check,
    scan_conjecture,
)
from .grids import GridResourceError, enumerate_grid, parse_grid_matrix
from .permutations import format_words
from .qsym import schur_expand
from .setexpr import ExprError, evaluate

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1 and which
    accepts matrix arguments with a leading ``-`` cell (e.g. ``-+``)."""

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)

    def _parse_optional(self, arg_string):  # type: ignore[override]
        if (
            arg_string
            and arg_string[0] == "-"
            and set(arg_string) <= set("+-0/")
        ):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The parser, built once per process: it keeps no state between
    calls, and its usage errors raise instead of exiting."""
    parser = _ArgumentParser(
        prog="schurgrid",
        description=(
            "Exact quasisymmetric functions, Schur positivity and grid "
            "classes of permutation sets"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qsym = sub.add_parser(
        "qsym",
        help="print the quasisymmetric function of a set expression",
    )
    p_qsym.add_argument("expr", help='set expression, e.g. \'prod(C(5), Dinv(5,{2}))\'')
    p_qsym.add_argument(
        "--schur",
        action="store_true",
        help="print the Schur expansion (or a non-symmetry certificate)",
    )
    p_qsym.add_argument(
        "--n-vars",
        type=int,
        metavar="N",
        help="print the monomial expansion in variables x1..xN",
    )

    p_grid = sub.add_parser("grid", help="geometric grid class operations")
    grid_sub = p_grid.add_subparsers(dest="grid_command", required=True)
    p_enum = grid_sub.add_parser(
        "enum", help="enumerate the degree-n permutations drawn on a matrix"
    )
    p_enum.add_argument(
        "matrix",
        help="rows top to bottom separated by '/', cells from {+,-,0}, e.g. '+0/0-'",
    )
    p_enum.add_argument("--n", type=int, required=True, help="permutation degree")

    p_check = sub.add_parser("check", help="run one registered identity check")
    p_check.add_argument("check_id", help="check id (see list-checks)")
    p_check.add_argument("--n", type=int, help="degree override (default per check)")
    p_check.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON"
    )

    p_scan = sub.add_parser(
        "scan", help="scan a conjecture degree by degree, persisting verdicts"
    )
    p_scan.add_argument("conj_id", help="conjecture id (see list-checks)")
    p_scan.add_argument("--max-n", type=int, required=True, help="largest degree")
    p_scan.add_argument(
        "--json", metavar="FILE", help="also write the scan report as JSON"
    )

    sub.add_parser("list-checks", help="list registered checks and conjectures")

    return parser


def _format_monomial(expo: tuple[int, ...], coeff: int) -> str:
    factors = [
        f"x{i}" if e == 1 else f"x{i}^{e}"
        for i, e in enumerate(expo, start=1)
        if e
    ]
    body = "*".join(factors) if factors else "1"
    return body if coeff == 1 and factors else f"{coeff}*{body}"


def _cmd_qsym(args: argparse.Namespace) -> int:
    q = evaluate(args.expr).qsym()
    if args.schur:
        print(schur_expand(q).serialize())
        return EXIT_OK
    if args.n_vars is not None:
        terms = q.evaluate_monomials(args.n_vars)
        print(" + ".join(_format_monomial(e, c) for e, c in terms.items()) or "0")
        return EXIT_OK
    print(q.serialize())
    return EXIT_OK


def _cmd_grid_enum(args: argparse.Namespace) -> int:
    matrix = parse_grid_matrix(args.matrix)
    if args.n < 0:
        raise _UsageError("--n must be >= 0")
    print(format_words(enumerate_grid(matrix, args.n).words), end="")
    return EXIT_OK


def _status_exit(status: str) -> int:
    if status in (STATUS_VERIFIED, STATUS_HOLDS):
        return EXIT_OK
    if status == STATUS_REFUTED:
        return EXIT_REFUTED
    return EXIT_USAGE


def _cmd_check(args: argparse.Namespace) -> int:
    report = run_check(args.check_id, args.n)
    for line in report.summary_lines():
        print(line)
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
    if report.status == STATUS_SKIPPED:
        budget = "GRID" if report.notes.startswith(GRID_REFUSAL) else "CHECK"
        print(f"resource budget exceeded; raise SCHURGRID_{budget}_BUDGET or lower --n", file=sys.stderr)
    return _status_exit(report.status)


def _cmd_scan(args: argparse.Namespace) -> int:
    report = scan_conjecture(args.conj_id, args.max_n)
    for line in report.summary_lines():
        print(line)
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
    return _status_exit(report.status)


def _cmd_list_checks(_args: argparse.Namespace) -> int:
    print("checks (id, default degree, statement):")
    for check_id, default_n, description in list_checks():
        print(f"  {check_id:24s} n={default_n:<3d} {description}")
    print("conjecture scans (id, first degree, statement):")
    for conj_id, n_min, description in list_scans():
        print(f"  {conj_id:24s} n>={n_min:<2d} {description}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "qsym":
            return _cmd_qsym(args)
        if args.command == "grid":
            return _cmd_grid_enum(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "scan":
            return _cmd_scan(args)
        return _cmd_list_checks(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GridResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
