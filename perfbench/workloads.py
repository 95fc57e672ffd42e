"""The benchmark's workloads: fixed CLI job lists plus seed-drawn jobs.

Every job is one ``schurgrid`` command line, run in-process through
``schurgrid.cli.main(argv)``.  Fixed jobs (checks, scans, one grid
enumeration) are compared with the goldens in ``goldens.json``; seeded
jobs are checked by an independent route (see ``verify.py``).

Seeded parameters are drawn so that the work of a job does not depend on
the seed: sign vectors have fixed lengths, descent sets come from a fixed
multiset of block sizes in seed-drawn order, and plactic classes come from
a seed-drawn tableau of a fixed shape.  Runs on different seeds therefore
measure the same amount of work on different inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

@dataclass(frozen=True)
class Job:
    """One CLI invocation and what a correct run of it looks like."""

    argv: tuple[str, ...]
    expect_exit: int = 0
    # Independent-route check for seeded jobs; None means "compare with
    # the recorded golden".
    verify: dict | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    smoke: bool
    max_degree: int
    jobs: tuple[Job, ...]


def _check(check_id: str, n: int) -> Job:
    return Job(("check", check_id, "--n", str(n)))


def _scan(conj_id: str, max_n: int, expect_exit: int = 0) -> Job:
    return Job(("scan", conj_id, "--max-n", str(max_n)), expect_exit)


def _zigzag(k: int) -> str:
    """Text of ``grids.zigzag_matrix(k)``: rows alternate ``+0`` and ``0+``."""
    return "/".join("+0" if i % 2 == 0 else "0+" for i in range(2 * k))


def _grid(matrix: str, n: int, verify: dict | None = None) -> Job:
    return Job(("grid", "enum", matrix, "--n", str(n)), verify=verify)


def _onecol_job(rng: random.Random, length: int, n: int) -> Job:
    """Grid enumeration of a seed-drawn one-column class.  The matrix text
    lists rows top to bottom, i.e. the bottom-to-top sign vector reversed."""
    signs = [rng.choice("+-") for _ in range(length)]
    matrix = "/".join(reversed(signs))
    return _grid(matrix, n, {"kind": "onecol", "signs": "".join(signs), "n": n})


def _desc_set(rng: random.Random, blocks: Sequence[int]) -> str:
    """Descent set whose block sizes are ``blocks`` in a seed-drawn order,
    so every seed gives a class of the same (multinomial) size."""
    order = list(blocks)
    rng.shuffle(order)
    cuts, total = [], 0
    for b in order[:-1]:
        total += b
        cuts.append(str(total))
    return "{" + ",".join(cuts) + "}"


def _reading_word(rng: random.Random, shape: Sequence[int]) -> str:
    """Row reading word of a seed-drawn standard tableau of ``shape``.

    Its plactic class is the set of words with that insertion tableau, of
    size f^shape whatever the seed.  The tableau is filled from the top
    value down by removing a random corner each time.
    """
    rows = list(shape)
    n = sum(rows)
    filling = [[0] * r for r in rows]
    for value in range(n, 0, -1):
        corners = [
            i for i, r in enumerate(rows) if r and (i + 1 == len(rows) or rows[i + 1] < r)
        ]
        i = rng.choice(corners)
        rows[i] -= 1
        filling[i][rows[i]] = value
    word = [v for row in reversed(filling) for v in row]
    return ",".join(map(str, word)) if n > 9 else "".join(map(str, word))


# Each template maps a seeded generator to a set expression.  Templates are
# fixed per position in the list; the seed only fills in their parameters.
_Template = Callable[[random.Random], str]


def _t(text: str) -> _Template:
    return lambda rng: text


def _dinv(n: int, blocks: Sequence[int], family: str = "Dinv") -> _Template:
    return lambda rng: f"{family}({n},{_desc_set(rng, blocks)})"


def _knuth(shape: Sequence[int]) -> _Template:
    return lambda rng: f'knuth("{_reading_word(rng, shape)}")'


def _wrap(outer: str, inner: _Template, *rest: str) -> _Template:
    tail = "".join(f",{r}" for r in rest)
    return lambda rng: f"{outer}({inner(rng)}{tail})"


def _prod(left: _Template, right: _Template) -> _Template:
    return lambda rng: f"prod({left(rng)},{right(rng)})"


_QSYM_TEMPLATES: tuple[_Template, ...] = (
    # degree 10
    _t("C(10)"),
    _t("L(10)"),
    _wrap("inv", _t("L(10)")),
    _dinv(10, (3, 7)),
    _dinv(10, (2, 3, 5)),
    _dinv(10, (4, 6), "Rinv"),
    _dinv(10, (2, 3, 5), "Rinv"),
    _dinv(10, (1, 2, 7), "Rinv"),
    _dinv(10, (3, 7), "D"),
    _dinv(10, (2, 4, 4), "D"),
    _wrap("inv", _dinv(10, (5, 5), "D")),
    _prod(_t("C(10)"), _dinv(10, (4, 6))),
    _prod(_dinv(10, (1, 9)), _t("C(10)")),
    _prod(_t("L(10)"), _t("C(10)")),
    _wrap("embed", _dinv(9, (4, 5)), "10"),
    _wrap("embed", _dinv(8, (3, 5), "Rinv"), "10"),
    _wrap("embed", _t("L(9)"), "10"),
    _knuth((4, 3, 2, 1)),
    _knuth((5, 3, 2)),
    _knuth((6, 2, 1, 1)),
    # degree 11
    _t("C(11)"),
    _t("L(11)"),
    _wrap("inv", _t("L(11)")),
    _dinv(11, (4, 7)),
    _dinv(11, (3, 8), "Rinv"),
    _dinv(11, (5, 6), "D"),
    _prod(_t("C(11)"), _dinv(11, (5, 6))),
    _wrap("embed", _dinv(10, (3, 7)), "11"),
    _wrap("embed", _t("C(10)"), "11"),
    _knuth((5, 3, 2, 1)),
)

_QSYM_SMOKE_TEMPLATES: tuple[_Template, ...] = (
    _t("C(6)"),
    _dinv(6, (2, 4)),
    _dinv(6, (2, 4), "D"),
    _wrap("embed", _dinv(5, (2, 3)), "6"),
    _knuth((3, 2, 1)),
)


def _qsym_jobs(rng: random.Random, templates: Sequence[_Template]) -> list[Job]:
    jobs = []
    for template in templates:
        expr = template(rng)
        jobs.append(Job(("qsym", expr, "--schur"), verify={"kind": "qsym", "expr": expr}))
    return jobs


def _grid_enum(rng: random.Random, smoke: bool) -> tuple[list[Job], int]:
    n, zz_n, scan_n, lengths = (5, 4, 5, (3, 4)) if smoke else (8, 6, 7, (5, 6))
    jobs = [
        _check("onecol-zigzags", zz_n),
        _scan("restriction", scan_n),
        _grid(_zigzag(3), n),
        *(_onecol_job(rng, length, n) for length in lengths),
    ]
    return jobs, n


def _star_products(rng: random.Random, smoke: bool) -> tuple[list[Job], int]:
    star_n, prod_n = (4, 4) if smoke else (5, 6)
    return [_check("cor-star", star_n), _check("prop-prod-onecol", prod_n)], max(star_n, prod_n)


def _fold_scan(rng: random.Random, smoke: bool) -> tuple[list[Job], int]:
    main_n, rot_n, horiz_n, scan2_n, scan3_n = (4, 5, 4, 5, 4) if smoke else (5, 7, 6, 7, 6)
    jobs = [
        _check("thm-main-1", main_n),
        _check("thm-main-2", main_n),
        _check("cor-vertical", rot_n),
        _check("thm-horizontal1", horiz_n),
        _check("thm-horiz-induction", horiz_n),
        _scan("conj-10-2", scan2_n),
        _scan("conj-10-3", scan3_n),
        # Refuted at n=5 with a stored witness: exit status 2.
        _scan("knuth-product", max(scan3_n, 5), expect_exit=2),
    ]
    return jobs, rot_n


def _qsym_cli(rng: random.Random, smoke: bool) -> tuple[list[Job], int]:
    templates = _QSYM_SMOKE_TEMPLATES if smoke else _QSYM_TEMPLATES
    return _qsym_jobs(rng, templates), 6 if smoke else 11


# The four job lists, and the workloads as sequences of them.  Two job
# lists share one workload so that each run is long enough to average over
# the speed swings of a shared two-core machine (see CHANGES.md).
_PARTS = {
    "grid-enum": _grid_enum,
    "star-products": _star_products,
    "fold-scan": _fold_scan,
    "qsym-cli": _qsym_cli,
}
_WORKLOAD_PARTS: dict[str, tuple[str, ...]] = {
    # Materialized collections: grid enumeration and set products.
    "grid-star": ("grid-enum", "star-products"),
    # Folded products, tableaux, characters and Schur expansion.
    "fold-qsym": ("fold-scan", "qsym-cli"),
}
WORKLOADS = tuple(_WORKLOAD_PARTS)


def build_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    """The job list of ``workload``; ``smoke`` gives a tiny version of it."""
    if workload not in _WORKLOAD_PARTS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    jobs: list[Job] = []
    max_degree = 0
    for part in _WORKLOAD_PARTS[workload]:
        part_jobs, degree = _PARTS[part](random.Random(f"{part}:{seed}"), smoke)
        jobs += part_jobs
        max_degree = max(max_degree, degree)
    return Plan(workload, seed, smoke, max_degree, tuple(jobs))
