"""Registry of machine-verified identities and conjecture scanners.

Every check pairs a named claim about descent generating functions of
permutation sets with a runner that computes two sides by independent
routes and compares them in exact integer arithmetic.  Each check and
scanner is declared once, by the ``@_check`` / ``@_scan`` decorator on
its runner: id, degrees, cost model and statement.  ``run_check`` hands
the runner a fresh case ledger and returns a structured report;
``scan_conjecture`` persists one verdict file per degree so that later
runs can re-verify them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import tempfile
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .characters import kronecker_rows, sign_twist
from .grids import (
    GridMatrix,
    GridResourceError,
    _budget,
    _column_signs,
    _one_column_states,
    arc_matrices,
    complement_matrix,
    enumerate_grid,
    fig_matrix,
    format_grid_matrix,
    format_sign_vector,
    identity_matrix,
    j_matrix,
    k_matrix,
    one_column_classes,
    one_column_matrix,
    one_column_qsyms,
    parse_grid_matrix,
    reflect_matrix_horizontal,
    rotate180_matrix,
    stack_matrix,
    star_product,
    zigzag_matrix,
)
from .permutations import (
    DescSet,
    _descent_masks,
    _row_keys,
    format_perm,
    format_words,
    longest_element,
    parse_perm,
)
from .permsets import (
    PermSet,
    _inverse_cdes,
    _level_sets,
    _symmetric_words,
    arc_class,
    colayered_class,
    cyclic_class,
    embed,
    fine_battery,
    inv_descent_classes,
    inv_weak_descent_classes,
    j_class,
    k_class,
    left_unimodal_class,
    multiset_product,
    one_column_class,
    plus_class,
    product_qsym,
    product_qsym_grid,
    set_product,
    zigzag_class,
)
from .qsym import (
    NotSymmetric,
    QSym,
    SchurExpansion,
    _corners,
    _exact_matmul,
    _serialize_rows,
    _subset_sums,
    cache_dir,
    descent_count_table,
    is_schur_positive,
    qsym_of,
    schur_expand,
    schur_f_rows,
    schur_f_vector,
    schur_rows,
    skew_schur_f_vector,
)
from .tableaux import (
    SkewShape,
    is_partition,
    knuth_classes,
    partitions,
    strip_chain_shape,
    syt_row_words,
)

__all__ = [
    "CheckReport",
    "ScanRecord",
    "ScanReport",
    "DEFAULT_CHECK_BUDGET",
    "check_budget",
    "results_dir",
    "list_checks",
    "list_scans",
    "run_check",
    "scan_conjecture",
    "CHECK_IDS",
    "SCAN_IDS",
]

STATUS_VERIFIED = "verified"
STATUS_REFUTED = "refuted"
STATUS_HOLDS = "holds-up-to"
STATUS_SKIPPED = "resource-skipped"
# Head of the note of a run the grid budget refused.
GRID_REFUSAL = "grid enumeration over budget"

DEFAULT_CHECK_BUDGET = 200_000_000
_SAMPLE_SEED = 20260814


def check_budget() -> int:
    """Work budget (estimated elementary objects) a single check may use."""
    return _budget("SCHURGRID_CHECK_BUDGET", DEFAULT_CHECK_BUDGET)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one registered check at one degree."""

    check_id: str
    n: int
    status: str
    lhs: str
    rhs: str
    elapsed_ms: int
    notes: str = ""

    def to_json(self) -> dict[str, object]:
        return asdict(self)

    def summary_lines(self) -> list[str]:
        out = [
            f"check {self.check_id} (n={self.n}): {self.status} "
            f"[{self.elapsed_ms} ms]",
            f"  lhs: {self.lhs}",
            f"  rhs: {self.rhs}",
        ]
        if self.notes:
            out.append(f"  notes: {self.notes}")
        return out


class _CaseLedger:
    """Collects each case's left serialization and the first mismatch.

    The check is verified when every case matches; the first mismatch
    becomes the refutation witness.  Verified multi-case checks report a
    digest over all ``label :: lhs`` case lines so the two sides stay
    comparable strings; the lines are hashed as they come, and only the
    first case's text is kept.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.cases = 0
        self._first = ""
        self._mismatch: tuple[str, str, str] | None = None
        self._info: list[str] = []

    def note(self, text: str) -> None:
        self._info.append(text)

    def add(self, label: str, lhs: str, rhs: str) -> None:
        self._hash.update(f"{label} :: {lhs}\n".encode())
        if not self.cases:
            self._first = lhs
        self.cases += 1
        if lhs != rhs and self._mismatch is None:
            self._mismatch = (label, lhs, rhs)

    def add_sets(self, label: str, left: PermSet, right: PermSet) -> None:
        if left.n == right.n and np.array_equal(left.words, right.words):
            text = f"set of {len(left)} sha256:{_set_digest(left)}"
            self.add(label, text, text)
            return
        only_l = ",".join(format_perm(p) for p in sorted(left - right)[:4])
        only_r = ",".join(format_perm(p) for p in sorted(right - left)[:4])
        self.add(
            label,
            f"set of {len(left)}; not on right: {only_l or '-'}",
            f"set of {len(right)}; not on left: {only_r or '-'}",
        )

    def outcome(self) -> tuple[str, str, str, str]:
        notes = "; ".join(self._info)
        if self._mismatch is not None:
            label, lhs, rhs = self._mismatch
            prefix = f"counterexample at case '{label}'"
            return (
                STATUS_REFUTED,
                lhs,
                rhs,
                f"{prefix}; {notes}" if notes else prefix,
            )
        if self.cases == 1:
            return STATUS_VERIFIED, self._first, self._first, notes
        text = f"cases={self.cases} sha256:{self._hash.hexdigest()}"
        return STATUS_VERIFIED, text, text, notes


def _digest(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _set_digest(s: PermSet) -> str:
    """``_digest`` of the sorted ``format_perm`` strings of the members.
    Up to degree 9 a member's string is its digits, so the sorted rows of
    ``s.words`` are already in string order and their text is hashed
    whole; from degree 10 the comma strings sort otherwise."""
    text = format_words(s.words)
    if s.n <= 9:
        return hashlib.sha256(text.encode()).hexdigest()
    return _digest(sorted(text.splitlines()))


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _fact(n: int) -> int:
    return math.factorial(n)


def _fubini(n: int) -> int:
    # number of ordered set partitions; controls total weak-class size
    vals = [1]
    for m in range(1, n + 1):
        vals.append(
            sum(math.comb(m, k) * vals[m - k] for k in range(1, m + 1))
        )
    return vals[n]


def _involutions(n: int) -> int:
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b if n >= 1 else 1


def _battery_count(n: int) -> int:
    return (
        _involutions(n)
        + len(partitions(n))
        + (n * (n - 1) // 2 + 1)
        + (1 << (n - 1))
        + n
    )


def _dessets(n: int, top: int) -> list[DescSet]:
    """All descent sets of degree ``n`` supported inside ``{1..top}``."""
    return [DescSet(n, mask) for mask in range(1 << top)]


def _sign_vectors(max_len: int, min_len: int = 1) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for k in range(min_len, max_len + 1):
        for mask in range(1 << k):
            out.append(tuple(1 if mask >> i & 1 else -1 for i in range(k)))
    return out


def _ribbon_schur(n: int, d: DescSet) -> SchurExpansion:
    """The ribbon with descent set ``d`` in the Schur basis: by Gessel, column
    ``d.mask`` of the descent-count table (each shape's SYT with descents d)."""
    return SchurExpansion.from_row(n, descent_count_table(n).matrix[:, d.mask])


def _ribbons(n: int) -> np.ndarray:
    """The :func:`_ribbon_schur` row of every ribbon of degree ``n``, by mask."""
    return descent_count_table(n).matrix.T


def _ribbon_f_rows(n: int, masks: Sequence[int]) -> np.ndarray:
    """The fundamental vectors of the ribbons with descent masks ``masks``,
    one a row: their :func:`_ribbon_schur` rows times the table."""
    return schur_f_rows(n, _ribbons(n)[masks])


_Battery = tuple[list[tuple[str, PermSet, SchurExpansion]], np.ndarray]


def _expanded_battery(n: int) -> _Battery:
    """The fine battery of degree ``n``, each set with its Schur expansion,
    and the expansions as the rows of one coefficient matrix."""
    return _expand_battery(fine_battery, n)


@functools.cache
def _expand_battery(battery_of: Callable[[int], list[tuple[str, PermSet]]], n: int) -> _Battery:
    """``_expanded_battery``, built once per degree and per battery function
    (a test that patches ``fine_battery`` gets its own)."""
    out = []
    for name, bset in battery_of(n):
        e = schur_expand(bset.qsym())
        if isinstance(e, NotSymmetric):
            raise RuntimeError(
                f"battery set {name} is unexpectedly not symmetric: "
                f"{e.serialize()}"
            )
        out.append((name, bset, e))
    rows = schur_rows(n, [e for _, _, e in out])
    rows.flags.writeable = False
    return out, rows


def _kronecker_sides(
    n: int, cells: np.ndarray, rows: np.ndarray, e: SchurExpansion
) -> list[tuple[str, str, str]]:
    """For each battery set (with its Schur row) and its product's row of
    ``cells``: that vector, the fundamental vector of the Kronecker product of
    its row with ``e``, and ``Schur-positive`` or else that product's expansion.
    The two vectors are compared as integers; a row equal to its fold shares
    the fold's text, so only a differing row is serialized."""
    products = kronecker_rows(rows, e)
    fvecs = schur_f_rows(n, products)
    same = (cells == fvecs).all(axis=1)
    positive = (products >= 0).all(axis=1)
    return [
        (
            lhs,
            lhs if eq else _serialize_rows(n, [fvec.tolist()])[0],
            "Schur-positive" if ok else SchurExpansion.from_row(n, row).serialize(),
        )
        for lhs, eq, fvec, ok, row in zip(
            _serialize_rows(n, cells.tolist()), same, fvecs, positive, products
        )
    ]


def _fineness(e: SchurExpansion | NotSymmetric) -> str:
    if isinstance(e, NotSymmetric):
        return e.serialize()
    if not is_schur_positive(e):
        return f"symmetric, not Schur-positive: {e.serialize()}"
    return "symmetric and Schur-positive"


def _symmetry(led: _CaseLedger, e: SchurExpansion | NotSymmetric) -> str:
    """Verdict of the negative checks; a certificate goes into the notes."""
    if isinstance(e, NotSymmetric):
        led.note(e.serialize())
        return "not symmetric"
    return f"symmetric: {e.serialize()}"


def _schur_sum(n: int, items: Iterable[tuple[tuple[int, ...], int]]) -> SchurExpansion:
    data: dict[tuple[int, ...], int] = {}
    for parts, coeff in items:
        clean = tuple(p for p in parts if p)
        if not is_partition(clean) or sum(clean) != n or coeff == 0:
            continue
        data[clean] = data.get(clean, 0) + coeff
    return SchurExpansion.from_dict(n, data)


def _fine_matrix_corpus() -> list[tuple[str, GridMatrix]]:
    out: list[tuple[str, GridMatrix]] = [
        (f"onecol[{format_sign_vector(v)}]", one_column_matrix(v))
        for v in _sign_vectors(3)
    ]
    out += [
        ("identity[2]", identity_matrix(2)),
        ("identity[3]", identity_matrix(3)),
        ("zigzag[2]", zigzag_matrix(2)),
        ("jgrid", j_matrix()),
        ("kgrid", k_matrix()),
    ]
    return out


def _wide_matrix_corpus() -> list[tuple[str, GridMatrix]]:
    out = _fine_matrix_corpus()
    out += [
        ("fig", fig_matrix()),
        ("arc0", arc_matrices()[0]),
        ("negstack", stack_matrix((-1, 1), identity_matrix(2))),
        ("rowpair", parse_grid_matrix("-+")),
    ]
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


_Runner = Callable[..., object]


@dataclass(frozen=True)
class _Spec:
    """One registered check or scanner.  ``cost(n)`` estimates the work at
    degree ``n`` against the check budget; ``fixed_n`` pins a check to
    ``default_n``.  A check's runner fills the ledger it is given; a
    scanner's runner returns ``(verdict, cases, witness)``."""

    id: str
    default_n: int
    min_n: int
    cost: Callable[[int], int]
    statement: str
    runner: _Runner
    fixed_n: bool = False


_REGISTRY: dict[str, _Spec] = {}
_SCANS: dict[str, _Spec] = {}


def _check(
    check_id: str, default_n: int, min_n: int, cost: Callable[[int], int],
    statement: str, fixed_n: bool = False,
) -> Callable[[_Runner], _Runner]:
    """Register the decorated ``runner(led, n)`` as a check."""
    def register(runner: _Runner) -> _Runner:
        spec = _Spec(check_id, default_n, min_n, cost, statement, runner, fixed_n)
        _REGISTRY[check_id] = spec
        return runner
    return register


def _scan(
    conj_id: str, min_n: int, cost: Callable[[int], int], statement: str
) -> Callable[[_Runner], _Runner]:
    """Register the decorated ``runner(n)`` as a scanner from degree ``min_n``."""
    def register(runner: _Runner) -> _Runner:
        _SCANS[conj_id] = _Spec(conj_id, min_n, min_n, cost, statement, runner)
        return runner
    return register


# ---------------------------------------------------------------------------
# Check runners (each fills the ledger that run_check passes in)
# ---------------------------------------------------------------------------


@_check(
    "thm-main-1", 5, 2,
    lambda n: 6 * _fact(n) ** 2,
    "Right multiset product with a weak inverse-descent class matches the"
    " pointwise character product route and is Schur-positive; the weak"
    " class expands as the sum of its ribbon summands.",
)
def _run_thm_main_1(led: _CaseLedger, n: int) -> None:
    battery, rows = _expanded_battery(n)
    cells = product_qsym_grid([bset for _, bset, _ in battery], inv_descent_classes(n))
    # Des(w^-1) lies in J iff it equals exactly one subset of J: each weak cell is
    # the sum of the exact cells over the subsets of J (a zeta transform).
    _subset_sums(cells, axis=1)
    # The weak class of J expands as the sum of the ribbons of the subsets of J:
    # the same transform over the ribbons' rows, indexed by mask.
    dessets = _dessets(n, n - 1)
    ribbons = _subset_sums(schur_rows(n, [_ribbon_schur(n, d) for d in dessets]), axis=0)
    weak = zip(dessets, inv_weak_descent_classes(n), cells.transpose(1, 0, 2), ribbons)
    for d, rclass, folded, ribbon_sum in weak:
        r_label = f"R{d.braces()}"
        r_expansion = SchurExpansion.from_row(n, ribbon_sum)
        direct = schur_expand(rclass.qsym())
        led.add(f"{r_label} two routes", direct.serialize(), r_expansion.serialize())
        sides = _kronecker_sides(n, folded, rows, r_expansion)
        for (name, _, _), (lhs, rhs, positive) in zip(battery, sides):
            label = f"{name} * {r_label}"
            led.add(label, lhs, rhs)
            led.add(f"{label} positive", positive, "Schur-positive")


@_check(
    "thm-main-2", 5, 2,
    lambda n: 6 * _fact(n) ** 2 if n <= 5 else 60 * (6 * _fact(n) // _battery_count(n)) * (_fact(n) >> (n - 1)),
    "Right multiset product with an exact inverse-descent class matches"
    " the character product against the class's ribbon; exhaustive"
    " battery x subsets through degree 5, seeded sample of 60 beyond.",
)
def _run_thm_main_2(led: _CaseLedger, n: int) -> None:
    battery, rows = _expanded_battery(n)
    bsets = [bset for _, bset, _ in battery]
    pairs = [(i, d) for i in range(len(battery)) for d in _dessets(n, n - 1)]
    if n >= 6:
        rng = random.Random(_SAMPLE_SEED)
        pairs = rng.sample(pairs, 60)
        led.note(f"degree {n}: deterministic sample of 60 pairs (seed {_SAMPLE_SEED})")
    # One Kronecker product per descent set, of the battery sets paired with
    # it.  Their folds are cells of the one battery x S_n grid when every pair
    # is checked, else one fold per descent set of the sample.
    paired: dict[DescSet, list[int]] = {}
    for i, d in pairs:
        paired.setdefault(d, []).append(i)
    dclasses = inv_descent_classes(n)
    grid = product_qsym_grid(bsets, dclasses) if n <= 5 else None
    sides: dict[tuple[int, DescSet], tuple[str, str, str, str]] = {}
    for d, idx in paired.items():
        folded = (
            grid[idx, d.mask] if grid is not None
            else product_qsym_grid([bsets[i] for i in idx], [dclasses[d.mask]])[:, 0]
        )
        d_label = f"D{d.braces()}"
        found = _kronecker_sides(n, folded, rows[idx], _ribbon_schur(n, d))
        for i, side in zip(idx, found):
            sides[i, d] = (f"{battery[i][0]} * {d_label}", *side)
    for i, d in pairs:
        label, lhs, rhs, positive = sides[i, d]
        led.add(label, lhs, rhs)
        led.add(f"{label} positive", positive, "Schur-positive")


@_check(
    "cor-vertical", 7, 2, lambda n: n * _fact(n),
    "Vertical rotations of an inverse-descent class have the descent"
    " generating function of the remove-then-add-a-corner route.",
)
def _run_cor_vertical(led: _CaseLedger, n: int) -> None:
    cyc = cyclic_class(n)
    lhss = _serialize_rows(n, product_qsym_grid([cyc], inv_descent_classes(n))[0].tolist())
    # Every ribbon loses a corner box (the transpose), then gains one.
    corners = _corners(n - 1)
    moved = schur_f_rows(n, _exact_matmul(_exact_matmul(_ribbons(n), corners.T), corners))
    for d, lhs, rhs in zip(_dessets(n, n - 1), lhss, _serialize_rows(n, moved.tolist())):
        led.add(f"D{d.braces()}", lhs, rhs)


def _r2_expected(n: int) -> SchurExpansion:
    items: list[tuple[tuple[int, ...], int]] = [((n,), 1), ((n - 1, 1), n - 1)]
    for a in range(2, n // 2):
        items.append(((n - a, a), 2 * n - 4 * a + 2))
    for a in range(1, (n - 1) // 2 + 1):
        items.append(((n - a - 1, a, 1), n - 2 * a))
    if n >= 4 and n % 2 == 0:
        items.append(((n // 2, n // 2), 2))
    if n >= 5 and n % 2 == 1:
        items.append((((n + 1) // 2, (n - 1) // 2), 4))
    return _schur_sum(n, items)


@_check(
    "prop-R2", 7, 3, lambda n: n * _fact(n),
    "Closed Schur form of the two-strip cyclic ball (inverse cyclic"
    " descents at most 2).",
)
def _run_prop_r2(led: _CaseLedger, n: int) -> None:
    e = schur_expand(qsym_of(zigzag_class(n, 2), n))
    led.add("closed form", e.serialize(), _r2_expected(n).serialize())


@_check(
    "eq-recurrence", 7, 2, lambda n: 2 * n * n * _fact(n) + n**n,
    "Scaling recurrence tying the k-strip cyclic ball to vertical"
    " rotations of the k-cell one-column class.",
)
def _run_eq_recurrence(led: _CaseLedger, n: int) -> None:
    cyc = cyclic_class(n)
    prev = qsym_of(zigzag_class(n, 1), n)
    led.add("base", prev.serialize(), cyc.qsym().serialize())
    for k in range(2, n + 1):
        cur = qsym_of(zigzag_class(n, k), n)
        rhs = product_qsym(cyc, plus_class(n, k)) - prev.scale(n - k)
        led.add(f"k={k}", cur.scale(k).serialize(), rhs.serialize())
        prev = cur


@_check(
    "arc-formula", 7, 2, lambda n: 2 * 4**n + n * _fact(n),
    "Closed Schur form of the circular-prefix (arc) class.",
)
def _run_arc_formula(led: _CaseLedger, n: int) -> None:
    items: list[tuple[tuple[int, ...], int]] = [((n,), 1), ((1,) * n, 1)]
    for k in range(1, n - 1):
        items.append(((n - k,) + (1,) * k, 2))
    for k in range(2, n - 1):
        items.append(((n - k, 2) + (1,) * (k - 2), 1))
    e = schur_expand(qsym_of(arc_class(n), n))
    led.add(
        "closed form",
        e.serialize(),
        _schur_sum(n, items).serialize(),
    )


def _rotation_images(
    words: np.ndarray, j: DescSet, shape: SkewShape
) -> tuple[np.ndarray, np.ndarray]:
    """``tableaux.rotation_bijection`` on every row at once: whether ``p =
    sigma o c**k`` (``k`` the position of ``n``, mod ``n``) decomposes over
    ``j``, and the row word of the image, whose column ``c`` holds
    ``sigma^-1[c] + k`` (mod ``n``) in the row of that column."""
    m, n = words.shape
    small = np.min_scalar_type(2 * n)  # holds a letter plus a rotation index
    p, states = words.astype(small) - 1, np.arange(m)[:, None]
    k = ((np.argmax(p == n - 1, axis=1) + 1) % n).astype(small)
    sigma = np.take_along_axis(p, (np.arange(n, dtype=small) + k[:, None]) % n, axis=1)
    sigma_inv = np.argsort(sigma, axis=1).astype(small)
    masks = _descent_masks(n, (m,), lambda c: sigma_inv[:, c])
    decomposes = (sigma[:, -1] == n - 1) & (masks & (((1 << (n - 1)) - 1) ^ j.mask) == 0)
    column_row = [r for r, _ in sorted(shape.cells(), key=lambda cell: cell[1])]
    images = np.empty((m, n), np.uint8)
    images[states, (sigma_inv + k[:, None]) % n] = column_row
    return decomposes, images


def _rotation_fault(words: np.ndarray, j: DescSet, shape: SkewShape) -> str | None:
    """The first row of ``words`` on which the rotation bijection is not a
    descent-preserving, corner-tracking injection into the tableaux of
    ``shape``, or the tableaux it misses, or None.

    Each condition is one array over the rows, listed in order of blame;
    images and tableaux are row words on the strip chain of ``j``, keyed by
    ``_row_keys``, which sort as the rows do.  A row word's descents are the
    rises of its rows; row 1 is the top corner alone."""
    m, n = words.shape
    chain = strip_chain_shape(n, j)
    decomposes, images = _rotation_images(words, j, chain)
    known = _row_keys(syt_row_words(chain), n.bit_length())  # emitted in sorted order
    keys = _row_keys(images, n.bit_length())  # letters are rows, at most n
    found = known[np.searchsorted(known, keys).clip(max=len(known) - 1)] == keys
    order = np.argsort(keys, kind="stable")  # a repeat sorts after its first row
    repeated = np.zeros(m, bool)
    repeated[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    faults = [
        (~decomposes, "map undefined (permutation does not decompose over the"
         " given strip chain index)"),
        (~found, "map undefined (columns must strictly increase)"),
        (np.full(m, shape != chain), "image has wrong shape"),
        (
            _descent_masks(n, (m,), lambda c: -images[:, c].astype(np.intp))
            != _descent_masks(n, (m,), lambda c: words[:, c]),
            "descent set not preserved",
        ),
        (
            np.argmax(images == 1, axis=1) != np.argmax(words == n, axis=1),
            f"top corner is not the position of {n}",
        ),
        (repeated, "image repeated (not injective)"),
    ]
    failing = np.array([fault for fault, _ in faults], bool)
    if failing.any():
        row = int(np.argmax(failing.any(axis=0)))
        reason = faults[int(np.argmax(failing[:, row]))][1]
        return f"{format_perm(tuple(words[row].tolist()))}: {reason}"
    # No row failed, so the images are m distinct tableaux of the shape.
    if m < len(known):
        return f"image misses {len(known) - m} of {len(known)} tableaux (not surjective)"
    return None


@_check(
    "thm-horizontal1", 7, 2, lambda n: 4 * _fact(n) + n * _fubini(n - 1),
    "Horizontal rotations of an inverse-descent class: set structure,"
    " explicit descent-preserving bijection onto strip chain tableaux,"
    " and two quasisymmetric routes.",
)
def _run_thm_horizontal1(led: _CaseLedger, n: int) -> None:
    cyc = cyclic_class(n)
    classes = zip(inv_descent_classes(n - 1), inv_weak_descent_classes(n - 1))
    # The row-extension route: every ribbon of degree n - 1 gains a corner box.
    extended = schur_f_rows(n, _exact_matmul(_ribbons(n - 1), _corners(n - 1)))
    routes = zip(classes, _serialize_rows(n, extended.tolist()))
    for d, ((dclass, rclass), extension) in zip(_dessets(n - 1, n - 2), routes):
        dn = DescSet.of(n, d.members)
        exact = multiset_product(embed(dclass, n), cyc)
        weak = multiset_product(embed(rclass, n), cyc)
        shape = strip_chain_shape(n, dn)
        led.add(
            f"J={d.braces()} products are sets",
            "sets" if exact.is_set() and weak.is_set() else "repeats present",
            "sets",
        )
        audit = "bijective, descent-preserving, corner-tracking"
        problem = _rotation_fault(weak.words, dn, shape)
        led.add(f"J={d.braces()} bijection audit", problem or audit, audit)
        led.add(
            f"J={d.braces()} strip chain tableaux",
            weak.qsym().serialize(),
            skew_schur_f_vector(shape).serialize(),
        )
        led.add(f"J={d.braces()} row-extension route", exact.qsym().serialize(), extension)


@_check(
    "cor-rotated-shuffles2", 7, 2, lambda n: 3 * n * _fact(n) + n * n**n,
    "Every k-strip cyclic ball is fine and factors as horizontal"
    " rotations of the k-cell ascending one-column class.",
)
def _run_cor_rotated_shuffles2(led: _CaseLedger, n: int) -> None:
    cyc = cyclic_class(n)
    for k in range(1, n + 1):
        z = zigzag_class(n, k)
        led.add(
            f"k={k} fine",
            _fineness(schur_expand(qsym_of(z, n))),
            "symmetric and Schur-positive",
        )
        rotated = set_product(embed(plus_class(n - 1, k), n), cyc)
        led.add_sets(f"k={k} factorization", z, rotated)


@_check(
    "cor-cyc-fine", 7, 2, lambda n: 2 * n * _fact(n),
    "Level sets of the inverse cyclic descent number expand as sums of"
    " corner-added ribbons.",
)
def _run_cor_cyc_fine(led: _CaseLedger, n: int) -> None:
    # Row k - 1 of the level matrix marks the masks with k - 1 descents; adding
    # a corner is linear, so one product adds it to each level's ribbon sum.
    levels = np.arange(n - 1)[:, None] == np.bitwise_count(np.arange(1 << (n - 2)))
    sums = _exact_matmul(_exact_matmul(levels, _ribbons(n - 1)), _corners(n - 1))
    rhss = _serialize_rows(n, schur_f_rows(n, sums).tolist())
    words = _symmetric_words(n)
    for k, cls in enumerate(_level_sets(n, words, _inverse_cdes(words), n)[1:], start=1):
        led.add(f"k={k}", qsym_of(cls, n).serialize(), rhss[k - 1])


@_check(
    "cor-LC-CL", 7, 2, lambda n: 4 * 4**n + n * (1 << n) + _fact(n) // 100 + 1,
    "Horizontal and vertical rotations of the left-unimodal class share"
    " one descent generating function; only the vertical ones give the"
    " arc class as a set.",
)
def _run_cor_lc_cl(led: _CaseLedger, n: int) -> None:
    lifted = embed(left_unimodal_class(n - 1), n)
    cyc = cyclic_class(n)
    arcs = arc_class(n)
    lc = multiset_product(lifted, cyc)
    cl = multiset_product(cyc, lifted)
    led.add(
        "horizontal rotations qsym",
        lc.qsym().serialize(),
        qsym_of(arcs, n).serialize(),
    )
    led.note(
        "schur of horizontal rotations: "
        f"{schur_expand(lc.qsym()).serialize()}; "
        f"schur of arc class: {schur_expand(qsym_of(arcs, n)).serialize()}"
    )
    led.add(
        "vertical rotations form a set",
        "set" if cl.is_set() else "multiset with repeats",
        "set",
    )
    led.add_sets("vertical rotations", cl.support(), arcs)
    if n >= 4:
        diff = lc.support() != arcs
        led.add(
            "horizontal rotations differ as a set",
            "differs" if diff else "equal",
            "differs",
        )
    if n == 4:
        p = parse_perm("1342")
        led.add(
            "1342 separates the sets",
            f"in product: {p in lc.support()}; arc: {p in arcs}",
            "in product: True; arc: False",
        )


@_check(
    "cor-hrc", 7, 3, lambda n: (n - 1) ** (n - 1) + n * (1 << n),
    "Horizontal rotations of each fresh colayer band expand into at most"
    " three hook-like Schur terms.",
)
def _run_cor_hrc(led: _CaseLedger, n: int) -> None:
    cyc = cyclic_class(n)
    prev = colayered_class(n - 1, 1)
    for k in range(2, n):
        cur = colayered_class(n - 1, k)
        band = cur - prev
        lhs = product_qsym(embed(band, n), cyc)
        rhs = _schur_sum(
            n,
            [
                ((n - k,) + (1,) * k, 1),
                ((n - k + 1,) + (1,) * (k - 1), 1),
                ((n - k, 2) + (1,) * (k - 2), 1),
            ],
        )
        led.add(f"k={k}", lhs.serialize(), schur_f_vector(rhs).serialize())
        prev = cur


@_check(
    "prop-reflections", 6, 1, lambda n: 60 * 4**n,
    "Vertical/horizontal flips of a fine grid class equal left/right"
    " composition with the order-reversing permutation and twist the"
    " expansion by the sign character.",
)
def _run_prop_reflections(led: _CaseLedger, n: int) -> None:
    w0 = np.array(longest_element(n))
    for name, m in _fine_matrix_corpus():
        g = enumerate_grid(m, n)
        e = schur_expand(qsym_of(g, n))
        if not is_schur_positive(e):
            raise RuntimeError(f"corpus matrix {name} is unexpectedly not fine")
        vclass = enumerate_grid(complement_matrix(m), n)
        hclass = enumerate_grid(reflect_matrix_horizontal(m), n)
        # compose(p, q) is p[q - 1]: w0 after every member, every member after w0.
        led.add_sets(
            f"{name} vertical flip set", vclass, PermSet.from_words(w0[g.words - 1])
        )
        led.add_sets(
            f"{name} horizontal flip set", hclass, PermSet.from_words(g.words[:, w0 - 1])
        )
        twisted = schur_f_vector(sign_twist(e)).serialize()
        led.add(f"{name} vertical flip qsym", qsym_of(vclass, n).serialize(), twisted)
        led.add(f"{name} horizontal flip qsym", qsym_of(hclass, n).serialize(), twisted)


@_check(
    "cor-equid-rotation", 6, 3, lambda n: 60 * 4**n + 2 * _fact(n),
    "Half-turn rotation preserves the descent generating function of"
    " Schur-positive grid classes, but not of a two-cell row witness"
    " whose exact degree-3 values are frozen.",
)
def _run_cor_equid_rotation(led: _CaseLedger, n: int) -> None:
    for name, m in _wide_matrix_corpus():
        q = qsym_of(enumerate_grid(m, n), n)
        e = schur_expand(q)
        if not is_schur_positive(e):
            led.add(f"{name} vacuous", "premise false", "premise false")
            continue
        rotated = qsym_of(enumerate_grid(rotate180_matrix(m), n), n)
        led.add(f"{name} rotation", q.serialize(), rotated.serialize())
    for v in _sign_vectors(3, min_len=2):
        led.add(
            f"onecol[{format_sign_vector(v)}] reversal",
            qsym_of(one_column_class(v, n), n).serialize(),
            qsym_of(one_column_class(tuple(reversed(v)), n), n).serialize(),
        )
    m = parse_grid_matrix("-+")
    q3 = qsym_of(enumerate_grid(m, 3), 3)
    q3r = qsym_of(enumerate_grid(rotate180_matrix(m), 3), 3)
    led.add("rowpair degree-3 value", q3.serialize(), "n=3; F{} + 2*F{1} + F{1,2}")
    led.add(
        "rowpair degree-3 rotated value",
        q3r.serialize(),
        "n=3; F{} + 2*F{2} + F{1,2}",
    )
    led.add(
        "rowpair rotation changes qsym",
        "differs" if q3 != q3r else "equal",
        "differs",
    )


@_check(
    "kj-cardinality", 8, 3, lambda n: 2 * 4**n,
    "Both four-cell interleaving families have (n-2)*2^(n-1)+2 members.",
)
def _run_kj_cardinality(led: _CaseLedger, n: int) -> None:
    expected = str((n - 2) * (1 << (n - 1)) + 2)
    led.add("interleaved identity family", str(len(j_class(n))), expected)
    led.add("interleaved reversal family", str(len(k_class(n))), expected)


@_check(
    "j-formula", 7, 3, lambda n: 4**n + n * n,
    "Closed Schur form of the identity-interleaving family.",
)
def _run_j_formula(led: _CaseLedger, n: int) -> None:
    items: list[tuple[tuple[int, ...], int]] = [((n,), 1)]
    for a in range(1, n // 2 + 1):
        items.append(((n - a, a), n - 2 * a + 1))
    for a in range(1, (n - 1) // 2 + 1):
        items.append(((n - a - 1, a, 1), n - 2 * a))
    e = schur_expand(qsym_of(j_class(n), n))
    led.add("closed form", e.serialize(), _schur_sum(n, items).serialize())


@_check(
    "k-formula", 7, 3, lambda n: 4**n + n * n,
    "Closed Schur form of the reversal-interleaving family.",
)
def _run_k_formula(led: _CaseLedger, n: int) -> None:
    items: list[tuple[tuple[int, ...], int]] = [((n,), 1), ((1,) * n, 1)]
    for k in range(1, n - 1):
        items.append(((n - k,) + (1,) * k, 2))
    for k in range(1, n - 2):
        items.append(((n - k - 1, 2) + (1,) * (k - 1), 2))
    e = schur_expand(qsym_of(k_class(n), n))
    led.add("closed form", e.serialize(), _schur_sum(n, items).serialize())


@_check(
    "qsh-formula", 7, 2, lambda n: 2**n + n * n,
    "Closed Schur form and cardinality 2^n-n of the two-cell ascending"
    " one-column class.",
)
def _run_qsh_formula(led: _CaseLedger, n: int) -> None:
    cls = plus_class(n, 2)
    items: list[tuple[tuple[int, ...], int]] = [((n,), 1)]
    for a in range(1, n // 2 + 1):
        items.append(((n - a, a), n - 2 * a + 1))
    e = schur_expand(qsym_of(cls, n))
    led.add("closed form", e.serialize(), _schur_sum(n, items).serialize())
    led.add("cardinality", str(len(cls)), str(2**n - n))


@_check(
    "ll-formula", 7, 2, lambda n: 2**n + n * n,
    "Closed hook-sum form and cardinality 2^(n-1) of the left-unimodal"
    " class.",
)
def _run_ll_formula(led: _CaseLedger, n: int) -> None:
    cls = left_unimodal_class(n)
    items = [((n - k,) + (1,) * k, 1) for k in range(n)]
    e = schur_expand(qsym_of(cls, n))
    led.add("closed form", e.serialize(), _schur_sum(n, items).serialize())
    led.add("cardinality", str(len(cls)), str(1 << (n - 1)))


@_check(
    "colayer-hooks", 7, 1, lambda n: 2 * n**n,
    "Each colayer ball expands as the first k hook Schur functions.",
)
def _run_colayer_hooks(led: _CaseLedger, n: int) -> None:
    for k in range(1, n + 1):
        items = [((n - j,) + (1,) * j, 1) for j in range(k)]
        e = schur_expand(qsym_of(colayered_class(n, k), n))
        led.add(f"k={k}", e.serialize(), _schur_sum(n, items).serialize())


@_check(
    "onecol-zigzags", 7, 2,
    lambda n: sum(_one_column_states(k, n) << k for k in range(1, n)) + n * _fact(n),
    "A one-column class expands over the ribbons of the sign words that"
    " avoid its sign vector as a subsequence.",
)
def _run_onecol_zigzags(led: _CaseLedger, n: int) -> None:
    vectors = _sign_vectors(n - 1)
    lhss = _serialize_rows(n, one_column_qsyms(vectors, n).tolist())
    universe = np.array(_sign_vectors(n - 1, min_len=n - 1))
    # Row v sums the ribbons of the words u that avoid v (a greedy pointer per pair, along u).
    padded = np.array([v + (0,) * (n - len(v)) for v in vectors])
    at = np.zeros((len(vectors), len(universe)), np.intp)
    for letters in universe.T:
        at += np.take_along_axis(padded, at, axis=1) == letters
    avoids = (at < np.count_nonzero(padded, axis=1)[:, None]).astype(np.int64)
    ribbons = _ribbon_f_rows(n, ((universe > 0) << np.arange(n - 1)).sum(axis=1))
    rhss = _serialize_rows(n, _exact_matmul(avoids, ribbons).tolist())
    for v, lhs, rhs in zip(vectors, lhss, rhss):
        led.add(f"v={format_sign_vector(v)}", lhs, rhs)


@_check(
    "prop-prod-onecol", 6, 2, lambda n: 12 * 6**n,
    "Composing a one-column class with a grid class lands exactly on the"
    " stacked grid class (seeded sample of pairs).",
)
def _run_prop_prod_onecol(led: _CaseLedger, n: int) -> None:
    mats = [
        ("identity[2]", identity_matrix(2)),
        ("identity[3]", identity_matrix(3)),
        ("zigzag[2]", zigzag_matrix(2)),
        ("fig", fig_matrix()),
        ("onecol[+-]", one_column_matrix((1, -1))),
    ]
    combos = [(v, name, m) for v in _sign_vectors(2) for name, m in mats]
    rng = random.Random(_SAMPLE_SEED)
    sample = rng.sample(combos, 10)
    led.note(f"deterministic sample of 10 of {len(combos)} pairs (seed {_SAMPLE_SEED})")
    for v, name, m in sample:
        left = set_product(one_column_class(v, n), enumerate_grid(m, n))
        right = enumerate_grid(stack_matrix(v, m), n)
        led.add_sets(f"{format_sign_vector(v)} over {name}", left, right)


@_check(
    "cor-star", 6, 2, lambda n: 100 * 9**n,
    "Composing two one-column classes lands exactly on the one-column"
    " class of the star product of their sign vectors.",
)
def _run_cor_star(led: _CaseLedger, n: int) -> None:
    led.add(
        "star of -+ with +--",
        format_sign_vector(star_product((-1, 1), (1, -1, -1))),
        "++-+--",
    )
    vs = _sign_vectors(3)
    pairs = [(v, w) for v in vs for w in vs]
    listed = one_column_classes(vs + [star_product(v, w) for v, w in pairs], n)
    classes = dict(zip(vs, listed))
    for (v, w), right in zip(pairs, listed[len(vs):]):
        left = set_product(classes[v], classes[w])
        led.add_sets(f"{format_sign_vector(v)} * {format_sign_vector(w)}", left, right)


@_check(
    "thm-horiz-induction", 6, 2, lambda n: 6 * _fact(n),
    "Horizontal rotations of any fine battery set expand by adding one"
    " corner cell to its Schur support.",
)
def _run_thm_horiz_induction(led: _CaseLedger, n: int) -> None:
    battery, rows = _expanded_battery(n - 1)
    cells = product_qsym_grid([embed(b, n) for _, b, _ in battery], [cyclic_class(n)])
    lhss = _serialize_rows(n, cells[:, 0].tolist())
    rhss = _serialize_rows(n, schur_f_rows(n, _exact_matmul(rows, _corners(n - 1))).tolist())
    for (name, _, _), lhs, rhs in zip(battery, lhss, rhss):
        led.add(name, lhs, rhs)


@_check(
    "neg-arc-grid", 4, 4, lambda n: 4**n,
    "A single arc-family grid component is not even symmetric.",
    fixed_n=True,
)
def _run_neg_arc_grid(led: _CaseLedger, n: int) -> None:
    m = arc_matrices()[0]
    e = schur_expand(qsym_of(enumerate_grid(m, n), n))
    led.add(f"grid {format_grid_matrix(m)}", _symmetry(led, e), "not symmetric")


@_check(
    "neg-knuth-rot", 5, 5, lambda n: 4 * _fact(5),
    "Vertical rotations of an embedded plactic class can fail to be"
    " fine even though the class and its horizontal rotations are fine.",
    fixed_n=True,
)
def _run_neg_knuth_rot(led: _CaseLedger, n: int) -> None:
    base = frozenset({parse_perm("2143"), parse_perm("2413")})
    lifted = embed(base, 5)
    e_base = schur_expand(qsym_of(base, 4))
    led.add(
        "plactic class itself is fine",
        _fineness(e_base),
        "symmetric and Schur-positive",
    )
    e = schur_expand(product_qsym(cyclic_class(5), lifted))
    led.note(e.serialize())
    led.add(
        "vertical rotations are not fine",
        "not fine" if not is_schur_positive(e) else f"fine: {e.serialize()}",
        "not fine",
    )
    e_horiz = schur_expand(product_qsym(lifted, cyclic_class(5)))
    led.add(
        "horizontal rotations stay fine",
        _fineness(e_horiz),
        "symmetric and Schur-positive",
    )


@_check(
    "neg-stack", 6, 6, lambda n: 8 * 6**6,
    "A stacked grid whose base is not one-column can fail symmetry; its"
    " matrix and product factorization are pinned exactly.",
    fixed_n=True,
)
def _run_neg_stack(led: _CaseLedger, n: int) -> None:
    v = (-1, 1)
    m = stack_matrix(v, identity_matrix(2))
    led.add("stacked matrix", format_grid_matrix(m), "+0/0+/0-/-0")
    left = set_product(one_column_class(v, 6), colayered_class(6, 2))
    right = enumerate_grid(m, 6)
    led.add_sets("product set", left, right)
    e = schur_expand(qsym_of(right, 6))
    led.add("asymmetry", _symmetry(led, e), "not symmetric")


# ---------------------------------------------------------------------------
# Running checks
# ---------------------------------------------------------------------------


CHECK_IDS: tuple[str, ...] = tuple(_REGISTRY)


def list_checks() -> list[tuple[str, int, str]]:
    """(check id, default degree, statement) for every registered check."""
    return [(s.id, s.default_n, s.statement) for s in _REGISTRY.values()]


def _lookup(table: dict[str, _Spec], kind: str, spec_id: str) -> _Spec:
    if spec_id not in table:
        raise ValueError(f"unknown {kind} id {spec_id!r}; known ids: {', '.join(sorted(table))}")
    return table[spec_id]


def _gated_run(
    spec: _Spec, n: int, *args: object
) -> tuple[object, int, tuple[str, str] | None]:
    """Run ``spec.runner(*args, n)`` under both budgets: its result, its
    elapsed ms and no refusal; or, refused, no result and ``("before",
    note)`` when the cost model exceeds the check budget, ``("at", note)``
    when the grid budget refuses an enumeration."""
    estimated, budget = spec.cost(n), check_budget()
    if estimated > budget:
        return None, 0, ("before", f"estimated work {estimated} exceeds budget {budget}")
    start = time.perf_counter()
    try:
        result, refusal = spec.runner(*args, n), None
    except GridResourceError as exc:
        result, refusal = None, ("at", f"{GRID_REFUSAL}: {exc}")
    return result, int((time.perf_counter() - start) * 1000), refusal


def run_check(check_id: str, n: int | None = None) -> CheckReport:
    """Execute one registered check and wrap the outcome in a report.

    Unknown ids raise ``ValueError``; degrees beyond the declared cost
    model, or whose grid enumeration the grid budget refuses, produce a
    ``resource-skipped`` report.
    """
    spec = _lookup(_REGISTRY, "check", check_id)
    degree = spec.default_n if n is None else n
    if spec.fixed_n and degree != spec.default_n:
        raise ValueError(
            f"check {check_id} pins a frozen counterexample at degree "
            f"{spec.default_n}; --n cannot override it"
        )
    if degree < spec.min_n:
        raise ValueError(
            f"check {check_id} needs degree >= {spec.min_n}, got {degree}"
        )
    led = _CaseLedger()
    _, elapsed, refusal = _gated_run(spec, degree, led)
    if refusal is None:
        status, lhs, rhs, notes = led.outcome()
    else:
        status, lhs, rhs, notes = STATUS_SKIPPED, "", "", refusal[1]
        if refusal[0] == "before":
            notes += "; raise SCHURGRID_CHECK_BUDGET to force"
    return CheckReport(check_id, degree, status, lhs, rhs, elapsed, notes)


# ---------------------------------------------------------------------------
# Conjecture scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    """Persisted verdict of one conjecture at one degree."""

    conjecture: str
    n: int
    verdict: str  # "holds" | "refuted"
    cases: int
    witness: str | None
    elapsed_ms: int
    created: str

    def to_json(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "ScanRecord":
        return cls(
            conjecture=str(data["conjecture"]),
            n=int(data["n"]),  # type: ignore[arg-type]
            verdict=str(data["verdict"]),
            cases=int(data["cases"]),  # type: ignore[arg-type]
            witness=None if data.get("witness") is None else str(data["witness"]),
            elapsed_ms=int(data["elapsed_ms"]),  # type: ignore[arg-type]
            created=str(data["created"]),
        )


@dataclass(frozen=True)
class ScanReport:
    """Aggregate outcome of scanning one conjecture up to a degree."""

    conj_id: str
    max_n: int
    frontier: int
    status: str  # "holds-up-to" | "refuted"
    witness: str | None
    records: tuple[ScanRecord, ...]
    notes: str = ""

    def to_json(self) -> dict[str, object]:
        return {
            "conjecture": self.conj_id,
            "max_n": self.max_n,
            "frontier": self.frontier,
            "status": self.status,
            "witness": self.witness,
            "records": [r.to_json() for r in self.records],
            "notes": self.notes,
        }

    def summary_lines(self) -> list[str]:
        out = []
        for r in self.records:
            line = f"  n={r.n}: {r.verdict} ({r.cases} cases, {r.elapsed_ms} ms)"
            if r.witness:
                line += f" witness: {r.witness}"
            out.append(line)
        if self.status == STATUS_REFUTED:
            head = f"scan {self.conj_id}: refuted at n={self.records[-1].n}"
        else:
            head = f"scan {self.conj_id}: holds up to n={self.frontier}"
        if self.notes:
            out.append(f"  notes: {self.notes}")
        return [head, *out]


@_scan(
    "conj-10-1", 3, lambda n: (1 << n) * n * _fact(n),
    "Vertical rotations of every one-column class stay symmetric and"
    " Schur-positive.",
)
def _scan_conj_10_1(n: int) -> tuple[str, int, str | None]:
    cyc = cyclic_class(n)
    cases = 0
    for v in _sign_vectors(n - 1):
        cases += 1
        e = schur_expand(product_qsym(cyc, one_column_class(v, n)))
        if not is_schur_positive(e):
            return (
                "refuted",
                cases,
                f"v={format_sign_vector(v)}: {_fineness(e)}",
            )
    return "holds", cases, None


@_scan(
    "conj-10-2", 3, lambda n: 4 * _fact(n),
    "Vertical and horizontal rotations of an embedded inverse-descent"
    " class form sets with equal descent generating functions.",
)
def _scan_conj_10_2(n: int) -> tuple[str, int, str | None]:
    cyc = cyclic_class(n)
    cases = 0
    for d, dclass in zip(_dessets(n - 1, n - 2), inv_descent_classes(n - 1)):
        cases += 1
        lifted = embed(dclass, n)
        left = multiset_product(cyc, lifted)
        right = multiset_product(lifted, cyc)
        if not (left.is_set() and right.is_set()):
            return "refuted", cases, f"J={d.braces()}: a product has repeats"
        if left.qsym() != right.qsym():
            return (
                "refuted",
                cases,
                f"J={d.braces()}: {left.qsym().serialize()} != "
                f"{right.qsym().serialize()}",
            )
    return "holds", cases, None


@_scan(
    "conj-10-3", 3, lambda n: 12 * _fact(n) ** 2,
    "Inverse-descent classes commute with every battery set in the"
    " descent generating function.",
)
def _scan_conj_10_3(n: int) -> tuple[str, int, str | None]:
    battery = fine_battery(n)
    dessets = _dessets(n, n - 1)
    grid = product_qsym_grid([bset for _, bset in battery], inv_descent_classes(n))
    # grid[b, D, i] counts the pairs (y, w), y in battery set b and w in class D,
    # with Des(y w) = i.  For a fixed y, x -> w = (x y)^-1 permutes S_n, and x is
    # in class i with Des(x y) = D exactly when w is in class D with
    # Des(y w) = i: so grid[b, D, i] also counts the product of class i after
    # set b at mask D, and the one grid holds both sides, indexed [i, b, mask].
    left, right = grid.transpose(2, 0, 1), grid.transpose(1, 0, 2)
    commute = (left == right).all(axis=2)
    # Cases run d-major, so the first failing pair is the first in ravel order.
    failing = np.flatnonzero(~commute)
    if not len(failing):
        return "holds", commute.size, None
    first = int(failing[0])
    i, b = divmod(first, len(battery))
    lq, rq = _serialize_rows(n, [left[i, b].tolist(), right[i, b].tolist()])
    return "refuted", first + 1, f"B={battery[b][0]}, J={dessets[i].braces()}: {lq} != {rq}"


@_scan(
    "knuth-product", 3, lambda n: _fact(n) ** 2 + n * _fact(n),
    "The product of two plactic classes matches the pointwise"
    " character product of their shapes.",
)
def _scan_knuth_product(n: int) -> tuple[str, int, str | None]:
    # The plactic classes with their shapes, in order of their least words.
    items = sorted(
        ((next(iter(c)), mu, c) for mu in partitions(n) for c in knuth_classes(mu)),
        key=lambda item: item[0],
    )
    classes = [c for _, _, c in items]
    # kron[nu][mu]: the Schur row of s_mu * s_nu, one batched product per nu.
    parts = partitions(n)
    shapes = np.identity(len(parts), np.int64)
    kron = {nu: dict(zip(parts, kronecker_rows(shapes, SchurExpansion.single(nu)))) for nu in parts}
    cases = 0
    for least_a, mu, a in items:
        products = [QSym(n, tuple(row)) for row in product_qsym_grid([a], classes)[0].tolist()]
        for (least_b, nu, _), product in zip(items, products):
            cases += 1
            expected = SchurExpansion.from_row(n, kron[nu][mu])
            got = schur_expand(product)
            pair = f"A=class of {format_perm(least_a)}, B=class of {format_perm(least_b)}"
            if isinstance(got, NotSymmetric):
                return "refuted", cases, f"{pair}: {got.serialize()}"
            if got != expected:
                return "refuted", cases, f"{pair}: {got.serialize()} != {expected.serialize()}"
    return "holds", cases, None


@_scan(
    "restriction", 4, lambda n: 100 * 4**n,
    "Grid classes Schur-positive at one degree stay Schur-positive"
    " one degree below.",
)
def _scan_restriction(n: int) -> tuple[str, int, str | None]:
    corpus = _wide_matrix_corpus()
    cols = {name: v for name, m in corpus if (v := _column_signs(m)) is not None}
    rows = {d: dict(zip(cols, one_column_qsyms([*cols.values()], d).tolist())) for d in (n, n - 1)}

    def expand(name: str, m: GridMatrix, d: int) -> SchurExpansion | NotSymmetric:
        row = rows[d].get(name)
        q = qsym_of(enumerate_grid(m, d), d) if row is None else QSym(d, tuple(row))
        return schur_expand(q)

    for cases, (name, m) in enumerate(corpus, start=1):
        if not is_schur_positive(expand(name, m, n)):
            continue
        e_lo = expand(name, m, n - 1)
        if not is_schur_positive(e_lo):
            return (
                "refuted",
                cases,
                f"{name}: Schur-positive at degree {n} but at degree {n - 1}: "
                f"{_fineness(e_lo)}",
            )
    return "holds", len(corpus), None


SCAN_IDS: tuple[str, ...] = tuple(_SCANS)


def list_scans() -> list[tuple[str, int, str]]:
    """(conjecture id, first scanned degree, statement) for every scanner."""
    return [(s.id, s.min_n, s.statement) for s in _SCANS.values()]


def results_dir() -> Path:
    """Directory holding persisted per-degree scan verdicts."""
    override = os.environ.get("SCHURGRID_RESULTS_DIR")
    return Path(override) if override else cache_dir() / "results"


def _record_path(conj_id: str, n: int) -> Path:
    return results_dir() / f"{conj_id}-n{n}.json"


def _store_record(record: ScanRecord) -> None:
    path = _record_path(record.conjecture, record.n)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(record.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_record(conj_id: str, n: int) -> ScanRecord | None:
    """The stored verdict, or None; a file holding no record raises, untouched."""
    path = _record_path(conj_id, n)
    if not path.exists():
        return None
    try:
        return ScanRecord.from_json(json.loads(path.read_text()))
    except (ValueError, KeyError, TypeError) as exc:
        raise RuntimeError(f"stored verdict {path} cannot be read: {exc!r}") from exc


def scan_conjecture(conj_id: str, max_n: int) -> ScanReport:
    """Scan one conjecture degree by degree up to ``max_n``.

    Each degree's verdict is persisted once (append-only); reruns recompute
    and must reproduce the stored conjecture id, degree, verdict, case count
    and witness, otherwise (or if the file holds no record) they raise and
    leave it as it is.  The scan stops at the first refuting degree, when
    the cost model exceeds the work budget, or at the degree whose grid
    enumeration the grid budget refuses; the last two keep the frontier
    reached.
    """
    spec = _lookup(_SCANS, "conjecture", conj_id)
    records: list[ScanRecord] = []
    status = STATUS_HOLDS
    witness: str | None = None
    frontier = spec.min_n - 1
    notes = ""
    for n in range(spec.min_n, max_n + 1):
        result, elapsed, refusal = _gated_run(spec, n)
        if refusal is not None:
            notes = f"stopped {refusal[0]} n={n}: {refusal[1]}"
            break
        verdict, cases, found = result  # type: ignore[misc]
        record = ScanRecord(
            conj_id,
            n,
            verdict,
            cases,
            found,
            elapsed,
            datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
        stored = _load_record(conj_id, n)
        if stored is None:
            _store_record(record)
        elif (stored.conjecture, stored.n, stored.verdict, stored.cases, stored.witness) != (
            conj_id, n, verdict, cases, found
        ):
            raise RuntimeError(
                f"stored verdict for {conj_id} at n={n} is {stored.verdict!r} "
                f"({stored.cases} cases, witness {stored.witness!r}, recorded "
                f"for {stored.conjecture} at n={stored.n}) but recomputation "
                f"gives {verdict!r} ({cases} cases, witness {found!r}); "
                f"inspect {_record_path(conj_id, n)}"
            )
        records.append(record)
        if verdict == "refuted":
            status = STATUS_REFUTED
            witness = found
            break
        frontier = n
    return ScanReport(
        conj_id, max_n, frontier, status, witness, tuple(records), notes
    )
