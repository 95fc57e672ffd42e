"""Outside-in tracer for the traced benchmark run.

Nothing inside ``src/`` is instrumented.  After ``schurgrid`` is imported,
:func:`install` replaces each layer function listed in :func:`_layers` by a
wrapper, in every ``schurgrid.*`` namespace that binds it (``checks`` does
``from .grids import enumerate_grid``, so patching ``grids`` alone would
miss its calls).  A wrapper records a span (name, start, end, parent, job)
and work counters computed from the call's arguments and result at the
boundary.  Per-word helpers (``compose``, ``des_mask``, ``des_set``,
``syt_des``, ``inverse``) are never wrapped; their counts come from sizes
at the caller's boundary.

``setexpr`` keeps references to the family constructors in a table made
at import time, so set expressions reach them without passing through a
wrapper; on ``qsym`` jobs their time is part of ``setexpr.evaluate`` self
time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

ROOT = -1


@dataclass
class Span:
    name: str
    start: float
    parent: int
    job: str
    end: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)



class Tracer:
    """Holds spans in memory; :meth:`wrap` makes a recording wrapper."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = "setup"
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable | None = None,
        before: Callable | None = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(*args, **kwargs) if before else None
            span = Span(name, 0.0, stack[-1] if stack else ROOT, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                stack.pop()
                span.counters = {"error": type(exc).__name__}
                raise
            span.end = time.perf_counter()
            stack.pop()
            if count is not None:
                span.counters = count(result, state, *args, **kwargs)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent != ROOT:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children[i]
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


# ---------------------------------------------------------------------------
# Layer boundaries and their counters (all computed from arguments, results
# and the cache state seen at the boundary)
# ---------------------------------------------------------------------------


def _grid_before(m, n, *_args, **_kwargs):
    from schurgrid import grids

    return (m, n) in grids._grid_cache


def _grid_count(result, cached, m, n, *_args, **_kwargs):
    from schurgrid import grids

    if cached:
        return {"cache_hits": 1, "one_column": _no_commuting_cells(m)}
    refined = grids.consistent_orientation(m) is None
    work = grids.refine_matrix(m) if refined else m
    s = len(work.cells())
    return {
        "refined": int(refined),
        "words": s**n if n > 0 and s > 0 else 0,
        "perms_out": len(result),
        "one_column": _no_commuting_cells(work),
    }


def _no_commuting_cells(m) -> int:
    """1 when every two cells share a row or a column (one column or one
    row): the matrices with no commuting letters."""
    cells = m.cells()
    return int(
        all(a[0] == b[0] or a[1] == b[1] for i, a in enumerate(cells) for b in cells[i + 1 :])
    )


def _support(x) -> int:
    from schurgrid.permsets import PermMultiset

    if isinstance(x, PermMultiset):
        return x.support_size()
    return len(x)


def _product_count(result, _state, a, b, *_args, **_kwargs):
    out = {"compositions": _support(a) * _support(b)}
    if isinstance(result, frozenset):
        out["distinct"] = len(result)
    return out


def _qsym_of_count(result, _state, *_args, **_kwargs):
    return {"elements": sum(result.coeffs)}


def _schur_count(result, _state, *_args, **_kwargs):
    from schurgrid.qsym import NotSymmetric

    return {"not_symmetric": int(isinstance(result, NotSymmetric))}


def _table_before(n, refresh=False, *_args, **_kwargs):
    from schurgrid import qsym

    if not refresh and n in qsym._table_memory:
        return None
    return _dir_snapshot(qsym.cache_dir())


def _dir_snapshot(path) -> dict[str, tuple[int, int]]:
    try:
        entries = list(os.scandir(path))
    except OSError:
        return {}
    return {e.name: (e.inode(), e.stat().st_mtime_ns) for e in entries}


def _table_count(_result, before, *_args, **_kwargs):
    from schurgrid import qsym

    if before is None:
        return {"memory": 1}
    # A table that was (re)computed is written back, which changes the
    # cache directory; one loaded from disk leaves it untouched.
    changed = _dir_snapshot(qsym.cache_dir()) != before
    return {"computed": 1} if changed else {"disk": 1}


def _len_count(key: str) -> Callable:
    return lambda result, _state, *_a, **_k: {key: len(result)}


def _check_cases(result, _state, *_args, **_kwargs):
    lhs = result.lhs
    if lhs.startswith("cases="):
        return {"cases": int(lhs.split()[0].split("=")[1])}
    return {"cases": 1 if result.status != "resource-skipped" else 0}


def _scan_cases(result, _state, *_args, **_kwargs):
    return {"cases": sum(r.cases for r in result.records)}


def _family_names(permsets) -> list[str]:
    """Collection constructors and collection transforms of ``permsets``."""
    names = [n for n in permsets.__all__ if n.endswith("_class")]
    return names + [
        "symmetric_group",
        "inversion_sphere",
        "inversion_ball",
        "fine_battery",
        "embed",
        "invert_collection",
    ]


def _layers() -> list[tuple[str, list[str], str, Callable | None, Callable | None]]:
    """(module, functions, span name, counter, pre-call state) per layer."""
    from schurgrid import permsets

    return [
        ("grids", ["enumerate_grid"], "grids.enumerate_grid", _grid_count, _grid_before),
        ("permsets", ["set_product"], "permsets.set_product", _product_count, None),
        ("permsets", ["product_qsym"], "permsets.product_qsym", _product_count, None),
        ("permsets", ["multiset_product"], "permsets.multiset_product", _product_count, None),
        ("permsets", _family_names(permsets), "permsets.families", None, None),
        ("qsym", ["qsym_of"], "qsym.qsym_of", _qsym_of_count, None),
        ("qsym", ["schur_expand"], "qsym.schur_expand", _schur_count, None),
        ("qsym", ["schur_f_vector"], "qsym.schur_f_vector", None, None),
        ("qsym", ["descent_count_table"], "qsym.descent_count_table", _table_count, _table_before),
        ("tableaux", ["enumerate_syt"], "tableaux.enumerate_syt", _len_count("tableaux_out"), None),
        ("tableaux", ["rotation_bijection"], "tableaux.rotation_bijection", None, None),
        ("characters", ["kronecker"], "characters.kronecker", None, None),
        # The checks read the table a row at a time through character_row.
        ("characters", ["character_table", "character_row"], "characters.character_table", None, None),
        ("setexpr", ["evaluate"], "setexpr.evaluate", None, None),
        ("cli", ["main"], "cli.main", None, None),
        ("checks", ["run_check"], "checks.run_check", _check_cases, None),
        ("checks", ["scan_conjecture"], "checks.scan_conjecture", _scan_cases, None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer function in every loaded ``schurgrid`` module that
    binds it."""
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("schurgrid") and m]
    for home_name, functions, span_name, count, before in _layers():
        home = sys.modules[f"schurgrid.{home_name}"]
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(span_name, original, count, before)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS: dict[str, str] = {
    "grids.enumerate_grid.calls": "count",
    "grids.enumerate_grid.self_s": "s",
    "grids.enumerate_grid.self_s.one_column": "s",
    "grids.enumerate_grid.self_s.multi_cell": "s",
    "grids.enumerate_grid.cache_hits": "count",
    "grids.enumerate_grid.refined": "count",
    "grids.enumerate_grid.words": "count",
    "grids.enumerate_grid.perms_out": "count",
    "grids.enumerate_grid.yield": "fraction",
    "grids.resource_errors": "count",
    "permsets.set_product.self_s": "s",
    "permsets.set_product.compositions": "count",
    "permsets.set_product.yield": "fraction",
    "permsets.product_qsym.self_s": "s",
    "permsets.product_qsym.compositions": "count",
    "permsets.multiset_product.self_s": "s",
    "permsets.multiset_product.compositions": "count",
    "permsets.families.self_s": "s",
    "qsym.qsym_of.self_s": "s",
    "qsym.qsym_of.elements": "count",
    "qsym.schur_expand.calls": "count",
    "qsym.schur_expand.self_s": "s",
    "qsym.schur_expand.not_symmetric": "count",
    "qsym.schur_f_vector.self_s": "s",
    "qsym.descent_count_table.self_s": "s",
    "qsym.descent_count_table.computed": "count",
    "qsym.descent_count_table.disk": "count",
    "qsym.descent_count_table.memory": "count",
    "tableaux.enumerate_syt.self_s": "s",
    "tableaux.enumerate_syt.tableaux_out": "count",
    "tableaux.rotation_bijection.calls": "count",
    "tableaux.rotation_bijection.self_s": "s",
    "characters.kronecker.calls": "count",
    "characters.kronecker.self_s": "s",
    "characters.character_table.self_s": "s",
    "setexpr.evaluate.self_s": "s",
    "cli.main.self_s": "s",
    "checks.run_check.self_s": "s",
    "checks.scan_conjecture.self_s": "s",
    "checks.cases": "count",
    "trace_overhead_frac": "fraction",
}


def layer_metrics(spans: list[Span], selfs: Iterable[float]) -> dict[str, float]:
    """Aggregate spans by layer into the metrics of :data:`LAYER_METRICS`
    (all but ``trace_overhead_frac``, which compares two runs)."""
    calls: Counter[str] = Counter()
    self_s: defaultdict[str, float] = defaultdict(float)
    sums: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        for key, value in span.counters.items():
            if isinstance(value, (int, float)):
                sums[f"{span.name}.{key}"] += value
        if span.name == "grids.enumerate_grid":
            kind = "one_column" if span.counters.get("one_column") else "multi_cell"
            self_s[f"{span.name}.self_s.{kind}"] += own
            if span.counters.get("error") == "GridResourceError":
                sums["grids.resource_errors"] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    grid = "grids.enumerate_grid"
    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name == "trace_overhead_frac":
            continue
        if name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            out[name] = self_s[name[: -len(".self_s")]]
        elif name.startswith(f"{grid}.self_s."):
            out[name] = self_s[name]
        elif name == f"{grid}.yield":
            out[name] = ratio(sums[f"{grid}.perms_out"], sums[f"{grid}.words"])
        elif name == "permsets.set_product.yield":
            out[name] = ratio(
                sums["permsets.set_product.distinct"],
                sums["permsets.set_product.compositions"],
            )
        elif name == "checks.cases":
            out[name] = sums["checks.run_check.cases"] + sums["checks.scan_conjecture.cases"]
        else:
            out[name] = sums[name]
    return out
