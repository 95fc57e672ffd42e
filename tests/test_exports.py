"""Public names: every module's ``__all__`` lists names it defines, once,
and the benchmark finds every name it reads."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import schurgrid

MODULES = [
    info.name
    for info in pkgutil.iter_modules(schurgrid.__path__, "schurgrid.")
    if info.name != "schurgrid.__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_exist_and_appear_once(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        name for name in set(exported) if exported.count(name) > 1
    )
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, missing


# What the benchmark under ``perfbench/`` reads from the package by name,
# beyond the layer functions its tracer wraps: a missing name breaks a run.
PERFBENCH_NAMES = {
    "grids": [
        "_grid_cache", "consistent_orientation", "refine_matrix", "grid_budget",
        "one_column_member", "parse_sign_vector", "GridMatrix.cells",
    ],
    "qsym": [
        "_table_memory", "cache_dir", "descent_count_table", "NotSymmetric",
        "SchurExpansion.zero", "SchurExpansion.from_dict", "is_symmetric_by_monomials",
        "qsym_of", "schur_f_vector",
    ],
    "permsets": ["PermMultiset", "PermMultiset.support_size", "PermMultiset.elems"],
    "permutations": ["format_perm"],
    "setexpr": ["evaluate"],
    "checks": ["check_budget"],
    "cli": ["main"],
}


def test_benchmark_finds_every_name_it_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    # The layers include every name of tracer._family_names.
    wanted = [(home, name) for home, names, _, _, _ in tracer._layers() for name in names]
    wanted += [(home, name) for home, names in PERFBENCH_NAMES.items() for name in names]
    missing = []
    for home, dotted in wanted:
        value = importlib.import_module(f"schurgrid.{home}")
        for part in dotted.split("."):
            value = getattr(value, part, None)
        if value is None:
            missing.append(f"{home}.{dotted}")
    assert not missing, missing
