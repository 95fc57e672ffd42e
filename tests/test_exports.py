"""Public names: every module's ``__all__`` lists names it defines, once."""

from __future__ import annotations

import importlib
import pkgutil

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
