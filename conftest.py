"""Shared fixtures for the tests under ``tests/`` and the doctests in ``src/``."""

import pytest


@pytest.fixture(autouse=True)
def isolated_dirs(tmp_path, monkeypatch):
    """Keep every test off ``~/.cache/schurgrid``: scan verdicts are written
    to and read from a per-test directory, so a stale file from another
    version cannot leak into a result."""
    monkeypatch.setenv("SCHURGRID_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("SCHURGRID_RESULTS_DIR", str(tmp_path / "results"))
