"""Command-line interface: exit codes, frozen output, JSON artifacts."""

from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import schurgrid
from schurgrid import cli, grids
from schurgrid.cli import EXIT_OK, EXIT_REFUTED, EXIT_USAGE, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# qsym / grid enum
# ---------------------------------------------------------------------------


def test_qsym_fundamental_output(capsys):
    code, out, err = run(capsys, ["qsym", 'grid("-+", 3)'])
    assert (code, err) == (EXIT_OK, "")
    assert out == "n=3; F{} + 2*F{1} + F{1,2}\n"


def test_qsym_schur_output(capsys):
    code, out, _ = run(capsys, ["qsym", "C(5)", "--schur"])
    assert code == EXIT_OK
    assert out == "s[5] + s[4,1]\n"


def test_qsym_schur_reports_asymmetry_without_failing(capsys):
    code, out, _ = run(capsys, ["qsym", "D(3,{1})", "--schur"])
    assert code == EXIT_OK
    assert out == (
        "NotSymmetric(n=3; monomial coefficient at {1} is 2 but at {2} is 0)\n"
    )


def test_qsym_monomial_evaluation(capsys):
    code, out, _ = run(capsys, ["qsym", "C(3)", "--n-vars", "2"])
    assert code == EXIT_OK
    assert out == "x2^3 + 2*x1*x2^2 + 2*x1^2*x2 + x1^3\n"


def test_grid_enum_accepts_leading_dash_matrix(capsys):
    code, out, _ = run(capsys, ["grid", "enum", "-+", "--n", "3"])
    assert code == EXIT_OK
    assert out == "123\n213\n312\n321\n"


def test_repeated_calls_answer_like_first_calls(capsys):
    # The parser is built once per process; each call must print and exit
    # exactly as it does on a freshly built parser.
    calls = [
        ["qsym"],
        ["qsym", "C(4)", "--schur"],
        ["grid", "enum", "+0/0-", "--n", "3"],
        ["check", "prop-R2", "--n", "4"],
        ["list-checks"],
        ["qsym"],
    ]

    def outcome(argv):
        code, out, err = run(capsys, argv)
        return code, re.sub(r"\[\d+ ms\]", "[ms]", out), err

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    parser = cli._build_parser()
    assert [outcome(argv) for argv in calls] == fresh
    assert cli._build_parser() is parser
    assert fresh[0] == fresh[-1]
    assert fresh[0][0] == EXIT_USAGE and fresh[0][2].startswith("error: ")
    assert [code for code, _, _ in fresh[1:-1]] == [EXIT_OK] * 4


@pytest.mark.parametrize("n", [17, 300])
def test_grid_enum_at_large_degree(capsys, n):
    code, out, err = run(capsys, ["grid", "enum", "+", "--n", str(n)])
    assert (code, err) == (EXIT_OK, "")
    assert out == ",".join(map(str, range(1, n + 1))) + "\n"


def test_symmetric_group_over_budget_is_refused_before_allocating(capsys, monkeypatch):
    # 5! * 5 = 600 letters against a budget of 599: refused, where S_5 would
    # take a few hundred bytes even if the gate were missing.
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "599")
    code, out, err = run(capsys, ["qsym", "S(5)", "--schur"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "resource error: S_5 needs 600 letters (budget 599); "
        "raise SCHURGRID_GRID_BUDGET\n"
    )
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "600")
    code, out, _ = run(capsys, ["qsym", "S(5)", "--schur"])
    assert (code, out) == (EXIT_OK, "s[5] + 4*s[4,1] + 5*s[3,2] + 6*s[3,1,1] + 5*s[2,2,1] + 4*s[2,1,1,1] + s[1,1,1,1,1]\n")


def test_expression_error_exits_one(capsys):
    code, out, err = run(capsys, ["qsym", "S(x)"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: position 2: expected a number, found 'x'\n"


def test_missing_subcommand_exits_one(capsys):
    code, out, err = run(capsys, [])
    assert code == EXIT_USAGE
    assert "required: command" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_verified_with_json(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["check", "cor-LC-CL", "--n", "3", "--json", str(target)]
    )
    assert code == EXIT_OK
    assert out.startswith("check cor-LC-CL (n=3): verified")
    assert "schur of horizontal rotations: s[3] + 2*s[2,1] + s[1,1,1]" in out
    assert "schur of arc class: s[3] + 2*s[2,1] + s[1,1,1]" in out
    payload = json.loads(target.read_text())
    assert payload["status"] == "verified"
    assert payload["check_id"] == "cor-LC-CL"
    assert payload["lhs"] == payload["rhs"]


def test_check_unknown_id_exits_one(capsys):
    code, out, err = run(capsys, ["check", "nope"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "unknown check id" in err


def test_check_fixed_degree_override_exits_one(capsys):
    code, _, err = run(capsys, ["check", "neg-arc-grid", "--n", "5"])
    assert code == EXIT_USAGE
    assert "cannot override" in err


def test_check_resource_skip_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("SCHURGRID_CHECK_BUDGET", "10")
    code, out, err = run(capsys, ["check", "thm-main-2", "--n", "6"])
    assert code == EXIT_USAGE
    assert "resource-skipped" in out
    assert err == "resource budget exceeded; raise SCHURGRID_CHECK_BUDGET or lower --n\n"


def test_check_refused_by_the_grid_gate_names_the_grid_budget(capsys, monkeypatch):
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "300")
    monkeypatch.setattr(grids, "_grid_cache", {})  # a cached class skips the gate
    code, out, err = run(capsys, ["check", "prop-prod-onecol", "--n", "5"])
    assert code == EXIT_USAGE
    assert "resource-skipped" in out
    assert err == "resource budget exceeded; raise SCHURGRID_GRID_BUDGET or lower --n\n"


@pytest.mark.parametrize("var", ["SCHURGRID_CHECK_BUDGET", "SCHURGRID_GRID_BUDGET"])
def test_empty_budget_means_the_default(capsys, monkeypatch, var):
    monkeypatch.setenv(var, "")
    monkeypatch.setattr(grids, "_grid_cache", {})  # a cached class skips the gate
    code, out, err = run(capsys, ["check", "prop-prod-onecol", "--n", "5"])
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("check prop-prod-onecol (n=5): verified")


@pytest.mark.parametrize("var", ["SCHURGRID_CHECK_BUDGET", "SCHURGRID_GRID_BUDGET"])
@pytest.mark.parametrize("value", ["abc", "1e9"])
def test_non_integer_budget_exits_one_naming_its_variable(capsys, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    monkeypatch.setattr(grids, "_grid_cache", {})
    code, out, err = run(capsys, ["check", "prop-prod-onecol", "--n", "5"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {var} must be an integer, got '{value}'\n"


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_holds_exits_zero(capsys):
    code, out, _ = run(capsys, ["scan", "conj-10-1", "--max-n", "3"])
    assert code == EXIT_OK
    assert out.startswith("scan conj-10-1: holds up to n=3")


def test_scan_refuted_exits_two_with_witness(capsys, tmp_path):
    target = tmp_path / "scan.json"
    code, out, _ = run(
        capsys, ["scan", "knuth-product", "--max-n", "5", "--json", str(target)]
    )
    assert code == EXIT_REFUTED
    assert out.startswith("scan knuth-product: refuted at n=5")
    assert "witness: A=class of 12435, B=class of 14325" in out
    payload = json.loads(target.read_text())
    assert payload["status"] == "refuted"
    assert [r["n"] for r in payload["records"]] == [3, 4, 5]
    assert payload["witness"].startswith("A=class of 12435")


# ---------------------------------------------------------------------------
# list-checks and the console script
# ---------------------------------------------------------------------------


def test_list_checks_output(capsys):
    code, out, _ = run(capsys, ["list-checks"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "checks (id, default degree, statement):"
    assert len(lines) == 33
    body = "\n".join(lines)
    for check_id in ("thm-main-1", "neg-stack", "kj-cardinality"):
        assert check_id in body
    for conj_id in ("conj-10-2", "knuth-product", "restriction"):
        assert conj_id in body


def declared_console_script():
    """The ``module:attr`` target that ``pyproject.toml`` declares for the
    ``schurgrid`` console script."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["schurgrid"]


def test_console_script_is_wired(tmp_path):
    module_name, _, attr = declared_console_script().partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main

    # Run the target the way the wrapper that pip generates does.
    wrapper = f"import sys; from {module_name} import {attr}; sys.exit({attr}())"
    package_parent = Path(schurgrid.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_parent))

    def invoke(*argv):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    proc = invoke("qsym", "C(4)", "--schur")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == "s[4] + s[3,1]\n"
    assert invoke("qsym", "S(x)").returncode == EXIT_USAGE

    proc = subprocess.run(
        [sys.executable, "-m", "schurgrid", "qsym", "C(4)", "--schur"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == "s[4] + s[3,1]\n"


def test_check_and_scan_leave_numpy_ma_unimported(tmp_path):
    # Row dedupe runs on integer sorts, never np.unique, whose first call
    # imports numpy.ma.
    script = (
        "import sys; from schurgrid.cli import main\n"
        "assert main(['scan', 'restriction', '--max-n', '5']) == 0\n"
        "assert main(['check', 'thm-main-1', '--n', '4']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    package_parent = Path(schurgrid.__file__).resolve().parents[1]
    env = dict(
        os.environ,
        PYTHONPATH=str(package_parent),
        SCHURGRID_CACHE_DIR=str(tmp_path / "cache"),
        SCHURGRID_RESULTS_DIR=str(tmp_path / "results"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.skipif(
    shutil.which("schurgrid") is None, reason="no schurgrid executable on PATH"
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        [shutil.which("schurgrid"), "qsym", "C(4)", "--schur"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == "s[4] + s[3,1]\n"
