"""The four checks decided by adding or removing one corner box print, one
degree above their default, what they printed when the data file was
recorded: status, sides and notes of ``cor-vertical`` 9, ``thm-horizontal1``
8, ``cor-cyc-fine`` 9 and ``thm-horiz-induction`` 8.

The test only compares; it never writes the file.  To record it, run
``outputs()`` and dump it with ``json.dumps(..., indent=1)``.
"""

from __future__ import annotations

import json
from pathlib import Path

from schurgrid.checks import run_check

GOLDEN = Path(__file__).parent / "data" / "golden_above_default.json"

_CHECKS = (
    ("cor-vertical", 9),
    ("thm-horizontal1", 8),
    ("cor-cyc-fine", 9),
    ("thm-horiz-induction", 8),
)


def outputs() -> dict[str, dict[str, object]]:
    """The recorded outputs, keyed ``check <id> n=<n>``."""
    out: dict[str, dict[str, object]] = {}
    for check_id, n in _CHECKS:
        r = run_check(check_id, n)
        out[f"check {check_id} n={n}"] = {
            "n": r.n, "status": r.status, "lhs": r.lhs, "rhs": r.rhs, "notes": r.notes,
        }
    return out


def test_corner_move_checks_match_above_their_default_degree():
    expected = json.loads(GOLDEN.read_text())
    got = outputs()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key
