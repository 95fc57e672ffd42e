"""Every check and scan still prints what it printed when the golden file
was recorded: status, sides and notes of each check at its default degree
(and of ``qsh-formula`` / ``ll-formula`` at n=14, where the Schur inverse's
entries grow), and status, frontier, witness, notes and per-degree records
of each scan to degree 6.  Timings and timestamps are left out.

The test only compares; it never writes the file.  To record it, run
``outputs()`` and dump it with ``json.dumps(..., indent=1)``.
"""

from __future__ import annotations

import json
from pathlib import Path

from schurgrid.checks import list_checks, list_scans, run_check, scan_conjecture

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.json"

_EXTRA_CHECKS = (("qsh-formula", 14), ("ll-formula", 14))
_SCAN_MAX_N = 6


def _check(check_id: str, n: int | None) -> dict[str, object]:
    r = run_check(check_id, n)
    return {"n": r.n, "status": r.status, "lhs": r.lhs, "rhs": r.rhs, "notes": r.notes}


def outputs() -> dict[str, dict[str, object]]:
    """The recorded outputs, keyed ``check <id> n=<n>`` / ``scan <id>``."""
    out: dict[str, dict[str, object]] = {}
    for check_id, n, _ in list_checks():
        out[f"check {check_id} n={n}"] = _check(check_id, None)
    for check_id, n in _EXTRA_CHECKS:
        out[f"check {check_id} n={n}"] = _check(check_id, n)
    for conj_id, _, _ in list_scans():
        s = scan_conjecture(conj_id, _SCAN_MAX_N)
        out[f"scan {conj_id}"] = {
            "status": s.status,
            "frontier": s.frontier,
            "witness": s.witness,
            "notes": s.notes,
            "records": [[r.n, r.verdict, r.cases, r.witness] for r in s.records],
        }
    return out


def test_outputs_match_the_golden_file():
    expected = json.loads(GOLDEN.read_text())
    got = outputs()
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key
