"""Registered checks and conjecture scans: statuses, budgets, persistence."""

from __future__ import annotations

import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from schurgrid import checks, grids, permsets
from schurgrid.checks import (
    _REGISTRY,
    CHECK_IDS,
    DEFAULT_CHECK_BUDGET,
    SCAN_IDS,
    CheckReport,
    GridResourceError,
    check_budget,
    list_checks,
    list_scans,
    results_dir,
    run_check,
    scan_conjecture,
)
from schurgrid.cli import main
from schurgrid.permsets import (
    as_multiset,
    cyclic_class,
    embed,
    inv_descent_class,
    inv_descent_classes,
    inv_weak_descent_class,
    inv_weak_descent_classes,
    multiset_product,
    product_qsym,
    product_qsym_grid,
)
from schurgrid.permutations import DescSet, format_words
from schurgrid.qsym import SchurExpansion, schur_expand, skew_schur_f_vector
from schurgrid.tableaux import ribbon_shape, rotation_bijection, strip_chain_shape

SMOKE_N = 3
KNUTH_WITNESS = (
    "A=class of 12435, B=class of 14325: NotSymmetric(n=5; monomial "
    "coefficient at {1,2} is 5 but at {1,4} is 4)"
)


# ---------------------------------------------------------------------------
# Registry and report plumbing
# ---------------------------------------------------------------------------


def test_registry_shape():
    assert len(CHECK_IDS) == 26
    assert len(set(CHECK_IDS)) == 26
    assert SCAN_IDS == (
        "conj-10-1",
        "conj-10-2",
        "conj-10-3",
        "knuth-product",
        "restriction",
    )
    listed = list_checks()
    assert [cid for cid, _, _ in listed] == list(CHECK_IDS)
    assert all(desc for _, _, desc in listed)
    assert [cid for cid, _, _ in list_scans()] == list(SCAN_IDS)


def _readme_table(heading: str) -> list[tuple[str, str, str]]:
    """(id, degree, statement) rows of the README table under ``heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \| (.+) \|$", section, re.M)
    return [(i, d, s.replace("\\*", "*")) for i, d, s in rows]


def test_readme_tables_match_registry():
    checks = [
        (cid, f"{n} (fixed)" if _REGISTRY[cid].fixed_n else str(n), text)
        for cid, n, text in list_checks()
    ]
    assert _readme_table("Registered checks") == checks
    scans = [(cid, str(n), text) for cid, n, text in list_scans()]
    assert _readme_table("Conjecture scanners") == scans


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_every_check_verifies_at_smoke_degree(check_id):
    fixed = {"neg-arc-grid": None, "neg-knuth-rot": None, "neg-stack": None}
    n = fixed.get(check_id, SMOKE_N) if check_id in fixed else SMOKE_N
    report = run_check(check_id, n)
    assert report.status == "verified", report.notes
    assert report.lhs == report.rhs or report.lhs.startswith("cases=")
    assert report.elapsed_ms >= 0


def test_report_round_trip_and_summary():
    report = run_check("kj-cardinality", 4)
    again = CheckReport(**json.loads(json.dumps(report.to_json())))
    assert again == report
    lines = report.summary_lines()
    assert lines[0].startswith("check kj-cardinality (n=4): verified")
    assert lines[1].startswith("  lhs: ")
    assert lines[2].startswith("  rhs: ")


def test_unknown_and_invalid_degrees():
    with pytest.raises(ValueError, match="unknown check id"):
        run_check("nope")
    with pytest.raises(ValueError, match="cannot override"):
        run_check("neg-arc-grid", 5)
    with pytest.raises(ValueError, match="needs degree >= 3"):
        run_check("prop-R2", 2)
    with pytest.raises(ValueError, match="unknown conjecture id"):
        scan_conjecture("nope", 4)


def test_resource_skip_honors_budget(monkeypatch):
    monkeypatch.setenv("SCHURGRID_CHECK_BUDGET", "10")
    assert check_budget() == 10
    report = run_check("thm-main-2", 6)
    assert report.status == "resource-skipped"
    assert report.notes == (
        "estimated work 39600 exceeds budget 10; raise SCHURGRID_CHECK_BUDGET"
        " to force"
    )


def test_empty_check_budget_means_the_default(monkeypatch):
    monkeypatch.setenv("SCHURGRID_CHECK_BUDGET", "")
    assert check_budget() == DEFAULT_CHECK_BUDGET
    assert run_check("thm-main-2", 6).status == "verified"


def test_check_refused_by_the_grid_gate_is_skipped(monkeypatch):
    # prop-prod-onecol enumerates one-column classes of n cells: 4**5 = 1024
    # words at n = 5 exceed a grid budget of 300.
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "300")
    monkeypatch.setattr(grids, "_grid_cache", {})  # a cached class skips the gate
    report = run_check("prop-prod-onecol", 5)
    assert (report.status, report.lhs, report.rhs) == ("resource-skipped", "", "")
    assert report.notes == (
        "grid enumeration over budget: enumeration needs 1024 words (budget"
        " 300); raise SCHURGRID_GRID_BUDGET"
    )


# ---------------------------------------------------------------------------
# Negative checks reproduce their recorded counterexamples
# ---------------------------------------------------------------------------


def test_negative_checks_pin_failures():
    arc = run_check("neg-arc-grid")
    assert arc.status == "verified" and arc.n == 4
    knuth = run_check("neg-knuth-rot")
    assert knuth.status == "verified" and knuth.n == 5
    assert "NotSymmetric(n=5" in knuth.rhs or "NotSymmetric(n=5" in knuth.notes
    stack = run_check("neg-stack")
    assert stack.status == "verified" and stack.n == 6


# ---------------------------------------------------------------------------
# Scans: verdicts, persistence, refutation
# ---------------------------------------------------------------------------


def test_scan_holds_and_persists():
    report = scan_conjecture("conj-10-1", 4)
    assert report.status == "holds-up-to"
    assert report.frontier == 4
    assert report.witness is None
    assert [r.n for r in report.records] == [3, 4]
    stored = sorted(p.name for p in results_dir().glob("*.json"))
    assert stored == ["conj-10-1-n3.json", "conj-10-1-n4.json"]
    payload = json.loads((results_dir() / "conj-10-1-n4.json").read_text())
    assert payload["verdict"] == "holds"
    assert payload["cases"] > 0

    # Rerunning recomputes and reconciles against the stored verdicts.
    again = scan_conjecture("conj-10-1", 4)
    assert [r.verdict for r in again.records] == ["holds", "holds"]


TAMPERS = {
    "verdict": ("conj-10-2", 3, lambda verdict: "refuted"),
    "cases": ("conj-10-2", 3, lambda cases: cases + 1),
    "witness": ("knuth-product", 5, lambda witness: witness + " (edited)"),
    "n": ("conj-10-2", 3, lambda n: n + 1),
    "conjecture": ("conj-10-2", 3, lambda conjecture: "conj-10-1"),
}


@pytest.mark.parametrize("field", TAMPERS)
def test_scan_rerun_detects_tampered_verdict(field):
    conj_id, n, tamper = TAMPERS[field]
    scan_conjecture(conj_id, n)
    path = results_dir() / f"{conj_id}-n{n}.json"
    payload = json.loads(path.read_text())
    payload[field] = tamper(payload[field])
    path.write_text(json.dumps(payload))
    with pytest.raises(RuntimeError, match="stored verdict"):
        scan_conjecture(conj_id, n)


UNREADABLE = {
    "cases": lambda payload: json.dumps({**payload, "cases": "many"}),
    "created": lambda payload: json.dumps(
        {key: value for key, value in payload.items() if key != "created"}
    ),
    "text": lambda payload: "{not json",
}


@pytest.mark.parametrize("tamper", UNREADABLE)
def test_scan_rerun_refuses_an_unreadable_verdict(tamper):
    # A stored file that holds no record is neither trusted nor replaced.
    scan_conjecture("knuth-product", 5)
    path = results_dir() / "knuth-product-n5.json"
    text = UNREADABLE[tamper](json.loads(path.read_text()))
    path.write_text(text)
    with pytest.raises(RuntimeError, match="cannot be read") as caught:
        scan_conjecture("knuth-product", 5)
    assert str(path) in str(caught.value)
    assert path.read_text() == text


def test_scan_budget_stop(monkeypatch):
    monkeypatch.setenv("SCHURGRID_CHECK_BUDGET", "1")
    report = scan_conjecture("conj-10-3", 5)
    assert report.status == "holds-up-to"
    assert report.frontier == 2
    assert report.records == ()
    assert report.notes == "stopped before n=3: estimated work 432 exceeds budget 1"


def test_scan_stopped_by_the_grid_gate_keeps_its_frontier(monkeypatch, tmp_path):
    # conj-10-1 enumerates one-column classes of n - 1 cells: 3**4 = 81
    # words pass a budget of 300 at n = 4, and 4**5 = 1024 do not at n = 5.
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "300")
    monkeypatch.setenv("SCHURGRID_RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setattr(grids, "_grid_cache", {})  # a cached class skips the gate
    out = tmp_path / "scan.json"
    assert main(["scan", "conj-10-1", "--max-n", "6", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["status"], report["frontier"]) == ("holds-up-to", 4)
    assert [record["n"] for record in report["records"]] == [3, 4]
    assert report["notes"] == (
        "stopped at n=5: grid enumeration over budget: enumeration needs 1024"
        " words (budget 300); raise SCHURGRID_GRID_BUDGET"
    )
    stored = sorted(p.name for p in (tmp_path / "results").glob("*.json"))
    assert stored == ["conj-10-1-n3.json", "conj-10-1-n4.json"]


def test_knuth_product_scan_refuted_at_degree_five():
    holds = scan_conjecture("knuth-product", 4)
    assert holds.status == "holds-up-to"
    assert holds.frontier == 4
    assert [(r.n, r.verdict) for r in holds.records] == [
        (3, "holds"),
        (4, "holds"),
    ]

    refuted = scan_conjecture("knuth-product", 6)
    assert refuted.status == "refuted"
    assert refuted.witness == KNUTH_WITNESS
    assert refuted.records[-1].n == 5
    assert refuted.frontier == 4
    payload = json.loads((results_dir() / "knuth-product-n5.json").read_text())
    assert payload["witness"] == KNUTH_WITNESS


def test_other_scans_hold_at_small_degrees():
    assert scan_conjecture("conj-10-3", 4).status == "holds-up-to"
    assert scan_conjecture("restriction", 5).status == "holds-up-to"


def test_grid_resource_error_is_distinct():
    assert issubclass(GridResourceError, Exception)
    assert not issubclass(GridResourceError, ValueError)


def _first_noncommuting_pair(n):
    """The refutation a pair-by-pair loop over the cases of conj-10-3 finds:
    descent sets outermost, battery sets innermost."""
    cases = 0
    for d in checks._dessets(n, n - 1):
        dclass = inv_descent_class(n, d)
        for name, bset in checks.fine_battery(n):
            cases += 1
            left, right = product_qsym(dclass, bset), product_qsym(bset, dclass)
            if left != right:
                witness = f"B={name}, J={d.braces()}: {left.serialize()} != {right.serialize()}"
                return "refuted", cases, witness
    return "holds", cases, None


def test_batched_conj_10_3_reports_the_first_pairwise_refutation(monkeypatch):
    battery = checks.fine_battery

    def with_transposition(n):
        swap = (2, 1, *range(3, n + 1))
        return [*battery(n), ("swap", as_multiset([swap]))]

    monkeypatch.setattr(checks, "fine_battery", with_transposition)
    runner = checks._SCANS["conj-10-3"].runner
    for n in (3, 4):
        expected = _first_noncommuting_pair(n)
        assert expected[0] == "refuted"
        assert runner(n) == expected
    record = scan_conjecture("conj-10-3", 4).records[-1]
    assert (record.verdict, record.cases, record.witness) == _first_noncommuting_pair(3)


@pytest.mark.parametrize("n", range(1, 6))
def test_one_grid_holds_both_sides_of_conj_10_3(n):
    # For a fixed y, x -> (x y)^-1 permutes S_n: the fold of the classes after
    # any multiset equals the fold of the multiset after the classes, with the
    # class and descent axes swapped.  The two-grid route is the oracle.
    swap = (2, 1, *range(3, n + 1)) if n > 1 else (1,)
    lopsided = as_multiset({tuple(range(n, 0, -1)): 3, tuple(range(1, n + 1)): 2}, n)
    bsets = [bset for _, bset in checks.fine_battery(n)] + [as_multiset([swap]), lopsided]
    dclasses = inv_descent_classes(n)
    grid = product_qsym_grid(bsets, dclasses)
    assert np.array_equal(product_qsym_grid(dclasses, bsets), grid.transpose(2, 0, 1))


def test_ribbons_are_columns_of_the_descent_count_table():
    # Gessel's ribbon expansion against the skew placement walk of the ribbon.
    for n in range(1, 9):
        dessets = [DescSet(n, mask) for mask in range(1 << (n - 1))]
        rows = checks._ribbon_f_rows(n, [d.mask for d in dessets])
        for d, row in zip(dessets, rows.tolist()):
            f = skew_schur_f_vector(ribbon_shape(n, d))
            assert checks._ribbon_schur(n, d) == schur_expand(f)
            assert tuple(row) == f.coeffs


def test_planted_ribbon_fault_is_reported_at_the_same_case(monkeypatch):
    # The ribbon of {2} gains an extra s[4]: the batched character side must
    # name the case, and print the two sides, that a pair-by-pair loop does.
    ribbon = checks._ribbon_schur

    def planted(n, d):
        e = ribbon(n, d)
        return e + SchurExpansion.single((n,)) if d == DescSet.of(n, [2]) else e

    monkeypatch.setattr(checks, "_ribbon_schur", planted)
    report = run_check("thm-main-2", 4)
    assert (report.status, report.lhs, report.rhs, report.notes) == (
        "refuted",
        "n=4; F{1} + 2*F{2} + F{3} + F{1,3}",
        "n=4; F{} + F{1} + 2*F{2} + F{3} + F{1,3}",
        "counterexample at case 'knuth[1234] * D{2}'",
    )
    report = run_check("thm-main-1", 4)
    assert (report.status, report.lhs, report.rhs, report.notes) == (
        "refuted",
        "s[4] + s[3,1] + s[2,2]",
        "2*s[4] + s[3,1] + s[2,2]",
        "counterexample at case 'R{2} two routes'",
    )


@pytest.mark.parametrize("n", range(2, 7))
def test_thm_main_1_weak_cells_equal_the_weak_class_fold(monkeypatch, n):
    # thm-main-1 folds the battery against the exact classes once and sums
    # them over subsets; its weak cells must equal a direct fold against
    # every weak class.
    seen = []
    sides = checks._kronecker_sides

    def record(n, cells, rows, e):
        seen.append(cells.copy())
        return sides(n, cells, rows, e)

    monkeypatch.setattr(checks, "_kronecker_sides", record)
    assert run_check("thm-main-1", n).status == "verified"
    bsets = [bset for _, bset, _ in checks._expanded_battery(n)[0]]
    direct = product_qsym_grid(bsets, list(inv_weak_descent_classes(n)))
    assert np.array_equal(np.stack(seen, axis=1), direct)


def test_planted_exact_cell_fault_refutes_at_the_first_weak_class_holding_it(monkeypatch):
    # One extra F{1,2} in the product of the third battery set with the exact
    # class D{1,3}: the weak classes R{J} with J a superset of {1,3} all hold
    # it, and the first of them in case order is R{1,3}.
    grid = checks.product_qsym_grid

    def planted(lefts, rights):
        cells = grid(lefts, rights)
        cells[2, DescSet.of(4, [1, 3]).mask, DescSet.of(4, [1, 2]).mask] += 1
        return cells

    monkeypatch.setattr(checks, "product_qsym_grid", planted)
    report = run_check("thm-main-1", 4)
    assert (report.status, report.lhs, report.rhs, report.notes) == (
        "refuted",
        "n=4; 2*F{} + 5*F{1} + 8*F{2} + 5*F{1,2} + 5*F{3} + 7*F{1,3} + 4*F{2,3} + F{1,2,3}",
        "n=4; 2*F{} + 5*F{1} + 8*F{2} + 4*F{1,2} + 5*F{3} + 7*F{1,3} + 4*F{2,3} + F{1,2,3}",
        "counterexample at case 'knuth[1324] * R{1,3}'",
    )


@pytest.mark.parametrize(
    "check_id, n",
    [("thm-main-1", 4), ("thm-main-2", 4), ("thm-main-2", 5), ("thm-horiz-induction", 5)],
)
def test_battery_checks_fold_once(caplog, check_id, n):
    caplog.set_level(logging.DEBUG, logger="schurgrid")
    assert run_check(check_id, n).status == "verified"
    folds = [r for r in caplog.records if r.getMessage().startswith("product_qsym_grid")]
    assert len(folds) == 1


@pytest.mark.parametrize("n", range(3, 6))
def test_conj_10_3_folds_once_per_degree(caplog, n):
    caplog.set_level(logging.DEBUG, logger="schurgrid")
    assert checks._SCANS["conj-10-3"].runner(n)[0] == "holds"
    folds = [r for r in caplog.records if r.getMessage().startswith("product_qsym_grid")]
    assert len(folds) == 1


def test_thm_main_1_cost_admits_degree_seven_only():
    # The cost model counts the compositions of the one battery x S_n fold:
    # at most 6 * n! battery words against the n! words of S_n.
    cost = _REGISTRY["thm-main-1"].cost
    assert cost(7) <= DEFAULT_CHECK_BUDGET < cost(8)


def test_expanded_battery_follows_a_patched_battery(monkeypatch):
    # The battery is expanded once per degree, but not across a patch of
    # fine_battery.
    battery, rows = checks._expanded_battery(3)
    assert [e for _, _, e in battery] == [SchurExpansion.from_row(3, row) for row in rows]
    full = checks.fine_battery
    monkeypatch.setattr(checks, "fine_battery", lambda n: full(n)[:1])
    assert [name for name, _, _ in checks._expanded_battery(3)[0]] == [battery[0][0]]
    monkeypatch.undo()
    assert checks._expanded_battery(3)[0] is battery


# ---------------------------------------------------------------------------
# thm-horizontal1: the bijection audit on word matrices
# ---------------------------------------------------------------------------


def weak_rotations(n, d):
    """The support of the weak product that thm-horizontal1 audits for the
    inverse-descent bound ``d``, with its index ``J`` and strip chain."""
    j = DescSet.of(n, d.members)
    weak = multiset_product(embed(inv_weak_descent_class(n - 1, d), n), cyclic_class(n))
    return weak.words, j, strip_chain_shape(n, j)


def test_array_rotation_audit_agrees_with_the_loop():
    # The per-element reference is `rotation_bijection`, one permutation at a time.
    for n in range(2, 8):
        for d in checks._dessets(n - 1, n - 2):
            words, j, shape = weak_rotations(n, d)
            decomposes, images = checks._rotation_images(words, j, shape)
            assert decomposes.all()
            assert [tuple(row) for row in images.tolist()] == [
                rotation_bijection(p, j).row_word() for p in map(tuple, words.tolist())
            ]
            assert checks._rotation_fault(words, j, shape) is None


def test_array_rotation_audit_fails_where_the_loop_names_a_fault():
    for n in range(2, 6):
        dessets = checks._dessets(n - 1, n - 2)
        for d in dessets:
            words, j, shape = weak_rotations(n, d)
            outsider = np.arange(n, 0, -1, dtype=words.dtype)
            cases = [
                (words[1:], j, shape),
                (np.concatenate([words, words[-1:]]), j, shape),
                (np.concatenate([outsider[None], words]), j, shape),
            ]
            if j.members:  # the strip chain of J = {} is the right shape
                cases.append((words[::-1], j, strip_chain_shape(n, DescSet.of(n, []))))
            for other in dessets:
                j2 = DescSet.of(n, other.members)
                if j2 != j:
                    cases.append((words, j2, strip_chain_shape(n, j2)))
            for case in cases:
                assert isinstance(checks._rotation_fault(*case), str), case


def test_planted_rotation_faults_keep_their_failure_strings(monkeypatch):
    words, j, shape = weak_rotations(5, DescSet.of(4, [1]))
    assert format_words(words[:5]).split() == ["12345", "13452", "14523", "15234", "21345"]
    planted = [
        (np.insert(words, 4, words[3], axis=0), "15234: image repeated (not injective)"),
        (
            np.insert(words, 2, np.array([1, 2, 4, 3, 5], words.dtype), axis=0),
            "12435: map undefined (permutation does not decompose over the "
            "given strip chain index)",
        ),
        (words[1:], "image misses 1 of 20 tableaux (not surjective)"),
    ]
    for case, text in planted:
        assert checks._rotation_fault(case, j, shape) == text

    # A swapped descent, planted in `_rotation_images`: entries 1 and 2
    # trade rows unless one of them is the top corner.  That keeps every
    # image a strip chain tableau, distinct, with its corner, so only the
    # descent comparison can see it.  The check's own report names the
    # first row whose image has 1 and 2 in different lower rows.
    images_of = checks._rotation_images

    def swapped_images(words, j, shape):
        decomposes, images = images_of(words, j, shape)
        swap = (images[:, 0] != 1) & (images[:, 1] != 1)
        images[swap, :2] = images[swap, 1::-1]
        return decomposes, images

    monkeypatch.setattr(checks, "_rotation_images", swapped_images)
    report = run_check("thm-horizontal1", 4)
    assert (report.status, report.lhs, report.rhs, report.notes) == (
        "refuted",
        "1234: descent set not preserved",
        "bijective, descent-preserving, corner-tracking",
        "counterexample at case 'J={1} bijection audit'",
    )


@pytest.mark.parametrize("n", [2, 5, 7])
def test_cor_cyc_fine_builds_the_symmetric_group_once(monkeypatch, n):
    calls = []
    build = permsets._symmetric_words

    def counted(m):
        calls.append(m)
        return build(m)

    monkeypatch.setattr(permsets, "_symmetric_words", counted)
    monkeypatch.setattr(checks, "_symmetric_words", counted)
    assert run_check("cor-cyc-fine", n).status == "verified"
    assert calls == [n]


def test_onecol_zigzags_counts_its_classes_and_admits_degree_nine(monkeypatch):
    """The class side is one counting call and lists no class; the cost
    model counts bounded states, so n = 8 and 9 are admitted by default."""
    monkeypatch.setattr(grids, "_grid_cache", {})
    cost = _REGISTRY["onecol-zigzags"].cost
    assert cost(9) <= DEFAULT_CHECK_BUDGET < cost(11)
    report = run_check("onecol-zigzags", 8)
    assert report.status == "verified" and report.lhs.startswith("cases=254 ")
    assert not grids._grid_cache


def test_onecol_zigzags_refuses_over_the_states_budget(monkeypatch):
    monkeypatch.setenv("SCHURGRID_GRID_BUDGET", "1000")
    report = run_check("onecol-zigzags", 6)
    assert report.status == "resource-skipped"
    assert report.notes.startswith("grid enumeration over budget: counting needs up to ")
    assert report.notes.endswith(" states (budget 1000); raise SCHURGRID_GRID_BUDGET")


def test_restriction_scan_lists_no_one_column_class(monkeypatch):
    monkeypatch.setattr(grids, "_grid_cache", {})
    assert checks._SCANS["restriction"].runner(5) == ("holds", len(checks._wide_matrix_corpus()), None)
    assert not any(grids._column_signs(m) for m, _ in grids._grid_cache)
