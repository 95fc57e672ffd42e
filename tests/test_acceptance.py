"""Acceptance suite: nine battery criteria, exact arithmetic, zero tolerance.

Each criterion prints exactly one ``ACCEPTANCE k: PASS/FAIL`` line with its
wall time and limit.  Comparisons are exact integer identities throughout; a
conjecture refutation in criterion 9 is a reportable outcome, not a failure.
"""

from __future__ import annotations

import contextlib
import itertools
import re
import time
from itertools import product as iproduct

from schurgrid.characters import char_vector, signed_char_vector
from schurgrid.checks import run_check, scan_conjecture
from schurgrid.cli import main as cli_main
from schurgrid.grids import (
    arc_matrices,
    enumerate_grid,
    identity_matrix,
    is_arc,
    is_colayered,
    is_left_unimodal,
    left_unimodal_matrix,
    minus_member,
    one_column_matrix,
    one_column_member,
    parse_grid_matrix,
    plus_member,
    star_product,
    zigzag_matrix,
)
from schurgrid.permutations import parse_perm
from schurgrid.permsets import (
    as_multiset,
    cyclic_class,
    embed,
    fine_battery,
    j_class,
    k_class,
    knuth_class,
    left_unimodal_class,
    one_column_class,
    plus_class,
    product_qsym,
    set_product,
    symmetric_group,
    zigzag_class,
)
from schurgrid.qsym import (
    NotSymmetric,
    SchurExpansion,
    is_schur_positive,
    qsym_of,
    schur_expand,
)


@contextlib.contextmanager
def criterion(capsys, number, limit_s, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL ({elapsed:.1f} s) — {label}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    verdict = "PASS" if ok else "FAIL (over time limit)"
    with capsys.disabled():
        print(
            f"ACCEPTANCE {number}: {verdict} "
            f"({elapsed:.1f} s, limit {limit_s} s) — {label}"
        )
    assert ok, f"criterion {number} took {elapsed:.1f} s, limit {limit_s} s"


def assert_verified(report):
    assert report.status == "verified", (
        f"{report.check_id} (n={report.n}): {report.status}; {report.notes}"
    )
    return report


def cases_of(report):
    m = re.match(r"cases=(\d+) ", report.lhs)
    assert m, report.lhs
    return int(m.group(1))


def test_criterion_1_closed_forms(capsys):
    formula_checks = (
        "qsh-formula",      # two-cell ascending one-column class
        "ll-formula",       # left-unimodal class hook sum
        "colayer-hooks",    # colayer balls as initial hook sums
        "arc-formula",      # circular-prefix class
        "prop-R2",          # two-strip cyclic ball
        "j-formula",        # identity-interleaving family
        "k-formula",        # reversal-interleaving family
        "cor-hrc",          # three-term band expansions, k = 2..n-1
    )
    with criterion(capsys, 1, 90, "closed-form Schur expansions, n=3..7"):
        for n in range(3, 8):
            start = time.perf_counter()
            e = schur_expand(qsym_of(cyclic_class(n), n))
            assert isinstance(e, SchurExpansion)
            assert e.serialize() == f"s[{n}] + s[{n - 1},1]"
            assert time.perf_counter() - start < 10
            for check_id in formula_checks:
                start = time.perf_counter()
                assert_verified(run_check(check_id, n))
                assert time.perf_counter() - start < 10, (check_id, n)


def test_criterion_2_cardinalities(capsys):
    with criterion(capsys, 2, 60, "family cardinalities through n=10"):
        for n in range(3, 11):
            expected = (n - 2) * 2 ** (n - 1) + 2
            assert len(j_class(n)) == expected
            assert len(k_class(n)) == expected
            assert len(left_unimodal_class(n)) == 2 ** (n - 1)
            assert len(plus_class(n, 2)) == 2**n - n
        assert_verified(run_check("kj-cardinality", 8))


def test_criterion_3_product_character_identity(capsys):
    with criterion(
        capsys, 3, 600, "battery x inverse-descent-class product identity"
    ):
        exhaustive = assert_verified(run_check("thm-main-2", 5))
        assert cases_of(exhaustive) >= len(fine_battery(5)) * 2**4
        sampled = assert_verified(run_check("thm-main-2", 6))
        assert cases_of(sampled) >= 50


def test_criterion_4_horizontal_rotations(capsys):
    with criterion(
        capsys, 4, 120, "horizontal rotation products and bijection audit"
    ):
        for n in (5, 6, 7):
            report = assert_verified(run_check("thm-horizontal1", n))
            assert report.lhs == report.rhs


def test_criterion_5_strip_balls_fine_and_recurrence(capsys):
    with criterion(capsys, 5, 300, "cyclic strip balls fine + recurrence"):
        for n in range(1, 8):
            for k in range(1, n + 1):
                e = schur_expand(qsym_of(zigzag_class(n, k), n))
                assert isinstance(e, SchurExpansion), (n, k)
                assert is_schur_positive(e), (n, k)
        for n in range(3, 8):
            assert_verified(run_check("eq-recurrence", n))


def test_criterion_6_counterexamples(capsys):
    with criterion(capsys, 6, 60, "frozen counterexamples reproduce exactly"):
        # A two-cell row grid at degree 3: exact descent vector, no symmetry.
        row = enumerate_grid(parse_grid_matrix("-+"), 3)
        q = qsym_of(row, 3)
        assert q.serialize() == "n=3; F{} + 2*F{1} + F{1,2}"
        assert isinstance(schur_expand(q), NotSymmetric)

        # Single arc-family component at degree 4 is not symmetric.
        assert_verified(run_check("neg-arc-grid"))

        # Vertical rotations of the embedded two-element plactic class.
        rotated = product_qsym(
            as_multiset(cyclic_class(5)),
            embed(as_multiset(knuth_class(parse_perm("2143"))), 5),
        )
        e = schur_expand(rotated)
        assert isinstance(e, NotSymmetric)
        assert e.serialize() == (
            "NotSymmetric(n=5; monomial coefficient at {1,3} is 3 "
            "but at {2,4} is 2)"
        )
        assert_verified(run_check("neg-knuth-rot"))

        # Stacked grid with a non-one-column base fails symmetry at degree 6.
        assert_verified(run_check("neg-stack"))

        # Three-by-two element product: symmetric yet not Schur-positive.
        a = as_multiset([parse_perm(s) for s in ("2134", "3412", "1243")])
        b = as_multiset([parse_perm(s) for s in ("2143", "3412")])
        e = schur_expand(product_qsym(a, b))
        assert isinstance(e, SchurExpansion)
        assert not is_schur_positive(e)
        assert e.serialize() == (
            "s[4] + s[3,1] + -s[2,2] + s[2,1,1] + s[1,1,1,1]"
        )

        # Plactic pair products first fail at degree 5, not 4.
        scan = scan_conjecture("knuth-product", 5)
        assert scan.status == "refuted"
        assert [(r.n, r.verdict) for r in scan.records] == [
            (3, "holds"),
            (4, "holds"),
            (5, "refuted"),
        ]
        assert scan.witness == (
            "A=class of 12435, B=class of 14325: NotSymmetric(n=5; monomial "
            "coefficient at {1,2} is 5 but at {1,4} is 4)"
        )


def test_criterion_7_signed_character_formula(capsys):
    with criterion(
        capsys, 7, 300, "signed block-modal formula matches character route"
    ):
        for n in range(1, 7):
            for name, cls in fine_battery(n):
                signed = signed_char_vector(cls, n)
                via_schur = char_vector(schur_expand(qsym_of(cls, n)))
                assert signed == via_schur, (n, name)


def test_criterion_8_enumerator_gate(capsys):
    with criterion(capsys, 8, 600, "grid enumeration matches predicates"):
        for n in range(1, 8):
            words = list(itertools.permutations(range(1, n + 1)))
            for length in (1, 2, 3):
                for v in iproduct((1, -1), repeat=length):
                    assert enumerate_grid(one_column_matrix(v), n) == frozenset(
                        w for w in words if one_column_member(w, v)
                    ), ("one-column", v, n)
            for k in (1, 2, 3, 4):
                assert enumerate_grid(
                    one_column_matrix((1,) * k), n
                ) == frozenset(w for w in words if plus_member(w, k))
                assert enumerate_grid(
                    one_column_matrix((-1,) * k), n
                ) == frozenset(w for w in words if minus_member(w, k))
            for k in range(1, 8):
                assert enumerate_grid(identity_matrix(k), n) == frozenset(
                    w for w in words if is_colayered(w, k)
                ), ("colayered", k, n)
            assert enumerate_grid(left_unimodal_matrix(), n) == frozenset(
                w for w in words if is_left_unimodal(w)
            )
            first, second = arc_matrices()
            assert enumerate_grid(first, n) | enumerate_grid(
                second, n
            ) == frozenset(w for w in words if is_arc(w))

        # Interleaved strip matrices, enumerated where the word budget
        # allows; the top strip count coincides with the full group.
        for k in range(1, 7):
            assert enumerate_grid(zigzag_matrix(k), 7) == zigzag_class(7, k)
        assert (
            zigzag_class(7, 7)
            == zigzag_class(7, 6)
            == frozenset(symmetric_group(7))
        )

        # Stacking and star products: exhaustive short sign vectors plus the
        # seeded sampled checks.
        vectors = [
            v for length in (1, 2, 3) for v in iproduct((1, -1), repeat=length)
        ]
        for n in range(1, 7):
            for v in vectors:
                for w in vectors:
                    lhs = set_product(
                        as_multiset(one_column_class(v, n)),
                        as_multiset(one_column_class(w, n)),
                    )
                    assert lhs == one_column_class(star_product(v, w), n)
        assert_verified(run_check("prop-prod-onecol", 6))
        assert_verified(run_check("cor-star", 6))


def test_criterion_9_conjecture_scans(capsys):
    with criterion(capsys, 9, 600, "conjecture scans to degree 6"):
        for conj_id in ("conj-10-1", "conj-10-2", "conj-10-3"):
            report = scan_conjecture(conj_id, 6)
            if report.status == "refuted":
                # Reportable outcome: surfaced with its witness, and the CLI
                # must exit with code 2.
                with capsys.disabled():
                    print(
                        f"  scan {conj_id}: REFUTED at n="
                        f"{report.records[-1].n}; witness: {report.witness}"
                    )
                assert report.witness
                assert cli_main(["scan", conj_id, "--max-n", "6"]) == 2
            else:
                assert report.status == "holds-up-to"
                assert report.frontier >= 6
                assert cli_main(["scan", conj_id, "--max-n", "6"]) == 0
        capsys.readouterr()
