"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke tests run a tiny version of every workload end to end (about ten
seconds in all); the rest check the golden comparison, the tracer's
self-time arithmetic and the calibration arithmetic without running the
program.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
from tracer import ROOT as NO_PARENT, LAYER_METRICS, Span, layer_metrics, self_times
from workloads import WORKLOADS, build_plan

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(build_plan(workload, 3, True).jobs)
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _passing_outcomes(plan, goldens):
    """Outcomes that match the goldens, and verdicts that pass every seeded job."""
    outcomes, verified = [], {}
    for i, job in enumerate(plan.jobs):
        outcome = {"error": None, "exit": job.expect_exit, "stdout_sha256": "seeded"}
        if job.verify is None:
            outcome.update(goldens[job.key])
        else:
            verified[i] = ("seeded", None)
        outcomes.append(outcome)
    return outcomes, verified


def test_wrong_golden_counts_as_failure():
    plan = build_plan("grid-star", 3, True)
    goldens = json.loads((HERE / "goldens.json").read_text())["jobs"]
    outcomes, verified = _passing_outcomes(plan, goldens)
    assert run.judge(plan, outcomes, goldens, verified) == [None] * len(plan.jobs)

    key = "check cor-star --n 4"
    tampered = {**goldens, key: {**goldens[key], "lhs": "cases=0 sha256:tampered"}}
    verdicts = run.judge(plan, outcomes, tampered, verified)
    wrong = [job.key for job, why in zip(plan.jobs, verdicts) if why is not None]
    assert wrong == [key]
    assert "lhs differs from golden" in verdicts[[job.key for job in plan.jobs].index(key)]


def _span(name, start, end, parent, **counters):
    return Span(name, start, parent, "0", end, counters)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("cli.main", 0.0, 10.0, NO_PARENT),
        _span("checks.run_check", 1.0, 4.0, 0),
        _span("qsym.qsym_of", 3.0, 6.0, 0),  # overlaps its sibling
        _span("qsym.schur_expand", 8.0, 12.0, 0),  # runs past its parent
        _span("grids.enumerate_grid", 2.0, 3.0, 1),
    ]
    # cli.main: children cover [1, 6] and [8, 10] -> 10 - 5 - 2.
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_metrics_aggregate_counters_and_ratios():
    spans = [
        _span("grids.enumerate_grid", 0.0, 2.0, NO_PARENT, words=100, perms_out=10, refined=1, one_column=1),
        _span("grids.enumerate_grid", 2.0, 3.0, NO_PARENT, cache_hits=1, one_column=0),
        _span("grids.enumerate_grid", 3.0, 3.5, NO_PARENT, error="GridResourceError"),
        _span("permsets.set_product", 4.0, 5.0, NO_PARENT, compositions=40, distinct=10),
        _span("checks.run_check", 5.0, 9.0, NO_PARENT, cases=7),
        _span("checks.scan_conjecture", 9.0, 10.0, NO_PARENT, cases=5),
    ]
    m = layer_metrics(spans, self_times(spans))
    assert set(m) == set(LAYER_METRICS) - {"trace_overhead_frac"}
    assert m["grids.enumerate_grid.calls"] == 3
    assert m["grids.enumerate_grid.self_s"] == pytest.approx(3.5)
    assert m["grids.enumerate_grid.self_s.one_column"] == pytest.approx(2.0)
    assert m["grids.enumerate_grid.self_s.multi_cell"] == pytest.approx(1.5)
    assert m["grids.enumerate_grid.yield"] == pytest.approx(0.1)
    assert m["grids.enumerate_grid.cache_hits"] == 1
    assert m["grids.resource_errors"] == 1
    assert m["permsets.set_product.yield"] == pytest.approx(0.25)
    assert m["checks.cases"] == 12
    assert m["qsym.schur_expand.calls"] == 0


def test_scale_uses_the_samples_on_either_side_of_each_span():
    ref = calibrate.REFERENCE_S
    # Both spans ran at half the reference speed on average.
    half = 0.5 ** calibrate.ELASTICITY
    assert calibrate.scale([2.0, 4.0], [ref, 3 * ref, ref]) == pytest.approx(6.0 * half)
    assert calibrate.scale([1.5], [ref, ref]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        calibrate.scale([1.0], [ref])
