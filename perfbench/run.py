"""schurgrid benchmark: closed-loop CLI workloads, timed in fresh interpreters.

    python3 perfbench/run.py --workload grid-star --seed 1 --seconds 56 --trace 0

Run from any directory; the program under test is ``src/`` of the checkout
holding this file.  Workloads are defined in ``workloads.py``.

One client runs the workload's job list through ``schurgrid.cli.main``,
each job starting when the previous one returned (closed loop, one client).
Each repetition of the list runs in a fresh child interpreter, strictly one
child at a time, so the program's in-memory caches start empty in every
repetition; each child gets its own empty SCHURGRID_CACHE_DIR and
SCHURGRID_RESULTS_DIR under ``.perfbench_run/`` and the default budgets.
Repetitions continue until ``--seconds`` would be exceeded (at least three,
four when traced; one or two with ``--smoke``).

``--trace 0`` reports the end-to-end metrics, medians over repetitions:
``wall_s`` and ``cpu_s`` (the jobs' time, summed from each job sent to its
verdict returned, import and set-up excluded; ``cpu_s`` counts any
processes the child starts), ``peak_rss_mb`` of the child or its largest
own subprocess, and ``setup_s`` (``import schurgrid`` plus building the
descent-count tables up to the workload's largest degree into an empty
cache directory).  The three times are seconds at reference speed: each
span is scaled by a calibration sample of fixed pure-Python work timed
beside it (see ``calibrate.py``), which takes out the host's speed drift.
The raw times are printed and kept in the report.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py`` (medians over traced repetitions) plus
``trace_overhead_frac``; the spans of the first traced repetition are
written to ``.perfbench_run/spans-<workload>-seed<seed>.json``.

Every job's output is checked: fixed jobs against ``goldens.json``, seeded
jobs by an independent route in a separate child after the timed
repetitions.  A wrong exit code, a golden mismatch, a failed check or a
``resource-skipped`` result counts as a failed job.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A full report goes to ``.perfbench_run/report-*.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
GOLDENS = HERE / "goldens.json"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Plan, build_plan  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# The same times before calibration; reported, not gated.
RAW = ("wall_raw_s", "cpu_raw_s", "setup_raw_s")

# Re-anchor measurements (ROADMAP, 2 cores, Python 3.11.7): single checks
# at their default degree, tables on disk.  Reported beside this run's
# numbers; the workloads run these checks at a lower degree.
BASELINES_S = {"check cor-star --n 6": 13.6, "check onecol-zigzags --n 7": 12.9}

# Layer self times must cover at least this share of a traced repetition's
# tables + jobs span; less means some work ran outside every wrapper.
MIN_SELF_COVERAGE = 0.9

# Hard cap on one benchmark invocation, below the 180 s the contract allows.
TOTAL_CAP_S = 170.0


def child_env(rep_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["SCHURGRID_CACHE_DIR"] = str(rep_dir / "cache")
    env["SCHURGRID_RESULTS_DIR"] = str(rep_dir / "results")
    env.pop("SCHURGRID_GRID_BUDGET", None)
    env.pop("SCHURGRID_CHECK_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, plan_path: Path, rep_dir: Path, extra: list[str], timeout: float) -> dict | None:
    """Run one child to completion; its JSON result, or None on failure."""
    out = rep_dir / f"{mode}.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, str(plan_path), str(out), *extra],
            env=child_env(rep_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"child {mode} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"child {mode} failed:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def judge(plan: Plan, outcomes: list[dict], goldens: dict, verified: dict) -> list[str | None]:
    """Per job: None when correct, else why it counts as failed."""
    verdicts = []
    for i, (job, o) in enumerate(zip(plan.jobs, outcomes)):
        reasons = []
        if o["error"]:
            reasons.append("raised " + o["error"].strip().splitlines()[-1])
        if o["exit"] != job.expect_exit:
            reasons.append(f"exit {o['exit']}, expected {job.expect_exit}")
        if o.get("status") == "resource-skipped":
            reasons.append("resource-skipped")
        if job.verify is None:
            golden = goldens.get(job.key)
            if golden is None:
                reasons.append("no golden recorded")
            else:
                reasons += [f"{k} differs from golden" for k, v in golden.items() if o.get(k) != v]
        else:
            sha, why = verified.get(i, (None, "not verified"))
            if why:
                reasons.append(f"independent check: {why}")
            elif o["stdout_sha256"] != sha:
                reasons.append("output differs from the verified output")
        verdicts.append("; ".join(reasons) or None)
    return verdicts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "cpu": "unknown", "commit": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        env["commit"] = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "schurgrid" / "__init__.py").is_file():
        print(f"no schurgrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = build_plan(args.workload, args.seed, args.smoke)
    goldens = json.loads(GOLDENS.read_text())["jobs"]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, plan, goldens, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args: argparse.Namespace, plan: Plan, goldens: dict, run_dir: Path) -> int:
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(asdict(plan)))
    min_reps = (2 if args.trace else 1) if args.smoke else (4 if args.trace else 3)
    start = time.monotonic()
    # Untraced and (with --trace 1) traced repetitions alternate; a failed
    # child ends the loop.
    reps: list[tuple[bool, dict | None]] = []
    durations: list[float] = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_dir = run_dir / f"rep-{len(reps)}"
        rep_dir.mkdir()
        extra = ["--trace", str(rep_dir / "spans.json")] if traced else []
        t = time.monotonic()
        result = run_child("rep", plan_path, rep_dir, extra, TOTAL_CAP_S - (t - start))
        durations.append(time.monotonic() - t)
        reps.append((traced, result))
        if result is None:
            break
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed + statistics.median(durations) > args.seconds:
            break
    measured_s = time.monotonic() - start
    if args.trace and len(reps) > 1 and reps[1][1] is not None:
        shutil.copyfile(run_dir / "rep-1" / "spans.json", WORK / f"spans-{plan.workload}-seed{plan.seed}.json")

    # Seeded jobs: check the first repetition's output by an independent
    # route; later repetitions must print the same.
    first = reps[0][1]
    verified: dict[int, tuple[str, str | None]] = {}
    if first is not None:
        check = run_child(
            "verify", plan_path, run_dir / "rep-0", [str(run_dir / "rep-0")],
            max(10.0, TOTAL_CAP_S - (time.monotonic() - start)),
        )
        for key, why in (check or {"verdicts": {}})["verdicts"].items():
            verified[int(key)] = (first["outcomes"][int(key)]["stdout_sha256"], why)

    attempted = failed = 0
    failures: list[str] = []
    for index, (_, result) in enumerate(reps):
        attempted += len(plan.jobs)
        if result is None:
            failed += len(plan.jobs)
            failures.append(f"rep {index}: child failed")
            continue
        for job, why in zip(plan.jobs, judge(plan, result["outcomes"], goldens, verified)):
            if why:
                failed += 1
                failures.append(f"rep {index}: {job.key}: {why}")

    untraced = [r for traced, r in reps if r is not None and not traced]
    traced_reps = [r for traced, r in reps if r is not None and traced]
    if not untraced or (args.trace and not traced_reps):
        print("no repetition completed", file=sys.stderr)
        for line in failures:
            print(line, file=sys.stderr)
        return 1

    summary = {
        name: quartiles([r[name] for r in untraced]) for name in (*END_TO_END, *RAW)
    }
    consistent = True
    if args.trace:
        base_wall = summary["wall_s"][1]
        traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
        layer = {
            name: statistics.median(r["layers"][name] for r in traced_reps)
            for name in LAYER_METRICS
            if name != "trace_overhead_frac"
        }
        layer["trace_overhead_frac"] = (traced_wall - base_wall) / base_wall
        for r in traced_reps:
            covered = r["self_sum_s"] / r["traced_span_s"]
            if not MIN_SELF_COVERAGE <= covered <= 1 + 1e-6:
                consistent = False
                failures.append(
                    f"layer self times sum to {r['self_sum_s']:.6f} s, {covered:.1%} of "
                    f"the traced {r['traced_span_s']:.6f} s; expected "
                    f"{MIN_SELF_COVERAGE:.0%} to 100%"
                )
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": summary[name][1], "unit": unit} for name, unit in END_TO_END.items()}

    jobs_median = {
        job.key: statistics.median(r["outcomes"][i]["seconds"] for r in untraced)
        for i, job in enumerate(plan.jobs)
    }
    env = {**environment(), **untraced[0]["env"]}
    report = {
        "workload": plan.workload,
        "seed": plan.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, one client, one job at a time",
        "reps_untraced": len(untraced),
        "reps_traced": len(traced_reps),
        "measured_s": measured_s,
        "environment": env,
        "end_to_end_quartiles": summary,
        "error_rate": failed / attempted,
        "job_median_s": jobs_median,
        "roadmap_baselines_s": BASELINES_S,
        "failures": failures,
        "reps": [{"traced": t, **(r or {"failed": True})} for t, r in reps],
        "metrics": metrics,
    }
    report_path = WORK / f"report-{plan.workload}-seed{plan.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))

    print(
        f"workload {plan.workload} seed {plan.seed}: {len(untraced)} untraced + "
        f"{len(traced_reps)} traced repetitions in {measured_s:.1f} s"
    )
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu']}, commit {env['commit'][:12]}, budgets grid="
        f"{env['SCHURGRID_GRID_BUDGET']} check={env['SCHURGRID_CHECK_BUDGET']}"
    )
    for name, unit in END_TO_END.items():
        q1, med, q3 = summary[name]
        print(f"  {name:12s} median {med:10.4f} {unit:3s} quartiles {q1:.4f} .. {q3:.4f}")
    for name in RAW:
        q1, med, q3 = summary[name]
        print(f"  {name:12s} median {med:10.4f} s   quartiles {q1:.4f} .. {q3:.4f} (uncalibrated)")
    print(f"  error_rate   {failed}/{attempted} = {failed / attempted:.4f}")
    for key, seconds in jobs_median.items():
        print(f"  job {seconds:8.3f} s  {key}")
    for key, seconds in BASELINES_S.items():
        print(f"  ROADMAP baseline {seconds:6.1f} s  {key}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  layer {name:42s} {value['value']:14.6g} {value['unit']}")
        for r in traced_reps:
            print(
                f"  traced repetition: layer self times sum to {r['self_sum_s']:.4f} s "
                f"of {r['traced_span_s']:.4f} s traced (tables + jobs)"
            )
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(f"report: {report_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and consistent,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _terminate(signum: int, _frame: object) -> None:
    # Unwinds through subprocess.run, which kills and waits for the running
    # child, and through the clean-up of the run directory.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny version of the workload")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
