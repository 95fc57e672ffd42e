"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py rep PLAN OUT [--trace SPANS]
    python3 perfbench/child.py verify PLAN OUT STDOUT_DIR

``rep`` times ``import schurgrid`` plus building the descent-count tables
up to the plan's largest degree (``setup_s``; the cache directory named
by SCHURGRID_CACHE_DIR starts empty), then runs the plan's jobs one after
the other through ``schurgrid.cli.main`` (``wall_s``, ``cpu_s``: the sums
over jobs).  A calibration sample (see ``calibrate.py``) is taken before
the import, after the tables and after each job, outside every timed span;
``setup_s``, ``wall_s`` and ``cpu_s`` are at reference speed, and the raw
times are reported beside them.  Only after the last job does the child
digest outputs, read the ``--json`` reports and write the seeded jobs'
stdout next to OUT.  With ``--trace`` the layer functions are wrapped (see
``tracer.py``) before the tables are built, and the spans are written to
SPANS.

``verify`` checks the seeded jobs' saved stdout by an independent route
(see ``verify.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _import_schurgrid() -> None:
    import schurgrid
    import schurgrid.cli

    src = (ROOT / "src").resolve()
    if src not in Path(schurgrid.__file__).resolve().parents:
        raise SystemExit(f"schurgrid imported from {schurgrid.__file__}, not from {src}")


def _report_fields(kind: str, report: dict) -> dict:
    """The fields of a ``--json`` report that goldens compare: everything
    but timings and timestamps."""
    if kind == "check":
        return {k: report[k] for k in ("status", "lhs", "rhs", "notes")}
    return {
        "status": report["status"],
        "frontier": report["frontier"],
        "witness": report["witness"],
        "notes": report["notes"],
        "records": [
            [r["n"], r["verdict"], r["cases"], r["witness"]] for r in report["records"]
        ],
    }


def _usage() -> tuple[resource.struct_rusage, resource.struct_rusage]:
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def run_rep(plan: dict, out: Path, spans_path: Path | None) -> dict:
    import calibrate

    samples = [calibrate.sample()]
    t0 = time.perf_counter()
    _import_schurgrid()
    import_s = time.perf_counter() - t0

    tracer = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    from schurgrid import qsym

    t1 = time.perf_counter()
    for k in range(1, plan["max_degree"] + 1):
        qsym.descent_count_table(k)
    tables_s = time.perf_counter() - t1
    samples.append(calibrate.sample())
    setup_raw_s = import_s + tables_s

    cli = sys.modules["schurgrid.cli"]
    json_dir = out.parent / "reports"
    json_dir.mkdir(exist_ok=True)
    runs, cpus, job_samples = [], [], samples[-1:]
    for i, job in enumerate(plan["jobs"]):
        argv = list(job["argv"])
        if argv[0] in ("check", "scan"):
            argv += ["--json", str(json_dir / f"job-{i}.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = str(i)
        error = None
        usage0 = _usage()
        s = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        runs.append((time.perf_counter() - s, code, stdout, stderr, error))
        usage1 = _usage()
        # Child processes count too: work moved into a pool must not read
        # as a gain.
        cpus.append(
            sum(
                (u1.ru_utime + u1.ru_stime) - (u0.ru_utime + u0.ru_stime)
                for u0, u1 in zip(usage0, usage1)
            )
        )
        job_samples.append(calibrate.sample())
    peak_rss_mb = max(u.ru_maxrss for u in _usage()) / 1024
    seconds = [r[0] for r in runs]

    outcomes = []
    for i, (job, (job_s, code, stdout, stderr, error)) in enumerate(zip(plan["jobs"], runs)):
        text = stdout.getvalue()
        outcome = {
            "seconds": job_s,
            "exit": code,
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "stderr": stderr.getvalue()[-2000:],
            "error": error,
        }
        kind = job["argv"][0]
        report = json_dir / f"job-{i}.json"
        if kind in ("check", "scan") and report.exists():
            outcome.update(_report_fields(kind, json.loads(report.read_text())))
        if job["verify"] is not None:
            (out.parent / f"job-{i}.out").write_text(text)
        outcomes.append(outcome)

    from schurgrid import checks, grids
    import numpy

    result = {
        "setup_s": calibrate.scale([setup_raw_s], samples),
        "wall_s": calibrate.scale(seconds, job_samples),
        "cpu_s": calibrate.scale(cpus, job_samples),
        "peak_rss_mb": peak_rss_mb,
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": sum(seconds),
        "cpu_raw_s": sum(cpus),
        "import_s": import_s,
        "tables_s": tables_s,
        "calibration_s": samples[:1] + job_samples,
        "outcomes": outcomes,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "SCHURGRID_GRID_BUDGET": grids.grid_budget(),
            "SCHURGRID_CHECK_BUDGET": checks.check_budget(),
        },
    }
    if tracer is not None:
        selfs = tracing.self_times(tracer.spans)
        result["layers"] = tracing.layer_metrics(tracer.spans, selfs)
        result["traced_span_s"] = tables_s + sum(seconds)
        result["self_sum_s"] = sum(selfs)
        spans_path.write_text(
            json.dumps([asdict(s) for s in tracer.spans], separators=(",", ":"))
        )
    return result


def run_verify(plan: dict, stdout_dir: Path) -> dict:
    _import_schurgrid()
    import verify

    verdicts: dict[str, str | None] = {}
    for i, job in enumerate(plan["jobs"]):
        if job["verify"] is None:
            continue
        try:
            text = (stdout_dir / f"job-{i}.out").read_text()
            reason = verify.check(job["verify"], text)
        except Exception:
            reason = traceback.format_exc()
        verdicts[str(i)] = reason
    return {"verdicts": verdicts}


def main(argv: list[str]) -> int:
    mode, plan, out, rest = argv[0], json.loads(Path(argv[1]).read_text()), Path(argv[2]), argv[3:]
    if mode == "rep":
        result = run_rep(plan, out, Path(rest[1]) if rest[:1] == ["--trace"] else None)
    elif mode == "verify":
        result = run_verify(plan, Path(rest[0]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
