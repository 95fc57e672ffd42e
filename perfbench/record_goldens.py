"""Record ``goldens.json``: the expected outcome of every fixed job.

    python3 perfbench/record_goldens.py

Runs each workload's job list once (full size and smoke size) in a fresh
child, exactly as a timed repetition does, and keeps the fields a correct
run must reproduce: the exit code, the ``--json`` report fields of checks
and scans (status, lhs, rhs, notes; per-degree verdict, cases and witness)
and the sha256 of the printed output of ``grid enum`` jobs.  Timings and
timestamps are left out.  Run it only on a commit whose outputs are known
good; the goldens were recorded from the first commit that has this
benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from run import GOLDENS, WORK, environment, run_child
from workloads import WORKLOADS, build_plan

_FIELDS = {
    "check": ("exit", "status", "lhs", "rhs", "notes"),
    "scan": ("exit", "status", "frontier", "witness", "notes", "records"),
    "grid": ("exit", "stdout_sha256"),
}


def main() -> int:
    goldens: dict[str, dict] = {}
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="goldens-", dir=WORK))
    try:
        for workload in WORKLOADS:
            for smoke in (False, True):
                plan = build_plan(workload, 0, smoke)
                rep_dir = run_dir / f"{workload}-{int(smoke)}"
                rep_dir.mkdir()
                plan_path = rep_dir / "plan.json"
                plan_path.write_text(json.dumps(asdict(plan)))
                result = run_child("rep", plan_path, rep_dir, [], 600)
                if result is None:
                    print(f"{workload}: child failed", file=sys.stderr)
                    return 1
                for job, outcome in zip(plan.jobs, result["outcomes"]):
                    if job.verify is not None:
                        continue
                    if outcome["error"]:
                        print(f"{job.key}: {outcome['error']}", file=sys.stderr)
                        return 1
                    goldens[job.key] = {k: outcome[k] for k in _FIELDS[job.argv[0]]}
                    print(f"recorded {job.key}: exit {outcome['exit']}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment()
    payload = {"recorded_from": {"commit": env["commit"], "src_sha256": env["src_sha256"]}, "jobs": goldens}
    GOLDENS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
