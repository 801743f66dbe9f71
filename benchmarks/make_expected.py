"""Regenerate ``expected.json``: each fixed-mix job's exit code and stdout
digest.

    python3 benchmarks/make_expected.py

Every job runs once and must exit 0 with no traceback and pass its
independent value check (see :mod:`workloads`) before its digest is
stored.  Run it only when an output format changes on purpose, and say
so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from procs import Spawner
from workloads import WORKLOADS


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    expected, failures = {}, []
    with Spawner(str(run.OUT)) as spawner:
        for workload in WORKLOADS.values():
            _expect_workload(workload, spawner, expected, failures)
    for failure in failures:
        print("FAILED", *failure, sep="  ")
    if failures:
        return 1
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def _expect_workload(workload, spawner, expected: dict, failures: list):
    bfiles, problems = run.make_bfiles(workload)
    failures += problems
    runner = run.Runner(workload, bfiles, {}, spawner)
    for job in workload.jobs:
        outcome = runner.spawn(runner.argv(job), job.env)
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        problem = runner.problem(job, outcome, 0, digest)
        if problem:
            failures.append((job.id, problem))
        expected[job.id] = {"exit": outcome.exit_code, "sha256": digest}
        print(f"{outcome.wall_s:6.2f} s  {outcome.maxrss_kib / 1024:5.1f} MiB  {job.id}",
              flush=True)


if __name__ == "__main__":
    sys.exit(main())
