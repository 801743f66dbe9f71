"""seriesforge benchmark runner.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of :mod:`workloads` single-threaded in a closed loop:
one CLI process at a time, each a fresh
``python -m seriesforge.cli ...`` with ``PYTHONPATH=src``.  Every output is
checked.  It prints each metric as ``name value unit`` and, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``; it
exits 1 when any output was wrong, and 2 without a result when the
package source is missing.

Every timed process runs between two timings of :func:`calibrate.work`, a
fixed piece of pure-Python work that imports nothing from seriesforge.
The host's speed swings by up to 2x within seconds and by 30-55% for
minutes on end, as its neighbours' load comes and goes, and the
calibration swings with it.  So each time is reported at reference speed:
its wall time times ``CAL_REF_S`` over the mean of the two calibrations
around it.  No change to seriesforge can move the calibration.  The
runner, its helper and every job share one core.

``--trace 0`` measures, within about ``--seconds`` in all:

- ``reach_size`` first: the largest size whose probe finishes, verified,
  within the probe's budget at reference speed (see ``workloads.Probe``
  and :class:`Reach`).  Probes past the budget are not failures.
- then the fixed mix, reshuffled each pass by the seed, for the rest of
  the time: ``wall_s`` is each job's median time, spawn to exit, summed
  over the jobs; ``peak_rss_mib`` is the largest ``ru_maxrss`` of any job;
  ``setup_s`` is the median time of ``python -c 'import seriesforge.cli'``,
  the start-up every CLI call pays, sampled a few times in every pass.

``--trace 1`` runs the mix once untraced and once under
:mod:`tracer`, and reports the per-layer metrics of the traced pass with
``trace.overhead_ratio``, the traced wall over the untraced wall.

Each run writes a record (Python version, core count, commit, seed,
repeats, every job's raw and scaled latencies, the calibrations,
metrics, failures) to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkers import UltrametricPrefix, UnlabeledCounts
from procs import Spawner
from tracer import PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

JOB_TIMEOUT_S = 60.0
SETUP_PER_PASS = 4
SETUP_ARGS = ("-c", "import seriesforge.cli")
# A round figure near calibrate.work()'s median time on the 2-core
# reference host (Python 3.11.7), pinned to one core; reported times are
# scaled to it.
CAL_REF_S = 0.06
# A probe is killed once its raw time passes this many budgets at the
# host's current speed; the budget itself is judged after scaling.
PROBE_KILL_FACTOR = 1.5

END_TO_END_UNITS = {"wall_s": "s", "reach_size": "size", "peak_rss_mib": "MiB",
                    "setup_s": "s"}


class Runner:
    """Spawns jobs, checks their output and keeps the tally."""

    def __init__(self, workload, bfiles: dict, expected: dict, spawner: Spawner):
        self.workload = workload
        self.spawner = spawner
        self.bfiles = bfiles
        self.expected = expected
        self.attempted = 0
        self.failures: list = []
        self.digests: dict = {}        # job id -> sha256 of its last stdout
        self._checked: dict = {}       # (job id, sha256) -> problem or None
        self.calibrations: list = []   # seconds per calibrate.work(), in order
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Jobs use cached bytecode, as an installed package does, whatever
        # the caller's setting; the untimed warm-up spawn writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def argv(self, job, tracer_out=None) -> list:
        args = [self.bfiles.get(a[len("{bfile:"):-1], a) if a.startswith("{bfile:") else a
                for a in job.args]
        if tracer_out is None:
            return [sys.executable, "-m", "seriesforge.cli", *args]
        return [sys.executable, str(HERE / "tracer.py"), tracer_out, "--", *args]

    def spawn(self, argv: list, env_extra=(), timeout_s=JOB_TIMEOUT_S):
        env = dict(self.env, **dict(env_extra))
        return self.spawner.run(argv, env, str(ROOT), timeout_s)

    def calibrate(self):
        self.calibrations.append(self.spawner.calibrate())

    def slowness(self) -> float:
        """How much slower than the reference the host ran at the last
        calibration: 1.5 means jobs took 1.5 times as long."""
        if not self.calibrations:
            self.calibrate()
        return self.calibrations[-1] / CAL_REF_S

    def scaled(self, run_one):
        """Run ``run_one()`` between two calibrations; return its outcome
        and its wall time at reference speed."""
        before = self.slowness()
        outcome = run_one()
        self.calibrate()
        return outcome, 2 * outcome.wall_s / (before + self.slowness())

    def setup(self):
        """One start-up sample; a failed import counts as a failed job."""
        self.attempted += 1
        outcome = self.spawn([sys.executable, *SETUP_ARGS])
        if outcome.exit_code != 0:
            self.failures.append(("setup", f"exit {outcome.exit_code}"))
        return outcome

    def job(self, job, tracer_out=None):
        """Run one fixed-mix job and check it against its stored digest."""
        self.attempted += 1
        outcome = self.spawn(self.argv(job, tracer_out), job.env)
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        self.digests[job.id] = digest
        want = self.expected.get(job.id)
        if want is None:
            problem = "no expected output stored (run benchmarks/make_expected.py)"
        else:
            problem = self.problem(job, outcome, want["exit"], digest)
            if problem is None and digest != want["sha256"]:
                problem = "stdout differs from the stored digest"
        if problem:
            self.failures.append((job.id, problem))
        return outcome

    def probe(self, job, budget_s: float) -> bool:
        """True when the probe finished within budget, at reference speed,
        with a correct output."""
        self.attempted += 1
        kill_s = PROBE_KILL_FACTOR * budget_s * self.slowness()
        outcome, wall_s = self.scaled(
            lambda: self.spawn(self.argv(job), job.env, timeout_s=kill_s))
        if outcome.timed_out:
            return False
        problem = self.problem(job, outcome, 0, hashlib.sha256(outcome.stdout).hexdigest())
        if problem:
            self.failures.append((job.id, problem))
            return False
        return wall_s <= budget_s

    def problem(self, job, outcome, want_exit: int, digest: str):
        """What is wrong with a job's outcome, or None; the job's own value
        check runs once per distinct output."""
        if outcome.timed_out:
            return f"timed out after {outcome.wall_s:.1f} s"
        if outcome.exit_code != want_exit:
            return f"exit code {outcome.exit_code}, expected {want_exit}"
        if b"Traceback" in outcome.stderr:
            return "traceback on stderr"
        if job.check is None:
            return None
        key = (job.id, digest)
        if key not in self._checked:
            self._checked[key] = job.check(outcome.stdout.decode())
        return self._checked[key]

    def check_identities(self):
        for left, right in self.workload.identities:
            self.attempted += 1
            if self.digests.get(left) != self.digests.get(right):
                self.failures.append((f"{left} == {right}", "outputs differ"))


def make_bfiles(workload) -> tuple:
    """Write the workload's b-files and return ``(paths, problems)``.

    The values come from a route other than the one the verify job
    exercises, and are cross-checked where other sources overlap."""
    sys.path.insert(0, str(SRC))
    from seriesforge import reference
    from seriesforge.labeled import ultrametric_series_polynomials

    paths, problems = {}, []
    for name, (family, m, last) in workload.bfiles.items():
        if family == "ultrametrics":
            # Lagrange inversion over Z[m], evaluated at m
            values = [p.eval_at(m) for p in ultrametric_series_polynomials(last)]
            others = {"integer recurrence": UltrametricPrefix(m).upto(last),
                      "reference.ULTRAMETRIC_TABLE": reference.ULTRAMETRIC_TABLE[m]}
        else:
            counts = UnlabeledCounts()
            values = [counts[s] for s in range(1, last + 1)]
            others = {"reference.UNLABELED_SEQUENCE": reference.UNLABELED_SEQUENCE,
                      "tests/data/b000669_prefix.txt": _read_bfile(
                          ROOT / "tests" / "data" / "b000669_prefix.txt")}
        for source, other in others.items():
            if values[:len(other)] != other[:len(values)]:
                problems.append((f"b-file {name}", f"disagrees with {source}"))
        path = OUT / "inputs" / f"{name}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"# {name}, generated by benchmarks/run.py\n"
                        + "".join(f"{s} {v}\n" for s, v in enumerate(values, start=1)))
        paths[name] = str(path)
    return paths, problems


def _read_bfile(path: Path) -> list:
    return [int(line.split()[1]) for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


class Reach:
    """Reach search for one probe.

    ``search`` doubles from ``probe.start`` until a size fails, then
    bisects.  ``recheck``, called later in the run, probes the sizes just
    past the reach again, and the best reach seen stands: one probe per
    size decides on a single scaled time, and a size near the budget can
    pass at one moment and fail at the next.
    """

    def __init__(self, runner, probe):
        self.runner = runner
        self.probe = probe
        self.best = 0
        self.decisions: list = []      # (size, reached) in probe order

    def _reached(self, size: int) -> bool:
        ok = self.runner.probe(self.probe.make(size), self.probe.budget_s)
        self.decisions.append((size, ok))
        return ok

    def search(self) -> int:
        failed_at, size = None, self.probe.start
        while failed_at is None:
            if self._reached(size):
                self.best = size
                if size == self.probe.cap:
                    break
                size = min(2 * size, self.probe.cap)
            else:
                failed_at = size
        while failed_at is not None and failed_at - self.best > 1:
            mid = (self.best + failed_at) // 2
            if self._reached(mid):
                self.best = mid
            else:
                failed_at = mid
        return self.best

    def recheck(self) -> int:
        while self.best < self.probe.cap and self._reached(self.best + 1):
            self.best += 1
        return self.best


def measure(runner: Runner, jobs: list, rng: random.Random, deadline: float,
            midway) -> dict:
    """Repeat the whole mix with ``SETUP_PER_PASS`` start-up samples,
    reshuffled each pass, while one more pass fits before ``deadline``;
    the first pass always runs.  ``midway()`` runs once, after the first
    pass that ends past half of the time left at the start."""
    scaled = {job.id: [] for job in jobs}
    raw = {job.id: [] for job in jobs}
    rss = {job.id: [] for job in jobs}
    setup = []
    items = list(jobs) + [None] * SETUP_PER_PASS   # None: a start-up sample
    start = time.perf_counter()
    halfway = start + (deadline - start) / 2
    repeats, pass_s = 0, 0.0
    while repeats == 0 or time.perf_counter() + pass_s <= deadline:
        began = time.perf_counter()
        for job in rng.sample(items, len(items)):
            if job is None:
                setup.append(runner.scaled(runner.setup)[1])
                continue
            outcome, wall_s = runner.scaled(lambda: runner.job(job))
            scaled[job.id].append(wall_s)
            raw[job.id].append(outcome.wall_s)
            rss[job.id].append(outcome.maxrss_kib)
        repeats += 1
        pass_s = time.perf_counter() - began
        if midway is not None and time.perf_counter() >= halfway:
            midway()
            midway = None
    return {"scaled": scaled, "raw": raw, "rss_kib": rss, "setup": setup,
            "repeats": repeats}


def run_untraced(runner, workload, rng, seconds):
    deadline = time.perf_counter() + seconds
    runner.spawn([sys.executable, *SETUP_ARGS])  # compile bytecode; not timed
    probe = Reach(runner, workload.probe)
    probe.search()
    m = measure(runner, list(workload.jobs), rng, deadline, probe.recheck)
    probe.recheck()
    metrics = {
        "wall_s": sum(statistics.median(v) for v in m["scaled"].values()),
        "reach_size": probe.best,
        "peak_rss_mib": max(max(v) for v in m["rss_kib"].values()) / 1024,
        "setup_s": statistics.median(m["setup"]),
    }
    record = {
        "repeats": m["repeats"],
        "wall_raw_s": sum(statistics.median(v) for v in m["raw"].values()),
        "job_wall_s": m["scaled"],
        "job_raw_wall_s": m["raw"],
        "job_peak_rss_kib": m["rss_kib"],
        "setup_samples_s": m["setup"],
        "calibrations_s": runner.calibrations,
        "reach_probes": probe.decisions,
    }
    return metrics, record


def run_traced(runner, workload, rng):
    trace_dir = OUT / "traces" / workload.name
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    runner.spawn([sys.executable, *SETUP_ARGS])  # compile bytecode; not timed
    jobs = rng.sample(list(workload.jobs), len(workload.jobs))
    plain = {job.id: runner.job(job).wall_s for job in jobs}
    traced, traces, stdout_bytes = {}, [], 0
    for i, job in enumerate(jobs):
        path = trace_dir / f"job{i:02d}.json"
        outcome = runner.job(job, tracer_out=str(path))
        traced[job.id] = outcome.wall_s
        stdout_bytes += len(outcome.stdout)
        if path.exists():
            traces.append(json.loads(path.read_text()))
        else:
            runner.failures.append((job.id, "tracer wrote no spans"))
    overhead = sum(traced.values()) / sum(plain.values())
    metrics = layer_metrics(traces, stdout_bytes, overhead)
    return metrics, {"job_wall_s": plain, "job_traced_wall_s": traced,
                     "trace_dir": str(trace_dir.relative_to(ROOT))}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seriesforge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seriesforge" / "cli.py").is_file():
        print(f"error: no seriesforge source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())
    rng = random.Random(args.seed)
    # One core for the runner, the spawn helper and every job: the two
    # cores' speeds vary apart, and the calibration must see the jobs' core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Spawner(str(OUT)) as spawner:
        bfiles, problems = make_bfiles(workload)
        runner = Runner(workload, bfiles, expected, spawner)
        runner.failures.extend(problems)
        runner.attempted += len(workload.bfiles)
        if args.trace:
            metrics, detail = run_traced(runner, workload, rng)
            units = PER_LAYER_UNITS
        else:
            metrics, detail = run_untraced(runner, workload, rng, args.seconds)
            units = END_TO_END_UNITS
    runner.check_identities()

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": _commit(), "src_sha256": _src_digest(),
        "attempted": runner.attempted, "failed": len(runner.failures),
        "error_rate": len(runner.failures) / runner.attempted,
        "failures": runner.failures, "metrics": metrics, **detail,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for problem in runner.failures:
        print("FAILED", *problem, sep="  ")
    for metric, value in metrics.items():
        print(f"{metric} {value} {units[metric]}")
    print(f"error_rate {record['error_rate']} ratio")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not runner.failures else 1


if __name__ == "__main__":
    sys.exit(main())
