"""The runner's reach search and time scaling, the tracer, the grid checks
and the stored expectations."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads
from tracer import PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS, Probe

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


class _Threshold:
    """Stands in for a Runner: sizes up to ``limit`` are reached."""

    def __init__(self, limit):
        self.limit = limit
        self.sizes = []

    def probe(self, size, budget_s):
        self.sizes.append(size)
        return size <= self.limit


PROBE = Probe(make=lambda s: s, budget_s=1.0, start=8, cap=64)


@pytest.mark.parametrize("limit", [0, 1, 7, 8, 37, 63, 64, 1000])
def test_reach_search_finds_the_largest_reached_size(limit):
    fake = _Threshold(limit)
    search = run.Reach(fake, PROBE)
    assert search.search() == min(limit, 64)
    assert search.decisions == [(s, s <= limit) for s in fake.sizes]
    assert max(fake.sizes) <= 64


def test_reach_recheck_keeps_the_best_moment():
    fake = _Threshold(20)
    search = run.Reach(fake, PROBE)
    assert search.search() == 20
    fake.limit = 23      # the host is faster now
    assert search.recheck() == 23
    fake.limit = 10      # and slower later: a reach once seen stands
    assert search.recheck() == 23
    fake.limit = 1000
    assert search.recheck() == 64


class _Calibrations:
    """Stands in for a Spawner: calibrate() returns the given times."""

    def __init__(self, times):
        self.times = iter(times)

    def calibrate(self):
        return next(self.times)


def test_scaled_time_uses_the_calibrations_around_the_job():
    ref = run.CAL_REF_S
    runner = run.Runner(WORKLOADS["symbolic-series"], {}, {},
                        _Calibrations([2 * ref, 4 * ref, 4 * ref]))
    done = SimpleNamespace(wall_s=3.0)
    # the host ran 2x slow before the job and 4x slow after it
    assert runner.scaled(lambda: done) == (done, pytest.approx(1.0))
    # the calibration after one job is the one before the next
    assert runner.scaled(lambda: done)[1] == pytest.approx(0.75)
    assert runner.calibrations == [2 * ref, 4 * ref, 4 * ref]


def test_every_job_has_a_stored_expectation():
    expected = json.loads(run.EXPECTED.read_text())
    ids = [job.id for w in WORKLOADS.values() for job in w.jobs]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(expected)
    for w in WORKLOADS.values():
        for left, right in w.identities:
            assert {left, right} <= set(ids)


def _span_file(names, spans):
    return {"job": "x", "names": names, "spans": spans}


def test_layer_metrics_self_time_and_ratios():
    names = ["cli.main", "unlabeled.unlabeled_count", "unlabeled.refined_polys",
             "rings.PolyVar.__mul__", "rings.PolyVar.__rmul__"]
    spans = [
        [0, 0, 100, -1, None],
        [1, 10, 60, 0, "((5,), [])"],
        [2, 15, 55, 1, "((5,), [])"],
        [3, 20, 30, 2, None],
        [4, 30, 35, 2, None],
        [1, 60, 90, 0, "((5,), [])"],
        [2, 61, 89, 5, "((5,), [])"],
    ]
    m = layer_metrics([_span_file(names, spans)], stdout_bytes=3, overhead_ratio=1.5)
    assert m["cli.self_s"] == pytest.approx((100 - 50 - 30) / 1e9)
    assert m["unlabeled.self_s"] == pytest.approx((10 + 25 + 2 + 28) / 1e9)
    assert m["rings.self_s"] == pytest.approx(15 / 1e9)
    assert m["rings.polyvar_mul_calls"] == 2
    assert m["rings.polyvar_mul_s"] == pytest.approx(15 / 1e9)
    assert m["cli.family_calls"] == 2
    assert m["cli.distinct_call_ratio"] == 0.5
    assert m["unlabeled.refined_polys_calls"] == 2
    assert m["unlabeled.levels_built"] == 10
    assert m["unlabeled.level_useful_ratio"] == 0.5
    assert m["cli.stdout_bytes"] == 3 and m["trace.overhead_ratio"] == 1.5


def _cli(*args, tracer_out=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    prefix = (["-m", "seriesforge.cli"] if tracer_out is None
              else [str(BENCH / "tracer.py"), str(tracer_out), "--"])
    return subprocess.run([sys.executable, *prefix, *args], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("args, check", [
    (("table", "riordan-triangle", "--max-n", "9"), workloads._expect_riordan(9)),
    (("table", "mobiles", "--max-s", "9", "--max-m", "4"),
     workloads._expect_table(9, 4, lambda s, m: workloads.mobile_counts(s, m)[-1])),
])
def test_grid_checks_read_every_cell(args, check):
    out = _cli(*args).stdout.decode()
    assert check(out) is None
    # change the last digit of the grid's last row
    lines = out.split("\n")
    last = lines[-2].rstrip()
    lines[-2] = last[:-1] + str((int(last[-1]) + 1) % 10)
    assert check("\n".join(lines)) is not None


def test_traced_job_prints_the_same_and_counts_repeat(tmp_path):
    args = ("table", "symbolic", "--max-s", "6", "--max-m", "3", "--check-paper")
    plain = _cli(*args)
    counts = []
    for i in range(2):
        out = tmp_path / f"spans{i}.json"
        traced = _cli(*args, tracer_out=out)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
        m = layer_metrics([json.loads(out.read_text())], len(traced.stdout), 1.0)
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    # 3 x 6 cells, each computed for the grid and again for the check
    assert counts[0]["cli.family_calls"] == 36
    assert counts[0]["cli.distinct_call_ratio"] == 0.5
    assert counts[0]["bell.sequence_calls"] > 0
    assert counts[0]["rings.polyvar_mul_calls"] == 0


def test_rmul_is_counted_once(tmp_path):
    out = tmp_path / "spans.json"
    assert _cli("count", "chain-increasing", "--s", "6", "--m", "2",
                tracer_out=out).returncode == 0
    trace = json.loads(out.read_text())
    names = trace["names"]
    seen = [names[span[0]] for span in trace["spans"]]
    mul = seen.count("rings.PolyVar.__mul__") + seen.count("rings.PolyVar.__rmul__")
    m = layer_metrics([trace], 0, 1.0)
    assert m["rings.polyvar_mul_calls"] == mul > 0
    # a call dispatched as __rmul__ never opens a nested __mul__ span
    parents = {i: span[3] for i, span in enumerate(trace["spans"])}
    for i, name in enumerate(seen):
        if name == "rings.PolyVar.__mul__" and parents[i] >= 0:
            assert seen[parents[i]] != "rings.PolyVar.__rmul__"


@pytest.mark.xfail(strict=True, reason=(
    "known defect: table riordan-triangle --check-paper past n = 10 indexes "
    "past reference.UNLABELED_SEQUENCE and dies with an IndexError traceback"))
def test_riordan_check_paper_past_the_reference_fails_cleanly():
    done = _cli("table", "riordan-triangle", "--max-n", "11", "--check-paper")
    assert b"Traceback" not in done.stderr


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
