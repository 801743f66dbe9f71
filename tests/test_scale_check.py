"""tests/scale_check.py, the checker of CI's large CLI runs: each check
accepts a true stdout at a small size and rejects the errors that a check
at fixed points cannot see."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from seriesforge import PolyVar, cli
from seriesforge.labeled import ultrametric_counts

import scale_check

M = PolyVar.gen("m")
WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".github", "workflows", "tests.yml")


def stdout_of(run):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(run.split()) == 0
    return out.getvalue()


def child_stdout(run):
    """The stdout of the child that scale_check runs for `run`."""
    argv = run.split()
    return subprocess.run(scale_check.command(scale_check.parse(argv), argv),
                          capture_output=True, text=True, check=True, timeout=60).stdout


def problem(run, output):
    args = scale_check.parse(run.split())
    return scale_check.CHECKS[args.command](args, output)


def grid(columns, cells):
    """The plain triangle grid, right-justified as the CLI writes it."""
    width = 1 + max(len(str(v)) for v in [*columns, *cells.values()])
    lines = ["k".rjust(width) + "".join(str(n).rjust(width) for n in columns)]
    for k in range(1, columns[-1]):
        lines.append(str(k).rjust(width) + "".join(
            str(cells[k, n]).rjust(width) if (k, n) in cells else " " * width for n in columns))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("run", [
    "count unlabeled --s 60",
    "count multipartite-unlabeled --s 40 --m 3",
    "count multipartite-unlabeled --s 10 --m 1",
    "count ultrametrics --s 40 --m 8",
    "count mobiles --s 40 --m 2",
    "table riordan-triangle --max-n 12",
    "gf P --m 3 --order 8",
    "gf P --m 1 --order 1",
])
def test_accepts_a_true_stdout(run):
    assert problem(run, stdout_of(run)) is None


@pytest.mark.parametrize("family", scale_check.POLYNOMIAL_FAMILIES)
def test_accepts_true_polynomials(family):
    run = f"polynomials {family} --s 30"
    assert problem(run, child_stdout(run)) is None


@pytest.mark.parametrize("run", ["count ultrametrics --s 40 --m 8", "count unlabeled --s 60"])
def test_rejects_a_count_off_by_one(run):
    wrong = f"{int(stdout_of(run)) + 1}\n"
    assert problem(run, wrong).startswith(f"count {run.split()[1]} --s ")


def test_rejects_a_p_term_moved_onto_its_colour_relabelled_image():
    # x_{c,k} = 1 and (k - 1)! weigh every colour alike, so moving a term
    # of P_6 onto its image under colours 2 <-> 3 keeps both sums; only the
    # random point, one weight per colour and degree, sees it
    run = "gf P --m 3 --order 8"
    record = json.loads(stdout_of(run))
    terms = record["coeffs"][6]
    by_monomial = {json.dumps(term["monomial"]): term for term in terms}
    for term in terms:
        image = sorted([{2: 3, 3: 2}.get(c, c), k, e] for c, k, e in term["monomial"])
        if image != term["monomial"] and json.dumps(image) in by_monomial:
            break
    target = by_monomial[json.dumps(image)]
    target["coeff"] = int(target["coeff"]) + int(term["coeff"])
    terms.remove(term)
    found = problem(run, json.dumps(record))
    assert re.match(r"gf P P_6 at the x_\{c,k\} of seed \d+: ", found), found


def test_rejects_a_triangle_column_changed_where_1_and_2_cannot_see():
    # +2, -3 and +1 in rows 2, 3 and 4 leave the column's sums at t = 1 and
    # t = 2 (8 - 24 + 16) as they were; only the random t sees the change
    run = "table riordan-triangle --max-n 12"
    columns, cells = scale_check.read_triangle(stdout_of(run))
    assert problem(run, grid(columns, cells)) is None
    for k, change in ((2, 2), (3, -3), (4, 1)):
        cells[k, 10] += change
    found = problem(run, grid(columns, cells))
    assert re.match(r"riordan-triangle column 10 at t = \d+: ", found), found


@pytest.mark.parametrize("run, old, new", [
    ("count ultrametrics --s 4 --m 2", "52", "٥٢"),
    ("table riordan-triangle --max-n 12", " 12\n", " ١٢\n"),     # the header's last column
    ("table riordan-triangle --max-n 12", " 1133\n", "1_133\n"),
    ("gf P --m 3 --order 8", '"coeff": 1}', '"coeff": "١"}'),
])
def test_rejects_an_integer_that_int_reads_but_the_cli_never_writes(run, old, new):
    # int() reads the new spelling as the old integer, so only the rule sees it
    text = stdout_of(run)
    assert old in text
    with pytest.raises(scale_check.NotAnInteger, match="not an ASCII integer"):
        problem(run, text.replace(old, new, 1))


def test_rejects_a_polynomial_changed_by_a_multiple_of_m_minus_2_times_m_minus_3():
    # the change vanishes at m = 2 and m = 3, so a comparison there passes
    run = "polynomials ultrametrics --s 30"
    polys = [PolyVar(json.loads(line)) for line in child_stdout(run).splitlines()]
    polys[20] = polys[20] + 7 * (M - 2) * (M - 3)
    for m in (2, 3):
        assert [p.eval_at(m) for p in polys] == ultrametric_counts(30, m)
    found = problem(run, "".join(f"{json.dumps(list(p.coeffs))}\n" for p in polys))
    assert re.match(r"polynomials ultrametrics s = 21 at m = \d+: ", found), found


@pytest.mark.parametrize("run, code, line", [
    ("count unlabeled --s 30", 0, ""),
    # the CLI refuses an order above its cap of 16 and exits 1
    ("gf P --m 3 --order 17", 1, "scale check failed: gf P --m 3 --order 17: exited 1\n"),
])
def test_runs_the_cli_in_a_child_and_prints_its_time_and_peak(run, code, line):
    done = subprocess.run([sys.executable, scale_check.__file__, *run.split()],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert re.fullmatch(rf"{run}: \d+\.\d\d s, \d+\.\d MiB\n", done.stdout)
    assert done.stderr.endswith(line)


@pytest.mark.parametrize("run, stdout, shape", [
    ("table riordan-triangle --max-n 12", "",
     "ValueError: not enough values to unpack (expected at least 1, got 0)"),
    ("gf P --m 1 --order 2", '{"kind": "P", "m": 1, "order": 2, "coeffs": [[], [1], [2]]}',
     "TypeError: 'int' object is not subscriptable"),
], ids=["empty-triangle", "p-coefficient-not-a-term"])
def test_names_a_stdout_of_the_wrong_shape(monkeypatch, capsys, run, stdout, shape):
    # the checks raise on these; main words the error as one line
    def launcher(argv, pass_fds, **kwargs):
        os.write(pass_fds[0], b"0 10240")       # the launcher's report: exit 0, 10 MiB
        return subprocess.CompletedProcess(argv, 0, stdout)

    monkeypatch.setattr(scale_check.subprocess, "run", launcher)
    assert scale_check.main(run.split()) == 1
    assert capsys.readouterr().err == (
        f"scale check failed: {run}: stdout of the wrong shape ({shape})\n")


def test_every_ci_line_has_its_own_rss_bound():
    # CI runs the whole table, so its runs and their bounds are written once
    with open(WORKFLOW) as fh:
        runs = re.findall(r"python3? tests/scale_check\.py(.*)$", fh.read(), re.M)
    assert runs == [""]


def test_reads_the_peak_of_its_own_run_alone(capsys):
    # RUSAGE_CHILDREN would hold this earlier and larger child's peak too
    subprocess.run([sys.executable, "-c", 'b"x" * (96 << 20)'], check=True, timeout=60)
    assert scale_check.main(["count", "unlabeled", "--s", "30"]) == 0
    line = re.fullmatch(r"count unlabeled --s 30: \d+\.\d\d s, (\d+\.\d) MiB\n", capsys.readouterr().out)
    assert float(line[1]) < 50


def test_runs_every_run_of_the_table_and_names_each_failure(monkeypatch, capsys):
    monkeypatch.setattr(scale_check, "RSS_LIMIT_MIB", {
        "count unlabeled --s 30": 1, "count unlabeled --s 31": 50, "gf P --m 3 --order 17": 50})
    assert scale_check.main([]) == 1
    out, err = capsys.readouterr()
    assert re.fullmatch(r"count unlabeled --s 30: .*\ncount unlabeled --s 31: .*\ngf P --m 3 --order 17: .*\n", out)
    assert re.fullmatch(r"scale check failed: count unlabeled --s 30: peaked at \d+\.\d MiB RSS, above 1 MiB\n"
                        r"scale check failed: gf P --m 3 --order 17: exited 1\n", err)


def test_a_run_over_its_own_bound_fails(monkeypatch, capsys):
    monkeypatch.setitem(scale_check.RSS_LIMIT_MIB, "count unlabeled --s 30", 1)
    assert scale_check.main(["count", "unlabeled", "--s", "30"]) == 1
    assert re.fullmatch(r"scale check failed: count unlabeled --s 30: peaked at \d+\.\d MiB RSS,"
                        r" above 1 MiB\n", capsys.readouterr().err)
