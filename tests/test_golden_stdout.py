"""Every stdout byte of the CLI, pinned in one place.

tests/golden_stdout.json maps each run, its argv joined by spaces with a
b-file path relative to the repository root, to its exit code, the
sha256 and length in bytes of its stdout, and its exact stderr.  One
test runs every entry in-process through `cli.main` and names each run
whose exit code, stdout or stderr differs.

The runs: every run of test_layout's EVERY_RUN but --help, the non-verify
jobs of benchmarks/expected.json, and RUNS below.  No entry may depend on
the Python version, so none is --help or an error worded by argparse.

    PYTHONPATH=src python tests/test_golden_stdout.py

rewrites the corpus from the current tree.  A change that alters an
entry names it, and why, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from unittest import mock

from seriesforge.cli import main
from test_layout import EVERY_RUN

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "golden_stdout.json")
BENCHMARK_JOBS = os.path.join(ROOT, "benchmarks", "expected.json")
# what a failure names, and the fields of an entry that each part covers
PARTS = (("exit", ["exit"]), ("stdout", ["sha256", "bytes"]), ("stderr", ["stderr"]))

# runs whose output tests of tests/test_cli.py assert, or asserted, by
# hand, one usage error in the CLI's own words, and the sizes of the
# earlier digest tables: gf P with symbolic weights, and the runs whose
# every step divides exactly in the unlabeled level table
RUNS = [
    "count ultrametrics --s 4 --m 2",
    "count ultrametrics --s 4",
    "count ultrametrics --s 8 --m 8",
    "count ultrametrics --s 20 --m 20 --format json",
    "count ultrametrics --s 3 --m 9007199254740993 --format json",
    "count mobiles --s 8 --m 8 --format json",
    "count chain-increasing --s 4 --m 0 --format csv",
    "count fully-colored-labeled --s 200 --m 100000000000000000000",
    "count unlabeled --s 400",
    "count multipartite-unlabeled --s 400 --m 3",
    "count multipartite-unlabeled --s 300 --m 8",
    *(f"table {name} --check-paper"
      for name in ("symbolic", "fully-colored-labeled", "mobiles", "multipartite-unlabeled",
                   "fully-colored-unlabeled", "riordan-triangle")),
    "table symbolic --max-s 4 --max-m 2",
    "table symbolic --max-s 2 --max-m 2 --format json",
    "table mobiles --max-s 3 --max-m 2 --format csv",
    "table riordan-triangle --max-n 40",
    "table riordan-triangle --max-n 40 --format json",
    "gf A --m 2 --order 4",
    "gf Y --m 2 --order 4",
    "gf P --m 2 --order 3",
    "gf P --m 3 --order 8 --spec ones",
    "gf P --m 3 --order 8 --spec factorial",
    "gf P --spec ones --m 9007199254740993 --order 2",
    *(f"gf P --m {m} --order {order}" for m, order in ((1, 16), (2, 12), (3, 10), (5, 8))),
]


def _paths(argv, path):
    """argv with path() applied to each word that follows --bfile."""
    return [path(word) if before == "--bfile" else word
            for before, word in zip([None, *argv], argv)]


def runs():
    """Every run the corpus pins, as its key."""
    with open(BENCHMARK_JOBS) as fh:
        jobs = [job for job in json.load(fh) if not job.startswith("verify ")]
    layout = [" ".join(_paths(argv, lambda p: os.path.relpath(p, ROOT)))
              for argv in EVERY_RUN if argv != ["--help"]]
    return list(dict.fromkeys(layout + jobs + RUNS))


def record(run):
    """The corpus entry of one run, made in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_paths(run.split(), lambda p: os.path.join(ROOT, p)))
    data = out.getvalue().encode()
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "stderr": err.getvalue()}


def record_all(keys):
    """{run: its entry}, with the order cap at its default."""
    with mock.patch.dict(os.environ):
        os.environ.pop("SERIESFORGE_MAX_ORDER", None)
        return {run: record(run) for run in keys}


def load():
    with open(CORPUS) as fh:
        return json.load(fh)


def test_the_corpus_pins_every_run():
    # a family, table, format, gf kind or spec added to the CLI adds a run
    # to EVERY_RUN, which fails here until the corpus is rewritten
    corpus, want = set(load()), set(runs())
    assert corpus == want, {"not pinned": sorted(want - corpus), "stale": sorted(corpus - want)}


def test_every_run_matches_its_pin():
    corpus = load()
    problems = []
    for run, got in record_all(corpus).items():
        want = corpus[run]
        differ = [part for part, fields in PARTS if any(got[f] != want[f] for f in fields)]
        if differ:
            problems.append(f"{run}: differs in {', '.join(differ)}")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    with open(CORPUS, "w") as fh:
        json.dump(record_all(runs()), fh, indent=1, sort_keys=True)
        fh.write("\n")
