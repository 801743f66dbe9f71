"""The production boundary: what the CLI and the documented API reach.

The oracles and the test-support series type live beside production but
outside it, so a CLI run must not load them, and the package must not
export anything they define.  Each counting family has one public
function, its prefix over the ring of m, which the CLI runs too.  The
package has no runtime dependency, so a CLI run loads nothing outside
the standard library.
"""

import ast
import inspect
import json
import os
import subprocess
import sys

import pytest

import seriesforge
from seriesforge import bell, cli, labeled, unlabeled

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BFILE = os.path.join(HERE, "data", "b000669_prefix.txt")

CLI_RUNS = [
    ["gf", "P", "--m", "2", "--order", "4"],
    ["count", "ultrametrics", "--s", "6", "--m", "3"],
    ["table", "riordan-triangle", "--max-n", "5"],
    ["verify", "unlabeled", "--bfile", BFILE],
]

# runs the CLI in a fresh interpreter, then prints, as its last line, the
# exit codes, the modules loaded and the module that defines each exported
# name (a name that does not resolve fails the getattr)
PROBE = """
import json, sys
from seriesforge.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
import seriesforge
print(json.dumps({
    "codes": codes,
    "modules": sorted(sys.modules),
    "exports": {n: getattr(getattr(seriesforge, n), "__module__", None)
                for n in seriesforge.__all__},
}))
"""


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(CLI_RUNS)],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(CLI_RUNS)
    # what the interpreter loads on its own, `site` and its .pth files included
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    report["bare"] = bare.stdout.split()
    return report


# modules a plain-format count, table or verify run, or a gf P run, does
# not need: Ring is a plain class, QQ and Fraction live in the test-support
# egf.py, csv and json are imported only where the csv or json format is
# written, and gf P writes its JSON text itself
STARTUP_HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "csv", "json", "typing"}

# snapshots sys.modules before it imports anything, then prints, as its
# last line, the exit codes and the modules the CLI runs added
STARTUP_PROBE = """
import sys
before = set(sys.modules)
from seriesforge.cli import main
codes = [main(argv) for argv in %r]
print((codes, sorted(set(sys.modules) - before)))
"""


def _modules_added_by(runs) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE % (runs,)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    codes, added = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert "seriesforge.cli" in added
    return added


def test_plain_cli_runs_load_no_heavy_module():
    added = _modules_added_by([argv for argv in CLI_RUNS if argv[0] in ("count", "table", "verify")])
    assert STARTUP_HEAVY.isdisjoint(added), STARTUP_HEAVY.intersection(added)


def test_symbolic_gf_p_run_loads_no_heavy_module():
    added = _modules_added_by([["gf", "P", "--spec", "symbolic", "--m", "3", "--order", "8"]])
    assert STARTUP_HEAVY.isdisjoint(added), STARTUP_HEAVY.intersection(added)


def test_cli_run_stays_inside_production(probe):
    assert "seriesforge.egf" not in probe["modules"]
    assert "seriesforge.oracle" not in probe["modules"]
    for name, module in probe["exports"].items():
        assert module not in ("seriesforge.egf", "seriesforge.oracle"), name


def test_cli_run_loads_nothing_outside_the_standard_library(probe):
    def top(modules):
        return {m.split(".")[0] for m in modules}

    extra = top(probe["modules"]) - top(probe["bare"]) - {"seriesforge"}
    assert extra <= set(sys.stdlib_module_names), extra - set(sys.stdlib_module_names)


def _public_functions(mod):
    return {fn for name, fn in inspect.getmembers(mod, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == mod.__name__}


def test_bell_is_the_inversion_kernel_only():
    assert _public_functions(bell) == {bell.bell_row, bell.bell_inverse_recursive}


def test_labeled_builds_no_series_object():
    assert not hasattr(labeled, "ExpSeries")
    assert isinstance(labeled.p_series(1, 3), tuple)


FAMILY_PREFIXES = {fn for fn, *_ in cli.FAMILIES.values()}
SERIES_API = {"refined_polys", "p_series", "PolyVar", "WeightPoly"}


def test_exports_are_the_family_prefixes_and_the_series_api():
    assert len(seriesforge.__all__) == len(set(seriesforge.__all__))
    assert set(seriesforge.__all__) == {fn.__name__ for fn in FAMILY_PREFIXES} | SERIES_API
    for fn in FAMILY_PREFIXES:
        assert getattr(seriesforge, fn.__name__) is fn


def test_one_public_function_per_family():
    exported = {getattr(seriesforge, name) for name in seriesforge.__all__}
    public = _public_functions(labeled) | _public_functions(unlabeled)
    # the benchmark runner imports the Z[m] inversion as its check of the
    # ultrametric polynomials, so it stays public without an export
    assert public - exported == {labeled.ultrametric_series_polynomials}
