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
README = os.path.join(os.path.dirname(HERE), "README.md")

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
# not need: the ring contract, its dataclass series type, QQ and Fraction
# live in the test-support egf.py, csv and json are imported only where the csv or json format is
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
    assert _public_functions(bell) == {bell.bell_row}


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
    # the benchmark runner imports the pointer to the oracles' Z[m] inversion
    # as its check of the ultrametric polynomials, so it stays public
    # without an export
    assert public - exported == {labeled.ultrametric_series_polynomials}


FORMATS = ("plain", "json", "csv")
# CLI_RUNS and every command in every format, every gf kind, P with each
# constant spec, and --help; with a usage error and the README quick start,
# what the dead-code gate runs
EVERY_RUN = CLI_RUNS + [
    ["count", family, "--s", "5", *(["--m", "2"] if row[1] else []), "--format", fmt]
    for family, row in cli.FAMILIES.items() for fmt in FORMATS
] + [
    ["table", name, "--max-s", "4", "--max-m", "2", "--check-paper", "--format", fmt]
    for name in cli.TABLES for fmt in FORMATS
] + [
    ["table", "riordan-triangle", "--max-n", "5", "--check-paper", "--format", fmt]
    for fmt in FORMATS
] + [["gf", kind, "--m", "2", "--order", "5"] for kind in ("P", *cli.GF_KINDS)] + [
    ["gf", "P", "--m", "2", "--order", "5", "--spec", spec] for spec in cli.P_SPECS
] + [["--help"]]
USAGE_ERROR = ["count", "ultrametrics", "--s", "x"]

# profiles, from before the package is imported, the CLI runs and the README
# quick start as a doctest, then prints, as its last line, the exit codes,
# the doctest failures and (module, first line) of every code object entered
DEAD_CODE_PROBE = """
import doctest, json, sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_globals.get("__name__"), frame.f_code.co_firstlineno))

sys.setprofile(profile)
from seriesforge.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
failed = doctest.testfile(sys.argv[2], module_relative=False).failed
sys.setprofile(None)
print(json.dumps({"codes": codes, "failed": failed, "entered": sorted(entered)}))
"""

GATED_MODULES = ("cli", "labeled", "unlabeled", "bell", "rings", "weights")
EXPORTED = "a method of an exported class"
TRACED = "a method of an exported class; benchmarks/tracer.py CLASS_METHODS wraps it"

# the defs no gated run enters, each with the reason it stays: the class is
# exported or a benchmark file pins the name; a benchmark change that
# unpins a name takes it out of production and off this list
KEPT_UNRUN = {
    "labeled.ultrametric_series_polynomials": "benchmarks/run.py imports it",
    "rings.PolyVar.const": EXPORTED,
    "rings.PolyVar.degree": EXPORTED,
    "rings.PolyVar.__hash__": EXPORTED,
    "rings.PolyVar.__pow__": EXPORTED,
    "rings.PolyVar.__rsub__": TRACED,
    "rings.PolyVar.map_coeffs": TRACED,
    "rings.PolyVar.scale_exact": TRACED,
    "rings.PolyVar.substitute": TRACED,
    "rings.PolyVar.compose": TRACED,
    "rings.PolyVar.shift_down": TRACED,
    "weights.WeightPoly.is_zero": EXPORTED,
    "weights.WeightPoly.__bool__": EXPORTED,
    "weights.WeightPoly.__eq__": EXPORTED,
    "weights.WeightPoly.__hash__": EXPORTED,
    "weights.WeightPoly.__neg__": TRACED,
    "weights.WeightPoly.__sub__": TRACED,
    "weights.WeightPoly.__rsub__": TRACED,
    "weights.WeightPoly.__mul__": TRACED,
    "weights.WeightPoly.substitute": TRACED,
    "weights.WeightPoly.degree_mass": TRACED,
    "weights.WeightPoly.to_jsonable": TRACED,
    # gf P writes each coefficient from _json_pieces, which to_json joins
    "weights.WeightPoly.to_json": TRACED,
}


def _defs(module: str):
    """(dotted name, first lines) of every def in src/seriesforge/<module>.py,
    methods and nested defs included; a decorated def's code may start at
    its first decorator."""
    with open(os.path.join(SRC, "seriesforge", f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    stack = [(tree, module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                stack.append((child, name))
                if isinstance(child, ast.FunctionDef):
                    yield name, {child.lineno, *(d.lineno for d in child.decorator_list)}


def test_every_production_def_is_run_or_kept_for_a_reason():
    runs = EVERY_RUN + [USAGE_ERROR]
    proc = subprocess.run(
        [sys.executable, "-c", DEAD_CODE_PROBE, json.dumps(runs), README],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(EVERY_RUN) + [1]
    assert report["failed"] == 0
    entered = {tuple(pair) for pair in report["entered"]}
    unrun = {name for module in GATED_MODULES for name, lines in _defs(module)
             if not any((f"seriesforge.{module}", line) in entered for line in lines)}
    assert unrun == set(KEPT_UNRUN)


# the ring contract and the rings built on it, which the tests and the
# oracles compute over and production does not
RING_CONTRACT = {"Ring", "ZZ", "poly_ring", "WEIGHT_RING", "POLY_M"}
TEST_SUPPORT = {"egf", "oracle"}


def _imported(node) -> set:
    """The module path parts and names an import statement names."""
    if isinstance(node, ast.ImportFrom):
        return {*(node.module or "").split("."), *(a.name for a in node.names)}
    return {part for a in node.names for part in a.name.split(".")}


def _module_level(node):
    """The nodes that run when the module is imported: all but the bodies
    of its functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


@pytest.mark.parametrize("module", GATED_MODULES)
def test_production_keeps_out_the_ring_contract(module):
    with open(os.path.join(SRC, "seriesforge", f"{module}.py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        where = f"{module}.py:{getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            assert node.name not in RING_CONTRACT, where
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            assert node.id not in RING_CONTRACT, where
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = _imported(node) | {a.asname for a in node.names}
            assert RING_CONTRACT.isdisjoint(names), where
    for node in _module_level(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert TEST_SUPPORT.isdisjoint(_imported(node)), f"{module}.py:{node.lineno}"
