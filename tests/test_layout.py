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
    ["gf", "P", "--spec", "symbolic", "--m", "3", "--order", "8"],
    ["count", "ultrametrics", "--s", "6", "--m", "3"],
    ["table", "riordan-triangle", "--max-n", "5"],
    ["verify", "unlabeled", "--bfile", BFILE],
]

# modules a plain-format count, table or verify run, or a gf P run, does
# not need: the ring contract, its dataclass series type, QQ and Fraction
# live in the test-support egf.py, csv and json are imported only where
# the csv or json format is written, and gf P writes its JSON text itself
STARTUP_HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "csv", "json", "typing"}


def _public_functions(mod):
    return {fn for name, fn in inspect.getmembers(mod, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == mod.__name__}


def test_bell_exports_only_bell_row():
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

# snapshots sys.modules, which then holds what the interpreter loads on its
# own (`site` and its .pth files included), and profiles from before the
# package is imported; runs CLI_RUNS and records the modules they added and
# the module that defines each exported name (a name that does not resolve
# fails the getattr); only then imports json and doctest, runs the rest of
# EVERY_RUN, the usage error and the README quick start as a doctest, and
# prints, as its last line, one JSON record: those, the exit codes, the
# doctest examples tried and failed and (module, first line) of every code
# object entered
PROBE = """
import sys
before = set(sys.modules)
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_globals.get("__name__"), frame.f_code.co_firstlineno))

sys.setprofile(profile)
from seriesforge.cli import main
plain, rest, path = %r
codes = [main(argv) for argv in plain]
added = sorted(set(sys.modules) - before)
import seriesforge
exports = {n: getattr(getattr(seriesforge, n), "__module__", None) for n in seriesforge.__all__}
import doctest, json
codes += [main(argv) for argv in rest]
readme = doctest.testfile(path, module_relative=False)
sys.setprofile(None)
print(json.dumps({"codes": codes, "added": added, "exports": exports,
                  "attempted": readme.attempted, "failed": readme.failed,
                  "entered": sorted(entered)}))
"""


@pytest.fixture(scope="module")
def probe():
    rest = EVERY_RUN[len(CLI_RUNS):] + [USAGE_ERROR]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE % ((CLI_RUNS, rest, README),)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(EVERY_RUN) + [1]
    assert "seriesforge.cli" in report["added"]
    return report


def test_plain_cli_runs_load_no_heavy_module(probe):
    assert STARTUP_HEAVY.isdisjoint(probe["added"]), STARTUP_HEAVY.intersection(probe["added"])


def test_cli_run_stays_inside_production(probe):
    assert "seriesforge.egf" not in probe["added"]
    assert "seriesforge.oracle" not in probe["added"]
    for name, module in probe["exports"].items():
        assert module not in ("seriesforge.egf", "seriesforge.oracle"), name


def test_cli_run_loads_nothing_outside_the_standard_library(probe):
    extra = {m.split(".")[0] for m in probe["added"]} - {"seriesforge"}
    assert extra <= set(sys.stdlib_module_names), extra - set(sys.stdlib_module_names)


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


def test_every_production_def_is_run_or_kept_for_a_reason(probe):
    assert probe["attempted"] > 0
    assert probe["failed"] == 0
    entered = {tuple(pair) for pair in probe["entered"]}
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
