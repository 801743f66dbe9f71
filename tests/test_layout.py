"""The production boundary: what the CLI and the documented API reach.

The oracles and the test-support series type live beside production but
outside it, so a CLI run must not load them, and the package must not
export anything they define.
"""

import inspect
import json
import os
import subprocess
import sys

from seriesforge import bell, labeled

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
# exit codes, the seriesforge modules loaded and the module that defines
# each exported name (a name that does not resolve fails the getattr)
PROBE = """
import json, sys
from seriesforge.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
import seriesforge
print(json.dumps({
    "codes": codes,
    "modules": sorted(m for m in sys.modules if m.startswith("seriesforge")),
    "exports": {n: getattr(getattr(seriesforge, n), "__module__", None)
                for n in seriesforge.__all__},
}))
"""


def test_cli_run_stays_inside_production():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(CLI_RUNS)],
        capture_output=True, text=True, env=env, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(CLI_RUNS)
    assert "seriesforge.egf" not in report["modules"]
    assert "seriesforge.oracle" not in report["modules"]
    for name, module in report["exports"].items():
        assert module not in ("seriesforge.egf", "seriesforge.oracle"), name


def test_bell_is_the_inversion_kernel_only():
    public = {name for name, fn in inspect.getmembers(bell, inspect.isfunction)
              if not name.startswith("_") and fn.__module__ == bell.__name__}
    assert public == {"bell_row", "bell_inverse_recursive"}


def test_labeled_builds_no_series_object():
    assert not hasattr(labeled, "ExpSeries")
    assert isinstance(labeled.p_series(labeled.DegreeSpec(1), 3), tuple)
