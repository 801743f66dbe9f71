"""The CLI's contract over its argv grammar, as one property test, and
its parser against the argparse grammar it replaced (see the second half).

Each example builds one command line from the grammar: a subcommand, a
family (or one bad name), a size s in -1..12, an m that is absent, -1, 0
or 1..4, a format, maybe ``-o`` into a temporary directory and maybe an
unknown option; sometimes its first non-negative int is spelled as int()
reads it but the CLI does not (``+3``, ``0_3`` or fullwidth digits), which
makes the run a usage error.  Whatever the input, `main` returns 0, 1 or 2
without a traceback, and a usage error (1) is one ``error: `` line on
stderr with nothing on stdout.  A run that succeeds must agree with the
others: json and csv carry the plain value, a count equals its table cell
and its ``gf A|G|Y`` coefficient, ``verify`` accepts a b-file of the same
prefix, and ``-o`` writes exactly what stdout would.

`main` runs in-process under ``contextlib.redirect_stdout/stderr``:
hypothesis rejects function-scoped fixtures such as ``capsys``.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seriesforge
from seriesforge.cli import UsageError, _emit, _parse, main

# the grammar's families, pinned here rather than read from the CLI:
# family -> (prefix function, table name, gf letter)
FAMILIES = {
    "ultrametrics": (seriesforge.ultrametric_counts, "symbolic", "A"),
    "fully-colored-labeled": (seriesforge.fully_colored_labeled_counts,
                              "fully-colored-labeled", None),
    "mobiles": (seriesforge.mobile_counts, "mobiles", "G"),
    "chain-increasing": (seriesforge.chain_increasing_counts, None, "Y"),
    "processes": (seriesforge.process_counts, None, None),
    "unlabeled": (seriesforge.unlabeled_counts, None, None),
    "multipartite-unlabeled": (seriesforge.multipartite_unlabeled_counts,
                               "multipartite-unlabeled", None),
    "fully-colored-unlabeled": (seriesforge.fully_colored_unlabeled_counts,
                                "fully-colored-unlabeled", None),
}
WITHOUT_M = {"processes", "unlabeled"}
TABLES = sorted(t for _, t, _ in FAMILIES.values() if t) + ["riordan-triangle"]
BAD = "no-such-name"

# the grammar, drawn so that about half of the runs are valid
sizes = st.integers(-1, 12)
ms = st.one_of(st.integers(1, 4), st.sampled_from([None, -1, 0]))
formats = st.sampled_from(["plain", "json", "csv"])
specs = st.one_of(st.none(), st.sampled_from(["symbolic", "ones", "factorial"]))
rarely = st.sampled_from([False, False, False, True])
FULLWIDTH = str.maketrans("0123456789", "".join(chr(0xFF10 + d) for d in range(10)))
SPELLINGS = {"plus": "+{}".format, "underscore": "0_{}".format,
             "fullwidth": lambda digits: digits.translate(FULLWIDTH)}
spellings = st.sampled_from([None] * 6 + sorted(SPELLINGS))


def run(argv):
    """main(argv) in-process: (exit code, stdout, stderr), with the
    contract every run keeps."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err, argv
    if code == 1:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code, out, err


def options(*pairs):
    """The flat argv of (option, value) pairs, skipping absent values."""
    return [str(x) for opt, value in pairs if value is not None for x in (opt, value)]


def respelled(argv, spelling):
    """argv with its first non-negative int spelled the given way, or None
    where it holds none."""
    for i, arg in enumerate(argv):
        if arg.isascii() and arg.isdigit():
            odd = SPELLINGS[spelling](arg)
            assert int(odd) == int(arg)
            return argv[:i] + [odd] + argv[i + 1:]
    return None


def bfile(path, values):
    with open(path, "w") as fh:
        fh.write("".join(f"{i} {v}\n" for i, v in enumerate(values, start=1)))


def value_of(out, fmt):
    """The one value of a successful `count`, read back from its format."""
    if fmt == "json":
        return int(json.loads(out)["value"])
    if fmt == "csv":
        header, row = csv.reader(io.StringIO(out))
        assert header == ["family", "s", "m", "value"]
        return int(row[-1])
    return int(out)


def grid_of(out, fmt):
    """The cells of a successful `table`, as text, empty cells dropped."""
    if fmt == "json":
        records = json.loads(out)
        rows = [list(records[0])] + [[str(c) for c in r.values()] for r in records]
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
    else:
        return [line.split() for line in out.splitlines()]
    return [[c for c in row if c != ""] for row in rows]


def prefix(family, s, m):
    """The family's counts for 1..s, or None where the library rejects the
    arguments, as the CLI must then too."""
    if family not in FAMILIES or s < 1 or (m is None) != (family in WITHOUT_M):
        return None
    fn = FAMILIES[family][0]
    try:
        return fn(s) if m is None else fn(s, m)
    except ValueError:
        return None


def check_count(tmp, family, s, m, value):
    """A count agrees with its prefix, table cell, gf coefficient and a
    b-file verify."""
    _, table, letter = FAMILIES[family]
    values = prefix(family, s, m)
    assert value == values[-1]
    if table:
        code, out, _ = run(["table", table, "--max-s", str(s), "--max-m", str(m),
                            "--format", "json"])
        assert code == 0 and int(json.loads(out)[m - 1][str(s)]) == value
    if letter:
        code, out, _ = run(["gf", letter, "--m", str(m), "--order", str(s)])
        assert code == 0 and json.loads(out)["coeffs"][s] == f"{value}/1"
    path = os.path.join(tmp, "b.txt")
    bfile(path, values)
    code, out, _ = run(["verify", family, *options(("--m", m)), "--bfile", path])
    assert (code, out) == (0, f"OK ({s} entries)\n")


@st.composite
def command_lines(draw):
    """(argv without -o, the unknown option or --bfile, its format, and
    its family, s and m, or its table or gf name)."""
    command = draw(st.sampled_from(["count", "table", "gf", "verify"]))
    s, m, fmt = draw(sizes), draw(ms), draw(formats)
    if command == "count":
        family = draw(st.sampled_from(sorted(FAMILIES) + [BAD]))
        pairs = [("--s", s), ("--m", m), ("--format", fmt)]
        return ["count", family, *options(*draw(st.permutations(pairs)))], fmt, (family, s, m)
    if command == "table":
        name = draw(st.sampled_from(TABLES + [BAD]))
        check = draw(st.booleans())
        if name == "riordan-triangle":
            pairs = [("--max-n", draw(st.integers(-1, 12)))]
        else:
            pairs = [("--max-s", s), ("--max-m", m)]
        argv = ["table", name, *options(*pairs, ("--format", fmt))]
        return argv + ["--check-paper"] * check, fmt, name
    if command == "gf":
        kind = draw(st.sampled_from(["P", "A", "G", "Y", BAD]))
        spec = draw(specs)
        if kind == "P" and spec in (None, "symbolic"):
            s = min(s, 7)  # the symbolic series grows fast with m and order
        return ["gf", kind, *options(("--m", m), ("--order", s), ("--spec", spec))], None, kind
    family = draw(st.sampled_from(sorted(FAMILIES) + [BAD]))
    return ["verify", family, *options(("--m", m))], None, (family, s, m)


def as_plain(argv):
    return ["plain" if a in ("json", "csv") else a for a in argv if a != "--check-paper"]


@settings(max_examples=200, deadline=None)
@given(command_lines(), rarely, rarely, st.booleans(), spellings)
def test_cli_contract(line, to_file, unknown, corrupt, spelling):
    argv, fmt, what = line
    odd = spelling and respelled(argv, spelling)
    argv = odd or argv
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "verify":
            family, s, m = what
            values = prefix(family, s, m)
            written = list(values or [1])
            written[-1] += corrupt
            argv = argv + ["--bfile", os.path.join(tmp, "b.txt")]
            bfile(argv[-1], written)
        target = os.path.join(tmp, "out.txt")
        extra = (["-o", target] if to_file else []) + (["--no-such-option"] if unknown else [])
        code, out, err = run(argv + extra)
        if unknown or odd or (to_file and argv[0] == "verify"):
            assert code == 1
            return
        if argv[0] == "verify":
            if values is not None:
                assert code == (2 if corrupt else 0)
            return
        if to_file and code == 0:
            assert out == ""
            with open(target, newline="") as fh:
                written = fh.read()
            code, out, err = run(argv)
            assert code == 0 and written == out
        if argv[0] == "count":
            assert code == (1 if prefix(*what) is None else 0)
            if code == 0:
                value = value_of(out, fmt)
                assert value == int(run(as_plain(argv))[1])
                check_count(tmp, *what, value)
        elif argv[0] == "table" and code == 0:
            assert grid_of(out, fmt) == grid_of(run(as_plain(argv))[1], "plain")
            if "--check-paper" in argv:
                assert err == "all checked cells match the reference values\n"
        elif argv[0] == "gf" and code == 0:
            assert json.loads(out)["coeffs"][0] in ("0/1", [])


# The parser's parity oracle: the argparse grammar the CLI had before it
# parsed argv itself, kept here as the reference.  For every argv drawn
# below and in PARITY, `cli._parse` must refuse exactly when argparse
# does, print help exactly when and at the level argparse does, and
# otherwise give the same values (argparse's dest "fmt" is the CLI's
# "format").  On Python 3.11, whose wording the CLI keeps, each refusal
# must also be worded the same.  The spellings argparse reads and the CLI
# does not, in DROPPED, are not drawn.

class Refused(Exception):
    pass


class Helped(Exception):
    pass


class Reference(argparse.ArgumentParser):
    def error(self, message):
        raise Refused(message)

    def print_help(self, file=None):
        raise Helped(self.prog)


def _int(text):
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def reference_parser():
    parser = Reference(prog="seriesforge", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")
    grid = argparse.ArgumentParser(add_help=False, parents=[output])
    grid.add_argument("--format", dest="fmt", choices=["plain", "json", "csv"], default="plain")

    def command(name, positional, choices, parents=()):
        sub = commands.add_parser(name, allow_abbrev=False, parents=parents)
        sub.add_argument(positional, choices=choices)
        return sub

    families = sorted(FAMILIES)
    count = command("count", "family", families, [grid])
    count.add_argument("--s", type=_int, required=True)
    count.add_argument("--m", type=_int)
    table = command("table", "name", TABLES, [grid])
    table.add_argument("--max-s", type=_int)
    table.add_argument("--max-m", type=_int)
    table.add_argument("--max-n", type=_int)
    table.add_argument("--check-paper", action="store_true")
    gf = command("gf", "kind", ["P", "A", "G", "Y"], [output])
    gf.add_argument("--m", type=_int, required=True)
    gf.add_argument("--order", type=_int, default=8)
    gf.add_argument("--spec", choices=["symbolic", "ones", "factorial"])
    verify = command("verify", "family", families)
    verify.add_argument("--m", type=_int)
    verify.add_argument("--bfile", required=True)
    return parser


REFERENCE = reference_parser()


def outcome(parse, argv):
    """("ok", values), ("help", the level's prog) or ("refused", message)
    of one parser on argv."""
    try:
        return "ok", parse(argv)
    except (Refused, UsageError) as exc:
        return "refused", str(exc)
    except Helped as exc:
        return "help", str(exc)


def by_argparse(argv):
    values = vars(REFERENCE.parse_args(argv))
    del values["command"]
    if "fmt" in values:
        values["format"] = values.pop("fmt")
    return values


def by_cli(argv):
    run, args = _parse(argv)
    if run is _emit:
        # the help's first line is "usage: PROG [options] POSITIONAL"
        raise Helped(" ".join(args.partition("\n")[0].split()[1:-2]))
    return vars(args)


def assert_parity(argv):
    want, got = outcome(by_argparse, argv), outcome(by_cli, argv)
    if sys.version_info[:2] != (3, 11) and want[0] == got[0] == "refused":
        return
    assert got == want, argv


INTS = ["3", "0", "-1", "12"]
BAD_VALUES = ["x", "+5", "1_0", "-1.5", "", "\u0663", "-x", "nonsense"]
PATHS = ["out.txt", "-1", "x y"]
# command -> (its positional's choices, each option's good values, None for
# a flag, and its required options), as the reference above has them
GRAMMAR = {
    "count": (sorted(FAMILIES), {"--s": INTS, "--m": INTS, "--format": ["plain", "json", "csv"],
                                 "-o": PATHS, "--output": PATHS}, ["--s"]),
    "table": (TABLES, {"--max-s": INTS, "--max-m": INTS, "--max-n": INTS, "--check-paper": None,
                       "--format": ["csv"], "-o": PATHS}, []),
    "gf": (["P", "A", "G", "Y"], {"--m": INTS, "--order": INTS,
                                  "--spec": ["symbolic", "ones", "factorial"],
                                  "--output": PATHS}, ["--m"]),
    "verify": (sorted(FAMILIES), {"--m": INTS, "--bfile": PATHS}, ["--bfile"]),
}
ODD = ["--no-such-option", "-z", "--bad=1", "--max-n", "--spec", "--bfile", "extra",
       "-h", "--help", "--help=1"]


@st.composite
def argvs(draw):
    """A command line of one command from GRAMMAR: its positional and
    required options, some other options, each '--name value' or
    '--name=value', in any order; most lines are then spoiled, by a
    dropped word, a bad value, an odd word (an unknown option, another
    command's option, a positional too many, help) or a command name that
    is missing or wrong."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    choices, options, required = GRAMMAR[command]
    names = required + draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
    groups = [[draw(st.sampled_from(choices))]]
    for name in names:
        value = options[name] and draw(st.sampled_from(options[name]))
        if value is not None and draw(st.sampled_from([False, False, True])):
            value = draw(st.sampled_from(BAD_VALUES))
        if value is None:
            groups.append([name])
        elif name.startswith("--") and draw(st.booleans()):
            groups.append([f"{name}={value}"])
        else:
            groups.append([name, value])
    groups += [[word] for word in draw(st.lists(st.sampled_from(ODD), max_size=2))]
    groups = draw(st.permutations(groups))
    if groups and draw(st.booleans()):
        # one group loses its last word: a missing value or positional
        i = draw(st.integers(0, len(groups) - 1))
        groups[i] = groups[i][:-1]
    lead = draw(st.sampled_from([[command]] * 6 + [[], ["nonsense"], ["--help", command],
                                                     ["--no-such-option", command]]))
    return lead + [word for group in groups for word in group]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_the_parser_reads_argv_as_argparse_did(argv):
    assert_parity(argv)


# argv that the draws may miss, each read as argparse read it
PARITY = [
    ["count", "unlabeled", "--s=5"],
    ["count", "--s", "5", "--format", "json", "unlabeled"],
    ["count", "unlabeled", "--s", "3", "--s", "5"],
    ["count", "ultrametrics", "--s", "3", "--m", "-1"],
    ["count", "ultrametrics", "--s", "3", "--m=-1"],
    ["count", "unlabeled", "--s", "3", "--output", "out.txt"],
    ["count", "unlabeled", "--s", "3", "-o", "-1.5"],
    ["count", "unlabeled", "--s", "x", "-h"],
    ["count", "-h", "--s", "x"],
    ["count", "unlabeled", "--s", "3", "--output", "-x"],
    ["table", "symbolic", "--check-paper", "--check-paper=1"],
    ["--no-such-option", "count", "unlabeled", "--s", "3", "extra", "--bad"],
    ["gf", "P", "--m", "2", "--spec", "ones", "--output=-o"],
    ["verify", "unlabeled"],
    ["count", "unlabeled", "extra"],
    ["--no-such-option"],
    [],
]
# the spellings argparse read and the CLI refuses, each with its error
DROPPED = [
    (["count", "unlabeled", "--s", "3", "-oout.txt"], "unrecognized arguments: -oout.txt"),
    (["count", "unlabeled", "--s", "3", "-o=out.txt"], "unrecognized arguments: -o=out.txt"),
    (["count", "unlabeled", "--s", "3", "-ho", "out.txt"], "unrecognized arguments: -ho out.txt"),
    (["count", "--s", "3", "--", "unlabeled"], "unrecognized arguments: --"),
]


@pytest.mark.parametrize("argv", PARITY, ids=lambda argv: " ".join(argv) or "no-argv")
def test_the_parser_reads_each_spelling_as_argparse_did(argv):
    assert_parity(argv)


@pytest.mark.parametrize("argv, message", DROPPED, ids=[" ".join(argv) for argv, _ in DROPPED])
def test_a_dropped_spelling_is_a_usage_error(argv, message):
    assert outcome(by_argparse, argv)[0] != "refused"
    assert outcome(by_cli, argv) == ("refused", message)
