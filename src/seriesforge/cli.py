"""Command-line front end, with its own parser over one table, COMMANDS.

Subcommands: ``count`` (one exact value), ``table`` (whole tables, with
``--check-paper`` validation against the embedded reference values),
``gf`` (series coefficients as exact JSON), ``verify`` (compare a family
against an OEIS b-file), each over the families of the FAMILIES table.
`_parse` reads argv as argparse reads it and words each usage error as
Python 3.11's argparse does, on every Python; ``-h/--help`` prints the
help of its level, made from the same table.  Four spellings argparse
read are usage errors: ``-oFILE``, ``-o=FILE``, ``-ho`` and a bare ``--``.

Exit codes: 0 success, 1 usage error or unwritable output (one ``error:``
line on stderr), 2 verification mismatch.  The env var
SERIESFORGE_MAX_ORDER caps the series order (default 16).  Every integer
the CLI reads (an int option, that variable, each b-file field) must be a
decimal integer, an optional minus sign and ASCII digits (_is_int); the other
spellings int() reads, such as '+5', '1_0' or fullwidth digits, are usage
errors.  `parse_bfile` words every b-file error and reads no line past
_MAX_LINE characters.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import labeled, reference, unlabeled
from .weights import WeightPoly, _json_int

DEFAULT_MAX_ORDER = 16
# the longest b-file line read, far above the digits of any value the CLI
# can compute; a bad line is quoted up to _QUOTED characters
_MAX_LINE = 10 ** 6
_QUOTED = 60

# family -> (prefix function, takes --m, table name, reference values by m,
# gf letter); the exponential series are A labeled trees, G mobiles and
# Y chain-increasing trees
FAMILIES = {
    "ultrametrics": (labeled.ultrametric_counts, True,
                     "symbolic", reference.ULTRAMETRIC_TABLE, "A"),
    "fully-colored-labeled": (labeled.fully_colored_labeled_counts, True,
                              "fully-colored-labeled", reference.FULLY_COLORED_LABELED_TABLE,
                              None),
    "mobiles": (labeled.mobile_counts, True, "mobiles", reference.MOBILES_TABLE, "G"),
    "chain-increasing": (labeled.chain_increasing_counts, True, None, None, "Y"),
    "processes": (labeled.process_counts, False, None, None, None),
    "unlabeled": (unlabeled.unlabeled_counts, False, None, None, None),
    "multipartite-unlabeled": (unlabeled.multipartite_unlabeled_counts, True,
                               "multipartite-unlabeled", reference.MULTIPARTITE_UNLABELED_TABLE,
                               None),
    "fully-colored-unlabeled": (unlabeled.fully_colored_unlabeled_counts, True,
                                "fully-colored-unlabeled", reference.FULLY_COLORED_UNLABELED_TABLE,
                                None),
}
TABLES = {row[2]: family for family, row in FAMILIES.items() if row[2]}
GF_KINDS = {row[4]: family for family, row in FAMILIES.items() if row[4]}
# P with x_{c,k} = 1 is the A series, with x_{c,k} = (k-1)! the G series
P_SPECS = {"ones": "A", "factorial": "G"}


class UsageError(Exception):
    """Bad command-line input or an unwritable output: exit 1."""


class VerificationFailure(Exception):
    """Computed values disagree with a fixture or b-file."""


def _is_int(text: str) -> bool:
    """Whether text is a decimal integer: an optional minus sign and ASCII
    digits."""
    return text.isascii() and text.removeprefix("-").isdigit()


def _emit(pieces, output=None):
    """Write a str, or the str pieces of an iterable one at a time as it
    makes them, and a newline to stdout, or to the file `output`; no text
    longer than one piece is held for the write.  A failed write is a
    usage error."""
    if isinstance(pieces, str):
        pieces = (pieces,)
    try:
        if output is None:
            _write_all(pieces, sys.stdout)
            sys.stdout.flush()
        else:
            with open(output, "w") as fh:
                _write_all(pieces, fh)
    except OSError as exc:
        if output is None:
            # Python flushes stdout again at exit: send the rest to os.devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write {'stdout' if output is None else output}: {exc.strerror}")


def _write_all(pieces, fh) -> None:
    for piece in pieces:
        fh.write(piece)
    fh.write("\n")


def _counts(family: str, s: int, m):
    """The family's prefix for 1..s; a missing or unexpected --m, or an
    out-of-range argument, is a usage error."""
    fn, needs_m = FAMILIES[family][:2]
    if needs_m and m is None:
        raise UsageError(f"family {family!r} requires --m")
    if not needs_m and m is not None:
        raise UsageError(f"family {family!r} does not take --m")
    return _values(fn, s, *((m,) if needs_m else ()))


def _values(fn, *args):
    """fn(*args), with the ValueError of an out-of-range argument turned
    into a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_count(args):
    """Print one exact count."""
    family, s, m, fmt = args.family, args.s, args.m, args.format
    value = _counts(family, s, m)[-1]
    if fmt == "plain":
        _emit(str(value), args.output)
    elif fmt == "json":
        import json

        _emit(json.dumps({"family": family, "s": s, "m": None if m is None else _json_int(m),
                          "value": _json_int(value)}), args.output)
    else:
        rows = [["family", "s", "m", "value"], [family, s, "" if m is None else m, value]]
        _emit(_render_grid(rows, fmt), args.output)


def _render_grid(rows, fmt) -> str:
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "json":
        import json

        header, *body = rows
        return json.dumps(
            [{str(h): (_json_int(c) if isinstance(c, int) else c)
              for h, c in zip(header, row)} for row in body]
        )
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)


def cmd_table(args):
    """Emit one of the count tables.

    --check-paper compares each printed cell that `paper` holds by (row
    label, column), an empty cell read as 0."""
    if args.name == "riordan-triangle":
        if args.max_s is not None or args.max_m is not None:
            raise UsageError("--max-s and --max-m apply to the family tables only")
        max_n = 10 if args.max_n is None else args.max_n
        if max_n < 2:
            raise UsageError("--max-n must be >= 2")
        polys = unlabeled.refined_polys(max_n)
        rows = [["k\\n"] + list(range(2, max_n + 1))]
        for k in range(1, max_n):
            rows.append([k] + [polys[n - 1][k] or "" for n in range(2, max_n + 1)])
        rows.append(["sum"] + [p.eval_at(1) for p in polys[1:]])
        sums = enumerate(reference.UNLABELED_SEQUENCE, start=1)
        paper = reference.RIORDAN_TRIANGLE | {("sum", n): ref for n, ref in sums}
    else:
        if args.max_n is not None:
            raise UsageError("--max-n applies to riordan-triangle only")
        max_s = 8 if args.max_s is None else args.max_s
        max_m = 8 if args.max_m is None else args.max_m
        for option, value in (("--max-s", max_s), ("--max-m", max_m)):
            if value < 1:
                raise UsageError(f"{option} must be >= 1")
        fn, _, _, ref_table, _ = FAMILIES[TABLES[args.name]]
        rows = [["m\\s"] + list(range(1, max_s + 1))]
        for m in range(1, max_m + 1):
            rows.append([m] + _values(fn, max_s, m))
        paper = {(m, s): ref for m, refs in ref_table.items()
                 for s, ref in enumerate(refs, start=1)}
    _emit(_render_grid(rows, args.format), args.output)
    if args.check_paper:
        header, *body = rows
        differ = 0
        for row in body:
            for column, cell in zip(header[1:], row[1:]):
                key, got = (row[0], column), cell or 0
                if key in paper and got != paper[key]:
                    print(f"MISMATCH at {key}: computed {got}, reference {paper[key]}",
                          file=sys.stderr)
                    differ += 1
        if differ:
            raise VerificationFailure(f"{differ} cell(s) differ")
        print("all checked cells match the reference values", file=sys.stderr)


def cmd_gf(args):
    """Emit series coefficients as exact JSON."""
    kind, m, order = args.kind, args.m, args.order
    if kind != "P" and args.spec is not None:
        raise UsageError("--spec applies to gf P only")
    raw = os.environ.get("SERIESFORGE_MAX_ORDER", str(DEFAULT_MAX_ORDER))
    if not _is_int(raw):
        raise UsageError(f"SERIESFORGE_MAX_ORDER is not an integer: {raw!r}")
    cap = int(raw)
    if order > cap:
        raise UsageError(f"order {order} exceeds the cap {cap}")
    if order < 1:
        raise UsageError("order must be >= 1")
    if kind == "P":
        if args.spec in (None, "symbolic"):
            series = list(_values(labeled.p_series, m, order))
        else:
            fn = FAMILIES[GF_KINDS[P_SPECS[args.spec]]][0]
            series = [WeightPoly.const(v) for v in [0] + _values(fn, order, m)]
        _emit(_p_record(m, order, series), args.output)
        return
    # c_s = s-th count, c_0 = 0, each as an exact rational "num/den"
    import json

    values = _values(FAMILIES[GF_KINDS[kind]][0], order, m)
    coeffs = ["0/1"] + [f"{v}/1" for v in values]
    _emit(json.dumps({"order": order, "coeffs": coeffs}), args.output)


def _p_record(m: int, order: int, series: list):
    """The text of json.dumps of the gf P record, in pieces: the head, then
    each coefficient's to_json text, made only when its turn comes, between
    the separators.  It empties the list series as it goes, so each
    coefficient is dropped once written and the last, the largest, is
    rendered beside no other."""
    json_m = f'"{m}"' if isinstance(_json_int(m), str) else m
    yield f'{{"kind": "P", "m": {json_m}, "order": {order}, "coeffs": ['
    series.reverse()
    while series:
        yield from series.pop()._json_pieces()
        if series:
            yield ", "
    yield "]}"


def parse_bfile(path: str):
    """The entries at index >= 1 of an OEIS b-file, read line by line: UTF-8
    text, a leading byte-order mark dropped, '#' comment lines, then 'index
    value' per line, both decimal integers (_is_int), with strictly increasing
    indices.  A line is read up to _MAX_LINE characters, so a file with no
    end of line costs no more.  Every problem with the file is a UsageError
    that names it."""
    entries = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = iter(lambda: fh.readline(_MAX_LINE + 1), "")
            for lineno, line in enumerate(lines, start=1):
                if len(line.rstrip("\n")) > _MAX_LINE:
                    raise UsageError(f"{path}:{lineno}: line longer than {_MAX_LINE} characters")
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise UsageError(f"{path}:{lineno}: malformed line {line[:_QUOTED]!r}")
                if not all(map(_is_int, parts)):
                    raise UsageError(f"{path}:{lineno}: non-integer entry {line[:_QUOTED]!r}")
                idx, val = map(int, parts)
                if entries and idx <= entries[-1][0]:
                    raise UsageError(f"{path}:{lineno}: indices not strictly increasing")
                entries.append((idx, val))
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    entries = [(idx, val) for idx, val in entries if idx >= 1]
    if not entries:
        raise UsageError(f"{path}: no entry at index >= 1")
    return entries


def cmd_verify(args):
    """Compare computed values against a b-file over its index range."""
    entries = parse_bfile(args.bfile)
    values = _counts(args.family, entries[-1][0], args.m)
    for idx, val in entries:
        if values[idx - 1] != val:
            _emit(f"mismatch at index {idx}: computed {values[idx - 1]}, b-file {val}")
            raise VerificationFailure(f"index {idx}")
    _emit(f"OK ({len(entries)} entries)")


# every option by its names: (kind, default, help), the kind int, a list of
# choices, bool for a flag, str for a path or None for -h/--help; a value is
# stored under the option's last name, '-' read as '_'
OPTIONS = {
    "-h/--help": (None, None, "show this help message and exit"),
    "-o/--output": (str, None, "write to this file, not to stdout"),
    "--format": (["plain", "json", "csv"], "plain", "default plain"),
    "--s": (int, None, "size parameter (leaves/chains/actions)"),
    "--m": (int, None, "number of colors/symbols"),
    "--max-s": (int, None, "family tables only (default 8)"),
    "--max-m": (int, None, "family tables only (default 8)"),
    "--max-n": (int, None, "riordan-triangle only (default 10)"),
    "--check-paper": (bool, False, "compare against the embedded reference values"),
    "--order": (int, 8, "default 8"),
    "--spec": (["symbolic", *P_SPECS], None, "gf P only: x_{c,k} symbolic (default), 1 or (k-1)!"),
    "--bfile": (str, None, "OEIS b-file to compare with"),
}
GRID = ["-o/--output", "--format"]
# each command: (function, positional, its choices, options, required options)
COMMANDS = {
    "count": (cmd_count, "family", sorted(FAMILIES), [*GRID, "--m"], ["--s"]),
    "table": (cmd_table, "name", sorted(TABLES) + ["riordan-triangle"],
              [*GRID, "--max-s", "--max-m", "--max-n", "--check-paper"], []),
    "gf": (cmd_gf, "kind", ["P", *GF_KINDS], ["-o/--output", "--order", "--spec"], ["--m"]),
    "verify": (cmd_verify, "family", sorted(FAMILIES), ["--m"], ["--bfile"]),
}


def _is_option(arg: str, names) -> bool:
    """Whether argparse reads arg as an option, not as a value: one of
    `names`, or one with '=' and more or, for -h and -o, with anything
    after it, or any other '-' and more with no space that is not a
    negative number (-N, -.N or -N.N in any decimal digits)."""
    head, dot, tail = arg[1:].partition(".")
    number = (head + tail).isdecimal() and (tail or not dot)
    return (arg[:2] in names or arg.partition("=")[0] in names
            or arg.startswith("-") and arg != "-" and " " not in arg and not number)


def _parse(argv, prog="seriesforge", spec=None, extra=()):
    """(function, argument) to run for argv: the command's function and its
    arguments, or _emit and the help of the level where -h/--help comes.
    spec is a row of COMMANDS, by default the top level, whose positional
    is the command, which reads the rest of argv.  argv is read left to
    right, as argparse reads it: '--name value' or '--name=value', the last
    value of a repeated option wins, and the first bad or missing value is
    the usage error; after the whole of argv, a missing argument is, and
    then an unrecognised one at either level."""
    fn, positional, choices, optional, required = spec or (main, "command", [*COMMANDS], [], [])
    keys = ["-h/--help", *optional, *required]
    names = {name: key for key in keys for name in key.split("/")}
    values = {positional: None} | {key: OPTIONS[key][1] for key in keys[1:]}
    argv = iter(argv)
    for arg in argv:
        head, eq, tail = arg.partition("=")
        key, value = ((names[head], tail) if arg[:2] == "--" and eq and head in names
                      else (names.get(arg), None if arg in names else arg))
        if key is None and (_is_option(arg, names) or values[positional] is not None):
            extra += (arg,)
            continue
        key, kind = (key, OPTIONS[key][0]) if key else (positional, choices)
        if kind in (None, bool) and value is not None:
            raise UsageError(f"argument {key}: ignored explicit argument {value!r}")
        if kind is None:
            return _emit, _help(prog, fn, positional, choices, keys, required)
        if kind is not bool and value is None:
            value = next(argv, None)
            if value is None or _is_option(value, names):
                raise UsageError(f"argument {key}: expected one argument")
        if kind is int and not _is_int(value):
            raise UsageError(f"argument {key}: invalid int value: {value!r}")
        if isinstance(kind, list) and value not in kind:
            raise UsageError(f"argument {key}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, kind))})")
        values[key] = True if kind is bool else int(value) if kind is int else value
        if fn is main:
            return _parse(argv, f"{prog} {arg}", COMMANDS[arg], extra)
    missing = [key for key in [positional, *required] if values[key] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return fn, SimpleNamespace(**{key.split("/")[-1].lstrip("-").replace("-", "_"): value
                                  for key, value in values.items()})


def _help(prog, fn, positional, choices, keys, required) -> str:
    """The -h/--help text of one level: its usage, the first line of its
    function's docstring, its positional's choices and its options."""
    about = {c: COMMANDS[c][0].__doc__.partition("\n")[0] for c in choices if fn is main}
    lines = [f"usage: {prog} [options] {positional.upper()}", "", fn.__doc__.partition("\n")[0],
             "", f"{positional.upper()}:", *(f"  {c:<12}{about.get(c, '')}".rstrip()
                                              for c in choices), "", "options:"]
    for key in keys:
        kind, _, text = OPTIONS[key]
        usage = key.replace("/", ", ") + (f" {{{','.join(kind)}}}" if isinstance(kind, list)
                                          else {int: " INT", str: " PATH"}.get(kind, ""))
        lines.append(f"  {usage:<24}  {'required; ' * (key in required)}{text}")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Exact counts of multipartite series-reduced trees and friends.

    Runs the command of argv, by default sys.argv[1:], and returns the
    exit code."""
    # counts and b-file values may pass Python's 4300-digit default (0: none)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        run, args = _parse(sys.argv[1:] if argv is None else argv)
        run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    finally:                            # an in-process caller gets its limit back
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
