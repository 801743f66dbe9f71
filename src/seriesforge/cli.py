"""Command-line front end, on argparse.

Subcommands: ``count`` (one exact value), ``table`` (whole tables, with
``--check-paper`` validation against the embedded reference values),
``gf`` (series coefficients as exact JSON), ``verify`` (compare a family
against an OEIS b-file), each over the families of the FAMILIES table.

Exit codes: 0 success, 1 usage error or unwritable output (one ``error:``
line on stderr), 2 verification mismatch.  The env var
SERIESFORGE_MAX_ORDER caps the series order (default 16).  Every integer
the CLI reads (an int option, that variable, each b-file field) must be a
decimal integer, an optional minus sign and ASCII digits (_INT); the other
spellings int() reads, such as '+5', '1_0' or fullwidth digits, are usage
errors.  `parse_bfile` words every b-file error and reads no line past
_MAX_LINE characters.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import labeled, reference, unlabeled
from .weights import WeightPoly, _json_int

DEFAULT_MAX_ORDER = 16
_INT = re.compile(r"-?[0-9]+")
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


def _int(text: str) -> int:
    """The argparse type of every int option, worded as argparse words int."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, not argparse's 2, which is the exit code of a
    verification mismatch; the help text is written as any output is."""

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        _emit(self.format_help().rstrip("\n"))


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
    family, s, m, fmt = args.family, args.s, args.m, args.fmt
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
    """Emit one of the count tables; --check-paper compares each printed cell
    that `paper` holds by (row label, column), an empty cell read as 0."""
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
    _emit(_render_grid(rows, args.fmt), args.output)
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
    if not _INT.fullmatch(raw):
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
    value' per line, both decimal integers (_INT), with strictly increasing
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
                if not all(_INT.fullmatch(part) for part in parts):
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


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seriesforge", allow_abbrev=False,
                     description="Exact counts of multipartite series-reduced trees and friends.")
    commands = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")
    grid = argparse.ArgumentParser(add_help=False, parents=[output])
    grid.add_argument("--format", dest="fmt", choices=["plain", "json", "csv"], default="plain")

    def command(fn, name, positional, choices, parents=()):
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                  allow_abbrev=False, parents=parents)
        sub.set_defaults(run=fn)
        sub.add_argument(positional, choices=choices)
        return sub

    count = command(cmd_count, "count", "family", sorted(FAMILIES), [grid])
    count.add_argument("--s", type=_int, required=True, help="size parameter (leaves/chains/actions)")
    count.add_argument("--m", type=_int, help="number of colors/symbols")

    table = command(cmd_table, "table", "name", sorted(TABLES) + ["riordan-triangle"], [grid])
    table.add_argument("--max-s", type=_int, help="family tables only (default 8)")
    table.add_argument("--max-m", type=_int, help="family tables only (default 8)")
    table.add_argument("--max-n", type=_int, help="riordan-triangle only (default 10)")
    table.add_argument("--check-paper", action="store_true",
                       help="compare against the embedded reference values")

    gf = command(cmd_gf, "gf", "kind", ["P", *GF_KINDS], [output])
    gf.add_argument("--m", type=_int, required=True)
    gf.add_argument("--order", type=_int, default=8)
    gf.add_argument("--spec", choices=["symbolic", *P_SPECS],
                    help="gf P only: x_{c,k} symbolic (default), all 1 or (k-1)!")

    verify = command(cmd_verify, "verify", "family", sorted(FAMILIES))
    verify.add_argument("--m", type=_int)
    verify.add_argument("--bfile", required=True)
    return parser


def main(argv=None) -> int:
    # counts and b-file values may pass Python's 4300-digit default (0: none)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:           # argparse exits so after --help
        return exc.code
    finally:                            # an in-process caller gets its limit back
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
