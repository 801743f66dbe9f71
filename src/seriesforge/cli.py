"""Command-line front end.

Subcommands: ``count`` (one exact value), ``table`` (whole tables, with
``--check-paper`` validation against the embedded reference values),
``gf`` (series coefficients as exact JSON), ``verify`` (compare a family
against an OEIS b-file).

Exit codes: 0 success, 1 usage error, 2 verification mismatch.  The env
var SERIESFORGE_MAX_ORDER caps the series order (default 16).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

import click
from click.core import ParameterSource

from . import labeled, reference, unlabeled
from .weights import WeightPoly, _json_int

DEFAULT_MAX_ORDER = 16


class VerificationFailure(Exception):
    """Computed values disagree with a fixture or b-file."""


def _max_order() -> int:
    raw = os.environ.get("SERIESFORGE_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"SERIESFORGE_MAX_ORDER is not an integer: {raw!r}")


def _emit(text: str, output):
    if output is None:
        click.echo(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise click.UsageError(f"cannot write {output}: {exc.strerror}")


COUNT_FAMILIES = {
    "ultrametrics": (labeled.ultrametric_counts, True),
    "fully-colored-labeled": (labeled.fully_colored_labeled_counts, True),
    "mobiles": (labeled.mobile_counts, True),
    "chain-increasing": (labeled.chain_increasing_counts, True),
    "processes": (labeled.process_counts, False),
    "unlabeled": (unlabeled.unlabeled_counts, False),
    "multipartite-unlabeled": (unlabeled.multipartite_unlabeled_counts, True),
    "fully-colored-unlabeled": (unlabeled.fully_colored_unlabeled_counts, True),
}


def _family(family: str, m):
    """The family's prefix function and the arguments that follow the
    size; a missing or unexpected --m is a usage error."""
    fn, needs_m = COUNT_FAMILIES[family]
    if needs_m and m is None:
        raise click.UsageError(f"family {family!r} requires --m")
    if not needs_m and m is not None:
        raise click.UsageError(f"family {family!r} does not take --m")
    return fn, ((m,) if needs_m else ())


def _values(fn, *args):
    """fn(*args), with the ValueError of an out-of-range argument turned
    into a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _given(ctx: click.Context, param: str) -> bool:
    """Whether the option `param` was set on the command line."""
    return ctx.get_parameter_source(param) is not ParameterSource.DEFAULT


@click.group()
def cli():
    """Exact counts of multipartite series-reduced trees and friends."""


@cli.command("count")
@click.argument("family", type=click.Choice(sorted(COUNT_FAMILIES)))
@click.option("--s", "s", type=int, required=True, help="size parameter (leaves/chains/actions)")
@click.option("--m", "m", type=int, default=None, help="number of colors/symbols")
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]), default="plain")
@click.option("-o", "--output", type=click.Path(), default=None)
def cmd_count(family, s, m, fmt, output):
    """Print one exact count."""
    fn, args = _family(family, m)
    value = _values(fn, s, *args)[-1]
    if fmt == "plain":
        _emit(str(value), output)
    elif fmt == "json":
        _emit(json.dumps({"family": family, "s": s, "m": m, "value": _json_int(value)}), output)
    else:
        rows = [["family", "s", "m", "value"], [family, s, "" if m is None else m, value]]
        _emit(_render_grid(rows, fmt), output)


# table name -> (prefix function, reference values by m)
TABLE_FAMILIES = {
    "symbolic": (labeled.ultrametric_counts, reference.ULTRAMETRIC_TABLE),
    "fully-colored-labeled": (labeled.fully_colored_labeled_counts,
                              reference.FULLY_COLORED_LABELED_TABLE),
    "mobiles": (labeled.mobile_counts, reference.MOBILES_TABLE),
    "multipartite-unlabeled": (unlabeled.multipartite_unlabeled_counts,
                               reference.MULTIPARTITE_UNLABELED_TABLE),
    "fully-colored-unlabeled": (unlabeled.fully_colored_unlabeled_counts,
                                reference.FULLY_COLORED_UNLABELED_TABLE),
}


def _render_grid(rows, fmt) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in rows:
            w.writerow(row)
        return buf.getvalue().rstrip("\n")
    if fmt == "json":
        header, *body = rows
        return json.dumps(
            [{str(h): (_json_int(c) if isinstance(c, int) else c)
              for h, c in zip(header, row)} for row in body]
        )
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(c).rjust(w) for c, w in zip(row, widths)) for row in rows
    )


@cli.command("table")
@click.argument(
    "name", type=click.Choice(sorted(TABLE_FAMILIES) + ["riordan-triangle"])
)
@click.option("--max-s", type=int, default=8, help="family tables only")
@click.option("--max-m", type=int, default=8, help="family tables only")
@click.option("--max-n", type=int, default=10, help="riordan-triangle only")
@click.option("--check-paper", is_flag=True, help="compare against the embedded reference values")
@click.option("--format", "fmt", type=click.Choice(["plain", "json", "csv"]), default="plain")
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_context
def cmd_table(ctx, name, max_s, max_m, max_n, check_paper, fmt, output):
    """Emit one of the count tables."""
    mismatches = []
    if name == "riordan-triangle":
        if _given(ctx, "max_s") or _given(ctx, "max_m"):
            raise click.UsageError("--max-s and --max-m apply to the family tables only")
        if max_n < 2:
            raise click.UsageError("--max-n must be >= 2")
        polys = unlabeled.refined_polys(max_n)
        header = ["k\\n"] + list(range(2, max_n + 1))
        rows = [header]
        for k in range(1, max_n):
            rows.append([k] + [polys[n - 1][k] or "" for n in range(2, max_n + 1)])
        sums = [p.eval_at(1) for p in polys]
        rows.append(["sum"] + sums[1:])
        if check_paper:
            for (k, n), ref in reference.RIORDAN_TRIANGLE.items():
                if n <= max_n and polys[n - 1][k] != ref:
                    mismatches.append(((k, n), polys[n - 1][k], ref))
            for n in range(1, max_n + 1):
                ref = reference.UNLABELED_SEQUENCE[n - 1]
                if sums[n - 1] != ref:
                    mismatches.append((("sum", n), sums[n - 1], ref))
    else:
        if _given(ctx, "max_n"):
            raise click.UsageError("--max-n applies to riordan-triangle only")
        if max_m < 1:
            raise click.UsageError("--max-m must be >= 1")
        fn, ref_table = TABLE_FAMILIES[name]
        header = ["m\\s"] + list(range(1, max_s + 1))
        rows = [header]
        for m in range(1, max_m + 1):
            row = _values(fn, max_s, m)
            rows.append([m] + row)
            if check_paper and m in ref_table:
                for s, ref in enumerate(ref_table[m][:max_s], start=1):
                    if row[s - 1] != ref:
                        mismatches.append(((m, s), row[s - 1], ref))
    _emit(_render_grid(rows, fmt), output)
    if check_paper:
        if mismatches:
            for cell, got, ref in mismatches:
                click.echo(f"MISMATCH at {cell}: computed {got}, reference {ref}", err=True)
            raise VerificationFailure(f"{len(mismatches)} cell(s) differ")
        click.echo("all checked cells match the reference values", err=True)


# exponential series of a count family: A labeled trees, G mobiles,
# Y chain-increasing trees; P is A with x_{c,k} = 1 and G with (k-1)!
GF_FAMILIES = {"A": "ultrametrics", "G": "mobiles", "Y": "chain-increasing"}
P_SPEC_FAMILIES = {"ones": "ultrametrics", "factorial": "mobiles"}


@cli.command("gf")
@click.argument("kind", type=click.Choice(["P", *GF_FAMILIES]))
@click.option("--m", "m", type=int, required=True)
@click.option("--order", type=int, default=8)
@click.option("--spec", "spec_kind", type=click.Choice(["symbolic", *P_SPEC_FAMILIES]),
              default="symbolic", help="gf P only: x_{c,k} symbolic, all 1 or (k-1)!")
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_context
def cmd_gf(ctx, kind, m, order, spec_kind, output):
    """Emit series coefficients as exact JSON."""
    if kind != "P" and _given(ctx, "spec_kind"):
        raise click.UsageError("--spec applies to gf P only")
    cap = _max_order()
    if order > cap:
        raise click.UsageError(f"order {order} exceeds the cap {cap}")
    if order < 1:
        raise click.UsageError("order must be >= 1")
    if kind == "P":
        spec = _values(labeled.DegreeSpec, m)
        if spec_kind == "symbolic":
            series = labeled.p_series(spec, order)
        else:
            fn = COUNT_FAMILIES[P_SPEC_FAMILIES[spec_kind]][0]
            series = [WeightPoly.const(v) for v in [0] + fn(order, m)]
        coeffs = [c.to_jsonable() for c in series]
        _emit(json.dumps({"kind": "P", "m": m, "order": order, "coeffs": coeffs}), output)
        return
    # c_s = s-th count, c_0 = 0, each as an exact rational "num/den"
    values = _values(COUNT_FAMILIES[GF_FAMILIES[kind]][0], order, m)
    coeffs = ["0/1"] + [f"{v}/1" for v in values]
    _emit(json.dumps({"order": order, "coeffs": coeffs}), output)


def parse_bfile(path: str):
    """OEIS b-file: '#' comment lines, then 'index value' per line, with
    strictly increasing indices."""
    entries = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: malformed line {line!r}")
            try:
                idx, val = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer entry {line!r}")
            if entries and idx <= entries[-1][0]:
                raise ValueError(f"{path}:{lineno}: indices not strictly increasing")
            entries.append((idx, val))
    return entries


@cli.command("verify")
@click.argument("family", type=click.Choice(sorted(COUNT_FAMILIES)))
@click.option("--m", "m", type=int, default=None)
@click.option("--bfile", type=click.Path(exists=True, dir_okay=False), required=True)
def cmd_verify(family, m, bfile):
    """Compare computed values against a b-file over its index range."""
    fn, args = _family(family, m)
    try:
        entries = parse_bfile(bfile)
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc))
    entries = [(idx, val) for idx, val in entries if idx >= 1]
    if not entries:
        raise click.UsageError(f"{bfile}: no entry at index >= 1")
    values = _values(fn, entries[-1][0], *args)
    for idx, val in entries:
        if values[idx - 1] != val:
            click.echo(f"mismatch at index {idx}: computed {values[idx - 1]}, b-file {val}")
            raise VerificationFailure(f"index {idx}")
    click.echo(f"OK ({len(entries)} entries)")


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # counts and b-file values may pass Python's 4300-digit default
        sys.set_int_max_str_digits(0)
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except VerificationFailure as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
