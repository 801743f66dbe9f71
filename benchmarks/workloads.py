"""The three workloads: fixed CLI job mixes, the reach probe of each, and
the cross-job identities the outputs must satisfy.

Every job is a fresh ``python -m seriesforge.cli ...`` process.  Each job
carries an independent value check (see :mod:`checkers`), and its stdout
is also compared with the digest stored in ``expected.json``.

Sizes are picked so that most jobs spend most of their wall time in the
package, not in interpreter start-up (about 0.12 s on the 2-core
reference host), and so that one pass of a mix fits several times into
one run.  The few jobs that stay small (``gf A|G|Y``, which the CLI caps
at order 16) are there for the layer they reach and the identities they
check.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

from checkers import (
    RefinedPrefix,
    UltrametricPrefix,
    UnlabeledCounts,
    check_p_series,
    mobile_counts,
)

# Probes may exceed the CLI's default series-order cap; the fixed mix may not.
PROBE_MAX_ORDER = 64


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``args`` may name a generated b-file as
    ``{bfile:<name>}``; ``check`` returns a problem description or None."""

    args: tuple
    check: Optional[Callable[[str], Optional[str]]] = field(default=None, compare=False)
    env: tuple = ()

    @property
    def id(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Probe:
    """Reach search: the largest size whose job finishes, verified, within
    ``budget_s`` of wall time.  Sizes double from ``start``, then bisect,
    never above ``cap``."""

    make: Callable[[int], Job]
    budget_s: float
    start: int
    cap: int


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    probe: Probe
    # pairs of job ids whose stdout must be byte-identical
    identities: tuple = ()
    # b-files to generate: name -> (family, m or None, last index)
    bfiles: dict = field(default_factory=dict)


_ultra = cache(UltrametricPrefix)     # one growing prefix per m
_REFINED = RefinedPrefix()
_UNLABELED = UnlabeledCounts()


def _expect_int(value: Callable[[], int]):
    def check(out: str):
        want = value()
        if out.strip() == str(want):
            return None
        return f"printed {out.strip()[:60]!r}, expected {want}"
    return check


def _expect_ok(entries: int):
    def check(out: str):
        want = f"OK ({entries} entries)"
        return None if out.strip() == want else f"printed {out.strip()[:60]!r}, expected {want!r}"
    return check


def _expect_egf(values: Callable[[int], list], order: int):
    """gf A|G|Y: exact rational JSON whose c_1..c_order are integers."""
    def check(out: str):
        payload = json.loads(out)
        want = ["0/1"] + [f"{v}/1" for v in values(order)]
        if payload != {"order": order, "coeffs": want}:
            return "coefficients differ from the independent recurrence"
        return None
    return check


def _expect_p(m: int, order: int, spec: str):
    def check(out: str):
        payload = json.loads(out)
        if spec == "symbolic":
            problems = check_p_series(payload, m, order, _ultra(m))
            return "; ".join(problems[:3]) or None
        counts = _ultra(m).upto(order) if spec == "ones" else mobile_counts(order, m)
        want = [[]] + [[{"monomial": [], "coeff": _json_int(c)}]
                       for c in counts]
        if payload.get("coeffs") != want:
            return f"P with --spec {spec} differs from the independent counts"
        return None
    return check


def _json_int(v: int):
    return v if abs(v) < 2 ** 53 else str(v)


def _grid(out: str) -> list:
    """The cells of a plain CLI grid, as strings, row by row: columns are
    right-aligned and every header cell is filled."""
    lines = out.rstrip("\n").split("\n")
    ends = [m.end() for m in re.finditer(r"\S+", lines[0])]
    return [[line[a:b].strip() for a, b in zip([0] + ends, ends)] for line in lines]


def _expect_table(max_s: int, max_m: int, value: Callable[[int, int], int],
                  fmt: str = "plain"):
    """A ``table`` of a family by rows m and columns s, every cell against
    ``value(s, m)``."""
    def check(out: str):
        if fmt == "json":
            got = json.loads(out)
            want = [{"m\\s": m, **{str(s): _json_int(value(s, m)) for s in range(1, max_s + 1)}}
                    for m in range(1, max_m + 1)]
        else:
            got = _grid(out)
            want = [["m\\s"] + [str(s) for s in range(1, max_s + 1)]]
            want += [[str(m)] + [str(value(s, m)) for s in range(1, max_s + 1)]
                     for m in range(1, max_m + 1)]
        return None if got == want else "table cells differ from the independent recurrence"
    return check


def _fully_colored_labeled(s: int, m: int) -> int:
    return m if s == 1 else (m - 1) ** s * _ultra(m)[s]


def _job(*args: str, check=None, env=()) -> Job:
    return Job(tuple(str(a) for a in args), check, tuple(env))


def _count(family: str, s: int, m: Optional[int], value: Callable[[], int]) -> Job:
    args = ["count", family, "--s", s] + ([] if m is None else ["--m", m])
    return _job(*args, check=_expect_int(value))


def _expect_riordan(max_n: int):
    """Plain ``table riordan-triangle``: every cell, and the sum row,
    against the refinement polynomials a_n(t)."""
    def check(out: str):
        polys = [_REFINED.poly(n) for n in range(2, max_n + 1)]
        want = [["k\\n"] + [str(n) for n in range(2, max_n + 1)]]
        want += [[str(k)] + [str(p[k]) if k < len(p) and p[k] else "" for p in polys]
                 for k in range(1, max_n)]
        want.append(["sum"] + [str(sum(p)) for p in polys])
        return None if _grid(out) == want else "triangle cells differ from the Euler transform"
    return check


LABELED_BFILE_N = 28
UNLABELED_BFILE_N = 16


LABELED = Workload(
    name="labeled-counts",
    jobs=(
        _count("ultrametrics", 52, 8, lambda: _ultra(8)[52]),
        _count("mobiles", 44, 5, lambda: mobile_counts(44, 5)[-1]),
        _count("fully-colored-labeled", 36, 4, lambda: _fully_colored_labeled(36, 4)),
        _count("processes", 36, None, lambda: _ultra(3)[36]),
        _count("ultrametrics", 36, 3, lambda: _ultra(3)[36]),
        # y_s(m-1) = a_s(m): the only PolyVar-over-Z[m] job of this mix
        _count("chain-increasing", 52, 2, lambda: _ultra(3)[52]),
        # --check-paper compares the first 8 columns; the rest are computed once
        _job("table", "symbolic", "--max-s", 16, "--check-paper",
             check=_expect_table(16, 8, lambda s, m: _ultra(m)[s])),
        _job("table", "mobiles", "--max-s", 16, "--check-paper",
             check=_expect_table(16, 8, lambda s, m: mobile_counts(s, m)[-1])),
        _job("table", "fully-colored-labeled", "--max-s", 16, "--check-paper",
             check=_expect_table(16, 8, _fully_colored_labeled)),
        _job("table", "symbolic", "--max-s", 18, "--max-m", 8, "--format", "json",
             check=_expect_table(18, 8, lambda s, m: _ultra(m)[s], "json")),
        _job("verify", "ultrametrics", "--m", 8, "--bfile", "{bfile:ultrametrics-m8}",
             check=_expect_ok(LABELED_BFILE_N)),
        _job("verify", "processes", "--bfile", "{bfile:processes}",
             check=_expect_ok(LABELED_BFILE_N)),
        _job("gf", "A", "--m", 3, "--order", 16,
             check=_expect_egf(lambda n: _ultra(3).upto(n), 16)),
        _job("gf", "G", "--m", 3, "--order", 16,
             check=_expect_egf(lambda n: mobile_counts(n, 3), 16)),
        _job("gf", "Y", "--m", 2, "--order", 16,
             check=_expect_egf(lambda n: _ultra(3).upto(n), 16)),
    ),
    probe=Probe(
        make=lambda s: _count("ultrametrics", s, 8, lambda: _ultra(8)[s]),
        budget_s=1.0, start=8, cap=4096,
    ),
    identities=(
        ("gf Y --m 2 --order 16", "gf A --m 3 --order 16"),
        ("count processes --s 36", "count ultrametrics --s 36 --m 3"),
    ),
    bfiles={
        "ultrametrics-m8": ("ultrametrics", 8, LABELED_BFILE_N),
        "processes": ("ultrametrics", 3, LABELED_BFILE_N),
    },
)


UNLABELED = Workload(
    name="unlabeled-refined",
    jobs=(
        _count("unlabeled", 20, None, lambda: _UNLABELED[20]),
        _count("multipartite-unlabeled", 18, 5, lambda: _REFINED.multipartite(18, 5)),
        _count("fully-colored-unlabeled", 18, 5, lambda: _REFINED.fully_colored(18, 5)),
        # --check-paper stays within reference.UNLABELED_SEQUENCE (n <= 10);
        # the larger triangle runs without it (see README.md).
        _job("table", "riordan-triangle", "--max-n", 10, "--check-paper",
             check=_expect_riordan(10)),
        _job("table", "riordan-triangle", "--max-n", 14, check=_expect_riordan(14)),
        _job("table", "multipartite-unlabeled", "--max-s", 12, "--check-paper",
             check=_expect_table(12, 8, lambda s, m: _REFINED.multipartite(s, m))),
        _job("table", "fully-colored-unlabeled", "--max-s", 12, "--check-paper",
             check=_expect_table(12, 8, lambda s, m: _REFINED.fully_colored(s, m))),
        _job("verify", "unlabeled", "--bfile", "{bfile:unlabeled}",
             check=_expect_ok(UNLABELED_BFILE_N)),
    ),
    probe=Probe(
        make=lambda s: _count("unlabeled", s, None, lambda: _UNLABELED[s]),
        budget_s=1.0, start=4, cap=4096,
    ),
    bfiles={"unlabeled": ("unlabeled", None, UNLABELED_BFILE_N)},
)


def _gf_p(m: int, order: int, spec: str = "symbolic", env=()) -> Job:
    return _job("gf", "P", "--m", m, "--order", order, "--spec", spec,
                check=_expect_p(m, order, spec), env=env)


SYMBOLIC = Workload(
    name="symbolic-series",
    jobs=(
        _gf_p(2, 14),
        _gf_p(3, 11),
        _gf_p(4, 9),
        # constant weights run the same inversion: a change that speeds
        # symbolic products but slows constants shows up here
        _gf_p(24, 16, "ones"),
        _gf_p(24, 16, "factorial"),
    ),
    probe=Probe(
        make=lambda n: _gf_p(3, n, env=(("SERIESFORGE_MAX_ORDER", str(PROBE_MAX_ORDER)),)),
        # each order costs about 1.8x the last; 0.95 s lies midway, on a
        # log scale, between the reference-speed times of orders 11 and 12
        budget_s=0.95, start=4, cap=PROBE_MAX_ORDER,
    ),
)


WORKLOADS = {w.name: w for w in (LABELED, UNLABELED, SYMBOLIC)}
