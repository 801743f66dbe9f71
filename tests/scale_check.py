"""Run large CLI runs under a time and a memory bound and check each stdout
against an independent route, modulo primes below 2^61.

    PYTHONPATH=src python tests/scale_check.py
    PYTHONPATH=src python tests/scale_check.py gf P --m 8 --order 9

The first runs every run of BOUNDS, CI's large sizes, in order; the
second runs `python -m seriesforge.cli gf P --m 8 --order 9` alone.  Each
run prints its arguments, its seconds and its own peak RSS in MiB, and
fails with one line on stderr if it exits non-zero, is killed at its time
bound, peaks above its RSS bound (both from BOUNDS, or TIME_LIMIT_S and
DEFAULT_RSS_LIMIT_MIB for a run outside the table), or prints a wrong
value or a stdout of the wrong shape.  A failed run does not stop the
others; the exit code is 1 if any run failed.
pytest does not collect it; tests/test_scale_check.py tests it.  The
routes are written here afresh, over the integers mod p, and share no code
with the package:

- `count unlabeled` and `count multipartite-unlabeled`: the plain Euler
  transform of A = x + t(MSET(A) - 1 - A) at the point t0 (1 for the plain
  count, m - 1 for the multipartite one, which is m a_s(m - 1) / (m - 1));
- `table riordan-triangle`: each column n, its cells weighted by 1, by 2^k
  and by t^k at a random t mod p, against a_n(1), a_n(2) and a_n(t) from the
  same transform (the printed `sum` row comes from the same polynomials as
  the cells, so it is not checked).  A failure names its t;
- `count ultrametrics` and `count mobiles`: the ODE convolution of
  (1 + (1 - m)P) P' = 1 + P, whose term r_s gives a_s(m) = m r_s(m) and,
  read at 1 - m, the mobiles g_s = (-1)^s m r_s(1 - m);
- `gf P`: the record's kind, m and order, N + 1 coefficients with P_0
  empty, each P_s summed at x_{c,k} = 1 and at (k - 1)! against the
  ultrametric and the mobile count from the ODE convolution, and each P_s
  at random x_{c,k} mod 2^61 - 1 against the root-colour system.  A
  failure names the seed of its point;
- `polynomials FAMILY --s S` runs no CLI but a child that prints
  FAMILY(S, PolyVar.gen("m")) as one JSON list of coefficients a line, and
  reads each polynomial at a random m mod 2^61 - 1 against the ODE
  convolution at m, 1 - m or m + 1, the Euler transform at m - 1, or
  (m - 1)^s times one of those.  A failure names its m.

Weights of 1 and (k - 1)! treat every colour alike, so they cannot see a
colour-relabelled term, and fixed points miss a change that vanishes there,
such as c(m - 2)(m - 3).  A wrong polynomial of degree d vanishes at a
random point mod p with probability at most d/p (Schwartz-Zippel), and a
right one passes at every point.  Every prime is larger than the sizes
checked, so 1..S are invertible.
"""

import argparse
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from math import prod
from operator import mul

from seriesforge.cli import FAMILIES

PRIMES = (2 ** 61 - 1, 2 ** 61 - 31)
PRIME = PRIMES[0]
# the bounds of a run, (peak RSS in MiB, seconds): a run over either has
# lost its route's memory economy or its speed.  Each of CI's large-size
# runs has its own.  The RSS bound is the largest own peak measured on
# Pythons 3.10.13, 3.11.7, 3.12.1 and 3.13.0 plus 5 MiB, rounded up; gf P
# at (3, 16) and (8, 9) sit where the release that copied each coefficient
# (40.3-43.7 and 37.8-41.6 MiB) fails and the one that holds each
# coefficient once (35.4-39.1 and 31.2-34.7 MiB) passes.  The time bound is
# 10 times the slowest own time on the same Pythons, rounded up to a whole
# second, at least 2 and at most 60; the run is killed there.  The table is
# the one list of CI's large-size runs; a run outside it has
# DEFAULT_RSS_LIMIT_MIB and TIME_LIMIT_S.
BOUNDS = {
    "count unlabeled --s 1000": (21, 5),
    "count multipartite-unlabeled --s 600 --m 8": (21, 5),
    "table riordan-triangle --max-n 120": (23, 16),
    "count ultrametrics --s 1500 --m 8": (29, 34),
    "count mobiles --s 1500 --m 8": (29, 29),
    "gf P --m 3 --order 16": (41.5, 25),
    "gf P --m 4 --order 11": (24, 5),
    "gf P --m 8 --order 9": (37.5, 21),
    "polynomials ultrametrics --s 200": (26, 3),
    "polynomials mobiles --s 200": (26, 17),
    "polynomials chain-increasing --s 200": (26, 14),
    "polynomials fully-colored-labeled --s 200": (31, 20),
    "polynomials multipartite-unlabeled --s 100": (22, 11),
    "polynomials fully-colored-unlabeled --s 100": (22, 12),
}
DEFAULT_RSS_LIMIT_MIB = 50
TIME_LIMIT_S = 60
# each fully coloured family is (m - 1)^s times its base family for s > 1
FULLY_COLORED = {"fully-colored-labeled": "ultrametrics",
                 "fully-colored-unlabeled": "multipartite-unlabeled"}
# every integer read from the CLI's stdout, by this file's own rule: int()
# also reads '٥٢' as 52, '1_0' as 10, a '+' and surrounding spaces
INTEGER = re.compile(r"-?[0-9]+")
# the families that take --m, whose prefix also takes PolyVar.gen("m")
POLYNOMIAL_FAMILIES = [family for family, row in FAMILIES.items() if row[1]]
# the child of `polynomials FAMILY --s S`: FAMILY(S, PolyVar.gen("m")), one
# JSON list of coefficients per line, lowest degree first, so that no more
# than one polynomial's text is held at once
POLYNOMIALS = """\
import json, sys
from seriesforge import PolyVar
from seriesforge.cli import FAMILIES
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)
polys = FAMILIES[sys.argv[1]][0](int(sys.argv[2]), PolyVar.gen("m"))
for p in polys:
    print(json.dumps(list(p.coeffs)))
"""
# every run's parent, so that the peak read is the run's own: RUSAGE_CHILDREN
# of this process keeps the largest peak of every child it has reaped, each
# counted from this process's own RSS, which a forked child holds until it
# execs.  The launcher runs without `site` and holds about 5 MiB when it
# forks; its child sets an alarm at the run's time bound, argv[2], which
# exec keeps, so that the run itself is killed there, and execs the run.
# The launcher then writes "EXIT_CODE PEAK_KIB" to the file descriptor
# argv[1], the exit code negative for a signal as in subprocess.
LAUNCHER = """\
import os, signal, sys
pid = os.fork()
if pid == 0:
    signal.alarm(int(sys.argv[2]))
    os.execv(sys.argv[3], sys.argv[3:])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


class NotAnInteger(ValueError):
    """A value of the CLI's stdout that stands where an integer must."""


def integer(value):
    """value if it is a JSON int, or the int that the str value spells by INTEGER."""
    if type(value) is int or isinstance(value, str) and INTEGER.fullmatch(value):
        return int(value)
    raise NotAnInteger(f"not an ASCII integer: {value!r}")


def euler_transform(size, t0, p):
    """[a_1(t0), ..., a_size(t0)] mod p, where a_n(t) counts the rooted
    unlabeled series-reduced trees with n leaves by inner vertices.

    With B = MSET(A) = sum b_n x^n and c_n = sum_{d | n} d a_d(t^{n/d}),
    n b_n = sum_{i=1..n} c_i b_{n-i}; the i = n term holds n a_n, so
    r_n = b_n - a_n comes from smaller sizes, a_n = t r_n, b_n = (1 + t) r_n.
    The divisor sum reads a_d at t0^{n/d}, so the values at t0^j are kept
    per j, each computed on first use."""
    inverse = [0] + [pow(n, -1, p) for n in range(1, size + 1)]
    at_power = {}

    def values(j):
        """a_n(t0^j) mod p for n <= size // j."""
        if j not in at_power:
            x = pow(t0, j, p)
            a, b, c = [0, 1], [1, 1], [0, 1]
            for n in range(2, size // j + 1):
                short = sum(d * values(j * n // d)[d] for d in range(1, n // 2 + 1) if n % d == 0)
                r = (short + sum(map(mul, c[1:n], b[n - 1:0:-1]))) * inverse[n] % p
                a.append(x * r % p)
                b.append((1 + x) * r % p)
                c.append((short + n * a[n]) % p)
            at_power[j] = a
        return at_power[j]

    return values(1)[1:]


def ode_counts(size, m, p):
    """[r_2, ..., r_size] mod p with r_2 = 1 and
    r_{n+1} = r_n - (1 - m)((n + 1) r_n + m sum_{i=2..n-1} C(n, i) r_i r_{n+1-i}),
    the coefficients of P = t + sum_s m r_s t^s / s!.  C(n, i) is
    n! / (i! (n - i)!), so the sum is n! times the convolution of
    r_i / i! with r_{k+1} / k!."""
    fact = [1]
    for n in range(1, max(size, 2) + 1):       # r_2 reads 2! even when size < 2
        fact.append(fact[-1] * n % p)
    inv_fact = [pow(f, -1, p) for f in fact]
    r = [0, 0, 1]
    u = [0, 0, inv_fact[2]]             # u_i = r_i / i!
    w = [0]                             # w_k = r_{k+1} / k!
    for n in range(2, size):
        w.append(r[n] * inv_fact[n - 1] % p)
        conv = sum(map(mul, u[2:n], w[n - 2:0:-1])) % p * fact[n]
        nxt = (r[n] - (1 - m) * ((n + 1) * r[n] + m * conv)) % p
        r.append(nxt)
        u.append(nxt * inv_fact[n + 1] % p)
    return r[2:size + 1]


def expected_prefix(family, size, m, p):
    """[v_1, ..., v_size] mod p of a family at the point m (None for
    `unlabeled`, which takes no m)."""
    if family in FULLY_COLORED:
        base = expected_prefix(FULLY_COLORED[family], size, m, p)
        return [m % p] + [pow(m - 1, s, p) * v % p for s, v in enumerate(base[1:], start=2)]
    if family == "unlabeled":
        return euler_transform(size, 1, p)
    if family == "multipartite-unlabeled":
        if m == 1:
            return [1] * size
        inverse = pow(m - 1, -1, p)
        return [1] + [m * a * inverse % p for a in euler_transform(size, m - 1, p)[1:]]
    if family == "ultrametrics":
        return [1] + [m * r % p for r in ode_counts(size, m, p)]
    if family == "chain-increasing":
        return [1] + [(m + 1) * r % p for r in ode_counts(size, m + 1, p)]
    return [1] + [(-1) ** s * m * r % p                                  # mobiles
                  for s, r in enumerate(ode_counts(size, 1 - m, p), start=2)]


def check_count(args, text):
    tokens = text.split()
    if len(tokens) != 1:
        return f"expected one integer, got {len(tokens)} token(s)"
    value = integer(tokens[0])
    for p in PRIMES:
        want = expected_prefix(args.family, args.s, args.m, p)[-1]
        if value % p != want:
            return f"count {args.family} --s {args.s}: {value % p} != {want} mod {p}"
    return None


def read_triangle(text):
    """{(k, n): cell} from the plain grid: the header's tokens end where
    their right-justified columns end, so an empty cell is read as one."""
    header, *rows = text.splitlines()
    ends = [match.end() for match in re.finditer(r"\S+", header)]
    starts = [0] + ends[:-1]
    columns = [integer(header[s:e].strip()) for s, e in zip(starts[1:], ends[1:])]
    cells = {}
    for line in rows:
        label, *row = (line[s:e].strip() for s, e in zip(starts, ends))
        if label == "sum":
            continue
        for n, cell in zip(columns, row):
            if cell:
                cells[integer(label), n] = integer(cell)
    return columns, cells


def check_triangle(args, text):
    columns, cells = read_triangle(text)
    if columns != list(range(2, args.max_n + 1)):
        return f"columns {columns[:3]}... are not 2..{args.max_n}"
    for p in PRIMES:
        for t0 in (1, 2, random.randrange(3, p)):
            want = euler_transform(args.max_n, t0, p)
            got = [0] * (args.max_n + 1)
            for (k, n), cell in cells.items():
                got[n] += cell * pow(t0, k, p)
            for n in columns:
                if got[n] % p != want[n - 1]:
                    return f"riordan-triangle column {n} at t = {t0}: {got[n] % p} != {want[n - 1]} mod {p}"
    return None


def root_color_values(m, order, x, p):
    """[P_0, ..., P_order] mod p at the point x[c][k] (c = 0..m-1), from the
    root-color system T_c = sum_k x_{c,k} u_c^k/k!, u_c = t + sum_{c' != c}
    T_{c'}, solved order by order over power series mod p: for k >= 2,
    [t^n] u_c^k reads u_c below t^n only, so T_{c,n} comes from T_{c',i}, i < n.
    It shares no code with p_series."""
    inv_fact = [1]
    for k in range(1, order + 1):
        inv_fact.append(inv_fact[-1] * pow(k, -1, p) % p)
    trees = [[0] * (order + 1) for _ in range(m)]      # trees[c][n] = [t^n] T_c
    for n in range(2, order + 1):
        for c in range(m):
            u = [0, 1] + [sum(trees[d][i] for d in range(m) if d != c) % p
                          for i in range(2, n)] + [0]
            power, total = u, 0
            for k in range(2, n + 1):
                power = [sum(power[j] * u[i - j] for j in range(1, i)) % p
                         for i in range(n + 1)]
                total += x[c][k] * inv_fact[k] * power[n]
            trees[c][n] = total % p
    fact = 1
    values = [0, 1]
    for n in range(2, order + 1):
        fact = fact * n % p
        values.append(fact * sum(tree[n] for tree in trees) % p)
    return values


def mismatch(coeffs, x, want, point, p):
    """None when gf P's coefficients, [{"monomial": [[c, k, e], ...], "coeff":
    v}, ...] per P_s, agree mod p with want = [P_0, ..., P_N] at the point
    x[c - 1][k]; otherwise a line naming the first P_s that does not."""
    if len(coeffs) != len(want):
        return f"{len(coeffs)} coefficients, not {len(want)}"
    for s, terms in enumerate(coeffs):
        value = sum(integer(term["coeff"])
                    * prod(pow(x[c - 1][k], e, p) for c, k, e in term["monomial"])
                    for term in terms) % p
        if value != want[s]:
            return f"P_{s} at {point}: {value} != {want[s]} mod {p}"
    return None


def random_point_problem(m, order, coeffs, seed):
    """None when the coefficients agree mod PRIME with the root-color system
    at random x_{c,k} drawn from the seed; otherwise a line naming the seed."""
    rng = random.Random(seed)
    x = [[None, None] + [rng.randrange(PRIME) for _ in range(2, order + 1)] for _ in range(m)]
    return mismatch(coeffs, x, root_color_values(m, order, x, PRIME), f"the x_{{c,k}} of seed {seed}", PRIME)


def check_p(args, text):
    try:
        record = json.loads(text)
    except ValueError as exc:
        return f"not one JSON record: {exc}"
    if not isinstance(record, dict):
        return "the record is not a JSON object"
    head = [record.get(key) for key in ("kind", "m", "order")]
    if head != ["P", args.m, args.order]:
        return f"kind, m, order {head} != {['P', args.m, args.order]}"
    coeffs = record.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != args.order + 1 or coeffs[0] != []:
        return f"expected {args.order + 1} coefficients with P_0 empty"
    for p in PRIMES:
        fact = [1, 1]                   # fact[k] = (k - 1)!, the weight of x_{c,k}
        for k in range(2, args.order + 1):
            fact.append(fact[-1] * (k - 1) % p)
        for point, x, family in (("x = 1", [1] * len(fact), "ultrametrics"),
                                 ("x = (k - 1)!", fact, "mobiles")):
            want = [0] + expected_prefix(family, args.order, args.m, p)
            problem = mismatch(coeffs, [x] * args.m, want, point, p)
            if problem:
                return f"gf P {problem}"
    problem = random_point_problem(args.m, args.order, coeffs, random.randrange(2 ** 32))
    return problem and f"gf P {problem}"


def check_polynomials(args, text):
    """text is the child's lines of coefficients, read at one random m mod PRIME."""
    try:
        polys = [json.loads(line) for line in text.splitlines()]
    except ValueError as exc:
        return f"a line that is not JSON: {exc}"
    if len(polys) != args.s:
        return f"{len(polys)} polynomials, not {args.s}"
    m = random.randrange(2, PRIME)
    want = expected_prefix(args.family, args.s, m, PRIME)
    for s, (poly, expected) in enumerate(zip(polys, want), start=1):
        value = 0
        for c in reversed(poly):
            value = (value * m + c) % PRIME
        if value != expected:
            return f"polynomials {args.family} s = {s} at m = {m}: {value} != {expected} mod {PRIME}"
    return None


# each takes the parsed arguments and the child's stdout and returns None or a
# line naming what is wrong; it raises NotAnInteger on a misspelt integer, and
# LookupError, TypeError or ValueError on a stdout of the wrong shape, such as
# an empty grid
CHECKS = {"count": check_count, "table": check_triangle, "gf": check_p,
          "polynomials": check_polynomials}


def parse(argv):
    """The run's arguments: the CLI's own, or `polynomials FAMILY --s S`."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    count = commands.add_parser("count")
    count.add_argument("family", choices=["unlabeled", "multipartite-unlabeled",
                                          "ultrametrics", "mobiles"])
    count.add_argument("--s", type=int, required=True)
    count.add_argument("--m", type=int, default=None)
    table = commands.add_parser("table")
    table.add_argument("name", choices=["riordan-triangle"])
    table.add_argument("--max-n", type=int, required=True)
    gf = commands.add_parser("gf")
    gf.add_argument("kind", choices=["P"])
    gf.add_argument("--m", type=int, required=True)
    gf.add_argument("--order", type=int, required=True)
    polynomials = commands.add_parser("polynomials")
    polynomials.add_argument("family", choices=POLYNOMIAL_FAMILIES)
    polynomials.add_argument("--s", type=int, required=True)
    args = parser.parse_args(argv)
    size = getattr(args, {"count": "s", "table": "max_n", "gf": "order", "polynomials": "s"}[args.command])
    if size >= min(PRIMES):
        parser.error("the size must be below both primes")
    if args.command == "count" and (args.m is None) != (args.family == "unlabeled"):
        parser.error(f"--m is required for {args.family} and only for it")
    return args


def command(args, argv):
    """The child's command line: the CLI with the run's arguments, or the
    POLYNOMIALS program for a `polynomials` run."""
    if args.command == "polynomials":
        return [sys.executable, "-c", POLYNOMIALS, args.family, str(args.s)]
    return [sys.executable, "-m", "seriesforge.cli", *argv]


def check(argv):
    """Run one run through LAUNCHER and print its line; on a failure, also
    print a line on stderr naming what is wrong.  1 if it failed, else 0."""
    args = parse(argv)
    run = " ".join(argv)
    rss_bound, time_bound = BOUNDS.get(run, (DEFAULT_RSS_LIMIT_MIB, TIME_LIMIT_S))
    read, write = os.pipe()
    with open(read, "rb") as report, open(write, "wb") as writer:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, str(write), str(time_bound),
                               *command(args, argv)], stdout=subprocess.PIPE, text=True, pass_fds=(write,))
        seconds = time.perf_counter() - start
        writer.close()                  # so that the read ends where the launcher's report does
        code, kib = map(int, report.read().split())
    mib = kib / 1024                    # KiB on Linux
    print(f"{run}: {seconds:.2f} s, {mib:.1f} MiB", flush=True)
    if code == -signal.SIGALRM:
        problem = f"took over {time_bound} s"
    elif code:
        problem = f"exited {code}"
    elif mib > rss_bound:
        problem = f"peaked at {mib:.1f} MiB RSS, above {rss_bound} MiB"
    else:
        try:
            problem = CHECKS[args.command](args, done.stdout)
        except NotAnInteger as exc:
            problem = str(exc)
        except (LookupError, TypeError, ValueError) as exc:
            problem = f"stdout of the wrong shape ({type(exc).__name__}: {exc})"
    if problem:
        print(f"scale check failed: {run}: {problem}", file=sys.stderr, flush=True)
    return int(bool(problem))


def main(argv=None):
    """Check the run that argv names or, with no arguments, every run of
    BOUNDS; 1 if any failed, else 0."""
    if hasattr(sys, "set_int_max_str_digits"):
        # the labeled counts at s = 1500 pass Python's 4300-digit default
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    return max(check(run) for run in ([argv] if argv else map(str.split, BOUNDS)))


if __name__ == "__main__":
    sys.exit(main())
