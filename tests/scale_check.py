"""Check the plain stdout of a large CLI run against an independent route,
modulo two primes below 2^61.

CI pipes each large-size run into this script, so that those runs are
checked for their values and not only for their time; pytest does not
collect it.  Give it the CLI's own arguments and the CLI's stdout:

    python -m seriesforge.cli count unlabeled --s 1000 \\
        | python tests/scale_check.py count unlabeled --s 1000

It exits 0 when every value agrees modulo both primes, and 1 with one
line on stderr otherwise.  The routes are written here afresh, over the
integers mod p, and share no code with the package:

- `count unlabeled` and `count multipartite-unlabeled`: the plain Euler
  transform of A = x + t(MSET(A) - 1 - A) at the point t0 (1 for the plain
  count, m - 1 for the multipartite one, which is m a_s(m - 1) / (m - 1));
- `table riordan-triangle`: each column n, its cells weighted by 1, by 2^k
  and by t^k at a random t mod p, against a_n(1), a_n(2) and a_n(t) from the
  same transform (the printed `sum` row comes from the same polynomials as
  the cells, so it is not checked).  The fixed points alone miss a change
  to a column whose sums with weights 1 and 2^k both vanish; a wrong column
  is a nonzero polynomial in t of degree below n, which vanishes at the
  random t with probability below n/p (Schwartz-Zippel).  A failure names
  its t;
- `count ultrametrics` and `count mobiles`: the ODE convolution of
  (1 + (1 - m)P) P' = 1 + P, whose term r_s gives a_s(m) = m r_s(m) and,
  read at 1 - m, the mobiles g_s = (-1)^s m r_s(1 - m);
- `gf P`: the record's kind, m and order, N + 1 coefficients with P_0
  empty, and each P_s summed at x_{c,k} = 1 against the ultrametric count
  and at x_{c,k} = (k - 1)! against the mobile count, both from the ODE
  convolution above.

Every prime is larger than the sizes checked, so 1..S are invertible.
"""

import argparse
import json
import random
import re
import sys
from math import prod
from operator import mul

PRIMES = (2 ** 61 - 1, 2 ** 61 - 31)


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
    for n in range(1, size + 1):
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


def expected_count(family, size, m, p):
    """The s = size value of a `count` family, mod p."""
    if size == 1 or (family == "multipartite-unlabeled" and m == 1):
        return 1
    if family == "unlabeled":
        return euler_transform(size, 1, p)[-1]
    if family == "multipartite-unlabeled":
        return m * euler_transform(size, m - 1, p)[-1] * pow(m - 1, -1, p) % p
    if family == "ultrametrics":
        return m * ode_counts(size, m, p)[-1] % p
    return (-1) ** size * m * ode_counts(size, 1 - m, p)[-1] % p     # mobiles


def check_count(args, text):
    tokens = text.split()
    if len(tokens) != 1 or not tokens[0].isdigit():
        return f"expected one nonnegative integer, got {len(tokens)} token(s)"
    value = int(tokens[0])
    for p in PRIMES:
        want = expected_count(args.family, args.s, args.m, p)
        if value % p != want:
            return f"count {args.family} --s {args.s}: {value % p} != {want} mod {p}"
    return None


def read_triangle(text):
    """{(k, n): cell} from the plain grid: the header's tokens end where
    their right-justified columns end, so an empty cell is read as one."""
    header, *rows = text.splitlines()
    ends = [match.end() for match in re.finditer(r"\S+", header)]
    starts = [0] + ends[:-1]
    columns = [int(header[s:e]) for s, e in zip(starts[1:], ends[1:])]
    cells = {}
    for line in rows:
        label, *row = (line[s:e].strip() for s, e in zip(starts, ends))
        if label == "sum":
            continue
        for n, cell in zip(columns, row):
            if cell:
                cells[int(label), n] = int(cell)
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
    size, m = max(args.order, 2), args.m     # the ODE starts at r_2
    for p in PRIMES:
        fact = [1]                      # fact[k - 1] = (k - 1)!, the weight of x_{c,k}
        for k in range(1, size):
            fact.append(fact[-1] * k % p)
        ultrametric = [1] + [m * r % p for r in ode_counts(size, m, p)]
        mobile = [1] + [(-1) ** s * m * r % p
                        for s, r in enumerate(ode_counts(size, 1 - m, p), start=2)]
        for s, terms in enumerate(coeffs[1:], start=1):
            at_one = sum(int(term["coeff"]) for term in terms) % p
            at_fact = sum(int(term["coeff"]) * prod(pow(fact[k - 1], e, p)
                                                    for _, k, e in term["monomial"])
                          for term in terms) % p
            if at_one != ultrametric[s - 1]:
                return f"gf P P_{s} at x = 1: {at_one} != {ultrametric[s - 1]} mod {p}"
            if at_fact != mobile[s - 1]:
                return f"gf P P_{s} at x = (k - 1)!: {at_fact} != {mobile[s - 1]} mod {p}"
    return None


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):
        # the labeled counts at s = 1500 pass Python's 4300-digit default
        sys.set_int_max_str_digits(0)
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
    args = parser.parse_args(argv)
    size = getattr(args, {"count": "s", "table": "max_n", "gf": "order"}[args.command])
    if size >= min(PRIMES):
        parser.error("the size must be below both primes")
    if args.command == "count" and (args.m is None) != (args.family == "unlabeled"):
        parser.error(f"--m is required for {args.family} and only for it")
    check = {"count": check_count, "table": check_triangle, "gf": check_p}[args.command]
    problem = check(args, sys.stdin.read())
    if problem:
        print(f"scale check failed: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
