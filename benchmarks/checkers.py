"""Independent reference values for checking seriesforge output.

Nothing here calls seriesforge: each function is a separate integer-only
route to numbers the CLI prints, so a wrong answer from the program cannot
also be the expected answer.

- ``UltrametricPrefix``: labeled m-partite tree counts a_s(m) from the
  inverse of f(t) = (1-m)t + m*log(1+t), i.e. (1 + (1-m)P) P' = 1 + P,
  which gives p_{n+1} = p_n - (1-m) * sum_{i=1..n} C(n,i) p_i p_{n+1-i}.
- ``mobile_counts``: mobile counts g_s(m) from the inverse of
  (1-m)t + m(1 - e^{-t}), a coupled recurrence for P and E = e^{-P}.
- ``UnlabeledCounts``: rooted unlabeled series-reduced trees (OEIS
  A000669) from the Euler-transform (Polya) form A = x + MSET(A) - 1 - A.
- ``RefinedPrefix``: the same recurrence with inner vertices marked,
  A = x + t*(MSET(A) - 1 - A), giving the refinement polynomials a_s(t).
- ``check_p_series``: the x_{c,k} = 1 specialisation and the leaf balance
  of a symbolic ``gf P`` payload.
"""

from __future__ import annotations

from math import comb


class UltrametricPrefix:
    """a_1(m), a_2(m), ... for one integer m, extended on demand."""

    def __init__(self, m: int):
        self.m = m
        self.values = [0, 1]  # values[s] = a_s(m); index 0 unused

    def upto(self, s: int) -> list:
        """Return [a_1, ..., a_s]."""
        p = self.values
        while len(p) <= s:
            n = len(p) - 1
            acc = sum(comb(n, i) * p[i] * p[n + 1 - i] for i in range(1, n + 1))
            p.append(p[n] - (1 - self.m) * acc)
        return p[1:s + 1]

    def __getitem__(self, s: int) -> int:
        return self.upto(s)[s - 1]


def mobile_counts(s_max: int, m: int) -> list:
    """[g_1(m), ..., g_{s_max}(m)].

    With E = e^{-P}: E' = -P'E and ((1-m) + mE) P' = 1, so in EGF
    coefficients e_{n+1} = -sum_i C(n,i) p_{i+1} e_{n-i} and
    p_{n+1} = [n=0] - m * sum_{i=1..n} C(n,i) e_i p_{n+1-i}.
    """
    p = [0, 1]
    e = [1, -1]
    for n in range(1, s_max):
        p.append(-m * sum(comb(n, i) * e[i] * p[n + 1 - i] for i in range(1, n + 1)))
        e.append(-sum(comb(n, i) * p[i + 1] * e[n - i] for i in range(n + 1)))
    return p[1:s_max + 1]


class UnlabeledCounts:
    """A000669 a_1, a_2, ..., extended on demand, in integers only.

    With B = MSET(A): n b_n = sum_{k=1..n} c_k b_{n-k}, c_k = sum_{d|k} d a_d.
    The k = n, d = n term is n a_n, so b_n = a_n + R_n where R_n only uses
    smaller indices, and A = x + B - 1 - A gives a_n = R_n for n >= 2.
    """

    def __init__(self):
        self.a = [0, 1]
        self.b = [1, 1]
        self.c = [0, 1]

    def __getitem__(self, s: int) -> int:
        a, b, c = self.a, self.b, self.c
        while len(a) <= s:
            n = len(a)
            divisors = sum(d * a[d] for d in range(1, n) if n % d == 0)
            r, rem = divmod(sum(c[k] * b[n - k] for k in range(1, n)) + divisors, n)
            if rem:
                raise ArithmeticError(f"Euler transform not integral at n={n}")
            a.append(r)
            b.append(2 * r)
            c.append(divisors + n * r)
        return a[s]


def _poly_add(a: list, b: list) -> list:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_stretch(a: list, d: int) -> list:
    """a(t) -> a(t^d)."""
    out = [0] * ((len(a) - 1) * d + 1) if a else []
    for i, c in enumerate(a):
        out[i * d] = c
    return out


def _poly_eval(a: list, x: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


class RefinedPrefix:
    """Refinement polynomials a_s(t) (t^k counts trees with k inner
    vertices), as ascending integer coefficient lists, extended on demand.

    As in :class:`UnlabeledCounts`, with c_k = sum_{d|k} d * a_d(t^{k/d}),
    and A = x + t(B - 1 - A) gives a_n = t * R_n for n >= 2.
    """

    def __init__(self):
        self.a = [None, [1]]     # a[n]: refinement polynomial, a_1 = 1
        self.b = [[1], [1]]      # b[n]: coefficients of MSET(A)
        self.c = [None, [1]]     # c[k]: the divisor sums above

    def _extend(self):
        a, b, c = self.a, self.b, self.c
        n = len(a)
        divisors = []
        for d in range(1, n):
            if n % d == 0:
                divisors = _poly_add(divisors, [d * x for x in _poly_stretch(a[d], n // d)])
        total = divisors
        for k in range(1, n):
            total = _poly_add(total, _poly_mul(c[k], b[n - k]))
        r = []
        for x in total:
            q, rem = divmod(x, n)
            if rem:
                raise ArithmeticError(f"Euler transform not integral at n={n}")
            r.append(q)
        while r and r[-1] == 0:
            r.pop()
        a.append([0] + r)
        b.append(_poly_add(a[n], r))
        c.append(_poly_add(divisors, [n * x for x in a[n]]))

    def poly(self, s: int) -> list:
        while len(self.a) <= s:
            self._extend()
        return self.a[s]

    def multipartite(self, s: int, m: int) -> int:
        """m * q(m-1) with q = a_s(t)/t; 1 for a bare leaf."""
        if s == 1:
            return 1
        return m * _poly_eval(self.poly(s)[1:], m - 1)

    def fully_colored(self, s: int, m: int) -> int:
        if s == 1:
            return m
        return m * (m - 1) ** (s - 1) * _poly_eval(self.poly(s), m - 1)


def check_p_series(payload: dict, m: int, order: int, ultra: UltrametricPrefix) -> list:
    """Problems found in a symbolic ``gf P`` JSON payload; empty when it is
    right.

    Setting every x_{c,k} = 1 must give a_n(m), and every monomial of P_n
    must balance the leaves: sum over its factors of (k-1)*exp = n-1.
    """
    problems = []
    if payload.get("kind") != "P" or payload.get("m") != m or payload.get("order") != order:
        return [f"header {payload.get('kind')!r}/{payload.get('m')!r}/{payload.get('order')!r}"]
    coeffs = payload.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != order + 1:
        return ["coefficient list has the wrong length"]
    if coeffs[0]:
        problems.append("P_0 is not zero")
    for n in range(1, order + 1):
        total = 0
        for term in coeffs[n]:
            mono, coeff = term["monomial"], int(term["coeff"])
            total += coeff
            mass = sum((k - 1) * e for _, k, e in mono)
            if mass != n - 1:
                problems.append(f"P_{n}: monomial {mono} has leaf balance {mass}")
                break
        if total != ultra[n]:
            problems.append(f"P_{n} at x=1 is {total}, expected {ultra[n]}")
    return problems
