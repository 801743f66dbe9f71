"""Counting families for rooted multipartite labeled series-reduced trees.

The weighted generating function P(m,t,x) is computed three independent
ways (global inversion, per-root-color recurrence, closed-form inversion).
The ultrametric / fully-colored / mobile / chain-increasing / process
counts come from prefix recurrences that return the values for
s = 1..up_to_s in one pass, over the ring of m: an int gives the counts,
the PolyVar m the counts as polynomials in the number of colors.  The
series-inversion routes *_series_polynomials and the paper's alternating
Bell sums (oracle.alternating_bell_poly) are kept to check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .bell import CoeffSeq, bell_inverse_recursive, bell_partial
from .egf import ExpSeries
from .rings import QQ, PolyVar, binomial, factorial, poly_ring
from .weights import WEIGHT_RING, WeightPoly

POLY_M = poly_ring("m")
_M = PolyVar.gen("m")


@dataclass(frozen=True)
class DegreeSpec:
    """Assignment of the degree-function coefficients x_{c,k}.

    kind "symbolic" keeps x_{c,k} as indeterminates; "ones" sets them all
    to 1 (plain tree counting); "factorial" sets x_{c,k} = (k-1)! (mobile
    counting).  A custom callable (c, k) -> int overrides the kind.
    The coefficient of t in every degree function is fixed at 1.
    """

    m: int
    kind: str = "symbolic"
    custom: Optional[Callable[[int, int], int]] = None

    def value(self, c: int, k: int) -> WeightPoly:
        if self.custom is not None:
            v = self.custom(c, k)
            if not isinstance(v, int):
                raise ValueError(f"custom coefficient at (c, k) = {(c, k)} is not an int: {v!r}")
            return WeightPoly.const(v)
        if self.kind == "symbolic":
            return WeightPoly.gen(c, k)
        if self.kind == "ones":
            return WeightPoly.const(1)
        if self.kind == "factorial":
            return WeightPoly.const(factorial(k - 1))
        raise ValueError(f"unknown degree spec kind: {self.kind}")


# ---------------------------------------------------------------------------
# The weighted generating function, three ways.
# ---------------------------------------------------------------------------

def p_series(spec: DegreeSpec, order: int) -> ExpSeries:
    """P(m,t,x) as the inverse of t + sum_c (inverse degree function - t)."""
    ring = WEIGHT_RING
    f = [ring.one] + [ring.zero] * (order - 1)
    for c in range(1, spec.m + 1):
        xc = CoeffSeq(ring, [ring.one] + [spec.value(c, k) for k in range(2, order + 1)])
        inv = bell_inverse_recursive(xc)
        for n in range(2, order + 1):
            f[n - 1] = f[n - 1] + inv[n]
    p = bell_inverse_recursive(CoeffSeq(ring, f))
    return ExpSeries.from_tail(p)


def p_series_by_color_recursion(spec: DegreeSpec, order: int) -> ExpSeries:
    """P(m,t,x) by the root-color recurrence.

    For each color c, trees with root color c are a root vertex of
    out-degree k >= 2 over a forest of subtrees whose roots avoid c; the
    forests are counted by Bell polynomials in the complementary weights.
    """
    ring = WEIGHT_RING
    m = spec.m
    total = [None, ring.one]            # total[s] = P_s(m, x)
    by_color = {c: [None, None] for c in range(1, m + 1)}
    memos = {c: {} for c in range(1, m + 1)}
    for s in range(2, order + 1):
        level_sum = ring.zero
        for c in range(1, m + 1):
            # forest component weights: a singleton block is a bare leaf
            comp = [ring.one] + [total[j] - by_color[c][j] for j in range(2, s)]
            acc = ring.zero
            for k in range(2, s + 1):
                acc = acc + spec.value(c, k) * bell_partial(
                    s, k, comp, ring, _memo=memos[c]
                )
            by_color[c].append(acc)
            level_sum = level_sum + acc
        total.append(level_sum)
    return ExpSeries(ring, [ring.zero] + total[1:])


def _closed_inverse_coeffs(spec: DegreeSpec, c: int, s: int) -> list:
    """Coefficients (x_c^<-1>)_j for j = 1..s by the closed-form formula."""
    ring = WEIGHT_RING
    shifted = [ring.zero] + [spec.value(c, k) for k in range(2, s + 1)]
    memo: dict = {}
    out = [ring.one]
    for j in range(2, s + 1):
        acc = ring.zero
        for k in range(1, j):
            term = bell_partial(j + k - 1, k, shifted, ring, _memo=memo)
            acc = acc + (-term if k % 2 else term)
        out.append(acc)
    return out


def p_closed_form(spec: DegreeSpec, s: int) -> WeightPoly:
    """P_s(m,x) by the alternating closed-form inversion."""
    ring = WEIGHT_RING
    if s < 1:
        raise ValueError("s must be >= 1")
    sums = [ring.zero] * (s + 1)        # sums[j] = sum_c (x_c^<-1>)_j
    for c in range(1, spec.m + 1):
        inv = _closed_inverse_coeffs(spec, c, s)
        for j in range(2, s + 1):
            sums[j] = sums[j] + inv[j - 1]
    shifted = [ring.zero] + [sums[j] for j in range(2, s + 1)]
    memo: dict = {}
    acc = ring.zero
    for k in range(s + 1):
        term = bell_partial(s + k - 1, k, shifted, ring, _memo=memo)
        acc = acc + (-term if k % 2 else term)
    return acc


def _check(s: int, m, least: int = 1) -> None:
    """ValueError unless s >= 1 and an int m is at least `least`."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if isinstance(m, int) and m < least:
        raise ValueError(f"m must be >= {least}")


# ---------------------------------------------------------------------------
# Ultrametrics / plain multipartite labeled trees.
# ---------------------------------------------------------------------------

def ultrametric_counts(up_to_s: int, m) -> list:
    """Symbolic ultrametrics on s = 1..up_to_s points with m symbols, equal
    to the m-partite labeled series-reduced trees with s leaves.

    P inverts (1-m)t + m log(1+t), so (1 + (1-m)P) P' = 1 + P and
    p_{n+1} = p_n - (1-m) sum_{i=1..n} C(n,i) p_i p_{n+1-i}.
    """
    _check(up_to_s, m)
    p = [None, m * 0 + 1]               # p_1 = 1 in the ring of m
    for n in range(1, up_to_s):
        acc = sum(binomial(n, i) * p[i] * p[n + 1 - i] for i in range(1, n + 1))
        p.append(p[n] - (1 - m) * acc)
    return p[1:]


def count_ultrametrics(s: int, m: int) -> int:
    """Number of symbolic ultrametrics on s points with m symbols."""
    return ultrametric_counts(s, m)[-1]


def a_polynomial(s: int) -> PolyVar:
    """The tree count for s leaves as a polynomial in the color count m."""
    return ultrametric_counts(s, _M)[-1]


def ultrametric_series_polynomials(up_to_s: int) -> list:
    """a_s(m) for s = 1..up_to_s via one symbolic series inversion.

    Inverts t(1-m) + m*log(1+t) over the polynomial ring in m; an
    independent route to the same polynomials as a_polynomial.
    """
    ring = POLY_M
    tail = [ring.one] + [
        (-1) ** (n - 1) * factorial(n - 1) * _M for n in range(2, up_to_s + 1)
    ]
    inv = bell_inverse_recursive(CoeffSeq(ring, tail))
    return [inv[s] for s in range(1, up_to_s + 1)]


def fully_colored_labeled_counts(up_to_s: int, m: int) -> list:
    """Labeled m-partite series-reduced trees with colored leaves too,
    for s = 1..up_to_s.

    A lone vertex (s = 1) has no neighbor, so it takes any of the m
    colors; for s > 1 every leaf has exactly one parent, leaving m - 1
    color choices per leaf.
    """
    counts = ultrametric_counts(up_to_s, m)
    return [m] + [(m - 1) ** s * a for s, a in enumerate(counts[1:], start=2)]


def count_fully_colored_labeled(s: int, m: int) -> int:
    """Labeled m-partite series-reduced trees with colored leaves too."""
    return fully_colored_labeled_counts(s, m)[-1]


def labeled_series(m: int, order: int) -> ExpSeries:
    """A(m,t): exponential series of the labeled m-partite tree counts."""
    return ExpSeries(QQ, [Fraction(0)] + [Fraction(v) for v in ultrametric_counts(order, m)])


def verify_integral_relation(m: int, order: int) -> bool:
    """Check 1 + A = 1 + (1 + A)^m * integral of (1 + A)^{-m}, to order."""
    if m < 1 or order < 2:
        raise ValueError("need m >= 1 and order >= 2")
    cal_a = labeled_series(m, order).add_const(Fraction(1))
    rhs = ExpSeries.one(QQ, order) + cal_a.pow(m) * cal_a.pow(-m).integrate()
    return cal_a.coeffs == rhs.coeffs


# ---------------------------------------------------------------------------
# Mobiles (circular trees).
# ---------------------------------------------------------------------------

def mobile_counts(up_to_s: int, m) -> list:
    """Labeled m-partite series-reduced mobiles with s = 1..up_to_s leaves.

    G inverts (1-m)t + m(1 - e^{-t}); with E = e^{-G}, ((1-m) + mE) G' = 1
    and E' = -G'E give g_{n+1} = -m sum_{i=1..n} C(n,i) e_i g_{n+1-i} and
    e_n = -sum_{i=0..n-1} C(n-1,i) g_{i+1} e_{n-1-i}.
    """
    _check(up_to_s, m)
    one = m * 0 + 1
    g, e = [None, one], [one]
    for n in range(1, up_to_s):
        e.append(-sum(binomial(n - 1, i) * g[i + 1] * e[n - 1 - i] for i in range(n)))
        g.append(-m * sum(binomial(n, i) * e[i] * g[n + 1 - i] for i in range(1, n + 1)))
    return g[1:]


def count_mobiles(s: int, m: int) -> int:
    """Labeled m-partite series-reduced mobiles with s leaves."""
    return mobile_counts(s, m)[-1]


def mobiles_polynomial(s: int) -> PolyVar:
    """The mobile count for s leaves as a polynomial in m."""
    return mobile_counts(s, _M)[-1]


def mobiles_series_polynomials(up_to_s: int) -> list:
    """g_s(m) for s = 1..up_to_s by inverting t(1-m) + m(1 - e^{-t})."""
    ring = POLY_M
    tail = [ring.one] + [
        (-1) ** (n + 1) * _M for n in range(2, up_to_s + 1)
    ]
    inv = bell_inverse_recursive(CoeffSeq(ring, tail))
    return [inv[s] for s in range(1, up_to_s + 1)]


# ---------------------------------------------------------------------------
# Chain-increasing binary trees and parallel processes.
# ---------------------------------------------------------------------------

def chain_increasing_counts(up_to_s: int, m) -> list:
    """Chain-increasing binary trees with s = 1..up_to_s chains and m
    junction colors.

    The root is a chain over the tree for s - 1 chains, or a junction of
    one of m colors over two subtrees:
    y_n = y_{n-1} + m sum_{i=1..n-1} C(n-1,i-1) y_i y_{n-i}.
    """
    _check(up_to_s, m, least=0)
    y = [None, m * 0 + 1]
    for n in range(2, up_to_s + 1):
        pairs = sum(binomial(n - 1, i - 1) * y[i] * y[n - i] for i in range(1, n))
        y.append(y[n - 1] + m * pairs)
    return y[1:]


def chain_increasing_polynomial(s: int) -> PolyVar:
    """Number of chain-increasing binary trees with s chains, as a
    polynomial in the junction color count."""
    return chain_increasing_counts(s, _M)[-1]


def chain_increasing_count(s: int, m: Optional[int] = None) -> Union[int, PolyVar]:
    """y_s(m); with m None the symbolic polynomial is returned."""
    return chain_increasing_counts(s, _M if m is None else m)[-1]


def process_counts(up_to_s: int) -> list:
    """Increasingly labeled parallel processes with s = 1..up_to_s actions:
    the 2-colored chain-increasing and the 3-partite labeled tree counts."""
    return ultrametric_counts(up_to_s, 3)


def count_processes(s: int) -> int:
    """Increasingly labeled parallel processes with s actions."""
    return process_counts(s)[-1]
