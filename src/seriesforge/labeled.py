"""Counting families for rooted multipartite labeled series-reduced trees.

P(m,t,x) with symbolic weights x_{c,k} has one route, p_series: global
Lagrange inversion over the weight ring by the Bell-table kernel of
:mod:`seriesforge.bell`, returned as the coefficient tuple; its other
routes live in :mod:`seriesforge.oracle`.  x_{c,k} = 1 and (k-1)! turn it
into the ultrametric and mobile counts, which have routes of their own.
The counts come from two prefix recurrences that return the values for
s = 1..up_to_s in one pass, over the ring of m (an int, or the PolyVar m
for polynomials in the number of colors): mobile_counts for the mobiles,
ultrametric_counts for the ultrametrics, fully-colored trees, processes
(m = 3) and chain-increasing trees (y_s(m) = a_s(m + 1)).  They are checked
against ultrametric_series_polynomials (Lagrange inversion over Z[m], kept
here because the benchmark builds its b-files with it) and the oracle
module's mobile series inversion, chain recurrence, alternating sums and
integral relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .bell import bell_inverse_recursive
from .rings import PolyVar, poly_ring
from .weights import WEIGHT_RING, WeightPoly

POLY_M = poly_ring("m")
_M = PolyVar.gen("m")


@dataclass(frozen=True)
class DegreeSpec:
    """The number of colors m >= 1 of P(m,t,x), whose weights x_{c,k} stay
    indeterminates; the coefficient of t in every degree function is 1."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


# ---------------------------------------------------------------------------
# The weighted generating function.
# ---------------------------------------------------------------------------

def p_series(spec: DegreeSpec, order: int) -> tuple:
    """The coefficients (P_0, ..., P_order) of P(m,t,x), P_0 = 0, as the
    inverse of t + sum_c (inverse degree function - t)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    ring = WEIGHT_RING
    f = [ring.one] + [ring.zero] * (order - 1)
    for c in range(1, spec.m + 1):
        xc = [ring.one] + [WeightPoly.gen(c, k) for k in range(2, order + 1)]
        inv = bell_inverse_recursive(xc, ring)
        for n in range(2, order + 1):
            f[n - 1] = f[n - 1] + inv[n - 1]
    return (ring.zero,) + bell_inverse_recursive(f, ring)


def _check(s: int, m=None, least: int = 1) -> None:
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
    p_{n+1} = p_n - (1-m) sum_{i=1..n} C(n,i) p_i p_{n+1-i}.  The terms i
    and n+1-i pair up by C(n,i) + C(n,n+1-i) = C(n+1,i), so the sum runs
    over i <= n/2 only, plus C(n,j-1) p_j^2 for the unpaired middle term
    i = j when n + 1 = 2j.
    """
    _check(up_to_s, m)
    p = [None, m * 0 + 1]               # p_1 = 1 in the ring of m
    for n in range(1, up_to_s):
        acc = sum(comb(n + 1, i) * p[i] * p[n + 1 - i] for i in range(1, n // 2 + 1))
        if n % 2:
            j = (n + 1) // 2
            acc = acc + comb(n, j - 1) * p[j] * p[j]
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
    return list(bell_inverse_recursive(tail, ring))


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
        e.append(-sum(comb(n - 1, i) * g[i + 1] * e[n - 1 - i] for i in range(n)))
        g.append(-m * sum(comb(n, i) * e[i] * g[n + 1 - i] for i in range(1, n + 1)))
    return g[1:]


def count_mobiles(s: int, m: int) -> int:
    """Labeled m-partite series-reduced mobiles with s leaves."""
    return mobile_counts(s, m)[-1]


def mobiles_polynomial(s: int) -> PolyVar:
    """The mobile count for s leaves as a polynomial in m."""
    return mobile_counts(s, _M)[-1]


# ---------------------------------------------------------------------------
# Chain-increasing binary trees and parallel processes.
# ---------------------------------------------------------------------------

def chain_increasing_counts(up_to_s: int, m) -> list:
    """Chain-increasing binary trees with s = 1..up_to_s chains and m
    junction colors, read from the ultrametric recurrence by
    y_s(m) = a_s(m + 1); the chain recurrence is an oracle."""
    _check(up_to_s, m, least=0)
    return ultrametric_counts(up_to_s, m + 1)


def chain_increasing_polynomial(s: int) -> PolyVar:
    """Number of chain-increasing binary trees with s chains, as a
    polynomial in the junction color count."""
    return chain_increasing_counts(s, _M)[-1]


def chain_increasing_count(s: int, m: int) -> int:
    """Chain-increasing binary trees with s chains and m junction colors."""
    return chain_increasing_counts(s, m)[-1]


def process_counts(up_to_s: int) -> list:
    """Increasingly labeled parallel processes with s = 1..up_to_s actions:
    the 2-colored chain-increasing and the 3-partite labeled tree counts."""
    return ultrametric_counts(up_to_s, 3)


def count_processes(s: int) -> int:
    """Increasingly labeled parallel processes with s actions."""
    return process_counts(s)[-1]
