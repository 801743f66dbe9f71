"""Counting families for rooted multipartite labeled series-reduced trees.

P(m,t,x) with symbolic weights x_{c,k} has one route, p_series: global
Lagrange inversion over the weight ring by the Bell-table kernel of
:mod:`seriesforge.bell`, returned as the coefficient tuple; its other
routes live in :mod:`seriesforge.oracle`.  x_{c,k} = 1 and (k-1)! turn it
into the ultrametric and mobile counts, which read one prefix recurrence
of their own, _reduced, for r_s = a_s(m)/m over the ring of its point (an
int, or the PolyVar m for polynomials in the number of colors): at m for
the ultrametrics, fully-colored trees and processes (m = 3), at m + 1 for
the chain-increasing trees and at 1 - m for the mobiles.  It is checked
against ultrametric_series_polynomials (Lagrange inversion over Z[m],
which the benchmark imports) and the oracle module's mobile series
inversion, chain recurrence, alternating sums and integral relation.
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
            raise ValueError("m must be >= 1")


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

def _reduced(up_to_s: int, m) -> list:
    """[r_2, ..., r_up_to_s] over the ring of m, where a_s(m) = m r_s(m)
    is the ultrametric count for s >= 2.

    P inverts (1-m)t + m log(1+t), so (1 + (1-m)P) P' = 1 + P, and p_1 = 1,
    p_s = m r_s give r_2 = 1 and, free of division, r_{n+1} = r_n - (1-m)
    ((n+1) r_n + m sum_{i=2..n-1} C(n,i) r_i r_{n+1-i}).  Terms i and n+1-i
    pair up by C(n,i) + C(n,n+1-i) = C(n+1,i), so the sum runs over i <= n/2,
    plus C(n,j-1) r_j^2 for the unpaired middle term i = j when n + 1 = 2j.
    """
    r = [None, None, m * 0 + 1]         # r_2 = 1 in the ring of m
    for n in range(2, up_to_s):
        acc = sum(comb(n + 1, i) * r[i] * r[n + 1 - i] for i in range(2, n // 2 + 1))
        if n % 2:
            j = (n + 1) // 2
            acc = acc + comb(n, j - 1) * r[j] * r[j]
        r.append(r[n] - (1 - m) * ((n + 1) * r[n] + m * acc))
    return r[2:up_to_s + 1]


def ultrametric_counts(up_to_s: int, m) -> list:
    """Symbolic ultrametrics on s = 1..up_to_s points with m symbols, equal
    to the m-partite labeled series-reduced trees with s leaves."""
    _check(up_to_s, m)
    return [m * 0 + 1] + [m * r for r in _reduced(up_to_s, m)]


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

    G inverts (1-m)t + m(1 - e^{-t}).  H = 1 - e^{-G} has H'(1 - mH) = 1 - H
    and G = (t - mH)/(1 - m), so U(t) = -H(-t) solves the ultrametric ODE
    at 1 - m and g_s = (-1)^s m r_s(1 - m) for s >= 2, m = 1 included.
    """
    _check(up_to_s, m)
    reduced = _reduced(up_to_s, 1 - m)
    return [m * 0 + 1] + [(-1) ** s * m * r for s, r in enumerate(reduced, start=2)]


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
