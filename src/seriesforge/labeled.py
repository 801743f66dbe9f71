"""Counting families for rooted multipartite labeled series-reduced trees.

P(m,t,x) with symbolic weights x_{c,k} has one route, p_series: the
root-color recurrence for the trees whose root has color 1, read from one
Bell table (:mod:`seriesforge.bell`) over the forest v of trees rooted off
color 1, which has about half the nonzero entries of a table over t + v,
and a color swap for every other root color, returned as the coefficient
tuple; the global inversion and the other routes live in
:mod:`seriesforge.oracle`.  x_{c,k} = 1 and (k-1)! turn it into the
ultrametric and mobile counts.  Each counting family has
one function, its prefix for s = 1..up_to_s: an int m gives the counts,
and the PolyVar m gives the ultrametric, fully-colored, mobile and
chain-increasing counts as polynomials in the number of colors.  All read
one prefix, _reduced, for r_s = a_s(m)/m: at m for the ultrametrics,
fully-colored trees and processes (m = 3), at m + 1 for the
chain-increasing trees and at 1 - m for the mobiles.  It reads the
alternating derangement sum a_s(m) = (-1)^(s-1) sum_k (-m)^k d(s+k-1, k),
d(n, k) the associated Stirling numbers of the first kind, from one m-free
table of d(n+1, k) = n d(n, k) + n d(n-1, k-1) over plain ints, a row at
a time, each row evaluated at the point.  It is checked against the oracle
module's Lagrange inversion over Z[m] (ultrametric_series_polynomials here
is a pointer to it, which the benchmark imports), mobile series inversion,
chain recurrence, alternating sums and integral relation, and against the
ODE recurrence of the tests.
"""

from __future__ import annotations

from math import comb
from operator import add

from .bell import bell_row
from .rings import PolyVar
from .weights import WeightPoly, color_swaps, sum_of_products


def _check(s: int, m=None, least: int = 1) -> None:
    """TypeError unless s is an int and m is None, an int or a PolyVar (a
    bool is not an int here); ValueError unless s >= 1 and an int m is at
    least `least`."""
    if type(s) is not int:
        raise TypeError(f"s must be an int, not {type(s).__name__}")
    if m is not None and type(m) not in (int, PolyVar):
        raise TypeError(f"m must be an int or a PolyVar, not {type(m).__name__}")
    if s < 1:
        raise ValueError("s must be >= 1")
    if type(m) is int and m < least:
        raise ValueError(f"m must be >= {least}")


# the benchmark's checker tests still call p_series(DegreeSpec(m), order)
DegreeSpec = int


# ---------------------------------------------------------------------------
# The weighted generating function.
# ---------------------------------------------------------------------------

def p_series(m: int, order: int) -> tuple:
    """The coefficients (P_0, ..., P_order) of P(m,t,x), P_0 = 0, P_1 = 1,
    for m >= 1 colors whose weights x_{c,k} stay indeterminates; the
    coefficient of t in every degree function is 1.

    T_c, the trees whose root has color c, is sum_k x_{c,k} u_c^k/k! with
    u_c = t + sum_{c' != c} T_{c'}.  The colors are exchangeable, so only
    T_1 is built; T_c is T_1 with colors 1 and c swapped, P_n =
    sum_c T_{c,n}, and v_n = P_n - T_{1,n} is the forest v = u_1 - t of
    trees rooted off color 1, with v_1 = 0.  The one Bell table is over v:
    B_{q,j}(v) = 0 for 2j > q, and B_{n,k}(t + v) = sum_j C(n, k-j)
    B_{n-k+j,j}(v), so T_{1,n} = x_{1,n} + sum_{k<n} sum_{j=1..min(k,n-k)}
    C(n, k-j) x_{1,k} B_{n-k+j,j}(v), one sum_of_products.  color_swaps
    registers the x_{c,k} and lays out their fields.  Only T_1 and v sit
    beside the table, v_n as the table's B_{n,1} too.  The table is released
    as soon as T_{1,order} is made, before the last swaps copy it, so the
    table and v_order, the largest swap sum, are never held at once; P_n =
    T_{1,n} + v_n is built after the loop, so neither are the table and P.
    """
    for name, value in (("m", m), ("order", order)):
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    _check(1, m)
    if order < 1:
        raise ValueError("order must be >= 1")
    zero, one = WeightPoly(), WeightPoly.const(1)
    swaps = color_swaps(m, order)
    x1 = [None, None] + [WeightPoly.gen(1, k) for k in range(2, order + 1)]
    t1 = [one]                          # T_{1,n} at index n - 1, the lone leaf as T_{1,1}
    v = [zero]                          # v_n at index n - 1: v_1 = 0
    rows = [[one], [zero, zero]]
    for n in range(2, order + 1):
        bell_row(rows, v, sum_of_products)
        t1.append(sum_of_products([(1, x1[n], one)] + [
            (comb(n, k - j), x1[k], rows[n - k + j][j])
            for k in range(2, n) for j in range(1, min(k, n - k) + 1)
        ]))
        if n == order:
            del rows                    # spent: the last swaps copy T_{1,order} without it
        v.append(sum((swap(t1[-1]) for swap in swaps), zero))
        if n < order:
            rows[n][1] = v[-1]
    return (zero,) + tuple(map(add, t1, v))


# ---------------------------------------------------------------------------
# Ultrametrics / plain multipartite labeled trees.
# ---------------------------------------------------------------------------

def _reduced(up_to_s: int, m) -> list:
    """[r_2, ..., r_up_to_s] over the ring of m, where a_s(m) = m r_s(m)
    is the ultrametric count for s >= 2; [] for up_to_s = 1.

    a_s(m) = (-1)^(s-1) sum_k (-m)^k d(s+k-1, k), with d(n, k) the
    derangements of n by k cycles (the associated Stirling numbers of the
    first kind), and d(n+1, k) = n d(n, k) + n d(n-1, k-1).  The table
    F(j, k) = d(j+k, k), k = 1..j, does not depend on m: F(j+1, k) =
    (j+k) (F(j, k) + F(j, k-1)) from F(1, .) = [1].  Its rows are kept
    signed, over plain ints, as G(j, k) = (-1)^(j+k) F(j, k), so G(j+1, k) =
    (j+k) (G(j, k-1) - G(j, k)), and r_{j+1}(x) = sum_k G(j, k) x^(k-1) is
    the one row evaluated at the point, an int or a PolyVar (at the bare
    variable, the row itself): the point enters nothing else.
    """
    row, out = [1], []                  # G(1, 1) = d(2, 1) = 1
    for j in range(1, up_to_s):
        out.append(PolyVar(row).eval_at(m))
        row = [(j + k) * (f - e) for k, e, f in zip(range(1, j + 2), row + [0], [0] + row)]
    return out


def ultrametric_counts(up_to_s: int, m) -> list:
    """Symbolic ultrametrics on s = 1..up_to_s points with m symbols, equal
    to the m-partite labeled series-reduced trees with s leaves."""
    _check(up_to_s, m)
    return [m * 0 + 1] + [m * r for r in _reduced(up_to_s, m)]


def ultrametric_series_polynomials(up_to_s: int) -> list:
    """The oracle's Lagrange inversion over Z[m], which benchmarks/run.py imports from here."""
    from .oracle import ultrametric_series_polynomials
    return ultrametric_series_polynomials(up_to_s)


def fully_colored_labeled_counts(up_to_s: int, m) -> list:
    """Labeled m-partite series-reduced trees with colored leaves too,
    for s = 1..up_to_s, over the ring of m.

    A lone vertex (s = 1) has no neighbor, so it takes any of the m
    colors; for s > 1 every leaf has exactly one parent, leaving m - 1
    color choices per leaf.
    """
    return _color_leaves(ultrametric_counts(up_to_s, m), m)


def _color_leaves(counts: list, m) -> list:
    """The fully-colored counts from the m-partite ones: m for s = 1, and
    (m - 1)^s times the count beyond, one color choice per leaf."""
    return [m] + [(m - 1) ** s * c for s, c in enumerate(counts[1:], start=2)]


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


# ---------------------------------------------------------------------------
# Chain-increasing binary trees and parallel processes.
# ---------------------------------------------------------------------------

def chain_increasing_counts(up_to_s: int, m) -> list:
    """Chain-increasing binary trees with s = 1..up_to_s chains and m
    junction colors, read from the ultrametric recurrence by
    y_s(m) = a_s(m + 1); the chain recurrence is an oracle."""
    _check(up_to_s, m, least=0)
    return ultrametric_counts(up_to_s, m + 1)


def process_counts(up_to_s: int) -> list:
    """Increasingly labeled parallel processes with s = 1..up_to_s actions:
    the 2-colored chain-increasing and the 3-partite labeled tree counts."""
    return ultrametric_counts(up_to_s, 3)
