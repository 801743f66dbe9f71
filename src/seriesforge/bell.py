"""The Bell table and inversion that production runs, generic over any
ring from :mod:`seriesforge.rings`: labeled.p_series builds one table over
the weight ring and labeled.ultrametric_series_polynomials inverts over
Z[m].  Each table entry and each inverse coordinate is one Ring.dot, a
sum of products that skips the zero terms and that the weight ring
accumulates into one dict, every other ring term by term.

A coefficient sequence is a tuple (v_1, v_2, ..., v_N) over an explicit
ring; it stands for the exponential series sum v_n t^n/n!, and its
compositional inverse is again such a sequence.  bell_row extends the
table of partial Bell polynomials B_{n,k} by one row with Comtet's
binomial recurrence (Advanced Combinatorics, 1974, ch. 3), and
bell_inverse_recursive reads each inverse coordinate off the row built
from the coordinates before it.  The band-table B_{n,k}, the special
sequences it gives and the closed-form inversion are test oracles in
:mod:`seriesforge.oracle`; the group product is in :mod:`seriesforge.egf`.
"""

from __future__ import annotations

from math import comb

from .rings import Ring


def bell_row(rows: list, y, ring: Ring) -> None:
    """Append row n = len(rows) of the table rows[n][k] = B_{n,k}(y), k = 0..n.

    A table starts as [[ring.one]], the row B_{0,0} = 1.  Row n comes from
    B_{n,k} = sum_i C(n-1, i-1) y_i B_{n-i,k-1}; for k >= 2 it reads only
    y_1..y_{n-1}, and entries past the end of y count as zero.  B_{n,1} is
    y_n, or zero while y is shorter than n, for a caller to set once it
    knows y_n.
    """
    n = len(rows)
    row = [ring.zero, y[n - 1] if n <= len(y) else ring.zero]
    for k in range(2, n + 1):
        row.append(ring.dot(
            (comb(n - 1, i - 1), y[i - 1], rows[n - i][k - 1])
            for i in range(1, min(n - k + 1, len(y)) + 1)
        ))
    rows.append(row)


def bell_inverse_recursive(x, ring: Ring) -> tuple:
    """Compositional inverse by the recursive inversion formula.

    inv_1 = 1/x_1 and, for n > 1,
    inv_n = (-1/x_1) * sum_{k=2..n} x_k B_{n,k}(inv),
    each coordinate using only the previously computed ones.
    """
    if not x:
        raise ValueError("empty sequence")
    inv1 = ring.invert(x[0])
    inv = [inv1]
    rows = [[ring.one], [ring.zero, inv1]]
    for n in range(2, len(x) + 1):
        bell_row(rows, inv, ring)
        inv.append(-inv1 * ring.dot((1, x[k - 1], rows[n][k]) for k in range(2, n + 1)))
        rows[n][1] = inv[-1]
    return tuple(inv)
