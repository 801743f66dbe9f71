"""Partial Bell polynomials, the composition-group product on coefficient
sequences and the recursive compositional inversion that production runs,
generic over any ring from :mod:`seriesforge.rings`.

A coefficient sequence is a tuple (v_1, v_2, ..., v_N) over an explicit
ring; it stands for the exponential series sum v_n t^n/n!.  The group
product corresponds to composition of those series; the identity is
(1, 0, 0, ...).  Every routine is an iterative table built by Comtet's
binomial recurrence.  The closed-form inversion is a test oracle in
:mod:`seriesforge.oracle`.
"""

from __future__ import annotations

from math import comb, factorial

from .rings import Ring, ZZ


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
        acc = ring.zero
        for i in range(1, min(n - k + 1, len(y)) + 1):
            yi = y[i - 1]
            if yi == ring.zero:
                continue
            acc = acc + comb(n - 1, i - 1) * yi * rows[n - i][k - 1]
        row.append(acc)
    rows.append(row)


def bell_partial(n: int, k: int, x, ring: Ring):
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    Computed column by column over the band n' - k' <= n - k only, by the
    binomial recurrence B_{n,k} = sum_i C(n-1, i-1) x_i B_{n-i,k-1},
    B_{0,0} = 1, B_{n,0} = 0 for n > 0.  Out-of-range arguments give the
    ring zero.
    """
    if k < 0 or n < k:
        return ring.zero
    width = n - k
    x = list(x[: width + 1]) + [ring.zero] * (width + 1 - len(x))
    col = [ring.one] + [ring.zero] * width     # col[d] = B_{j+d,j}, here j = 0
    for j in range(1, k + 1):
        nxt = []
        for d in range(width + 1):
            acc = ring.zero
            for i in range(1, d + 2):
                xi = x[i - 1]
                if xi == ring.zero:
                    continue
                acc = acc + comb(j + d - 1, i - 1) * xi * col[d + 1 - i]
            nxt.append(acc)
        col = nxt
    return col[width]


def bell_product(x, y, ring: Ring) -> tuple:
    """Coordinates of the group product: (x o y)_n = sum_k x_k B_{n,k}(y)."""
    order = min(len(x), len(y))
    rows = [[ring.one]]
    out = []
    for n in range(1, order + 1):
        bell_row(rows, y, ring)
        acc = ring.zero
        for k in range(1, n + 1):
            xk = x[k - 1]
            if xk == ring.zero:
                continue
            acc = acc + xk * rows[n][k]
        out.append(acc)
    return tuple(out)


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
        acc = ring.zero
        for k in range(2, n + 1):
            xk = x[k - 1]
            if xk == ring.zero:
                continue
            acc = acc + xk * rows[n][k]
        inv.append(-inv1 * acc)
        rows[n][1] = inv[-1]
    return tuple(inv)


def derangement_count(n: int, k: int) -> int:
    """Fixed-point-free permutations of n elements with exactly k cycles.

    Equals B_{n,k} at x_1 = 0, x_i = (i-1)! (associated Stirling numbers
    of the first kind).
    """
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    seq = [0] + [factorial(i - 1) for i in range(2, n - k + 2)]
    return bell_partial(n, k, seq, ZZ)


def assoc_stirling2(n: int, k: int) -> int:
    """Set partitions of n elements into k blocks, every block of size >= 2.

    Equals B_{n,k} at x_1 = 0, x_i = 1.
    """
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    seq = [0] + [1] * max(0, n - k)
    return bell_partial(n, k, seq, ZZ)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind: B_{n,k} at all-ones."""
    return bell_partial(n, k, [1] * max(1, n - k + 1), ZZ)
