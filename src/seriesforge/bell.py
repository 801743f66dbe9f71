"""The one Bell row that production runs: labeled.p_series builds its Bell
table over the forest v of trees rooted off color 1 one row at a time,
each entry one call of weights.sum_of_products, which adds the whole sum
of products into one dict.

A coefficient sequence is a tuple (v_1, v_2, ..., v_N); it stands for the
exponential series sum v_n t^n/n!.  bell_row extends the table of partial
Bell polynomials B_{n,k} by one row with Comtet's binomial recurrence
(Advanced Combinatorics, 1974, ch. 3), over whatever commutative ring its
sum-of-products function computes in.  Column 2 is folded: the terms i
and n - i of its sum hold the same product y_i y_{n-i}, and C(n-1, i-1) +
C(n-1, i) = C(n, i), so each pair is one term and nothing divides; in
labeled.p_series, where v_1 = 0 leaves the deeper columns short, that
takes a quarter to a third of the monomial products out.  The ring contract,
the recursive inversion and the group product are test support in
:mod:`seriesforge.egf`; B_{n,k} by its definition, the alternating sums
over the special sequences and the closed-form inversion are test
oracles in :mod:`seriesforge.oracle`.
"""

from __future__ import annotations

from math import comb


def bell_row(rows: list, y, dot) -> None:
    """Append row n = len(rows) of the table rows[n][k] = B_{n,k}(y), k = 0..n.

    dot(terms) is the ring's sum of b * y * z over (int b, y, z) triples,
    and dot(()) its zero.  A table starts as [[one]], the row B_{0,0} = 1.
    Row n comes from B_{n,k} = sum_i C(n-1, i-1) y_i B_{n-i,k-1}; for
    k >= 2 it reads only y_1..y_{n-1}, and entries past the end of y count
    as zero.  Column 2 is the folded B_{n,2} = sum_{i<n/2} C(n, i) y_i
    y_{n-i} + [n even] C(n-1, n/2-1) y_{n/2}^2, read from y alone.  B_{n,1}
    is y_n, or zero while y is shorter than n, for a caller to set once it
    knows y_n.
    """
    n = len(rows)
    zero = dot(())
    row = [zero, y[n - 1] if n <= len(y) else zero]
    if n >= 2:
        pairs = [(comb(n, i), y[i - 1], y[n - i - 1])
                 for i in range(max(1, n - len(y)), (n + 1) // 2)]
        if n % 2 == 0 and n // 2 <= len(y):
            pairs.append((comb(n - 1, n // 2 - 1), y[n // 2 - 1], y[n // 2 - 1]))
        row.append(dot(pairs))
    for k in range(3, n + 1):
        row.append(dot(
            (comb(n - 1, i - 1), y[i - 1], rows[n - i][k - 1])
            for i in range(1, min(n - k + 1, len(y)) + 1)
        ))
    rows.append(row)
