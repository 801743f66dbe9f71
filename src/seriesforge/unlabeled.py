"""Rooted unlabeled series-reduced trees: the refined leaf/inner-vertex
triangle, the total counts, and the multipartite and fully-colored
specializations.

The refinement polynomial a_s(t) for s leaves has the number of trees
with k inner vertices as its t^k coefficient.  One Euler transform of
A = x + t(MSET(A) - 1 - A), generic over the ring of its point t0
(_reduced_values), gives a_s(t) at t0 = t, unlabeled(s) = a_s(1), and
multipartite(s, m) = m r_s(m - 1) with r_s = a_s / t, for an int m or
as a polynomial in m.  The substitution transform over Z[t] and the
paper's Bell recurrence over Q[t] are test oracles in oracle.py.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import mul

from .labeled import _check
from .rings import PolyVar


def refined_polys(up_to_s: int) -> list:
    """Refinement polynomials a_1..a_S (integer coefficients in t): the
    level table run over Z[t], a_1 = 1 and a_n = t r_n."""
    _check(up_to_s)
    t = PolyVar.gen("t")
    return [t * 0 + 1] + [t * r for r in _reduced_values(up_to_s, t)]


def refined_poly(s: int) -> PolyVar:
    """Refinement polynomial for a single leaf count."""
    return refined_polys(s)[-1]


def _reduced_values(up_to_s: int, t0) -> list:
    """[r_2(t0), ..., r_S(t0)] with r_n = a_n / t, over the ring of t0: an
    int gives the values, the PolyVar t the polynomials r_n(t), the
    PolyVar m - 1 the r_n(m - 1) as polynomials in m.

    With B = MSET(A) = sum b_n x^n and c_n = sum_{d | n} d a_d(t^{n/d}),
    n b_n = sum_{j=1..n} c_j b_{n-j} (Euler transform).  The j = n term
    holds n a_n, so r_n = b_n - a_n, the multisets of two or more trees,
    needs only smaller sizes; then a_n = t r_n and b_n = a_n + r_n.

    The divisor sum needs a_d only at powers of t0, so level j holds
    a_n(t0^j) for n <= S // j.  The levels are filled from j = S down to
    1, level j reading level j n / d at index d: about 1.6 S^2 ring
    products in all.  For t0 in {0, 1} every power of t0 is t0, so one
    level serves them all.
    """
    proper_divisors = [[] for _ in range(up_to_s + 1)]
    for d in range(1, up_to_s // 2 + 1):
        for n in range(2 * d, up_to_s + 1, d):
            proper_divisors[n].append(d)
    one = t0 * 0 + 1
    powers = list(accumulate(repeat(t0, up_to_s), mul))     # t0^1 .. t0^S
    one_level = t0 in (0, 1)
    levels = [None] * (up_to_s + 1)     # levels[j][n] = a_n(t0^j)
    for j in range(1 if one_level else up_to_s, 0, -1):
        x, a, b, c, r = powers[j - 1], [0, one], [one, one], [0, one], []
        levels[j] = a
        if one_level:
            levels = [a] * (up_to_s + 1)
        for n in range(2, up_to_s // j + 1):
            c_short = sum(d * levels[j * n // d][d] for d in proper_divisors[n])
            q, rem = divmod(c_short + sum(map(mul, c[1:n], b[n - 1:0:-1])), n)
            if rem:
                raise ArithmeticError(f"Euler transform not integral at n={n}")
            a.append(x * q)
            b.append(a[n] + q)
            c.append(c_short + n * a[n])
            r.append(q)
    return r


def unlabeled_counts(up_to_s: int) -> list:
    """Total rooted unlabeled series-reduced trees with s = 1..up_to_s
    leaves: a_s(1), which is r_s(1) beyond one leaf."""
    _check(up_to_s)
    return [1] + _reduced_values(up_to_s, 1)


def unlabeled_count(s: int) -> int:
    """Total rooted unlabeled series-reduced trees with s leaves."""
    return unlabeled_counts(s)[-1]


def multipartite_unlabeled_counts(up_to_s: int, m) -> list:
    """m-partite (inner vertices colored, adjacent distinct) tree counts
    for s = 1..up_to_s, over the ring of m: an int gives the counts, the
    PolyVar m the counts as polynomials in m.

    Computed as m * r_s(m - 1), where r_s is the refinement polynomial
    with one factor of t removed; this form is finite at m = 1.
    """
    _check(up_to_s, m)
    return [m * 0 + 1] + [m * r for r in _reduced_values(up_to_s, m - 1)]


def multipartite_unlabeled(s: int, m: int) -> int:
    """m-partite (inner vertices colored, adjacent distinct) tree count."""
    return multipartite_unlabeled_counts(s, m)[-1]


def multipartite_unlabeled_polynomial(s: int) -> PolyVar:
    """The m-partite unlabeled count expanded as a polynomial in m."""
    return multipartite_unlabeled_counts(s, PolyVar.gen("m"))[-1]


def fully_colored_unlabeled_counts(up_to_s: int, m: int) -> list:
    """Unlabeled m-partite trees with leaves colored as well, for
    s = 1..up_to_s.

    A lone leaf takes any of the m colors; for s > 1 every leaf avoids the
    color of its parent, leaving m - 1 choices per leaf.
    """
    counts = multipartite_unlabeled_counts(up_to_s, m)
    return [m] + [(m - 1) ** s * c for s, c in enumerate(counts[1:], start=2)]


def fully_colored_unlabeled(s: int, m: int) -> int:
    """Unlabeled m-partite trees with leaves colored as well."""
    return fully_colored_unlabeled_counts(s, m)[-1]
