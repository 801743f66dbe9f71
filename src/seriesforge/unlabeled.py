"""Rooted unlabeled series-reduced trees: the refined leaf/inner-vertex
triangle, the total counts, and the multipartite and fully-colored
specializations; the multipartite counts are generic over the ring of m.

The refinement polynomial for s leaves has the number of trees with k
inner vertices as its t^k coefficient.  The production route is the
integer Euler transform of A = x + t(MSET(A) - 1 - A), with an
integrality check at every exact division; the paper's divisor-sum Bell
recurrence over Q[t] is kept as a test oracle (oracle.refined_polys_bell).
"""

from __future__ import annotations

from .rings import PolyVar


def refined_polys(up_to_s: int) -> list:
    """Refinement polynomials a_1..a_S (integer coefficients in t).

    With B = MSET(A) = sum b_n x^n and c_n = sum_{d | n} d a_d(t^{n/d}),
    n b_n = sum_{j=1..n} c_j b_{n-j} (Euler transform).  The j = n term
    holds n a_n, so r_n = b_n - a_n, the multisets of two or more trees,
    needs only smaller levels; then a_n = t r_n and b_n = a_n + r_n.
    """
    if up_to_s < 1:
        raise ValueError("s must be >= 1")
    t = PolyVar.gen("t")
    one = PolyVar([1], "t")
    a, b, c = [None, one], [one, one], [None, one]
    for n in range(2, up_to_s + 1):
        # c_n without its d = n term n a_n, which is not known yet
        c_short = sum(d * a[d].substitute(n // d) for d in range(1, n) if n % d == 0)
        r = (c_short + sum(c[j] * b[n - j] for j in range(1, n))).scale_exact(1, n)
        a.append(t * r)
        b.append(a[n] + r)
        c.append(c_short + n * a[n])
    return a[1:]


def refined_poly(s: int) -> PolyVar:
    """Refinement polynomial for a single leaf count."""
    return refined_polys(s)[-1]


def unlabeled_counts(up_to_s: int) -> list:
    """Total rooted unlabeled series-reduced trees with s = 1..up_to_s leaves."""
    return [p.eval_at(1) for p in refined_polys(up_to_s)]


def unlabeled_count(s: int) -> int:
    """Total rooted unlabeled series-reduced trees with s leaves."""
    return unlabeled_counts(s)[-1]


def multipartite_unlabeled_counts(up_to_s: int, m) -> list:
    """m-partite (inner vertices colored, adjacent distinct) tree counts
    for s = 1..up_to_s, over the ring of m: an int gives the counts, the
    PolyVar m the counts as polynomials in m.

    Computed as m * q(m - 1) where q is the refinement polynomial with
    one factor of t removed; this form is finite at m = 1.
    """
    if up_to_s < 1 or (isinstance(m, int) and m < 1):
        raise ValueError("need s >= 1 and m >= 1")
    return [m * 0 + 1] + [m * p.shift_down().eval_at(m - 1) for p in refined_polys(up_to_s)[1:]]


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
