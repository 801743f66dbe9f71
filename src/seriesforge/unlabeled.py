"""Rooted unlabeled series-reduced trees: the refined leaf/inner-vertex
triangle, the total counts, and the multipartite and fully-colored
specializations, each as its prefix for s = 1..up_to_s.

The refinement polynomial a_s(t) for s leaves has the number of trees
with k inner vertices as its t^k coefficient.  One Euler transform of
A = x + t(MSET(A) - 1 - A), generic over the ring of its point t0
(_level_values, which pairs i with n - i in each step), gives a_s(t) at
t0 = t, unlabeled(s) = a_s(1), and multipartite(s, m) = m r_s(m - 1)
with r_s = a_s / t, the table at m - 1 divided exactly by m - 1, for an
int m or, at the PolyVar m, as a polynomial in m; at m = 1 every
r_s(0) is 1.  The fully-colored counts follow from the multipartite
ones.  The plain Euler transform over Z[t] with t -> t^d substitution
and the paper's Bell recurrence over Q[t] are test oracles in oracle.py.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mul

from .labeled import _check, _color_leaves
from .rings import PolyVar


def refined_polys(up_to_s: int) -> list:
    """Refinement polynomials a_1..a_S (integer coefficients in t): the
    level table run over Z[t]."""
    _check(up_to_s)
    return _level_values(up_to_s, PolyVar.gen("t"))


def _level_values(up_to_s: int, t0) -> list:
    """[a_1(t0), ..., a_S(t0)] over the ring of t0: an int gives the
    values, the PolyVar t the polynomials a_n(t), the PolyVar m - 1 the
    a_n(m - 1) as polynomials in m.

    With B = MSET(A) = sum b_n x^n and c_n = sum_{d | n} d a_d(t^{n/d}),
    n b_n = sum_{j=1..n} c_j b_{n-j} (Euler transform), and a_n = t r_n,
    b_n = (1 + t) r_n with r_n = b_n - a_n for n >= 2.  Write cs_n =
    c_n - n a_n for the divisor part and x for the point.  Multiplying
    n r_n = cs_n + sum_{i<n} c_i b_{n-i} by x, and x b_i = (1 + x) a_i for
    i >= 2, gives for n >= 3 an identity in a alone:

        n a_n = x (cs_n + c_{n-1} + a_{n-1} + P) + a_{n-1} + P,
        n P = sum_{2 <= i < n/2} (U_i U_{n-i} - cs_i cs_{n-i})
              + [n even] n c_h a_h,  h = n / 2,  U_i = n a_i + cs_i,

    each pair i, n - i adding n (n a_i a_{n-i} + a_i cs_{n-i} +
    cs_i a_{n-i}), so the division by n is exact.  U moves to the next n
    by one add per entry; a_2 = x.

    The divisor part needs a_d only at powers of t0, so level j holds
    a_n(t0^j) for n <= S // j.  The levels are filled from j = S down to
    1, level j reading level j n / d at index d.  Level j costs about
    (S/j)^2 / 4 products of two full values, half the plain transform's
    n per step, and as many products of two divisor parts, which are much
    smaller: about 0.41 S^2 of each over all levels.  For t0 in {0, 1}
    every power of t0 is t0, so one level serves them all: S^2 / 4.
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
        x = powers[j - 1]
        a, cs, u = [0, one, x], [0, 0, one], [0, 0, 2 * x + one]
        levels[j] = a
        if one_level:
            levels = [a] * (up_to_s + 1)
        for n in range(3, up_to_s // j + 1):
            u[2:] = map(add, u[2:], a[2:])      # u[i] = n a_i + cs_i
            k, h = (n + 1) // 2, n // 2
            p = _exact(sum(map(mul, u[2:k], u[n - 2:h:-1]))
                       - sum(map(mul, cs[2:k], cs[n - 2:h:-1])), n)
            if k == h:
                p += (h * a[h] + cs[h]) * a[h]
            cs_n = sum(d * levels[j * n // d][d] for d in proper_divisors[n])
            a.append(_exact(x * (cs_n + u[n - 1] + p) + a[n - 1] + p, n))
            cs.append(cs_n)
            u.append(n * a[n] + cs_n)
    return levels[1][1:up_to_s + 1]


def _exact(value, n):
    """value / n, which the Euler transform makes exact, as the factor t
    of every a_s beyond one leaf makes the division by t0 = m - 1."""
    q = value // n
    if q * n != value:
        raise ArithmeticError(f"level table value not divisible by {n}")
    return q


def unlabeled_counts(up_to_s: int) -> list:
    """Total rooted unlabeled series-reduced trees with s = 1..up_to_s
    leaves: a_s(1)."""
    _check(up_to_s)
    return _level_values(up_to_s, 1)


def multipartite_unlabeled_counts(up_to_s: int, m) -> list:
    """m-partite (inner vertices colored, adjacent distinct) tree counts
    for s = 1..up_to_s, over the ring of m: an int gives the counts, the
    PolyVar m the counts as polynomials in m.

    Computed as m * r_s(m - 1), where r_s = a_s / t is the refinement
    polynomial with one factor of t removed: the level table at m - 1,
    divided exactly by m - 1.  At m = 1 the table vanishes beyond one
    leaf, and every r_s(0) is 1: the one tree with a single inner vertex.
    """
    _check(up_to_s, m)
    if m == 1:
        return [m * 0 + 1] * up_to_s
    t0 = m - 1
    return [m * 0 + 1] + [m * _exact(a, t0) for a in _level_values(up_to_s, t0)[1:]]


def fully_colored_unlabeled_counts(up_to_s: int, m) -> list:
    """Unlabeled m-partite trees with leaves colored as well, for
    s = 1..up_to_s, over the ring of m.

    A lone leaf takes any of the m colors; for s > 1 every leaf avoids the
    color of its parent, leaving m - 1 choices per leaf.
    """
    return _color_leaves(multipartite_unlabeled_counts(up_to_s, m), m)
