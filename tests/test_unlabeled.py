from itertools import accumulate, repeat
from operator import mul

import pytest

from seriesforge.rings import PolyVar
from seriesforge.unlabeled import (
    _exact,
    _level_values,
    fully_colored_unlabeled_counts,
    multipartite_unlabeled_counts,
    refined_polys,
)

M = PolyVar.gen("m")
T = PolyVar.gen("t")


def plain_transform(up_to_s, t0):
    """[r_2(t0), ..., r_S(t0)] with r_n = a_n / t, from the plain Euler
    transform, n full products per step: with B = MSET(A) = sum b_n x^n and
    c_n = sum_{d | n} d a_d(t^{n/d}), n b_n = sum_{j=1..n} c_j b_{n-j}; the
    j = n term holds n a_n, so r_n = b_n - a_n needs only smaller sizes,
    a_n = t r_n and b_n = a_n + r_n.  Level j holds a_n(t0^j)."""
    proper_divisors = [[] for _ in range(up_to_s + 1)]
    for d in range(1, up_to_s // 2 + 1):
        for n in range(2 * d, up_to_s + 1, d):
            proper_divisors[n].append(d)
    one = t0 * 0 + 1
    powers = list(accumulate(repeat(t0, up_to_s), mul))
    one_level = t0 in (0, 1)
    levels = [None] * (up_to_s + 1)
    for j in range(1 if one_level else up_to_s, 0, -1):
        x, a, b, c, r = powers[j - 1], [0, one], [one, one], [0, one], []
        levels[j] = a
        if one_level:
            levels = [a] * (up_to_s + 1)
        for n in range(2, up_to_s // j + 1):
            c_short = sum(d * levels[j * n // d][d] for d in proper_divisors[n])
            total = c_short + sum(map(mul, c[1:n], b[n - 1:0:-1]))
            q = total // n
            assert q * n == total
            a.append(x * q)
            b.append(a[n] + q)
            c.append(c_short + n * a[n])
            r.append(q)
    return r


class TestLevelTable:
    """The paired level table against the plain transform, a = t0 r: every
    S, so that every step n from 2 on, the odd and the even middles and
    every cut of the levels are covered."""

    @pytest.mark.parametrize("t0", [0, 1, 2, 7])
    def test_int_points(self, t0):
        for s in range(1, 61):
            assert _level_values(s, t0) == [1] + [t0 * r for r in plain_transform(s, t0)], s

    @pytest.mark.parametrize("t0", [T, M - 1], ids=["t", "m-1"])
    def test_polynomial_points(self, t0):
        for s in range(1, 26):
            want = [t0 * 0 + 1] + [t0 * r for r in plain_transform(s, t0)]
            assert _level_values(s, t0) == want, s

    def test_multipartite_one_color_is_the_star(self):
        # the table vanishes at t0 = 0 beyond one leaf; r_s(0) = 1
        for s in range(1, 26):
            assert multipartite_unlabeled_counts(s, 1) == [1] + plain_transform(s, 0)

    @pytest.mark.parametrize("m", [M, 2 * M + 3, PolyVar([1], "m"), PolyVar([5], "m")],
                             ids=["m", "2m+3", "const 1", "const 5"])
    def test_multipartite_polynomials_in_m(self, m):
        for s in range(1, 26):
            want = [m * 0 + 1] + [m * r for r in plain_transform(s, m - 1)]
            assert multipartite_unlabeled_counts(s, m) == want, s

    def test_exact_division(self):
        assert _exact(-6, 3) == -2
        assert _exact(PolyVar([2, 4], "t"), 2) == PolyVar([1, 2], "t")
        for value in (7, PolyVar([1, 2], "t")):
            with pytest.raises(ArithmeticError):
                _exact(value, 2)


class TestRefinedPolys:
    def test_small_examples(self):
        assert refined_polys(4) == [
            PolyVar([1], "t"), PolyVar([0, 1], "t"),
            PolyVar([0, 1, 1], "t"), PolyVar([0, 1, 2, 2], "t"),
        ]

    def test_divisible_by_t_beyond_one_leaf(self):
        assert all(p[0] == 0 for p in refined_polys(10)[1:])

    def test_nonnegative_integer_coefficients(self):
        for p in refined_polys(10):
            assert all(isinstance(c, int) and c >= 0 for c in p.coeffs)

    def test_degree_bound(self):
        # at most s - 1 inner vertices in a series-reduced tree
        for s, p in enumerate(refined_polys(10)[1:], start=2):
            assert p.degree <= s - 1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            refined_polys(0)


class TestMultipartite:
    def test_one_color_row(self):
        assert multipartite_unlabeled_counts(11, 1) == [1] * 11

    def test_polynomial_matches_values(self):
        polys = multipartite_unlabeled_counts(9, M)
        for m in range(1, 9):
            assert [p.eval_at(m) for p in polys] == multipartite_unlabeled_counts(9, m)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            multipartite_unlabeled_counts(0, 2)
        with pytest.raises(ValueError):
            multipartite_unlabeled_counts(3, 0)


class TestFullyColored:
    def test_single_leaf_takes_any_color(self):
        for m in range(1, 7):
            assert fully_colored_unlabeled_counts(1, m) == [m]

    def test_one_color_vanishes_beyond_one_leaf(self):
        assert fully_colored_unlabeled_counts(7, 1)[1:] == [0] * 6

    def test_polynomials_in_m_match_the_counts(self):
        polys = fully_colored_unlabeled_counts(10, M)
        assert polys[0] == M
        for m in range(1, 7):
            assert [p.eval_at(m) for p in polys] == fully_colored_unlabeled_counts(10, m)
