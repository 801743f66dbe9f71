from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from seriesforge import unlabeled
from seriesforge.oracle import refined_polys_substituted
from seriesforge.rings import PolyVar
from seriesforge.unlabeled import (
    _exact,
    _level_values,
    fully_colored_unlabeled_counts,
    multipartite_unlabeled_counts,
    refined_polys,
    unlabeled_counts,
)

M = PolyVar.gen("m")
T = PolyVar.gen("t")


@lru_cache(maxsize=None)
def reduced_polys():
    """[r_2, ..., r_60], r_s = a_s / t, by the substitution route."""
    return [p.shift_down() for p in refined_polys_substituted(60)[1:]]


def by_substitution(up_to_s, point, scale):
    """[1, scale r_2(point), ..., scale r_S(point)]: the level table's
    a_s(t0) at point = scale = t0, multipartite m r_s(m - 1) at point =
    m - 1 and scale = m."""
    return [scale * 0 + 1] + [scale * r.eval_at(point) for r in reduced_polys()[:up_to_s - 1]]


class TestLevelTable:
    """The paired level table against the substitution route: every S,
    so that every step n from 2 on, the odd and the even middles and every
    cut of the levels are covered."""

    @pytest.mark.parametrize("t0", [0, 1, 2, 7])
    def test_int_points(self, t0):
        want = by_substitution(60, t0, t0)
        for s in range(1, 61):
            assert _level_values(s, t0) == want[:s], s

    def test_unlabeled_counts_match_refined_polys(self):
        assert unlabeled_counts(60) == by_substitution(60, 1, 1)

    @pytest.mark.parametrize("t0", [T, M - 1], ids=["t", "m-1"])
    def test_polynomial_points(self, t0):
        want = by_substitution(25, t0, t0)
        for s in range(1, 26):
            assert _level_values(s, t0) == want[:s], s

    def test_multipartite_one_color_is_the_star(self):
        # the table vanishes at t0 = 0 beyond one leaf; r_s(0) = 1
        for s in range(1, 26):
            assert multipartite_unlabeled_counts(s, 1) == by_substitution(s, 0, 1)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_multipartite_counts_match_refined_polys(self, m):
        assert multipartite_unlabeled_counts(40, m) == by_substitution(40, m - 1, m)

    @pytest.mark.parametrize("m", [M, 2 * M + 3, PolyVar([1], "m"), PolyVar([5], "m")],
                             ids=["m", "2m+3", "const 1", "const 5"])
    def test_multipartite_polynomials_in_m(self, m):
        want = by_substitution(30, m - 1, m)
        for s in (*range(1, 26), 30):
            assert multipartite_unlabeled_counts(s, m) == want[:s], s

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 25), st.integers(9, 10 ** 6))
    def test_many_colors_match_polynomial_in_m(self, s, m):
        # large m makes the deep levels a_n(t0^j) big
        assert multipartite_unlabeled_counts(s, m) == by_substitution(s, m - 1, m)

    def test_exact_division(self):
        assert _exact(-6, 3) == -2
        assert _exact(PolyVar([2, 4], "t"), 2) == PolyVar([1, 2], "t")
        for value in (7, PolyVar([1, 2], "t")):
            with pytest.raises(ArithmeticError):
                _exact(value, 2)

    def test_multipartite_division_by_m_minus_1_is_exact(self, monkeypatch):
        # a level value that m - 1 = 2 does not divide must not be floored
        monkeypatch.setattr(unlabeled, "_level_values", lambda up_to_s, t0: [1, 4, 7])
        with pytest.raises(ArithmeticError):
            multipartite_unlabeled_counts(3, 3)


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
