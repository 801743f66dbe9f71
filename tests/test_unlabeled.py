import pytest

from seriesforge import reference
from seriesforge.rings import PolyVar
from seriesforge.unlabeled import (
    fully_colored_unlabeled_counts,
    multipartite_unlabeled_counts,
    refined_polys,
    unlabeled_counts,
)

M = PolyVar.gen("m")


class TestRefinedPolys:
    def test_small_examples(self):
        assert refined_polys(4) == [
            PolyVar([1], "t"), PolyVar([0, 1], "t"),
            PolyVar([0, 1, 1], "t"), PolyVar([0, 1, 2, 2], "t"),
        ]

    def test_reference_polynomials(self):
        polys = multipartite_unlabeled_counts(max(reference.UNLABELED_POLYNOMIALS), M)
        for s, coeffs in reference.UNLABELED_POLYNOMIALS.items():
            assert polys[s - 1] == PolyVar(coeffs, "m")

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


class TestTotals:
    def test_sequence(self):
        seq = reference.UNLABELED_SEQUENCE
        assert unlabeled_counts(len(seq)) == seq

    def test_triangle(self):
        polys = refined_polys(10)
        for (k, n), want in reference.RIORDAN_TRIANGLE.items():
            assert polys[n - 1][k] == want, f"cell {(k, n)}"

    def test_triangle_rows_sum_to_sequence(self):
        polys = refined_polys(10)
        counts = unlabeled_counts(10)
        for n in range(2, 11):
            total = sum(want for (k, nn), want in reference.RIORDAN_TRIANGLE.items() if nn == n)
            assert total == sum(polys[n - 1].coeffs) == counts[n - 1]


class TestMultipartite:
    def test_table_values(self):
        for m, row in reference.MULTIPARTITE_UNLABELED_TABLE.items():
            assert multipartite_unlabeled_counts(len(row), m) == row, f"m={m}"

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
    def test_table_values(self):
        for m, row in reference.FULLY_COLORED_UNLABELED_TABLE.items():
            assert fully_colored_unlabeled_counts(len(row), m) == row, f"m={m}"

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
