import pytest

from seriesforge import reference
from seriesforge.rings import PolyVar
from seriesforge.unlabeled import (
    fully_colored_unlabeled,
    multipartite_unlabeled,
    multipartite_unlabeled_polynomial,
    refined_poly,
    refined_polys,
    unlabeled_count,
)


class TestRefinedPolys:
    def test_small_examples(self):
        assert refined_poly(1) == PolyVar([1], "t")
        assert refined_poly(2) == PolyVar([0, 1], "t")
        assert refined_poly(3) == PolyVar([0, 1, 1], "t")
        assert refined_poly(4) == PolyVar([0, 1, 2, 2], "t")

    def test_reference_polynomials(self):
        for s, coeffs in reference.UNLABELED_POLYNOMIALS.items():
            assert multipartite_unlabeled_polynomial(s) == PolyVar(coeffs, "m")

    def test_divisible_by_t_beyond_one_leaf(self):
        for s in range(2, 11):
            assert refined_poly(s)[0] == 0

    def test_nonnegative_integer_coefficients(self):
        for p in refined_polys(10):
            assert all(isinstance(c, int) and c >= 0 for c in p.coeffs)

    def test_degree_bound(self):
        # at most s - 1 inner vertices in a series-reduced tree
        for s in range(2, 11):
            assert refined_poly(s).degree <= s - 1

    def test_bad_args(self):
        with pytest.raises(ValueError):
            refined_poly(0)
        with pytest.raises(ValueError):
            refined_polys(0)


class TestTotals:
    def test_sequence(self):
        for s, want in enumerate(reference.UNLABELED_SEQUENCE, start=1):
            assert unlabeled_count(s) == want

    def test_triangle(self):
        polys = refined_polys(10)
        for (k, n), want in reference.RIORDAN_TRIANGLE.items():
            assert polys[n - 1][k] == want, f"cell {(k, n)}"

    def test_triangle_rows_sum_to_sequence(self):
        polys = refined_polys(10)
        for n in range(2, 11):
            total = sum(want for (k, nn), want in reference.RIORDAN_TRIANGLE.items() if nn == n)
            assert total == sum(polys[n - 1].coeffs) == unlabeled_count(n)


class TestMultipartite:
    def test_table_values(self):
        for m, row in reference.MULTIPARTITE_UNLABELED_TABLE.items():
            for s, want in enumerate(row, start=1):
                assert multipartite_unlabeled(s, m) == want

    def test_one_color_row(self):
        assert all(multipartite_unlabeled(s, 1) == 1 for s in range(1, 12))

    def test_polynomial_matches_values(self):
        for s in range(1, 10):
            p = multipartite_unlabeled_polynomial(s)
            for m in range(1, 9):
                assert p.eval_at(m) == multipartite_unlabeled(s, m)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            multipartite_unlabeled(0, 2)
        with pytest.raises(ValueError):
            multipartite_unlabeled(3, 0)


class TestFullyColored:
    def test_table_values(self):
        for m, row in reference.FULLY_COLORED_UNLABELED_TABLE.items():
            for s, want in enumerate(row, start=1):
                assert fully_colored_unlabeled(s, m) == want

    def test_single_leaf_takes_any_color(self):
        for m in range(1, 7):
            assert fully_colored_unlabeled(1, m) == m

    def test_one_color_vanishes_beyond_one_leaf(self):
        for s in range(2, 8):
            assert fully_colored_unlabeled(s, 1) == 0
