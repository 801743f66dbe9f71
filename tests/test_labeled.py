from fractions import Fraction
from math import comb

import pytest

from seriesforge import reference
from seriesforge.labeled import (
    DegreeSpec,
    a_polynomial,
    chain_increasing_count,
    chain_increasing_polynomial,
    count_fully_colored_labeled,
    count_mobiles,
    count_processes,
    count_ultrametrics,
    mobile_counts,
    mobiles_polynomial,
    p_series,
    ultrametric_counts,
    ultrametric_series_polynomials,
)
from seriesforge.oracle import (
    chain_increasing_recurrence,
    mobiles_series_polynomials,
    p_closed_form,
    p_series_by_color_recursion,
    verify_integral_relation,
)
from seriesforge.rings import PolyVar
from seriesforge.weights import WeightPoly

x = WeightPoly.gen


def expected_p2():
    """Weighted coefficients for two colors through five leaves."""
    return {
        1: WeightPoly.const(1),
        2: x(1, 2) + x(2, 2),
        3: x(1, 3) + x(2, 3) + 6 * x(1, 2) * x(2, 2),
        4: (
            x(1, 4) + x(2, 4)
            + 10 * (x(1, 3) * x(2, 2) + x(2, 3) * x(1, 2))
            + 15 * (x(1, 2) * x(1, 2) * x(2, 2) + x(1, 2) * x(2, 2) * x(2, 2))
        ),
        5: (
            x(1, 5) + x(2, 5)
            + 20 * x(1, 3) * x(2, 3)
            + 15 * (
                x(1, 4) * x(2, 2) + x(2, 4) * x(1, 2)
                + x(2, 2) * x(1, 2) * x(1, 2) * x(1, 2)
                + x(2, 2) * x(2, 2) * x(2, 2) * x(1, 2)
            )
            + 45 * (x(2, 3) * x(1, 2) * x(1, 2) + x(1, 3) * x(2, 2) * x(2, 2))
            + 60 * (
                x(1, 3) * x(2, 2) * x(1, 2) + x(2, 2) * x(2, 3) * x(1, 2)
            )
            + 180 * x(2, 2) * x(2, 2) * x(1, 2) * x(1, 2)
        ),
    }


def expected_p3():
    """Weighted coefficients for three colors through four leaves."""
    pairs = [(1, 2), (1, 3), (2, 3)]
    s3 = x(1, 3) + x(2, 3) + x(3, 3)
    for a, b in pairs:
        s3 = s3 + 6 * x(a, 2) * x(b, 2)
    s4 = x(1, 4) + x(2, 4) + x(3, 4)
    for a, b in pairs:
        s4 = s4 + 15 * (x(a, 2) * x(a, 2) * x(b, 2) + x(a, 2) * x(b, 2) * x(b, 2))
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a != b:
                s4 = s4 + 10 * x(a, 3) * x(b, 2)
    s4 = s4 + 90 * x(1, 2) * x(2, 2) * x(3, 2)
    return {
        1: WeightPoly.const(1),
        2: x(1, 2) + x(2, 2) + x(3, 2),
        3: s3,
        4: s4,
    }


class TestPSeries:
    def test_one_color_single_monomials(self):
        p = p_series(DegreeSpec(1), 6)
        assert p[1] == WeightPoly.const(1)
        for s in range(2, 7):
            assert p[s] == x(1, s)

    def test_two_colors_matches_printed_expansion(self):
        p = p_series(DegreeSpec(2), 5)
        for s, want in expected_p2().items():
            assert p[s] == want, f"s={s}"

    def test_three_colors_matches_printed_expansion(self):
        p = p_series(DegreeSpec(3), 4)
        for s, want in expected_p3().items():
            assert p[s] == want, f"s={s}"

    def test_color_recursion_base_cases(self):
        p = p_series_by_color_recursion(DegreeSpec(2), 3)
        assert p[1] == WeightPoly.const(1)
        assert p[3] == expected_p2()[3]

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_must_be_positive(self, order):
        with pytest.raises(ValueError, match="order"):
            p_series(DegreeSpec(2), order)

    @pytest.mark.parametrize("args, match", [((0,), "m must be >= 1")])
    def test_spec_rejects_bad_input(self, args, match):
        with pytest.raises(ValueError, match=match):
            DegreeSpec(*args)

    def test_closed_form_base(self):
        assert p_closed_form(DegreeSpec(4), 1) == WeightPoly.const(1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_triple_agreement(self, m):
        order = 6
        p1 = p_series(DegreeSpec(m), order)
        p2 = p_series_by_color_recursion(DegreeSpec(m), order)
        for s in range(1, order + 1):
            assert p1[s] == p2[s]
            assert p1[s] == p_closed_form(DegreeSpec(m), s)

    def test_degree_mass_invariant(self):
        # every monomial of the s-leaf coefficient carries total mass s - 1
        p = p_series(DegreeSpec(3), 6)
        for s in range(2, 7):
            assert p[s].degree_mass() == {s - 1}

    def test_specialize_ones_gives_tree_counts(self):
        p = p_series(DegreeSpec(3), 6)
        for s in range(1, 7):
            assert p[s].substitute(lambda c, k: 1) == count_ultrametrics(s, 3)

    def test_specialize_factorials_gives_mobiles(self):
        import math

        p = p_series(DegreeSpec(2), 6)
        for s in range(1, 7):
            got = p[s].substitute(lambda c, k: math.factorial(k - 1))
            assert got == count_mobiles(s, 2)


class TestUltrametrics:
    def test_table_values(self):
        for m, row in reference.ULTRAMETRIC_TABLE.items():
            for s, want in enumerate(row, start=1):
                assert count_ultrametrics(s, m) == want

    def test_polynomials_match_reference(self):
        for s, coeffs in reference.A_POLYNOMIALS.items():
            assert a_polynomial(s) == PolyVar(coeffs, "m")

    def test_polynomial_evaluation_consistent(self):
        for s in range(1, 9):
            p = a_polynomial(s)
            for m in range(1, 9):
                assert p.eval_at(m) == count_ultrametrics(s, m)

    def test_series_inversion_route_agrees(self):
        polys = ultrametric_series_polynomials(8)
        for s in range(1, 9):
            assert polys[s - 1] == a_polynomial(s)

    @pytest.mark.parametrize("m, up_to_s", [
        (1, 150), (2, 150), (3, 150), (8, 150), (PolyVar.gen("m"), 30),
    ], ids=["1", "2", "3", "8", "m"])
    def test_folded_sum_matches_the_full_sum(self, m, up_to_s):
        # the unfolded recurrence over i = 1..n; the prefix covers odd n,
        # where the middle term p_j^2 stands alone, and even n alike
        p = [None, m * 0 + 1]
        for n in range(1, up_to_s):
            acc = sum(comb(n, i) * p[i] * p[n + 1 - i] for i in range(1, n + 1))
            p.append(p[n] - (1 - m) * acc)
        assert ultrametric_counts(up_to_s, m) == p[1:]

    def test_one_color_row_all_ones(self):
        assert all(count_ultrametrics(s, 1) == 1 for s in range(1, 12))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            count_ultrametrics(0, 2)
        with pytest.raises(ValueError):
            count_ultrametrics(3, 0)


class TestFullyColored:
    def test_table_values(self):
        for m, row in reference.FULLY_COLORED_LABELED_TABLE.items():
            for s, want in enumerate(row, start=1):
                assert count_fully_colored_labeled(s, m) == want

    def test_single_leaf_takes_any_color(self):
        for m in range(1, 7):
            assert count_fully_colored_labeled(1, m) == m

    def test_one_color_vanishes_beyond_one_leaf(self):
        for s in range(2, 8):
            assert count_fully_colored_labeled(s, 1) == 0


class TestMobiles:
    def test_table_values(self):
        for m, row in reference.MOBILES_TABLE.items():
            for s, want in enumerate(row, start=1):
                assert count_mobiles(s, m) == want

    def test_one_color_gives_factorials(self):
        import math

        for s in range(1, 9):
            assert count_mobiles(s, 1) == math.factorial(s - 1)
        # m = 1 reads the reduced recurrence at the point 1 - m = 0
        assert mobile_counts(300, 1) == [math.factorial(s - 1) for s in range(1, 301)]

    def test_series_inversion_route_agrees(self):
        polys = mobiles_series_polynomials(60)
        for s in range(1, 31):
            assert polys[s - 1] == mobiles_polynomial(s)
        for s in range(1, 9):
            for m in range(1, 9):
                assert polys[s - 1].eval_at(m) == count_mobiles(s, m)
        for m in (1, 2, 3, 8, 10**6):
            assert mobile_counts(60, m) == [p.eval_at(m) for p in polys]


class TestIntegralRelation:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_holds(self, m):
        assert verify_integral_relation(m, 10)

    def test_one_color_is_exponential(self):
        from seriesforge.oracle import labeled_series

        series = labeled_series(1, 8)
        assert all(series[n] == Fraction(1) for n in range(1, 9))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            verify_integral_relation(0, 10)


class TestChainIncreasing:
    def test_three_chains_polynomial(self):
        assert chain_increasing_polynomial(3) == PolyVar([1, 4, 3], "m")

    def test_values(self):
        assert chain_increasing_count(3, 1) == 8
        assert chain_increasing_count(4, 2) == 243
        assert chain_increasing_count(1, 5) == 1

    def test_zero_colors_only_the_chain(self):
        for s in range(1, 8):
            assert chain_increasing_count(s, 0) == 1

    def test_shift_identity_with_tree_counts(self):
        # production reads y_s(m) as a_s(m + 1); the chain recurrence checks it
        shift = PolyVar([-1, 1], "m")  # m - 1
        chains = chain_increasing_recurrence(10, PolyVar.gen("m"))
        for s in range(1, 11):
            assert chains[s - 1].compose(shift) == a_polynomial(s)
            assert chains[s - 1] == chain_increasing_polynomial(s)


class TestProcesses:
    def test_examples(self):
        assert count_processes(1) == 1
        assert count_processes(3) == 21
        assert count_processes(5) == 3933

    def test_equals_three_symbol_counts(self):
        for s in range(1, 9):
            assert count_processes(s) == count_ultrametrics(s, 3)
            assert count_processes(s) == chain_increasing_count(s, 2)
