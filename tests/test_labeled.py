import inspect
import random
import tracemalloc
from fractions import Fraction
from math import comb
from unittest import mock

import pytest

import seriesforge
from seriesforge import weights
from seriesforge.labeled import (
    chain_increasing_counts,
    fully_colored_labeled_counts,
    mobile_counts,
    p_series,
    process_counts,
    ultrametric_counts,
    ultrametric_series_polynomials,
)
from seriesforge.oracle import (
    mobiles_series_polynomials,
    p_closed_form,
    p_series_by_color_recursion,
    p_series_by_inversion,
    verify_integral_relation,
)
from seriesforge.rings import PolyVar
from seriesforge.weights import WeightPoly

from scale_check import random_point_problem

M = PolyVar.gen("m")


def ode_reduced(up_to_s, m):
    """[r_2, ..., r_up_to_s] from the ODE (1 + (1-m)P) P' = 1 + P of the
    ultrametric EGF P = t + sum_s m r_s t^s/s!, term by term over i = 1..n
    of p_{n+1} = p_n - (1-m) sum_i C(n,i) p_i p_{n+1-i}, divided by m."""
    r = [None, None, m * 0 + 1]
    for n in range(2, up_to_s):
        acc = (n + 1) * r[n] + m * sum(
            comb(n, i) * r[i] * r[n + 1 - i] for i in range(2, n))
        r.append(r[n] - (1 - m) * acc)
    return r[2:up_to_s + 1]


class TestPSeries:
    @pytest.mark.parametrize("order", [0, -2])
    def test_order_must_be_positive(self, order):
        with pytest.raises(ValueError, match="order"):
            p_series(2, order)

    @pytest.mark.parametrize("args, match", [((0, 3), "m must be >= 1"),
                                             ((-1, 3), "m must be >= 1")])
    def test_spec_rejects_bad_input(self, args, match):
        with pytest.raises(ValueError, match=match):
            p_series(*args)

    @pytest.mark.parametrize("m", [0.5, 1.5, 2.0, "2", None])
    def test_spec_rejects_a_color_count_that_is_not_an_int(self, m):
        with pytest.raises(TypeError, match="m must be an int"):
            p_series(m, 3)

    def test_closed_form_base(self):
        assert p_closed_form(4, 1) == WeightPoly.const(1)

    @pytest.mark.parametrize("m, order", [(1, 10), (2, 10), (3, 10), (4, 9)])
    def test_matches_the_inversion_and_the_per_color_tables(self, m, order):
        p = p_series(m, order)
        assert p == p_series_by_inversion(m, order)
        per_color = p_series_by_color_recursion(m, order)
        assert list(p) == [per_color[s] for s in range(order + 1)]

    @pytest.mark.parametrize("m, order", [(2, 9), (3, 9), (4, 8)])
    def test_any_registry_layout(self, m, order):
        # the color swap must not rely on the fields of a color being
        # contiguous, nor p_series on its degree-major fields, which only
        # make it faster: fill the registry color-major or in shuffled
        # order, or let a smaller call take the first fields, and compare
        # with both oracle routes
        by_color = [(c, k) for c in range(1, m + 1) for k in range(2, order + 1)]
        variables = random.Random(m).sample(by_color, len(by_color))
        layouts = {
            "color-major": lambda: [WeightPoly.gen(c, k) for c, k in by_color],
            "shuffled": lambda: [WeightPoly.gen(c, k) for c, k in variables],
            "smaller call first": lambda: p_series(m, order // 2),
            "colour 1 only": lambda: [WeightPoly.gen(1, k) for k in range(order + 2, 1, -1)],
        }
        for name, fill in layouts.items():
            with mock.patch.object(weights, "_FIELDS", {}):
                fill()
                p = p_series(m, order)
                assert p == p_series_by_inversion(m, order), name
                per_color = p_series_by_color_recursion(m, order)
                assert list(p) == [per_color[s] for s in range(order + 1)], name

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_short_orders_match_the_per_color_tables(self, m, order):
        # order 1 builds no Bell row, and at order 2 the one row built is
        # also the last, whose table is released before its swaps
        per_color = p_series_by_color_recursion(m, order)
        assert p_series(m, order) == tuple(per_color[s] for s in range(order + 1))

    def test_peak_memory_is_a_small_multiple_of_the_result(self):
        # p_series holds each coefficient once: the color orbit is summed
        # into one dict, the last Bell row is never stored, the table is
        # released before the last orbit and P_n is made in v_n's dict, so
        # the peak of the call stays a small multiple of what its result
        # holds: about 1.8 times at (3, 11) and 1.5 times at (6, 7), where
        # the orbit has 5 exchanges.  Each bound fails without one of the
        # three: with the last row stored, 2.04 at (3, 11); with P built
        # beside t1 and v, 2.3 and 1.9; with the exchanges summed by
        # copies, 2.4 and 2.1.  A ratio of two sizes, so that it holds on
        # every Python
        for m, order, bound in ((3, 11, 1.9), (6, 7, 1.6)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                p = p_series(m, order)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(p) == order + 1
            ratio = (peak - before) / (held - before)
            assert ratio < bound, (m, order, ratio)
            del p

    def test_degree_mass_invariant(self):
        # every monomial of the s-leaf coefficient carries total mass s - 1
        p = p_series(3, 6)
        for s in range(2, 7):
            assert p[s].degree_mass() == {s - 1}

    def test_specialize_ones_gives_tree_counts(self):
        p = p_series(3, 6)
        counts = ultrametric_counts(6, 3)
        for s in range(1, 7):
            assert p[s].substitute(lambda c, k: 1) == counts[s - 1]

    def test_specialize_factorials_gives_mobiles(self):
        import math

        p = p_series(2, 6)
        counts = mobile_counts(6, 2)
        for s in range(1, 7):
            got = p[s].substitute(lambda c, k: math.factorial(k - 1))
            assert got == counts[s - 1]


class TestPSeriesAtARandomPoint:
    # a term moved onto its colour-relabelled image fails this check:
    # tests/test_scale_check.py
    @pytest.mark.parametrize("m, order", [(3, 13), (4, 11)])
    def test_matches_the_root_color_system(self, m, order):
        coeffs = [c.to_jsonable() for c in p_series(m, order)]
        seed = random.randrange(2 ** 32)
        problem = random_point_problem(m, order, coeffs, seed)
        assert problem is None, problem


class TestUltrametrics:
    def test_polynomial_evaluation_consistent(self):
        polys = ultrametric_counts(8, M)
        for m in range(1, 9):
            assert [p.eval_at(m) for p in polys] == ultrametric_counts(8, m)

    def test_polynomials_keep_the_name_of_their_variable(self):
        # equality ignores the name, so only the repr sees a lost one
        assert repr(ultrametric_counts(3, PolyVar.gen("k"))[-1]) == "-2*k + 3*k^2"

    def test_series_inversion_route_agrees(self):
        assert ultrametric_series_polynomials(8) == ultrametric_counts(8, M)

    @pytest.mark.parametrize("m, up_to_s", [
        (1, 300), (2, 300), (3, 300), (8, 300),
        (M, 30), (M + 1, 30), (1 - M, 30), (2 * M + 3, 30),
    ], ids=["1", "2", "3", "8", "m", "m+1", "1-m", "2m+3"])
    def test_folded_sum_matches_the_full_sum(self, m, up_to_s):
        # ODE recurrence vs production: the m-free derangement rows, each
        # evaluated at the point, give the counts the full convolution gives
        assert ultrametric_counts(up_to_s, m) == [m * 0 + 1] + [
            m * r for r in ode_reduced(up_to_s, m)]

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_shifted_points_match_the_ode_recurrence(self, m):
        # the CLI reads the mobiles at 1 - m (0 for m = 1) and the
        # chain-increasing trees at m + 1
        assert mobile_counts(120, m) == [1] + [
            (-1) ** s * m * r for s, r in enumerate(ode_reduced(120, 1 - m), start=2)]
        assert chain_increasing_counts(120, m) == [1] + [
            (m + 1) * r for r in ode_reduced(120, m + 1)]

    def test_one_color_row_all_ones(self):
        assert ultrametric_counts(11, 1) == [1] * 11

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ultrametric_counts(0, 2)
        with pytest.raises(ValueError):
            ultrametric_counts(3, 0)


class TestFullyColored:
    def test_single_leaf_takes_any_color(self):
        for m in range(1, 7):
            assert fully_colored_labeled_counts(1, m) == [m]

    def test_one_color_vanishes_beyond_one_leaf(self):
        assert fully_colored_labeled_counts(7, 1)[1:] == [0] * 6

    def test_polynomials_in_m_match_the_counts(self):
        polys = fully_colored_labeled_counts(10, M)
        assert polys[0] == M
        for m in range(1, 7):
            assert [p.eval_at(m) for p in polys] == fully_colored_labeled_counts(10, m)


class TestMobiles:
    def test_one_color_gives_factorials(self):
        import math

        assert mobile_counts(8, 1) == [math.factorial(s - 1) for s in range(1, 9)]
        # m = 1 reads the reduced recurrence at the point 1 - m = 0
        assert mobile_counts(300, 1) == [math.factorial(s - 1) for s in range(1, 301)]

    def test_series_inversion_route_agrees(self):
        polys = mobiles_series_polynomials(60)
        assert mobile_counts(30, M) == polys[:30]
        for m in range(1, 9):
            assert mobile_counts(8, m) == [p.eval_at(m) for p in polys[:8]]
        for m in (1, 2, 3, 8, 10**6):
            assert mobile_counts(60, m) == [p.eval_at(m) for p in polys]


class TestIntegralRelation:
    def test_one_color_is_exponential(self):
        from seriesforge.oracle import labeled_series

        series = labeled_series(1, 8)
        assert all(series[n] == Fraction(1) for n in range(1, 9))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            verify_integral_relation(0, 10)


class TestChainIncreasing:
    def test_values(self):
        assert chain_increasing_counts(3, 1)[-1] == 8
        assert chain_increasing_counts(4, 2)[-1] == 243
        assert chain_increasing_counts(1, 5) == [1]

    def test_zero_colors_only_the_chain(self):
        assert chain_increasing_counts(7, 0) == [1] * 7


class TestProcesses:
    def test_examples(self):
        counts = process_counts(5)
        assert (counts[0], counts[2], counts[4]) == (1, 21, 3933)

    def test_equals_three_symbol_counts(self):
        assert process_counts(8) == ultrametric_counts(8, 3)
        assert process_counts(8) == chain_increasing_counts(8, 2)


# a_1..a_3 = 1, m, 3m^2 - 2m, and each family's first three terms from them
SHORT_PREFIXES = {
    "ultrametric": (ultrametric_counts, lambda m: [1, m, 3 * m * m - 2 * m]),
    "fully-colored": (fully_colored_labeled_counts,
                      lambda m: [m, (m - 1) ** 2 * m, (m - 1) ** 3 * (3 * m * m - 2 * m)]),
    "mobile": (mobile_counts, lambda m: [1, m, 3 * m * m - m]),
    "chain-increasing": (chain_increasing_counts,
                         lambda m: [1, m + 1, 3 * m * m + 4 * m + 1]),
}


class TestShortPrefixes:
    @pytest.mark.parametrize("up_to_s", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 5, M], ids=["2", "5", "m"])
    @pytest.mark.parametrize("family", list(SHORT_PREFIXES))
    def test_length_and_values(self, family, m, up_to_s):
        fn, first = SHORT_PREFIXES[family]
        counts = fn(up_to_s, m)
        assert counts == first(m)[:up_to_s]
        assert all(type(c) is type(m) for c in counts)

    @pytest.mark.parametrize("up_to_s", [1, 2, 3])
    def test_edge_points(self, up_to_s):
        assert chain_increasing_counts(up_to_s, 0) == [1, 1, 1][:up_to_s]
        assert mobile_counts(up_to_s, 1) == [1, 1, 2][:up_to_s]
        assert process_counts(up_to_s) == [1, 3, 21][:up_to_s]


# every function of the documented API: each prefix, refined_polys and p_series
API_FUNCTIONS = [getattr(seriesforge, name) for name in seriesforge.__all__
                 if inspect.isfunction(getattr(seriesforge, name))]


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("fn", API_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_api_rejects_a_bool_or_float_argument(fn, bad):
    # True would count as m = 1 and 2.0 would be computed in float
    # arithmetic, so either one in any argument is a TypeError
    good = [3, 2][:len(inspect.signature(fn).parameters)]
    for i in range(len(good)):
        with pytest.raises(TypeError):
            fn(*good[:i], bad, *good[i + 1:])
