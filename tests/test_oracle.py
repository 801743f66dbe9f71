"""The brute-force enumeration oracles at a few values of their own (the
acceptance criteria check them against the formula modules); the labeled
prefix recurrences against the paper's alternating Bell sums, the chain
recurrence and sympy's series reversion; and refined_polys against the
paper's divisor-sum Bell recurrence."""

from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriesforge.labeled import (
    chain_increasing_counts,
    mobile_counts,
    process_counts,
    ultrametric_counts,
)
from seriesforge.oracle import (
    alternating_bell_polys,
    chain_increasing_recurrence,
    enum_chain_increasing,
    enum_labeled_trees,
    enum_mobiles,
    enum_ultrametrics,
    refined_polys_bell,
    set_partitions,
)
from seriesforge.rings import PolyVar
from seriesforge.unlabeled import refined_polys


def test_set_partitions_counts_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, want in enumerate(bell):
        assert sum(1 for _ in set_partitions(list(range(n)))) == want


class TestLabeledTreeOracle:
    def test_small_values(self):
        assert enum_labeled_trees(3, 2)[0] == 8
        assert enum_labeled_trees(4, 2)[0] == 52


class TestUltrametricOracle:
    def test_examples(self):
        # 3 points, 2 symbols: all 8 assignments of the 3 pairs qualify
        assert enum_ultrametrics(3, 2) == 8
        assert enum_ultrametrics(5, 3) == 3933


class TestMobileOracle:
    def test_one_color_cyclic_orders(self):
        # mobiles on one color reduce to (s-1)! cyclic arrangements
        assert enum_mobiles(4, 1) == 6
        assert enum_mobiles(5, 1) == 24


class TestChainIncreasingOracle:
    def test_example(self):
        assert enum_chain_increasing(3, 1) == 8


# each labeled prefix beside its alternating sum, p_s for s = 1..20: x =
# (0, 1!, 2!, ...) for the ultrametrics, (0, 1, 1, ...) for the mobiles
PAPER_ROUTES = [
    (ultrametric_counts, alternating_bell_polys(20, [0] + [factorial(i) for i in range(1, 20)])),
    (mobile_counts, alternating_bell_polys(20, [0] + [1] * 19)),
]
ROUTE_IDS = ["ultrametric_counts-derangement_count", "mobile_counts-assoc_stirling2"]


class TestPaperFormulaOracles:
    """The prefix recurrences against the paper's formula routes."""

    @pytest.mark.parametrize("counts, polys", PAPER_ROUTES, ids=ROUTE_IDS)
    def test_integer_prefix_matches_alternating_sum(self, counts, polys):
        for m in range(1, 9):
            assert counts(20, m) == [p.eval_at(m) for p in polys], f"m={m}"

    @pytest.mark.parametrize("counts, polys", PAPER_ROUTES, ids=ROUTE_IDS)
    def test_polynomial_prefix_matches_alternating_sum(self, counts, polys):
        assert counts(12, PolyVar.gen("m")) == polys[:12]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(9, 10 ** 6))
    def test_many_colors_match_paper_routes(self, s, m):
        for counts, polys in PAPER_ROUTES:
            assert counts(s, m) == [p.eval_at(m) for p in polys[:s]]
        assert chain_increasing_counts(s, m) == chain_increasing_recurrence(s, m)

    def test_refined_polys_match_bell_recurrence(self):
        assert refined_polys(14) == refined_polys_bell(14)


class TestSympySeriesReversion:
    """The labeled prefix recurrence, read at m and at 1 - m, against
    sympy's series reversion over Q[t]: the count for s is s! [t^s] of the
    inverse series."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_prefix_recurrences_match_reversion(self, m):
        pytest.importorskip("sympy")
        from sympy import QQ
        from sympy.polys.ring_series import rs_exp, rs_log, rs_series_reversion
        from sympy.polys.rings import ring

        n = 25
        _, t, y = ring("t,y", QQ)

        def reversion_counts(f):
            inverse = rs_series_reversion(f, t, n + 1, y)
            return [factorial(s) * inverse.coeff(y ** s) for s in range(1, n + 1)]

        trees = reversion_counts((1 - m) * t + m * rs_log(1 + t, t, n + 1))
        assert ultrametric_counts(n, m) == trees
        assert chain_increasing_counts(n, m - 1) == trees
        if m == 3:
            assert process_counts(n) == trees
        mobiles = reversion_counts((1 - m) * t + m * (1 - rs_exp(-t, t, n + 1)))
        assert mobile_counts(n, m) == mobiles
