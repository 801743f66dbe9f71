"""Cross-checks between the formula-based counters and the brute-force
enumeration oracles at sizes small enough to enumerate exhaustively."""

from functools import lru_cache
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
    alternating_bell_poly,
    assoc_stirling2,
    chain_increasing_recurrence,
    derangement_count,
    enum_chain_increasing,
    enum_labeled_trees,
    enum_mobiles,
    enum_ultrametrics,
    refined_polys_bell,
    refined_polys_substituted,
    set_partitions,
)
from seriesforge.rings import PolyVar
from seriesforge.unlabeled import (
    multipartite_unlabeled_counts,
    refined_polys,
    unlabeled_counts,
)


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
        assert enum_ultrametrics(4, 2) == 52
        assert enum_ultrametrics(5, 3) == 3933


class TestMobileOracle:
    def test_one_color_cyclic_orders(self):
        # mobiles on one color reduce to (s-1)! cyclic arrangements
        assert enum_mobiles(4, 1) == 6
        assert enum_mobiles(5, 1) == 24


def substituted_multipartite(up_to_s, m):
    """m r_s(m - 1) from the substitution route, r_s = a_s / t."""
    polys = refined_polys_substituted(up_to_s)
    return [m * 0 + 1] + [m * p.shift_down().eval_at(m - 1) for p in polys[1:]]


@lru_cache(maxsize=None)
def substituted_polynomials_in_m(up_to_s):
    return substituted_multipartite(up_to_s, PolyVar.gen("m"))


class TestUnlabeledLevelTable:
    """The level table behind the unlabeled families, over the integers and
    over Z[m], against the substitution route to the refinement
    polynomials evaluated at the same point."""

    def test_unlabeled_counts_match_refined_polys(self):
        assert unlabeled_counts(60) == [p.eval_at(1) for p in refined_polys_substituted(60)]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_multipartite_counts_match_refined_polys(self, m):
        assert multipartite_unlabeled_counts(40, m) == substituted_multipartite(40, m)

    def test_polynomials_in_m_match_refined_polys(self):
        m = PolyVar.gen("m")
        assert multipartite_unlabeled_counts(30, m) == substituted_multipartite(30, m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 25), st.integers(9, 10 ** 6))
    def test_many_colors_match_polynomial_in_m(self, s, m):
        # large m makes the deep levels a_n(t0^j) big
        want = substituted_polynomials_in_m(25)[s - 1].eval_at(m)
        assert multipartite_unlabeled_counts(s, m)[-1] == want


class TestChainIncreasingOracle:
    def test_example(self):
        assert enum_chain_increasing(3, 1) == 8


class TestPaperFormulaOracles:
    """The prefix recurrences against the paper's formula routes."""

    @pytest.mark.parametrize("counts, seq", [
        (ultrametric_counts, derangement_count),
        (mobile_counts, assoc_stirling2),
    ])
    def test_integer_prefix_matches_alternating_sum(self, counts, seq):
        polys = [alternating_bell_poly(s, seq) for s in range(1, 21)]
        for m in range(1, 9):
            assert counts(20, m) == [p.eval_at(m) for p in polys], f"m={m}"

    @pytest.mark.parametrize("counts, seq", [
        (ultrametric_counts, derangement_count),
        (mobile_counts, assoc_stirling2),
    ])
    def test_polynomial_prefix_matches_alternating_sum(self, counts, seq):
        polys = counts(12, PolyVar.gen("m"))
        for s in range(1, 13):
            assert polys[s - 1] == alternating_bell_poly(s, seq), f"s={s}"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(9, 10 ** 6))
    def test_many_colors_match_paper_routes(self, s, m):
        for counts, seq in ((ultrametric_counts, derangement_count),
                            (mobile_counts, assoc_stirling2)):
            want = [alternating_bell_poly(k, seq).eval_at(m) for k in range(1, s + 1)]
            assert counts(s, m) == want
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
