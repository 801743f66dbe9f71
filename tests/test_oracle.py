"""Cross-checks between the formula-based counters and the brute-force
enumeration oracles at sizes small enough to enumerate exhaustively."""

import pytest

from seriesforge.bell import assoc_stirling2, derangement_count
from seriesforge.labeled import (
    DegreeSpec,
    a_polynomial,
    chain_increasing_count,
    count_mobiles,
    count_ultrametrics,
    mobile_counts,
    mobiles_polynomial,
    p_series,
    ultrametric_counts,
)
from seriesforge.oracle import (
    alternating_bell_poly,
    enum_chain_increasing,
    enum_labeled_trees,
    enum_mobiles,
    enum_ultrametrics,
    enum_unlabeled_trees,
    refined_polys_bell,
    set_partitions,
)
from seriesforge.unlabeled import refined_poly, refined_polys, unlabeled_count


def test_set_partitions_counts_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, want in enumerate(bell):
        assert sum(1 for _ in set_partitions(list(range(n)))) == want


class TestLabeledTreeOracle:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_counts(self, m):
        for s in range(1, 7):
            count, _ = enum_labeled_trees(s, m)
            assert count == count_ultrametrics(s, m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_weights_match_series_coefficients(self, m):
        p = p_series(DegreeSpec(m), 6)
        for s in range(1, 7):
            _, weight = enum_labeled_trees(s, m)
            assert weight == p[s], f"s={s} m={m}"

    def test_small_values(self):
        assert enum_labeled_trees(3, 2)[0] == 8
        assert enum_labeled_trees(4, 2)[0] == 52


class TestUltrametricOracle:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_counts(self, m):
        for s in range(1, 6):
            assert enum_ultrametrics(s, m) == count_ultrametrics(s, m)

    def test_examples(self):
        # 3 points, 2 symbols: all 8 assignments of the 3 pairs qualify
        assert enum_ultrametrics(3, 2) == 8
        assert enum_ultrametrics(4, 2) == 52
        assert enum_ultrametrics(5, 3) == 3933


class TestMobileOracle:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_counts(self, m):
        for s in range(1, 7):
            assert enum_mobiles(s, m) == count_mobiles(s, m)

    def test_one_color_cyclic_orders(self):
        # mobiles on one color reduce to (s-1)! cyclic arrangements
        assert enum_mobiles(4, 1) == 6
        assert enum_mobiles(5, 1) == 24


class TestUnlabeledOracle:
    def test_refined_counts(self):
        for s in range(1, 9):
            by_inner = enum_unlabeled_trees(s)
            poly = refined_poly(s)
            for k in range(0, s + 1):
                assert by_inner.get(k, 0) == poly[k], f"s={s} k={k}"
            assert sum(by_inner.values()) == unlabeled_count(s)


class TestChainIncreasingOracle:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_counts(self, m):
        for s in range(1, 8):
            assert enum_chain_increasing(s, m) == chain_increasing_count(s, m)

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

    @pytest.mark.parametrize("poly, seq", [
        (a_polynomial, derangement_count),
        (mobiles_polynomial, assoc_stirling2),
    ])
    def test_polynomial_prefix_matches_alternating_sum(self, poly, seq):
        for s in range(1, 13):
            assert poly(s) == alternating_bell_poly(s, seq), f"s={s}"

    def test_refined_polys_match_bell_recurrence(self):
        assert refined_polys(14) == refined_polys_bell(14)
