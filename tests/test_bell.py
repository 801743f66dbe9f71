import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seriesforge.bell import bell_row
from seriesforge.egf import QQ, ZZ, bell_inverse_recursive, bell_product
from seriesforge.oracle import (
    assoc_stirling2,
    bell_inverse_closed,
    bell_partial,
    bell_partial_partition_sum,
    derangement_count,
    enum_derangements,
    enum_set_partitions_min_block,
    make_named,
    set_partitions,
    stirling2,
)


def rational_seq(values):
    return tuple(Fraction(v) for v in values)


def identity(order):
    """The sequence (1, 0, 0, ...): identity of the composition group."""
    return (Fraction(1),) + (Fraction(0),) * (order - 1)


class TestBellPartial:
    def test_single_block(self):
        x = [3, 1, 4, 1, 5]
        for n in range(1, 6):
            assert bell_partial(n, 1, x, ZZ) == x[n - 1]

    def test_4_2_symbolic(self):
        # B_{4,2} = 3 x_2^2 + 4 x_1 x_3, from partitioning {1,2,3,4}
        # into 2 blocks
        for x1, x2, x3 in [(1, 2, 3), (5, 7, 11), (-2, 0, 4)]:
            expected = 0
            for part in set_partitions([1, 2, 3, 4]):
                if len(part) != 2:
                    continue
                term = 1
                for block in part:
                    term *= (x1, x2, x3)[len(block) - 1]
                expected += term
            assert expected == 3 * x2 ** 2 + 4 * x1 * x3
            assert bell_partial(4, 2, [x1, x2, x3], ZZ) == expected

    def test_zero_parts(self):
        assert bell_partial(0, 0, [], ZZ) == 1
        assert bell_partial(3, 0, [1, 1, 1], ZZ) == 0

    def test_out_of_range_k(self):
        assert bell_partial(2, 5, [1, 1], ZZ) == 0

    def test_all_ones_is_stirling2(self):
        # against a direct set-partition counter
        for n in range(1, 9):
            for k in range(1, n + 1):
                direct = sum(
                    1 for p in set_partitions(list(range(n))) if len(p) == k
                )
                assert stirling2(n, k) == direct

    def test_matches_partition_sum_definition(self):
        x = [Fraction(v) for v in (1, -2, 3, 5, -1, 2, 4, 1)]
        rows = [[QQ.one]]
        for _ in range(8):
            bell_row(rows, x, QQ.dot)
        for n in range(9):
            for k in range(n + 1):
                want = bell_partial_partition_sum(n, k, x, QQ)
                assert bell_partial(n, k, x, QQ) == want
                assert rows[n][k] == want

    def test_deep_column_needs_no_recursion(self):
        # a band of width 1 but k = 1099 columns
        assert stirling2(1100, 1099) == math.comb(1100, 2)


class TestBellProduct:
    def test_identity_both_sides(self):
        x = rational_seq([2, -1, 3, 5, 7])
        e = identity(5)
        assert bell_product(x, e, QQ) == x
        assert bell_product(e, x, QQ) == x

    def test_matches_series_composition(self):
        # t^2/2! composed with e^t - 1 gives (e^t - 1)^2 / 2
        half_sq = rational_seq([0, 1] + [0] * 6)
        expm1 = make_named("exp_minus_one", 8).tail()
        prod = bell_product(half_sq, expm1, QQ)
        direct = make_named("exp_minus_one", 8)
        direct = (direct * direct).scale(Fraction(1, 2))
        assert prod == direct.coeffs[1:]
        assert prod[2] == 3


small_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def seqs(order, unit_lead=False):
    lead = st.just(Fraction(1)) if unit_lead else small_rational.filter(lambda v: v != 0)
    return st.tuples(
        lead, st.lists(small_rational, min_size=order - 1, max_size=order - 1)
    ).map(lambda t: (t[0], *t[1]))


@settings(max_examples=40, deadline=None)
@given(seqs(7), seqs(7), seqs(7))
def test_bell_product_associative(x, y, z):
    lhs = bell_product(bell_product(x, y, QQ), z, QQ)
    rhs = bell_product(x, bell_product(y, z, QQ), QQ)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(seqs(7), seqs(7), seqs(7))
def test_left_distributivity(f, g, h):
    def add(a, b):
        return tuple(u + v for u, v in zip(a, b))

    lhs = bell_product(add(f, g), h, QQ)
    rhs = add(bell_product(f, h, QQ), bell_product(g, h, QQ))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(seqs(7))
def test_group_inverse_two_sided(x):
    inv = bell_inverse_recursive(x, QQ)
    e = identity(len(x))
    assert bell_product(x, inv, QQ) == e
    assert bell_product(inv, x, QQ) == e


@settings(max_examples=50, deadline=None)
@given(seqs(8, unit_lead=True))
def test_closed_equals_recursive(x):
    assert bell_inverse_closed(x, QQ) == bell_inverse_recursive(x, QQ)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=9))
def test_forest_table_gives_the_table_over_t_plus_v(tail):
    # v = (0, v_2, ..., v_N): B_{q,j}(v) = 0 for 2j > q, and
    # B_{n,k}(t + v) = sum_j C(n, k-j) B_{n-k+j,j}(v), only j = 1..min(k, n-k)
    # left for k < n; labeled.p_series reads its table over u_1 = t + v so
    v = [0] + tail
    u = [1] + tail
    over_v, over_u = [[1]], [[1]]
    for _ in v:
        bell_row(over_v, v, ZZ.dot)
        bell_row(over_u, u, ZZ.dot)
    for q, row in enumerate(over_v):
        assert all(row[j] == 0 for j in range(q + 1) if 2 * j > q)
    for n, row in enumerate(over_u):
        for k in range(n + 1):
            assert row[k] == sum(math.comb(n, k - j) * over_v[n - k + j][j]
                                 for j in range(k + 1))
            if 1 <= k < n:
                assert row[k] == sum(math.comb(n, k - j) * over_v[n - k + j][j]
                                     for j in range(1, min(k, n - k) + 1))
        assert row[n] == 1


def unfolded_table(y, size):
    """B_{n,k}(y) for n = 0..size by the unfolded recurrence B_{n,k} =
    sum_i C(n-1, i-1) y_i B_{n-i,k-1}, every i in turn, entries of y past
    its end counting as zero."""
    at = [0] + list(y) + [0] * size
    table = [[1]]
    for n in range(1, size + 1):
        table.append([0] + [sum(math.comb(n - 1, i - 1) * at[i] * table[n - i][k - 1]
                                for i in range(1, n - k + 2))
                            for k in range(1, n + 1)])
    return table


@settings(max_examples=80, deadline=None)
@given(st.integers(-9, 9).filter(bool), st.lists(st.integers(-9, 9), min_size=1, max_size=9),
       st.integers(1, 5))
def test_folded_column_two_matches_the_unfolded_recurrence(y1, tail, past_the_end):
    # column 2 pairs i with n - i, C(n-1, i-1) + C(n-1, n-i-1) = C(n, i),
    # and keeps the middle term of an even n alone; every table holds
    # n = 2 and 3 and rows past the end of y
    y = [y1] + tail
    rows = [[1]]
    for _ in range(len(y) + past_the_end):
        bell_row(rows, y, ZZ.dot)
    assert rows == unfolded_table(y, len(y) + past_the_end)


class TestInversion:
    def test_expm1_gives_log1p(self):
        x = make_named("exp_minus_one", 8).tail()
        expected = make_named("log1p", 8).coeffs[1:]
        assert bell_inverse_recursive(x, QQ) == expected
        assert bell_inverse_closed(x, QQ) == expected

    def test_neg_log_gives_one_minus_exp_neg(self):
        x = make_named("neg_log_one_minus", 8).tail()
        expected = make_named("one_minus_exp_neg", 8).coeffs[1:]
        assert bell_inverse_recursive(x, QQ) == expected
        assert bell_inverse_closed(x, QQ) == expected

    def test_identity_self_inverse(self):
        e = identity(6)
        assert bell_inverse_recursive(e, QQ) == e
        assert bell_inverse_closed(e, QQ) == e

    def test_scaling(self):
        x = rational_seq([2, 0, 0, 0])
        expected = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0))
        assert bell_inverse_recursive(x, QQ) == expected
        assert bell_inverse_closed(x, QQ) == expected

    def test_nonunit_lead_over_integer_ring(self):
        with pytest.raises(ArithmeticError):
            bell_inverse_recursive((2, 1), ZZ)


class TestSpecialCounts:
    @pytest.mark.parametrize("n,k,expected", [(2, 1, 1), (3, 1, 2), (4, 2, 3)])
    def test_derangement_examples(self, n, k, expected):
        assert derangement_count(n, k) == expected

    def test_derangement_against_enumeration(self):
        for n in range(8):
            for k in range(n + 1):
                assert derangement_count(n, k) == enum_derangements(n, k)

    def test_derangement_totals(self):
        # sum over k equals the inclusion-exclusion total
        for n in range(1, 10):
            total = sum(derangement_count(n, k) for k in range(n + 1))
            incl_excl = sum(
                (-1) ** i * math.factorial(n) // math.factorial(i) for i in range(n + 1)
            )
            assert total == incl_excl

    @pytest.mark.parametrize("n,k,expected", [(2, 1, 1), (4, 2, 3), (3, 2, 0)])
    def test_assoc_stirling2_examples(self, n, k, expected):
        assert assoc_stirling2(n, k) == expected

    def test_assoc_stirling2_against_enumeration(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert assoc_stirling2(n, k) == enum_set_partitions_min_block(n, k, 2)
