import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seriesforge.egf import QQ, ExpSeries, poly_ring
from seriesforge.labeled import p_series
from seriesforge.oracle import WEIGHT_RING, make_named
from seriesforge.rings import PolyVar

small_rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series(order, c0_zero=False):
    c0 = st.just(Fraction(0)) if c0_zero else small_rational
    return st.tuples(
        c0, st.lists(small_rational, min_size=order, max_size=order)
    ).map(lambda t: ExpSeries(QQ, [t[0]] + t[1]))


class TestCompose:
    def test_expm1_with_log1p_is_t(self):
        f = make_named("exp_minus_one", 10)
        g = make_named("log1p", 10)
        assert f.compose(g).coeffs == ExpSeries.identity(QQ, 10).coeffs
        assert g.compose(f).coeffs == ExpSeries.identity(QQ, 10).coeffs

    def test_nonzero_constant_term_rejected(self):
        f = make_named("exp_minus_one", 4)
        g = ExpSeries.one(QQ, 4)
        with pytest.raises(ValueError):
            f.compose(g)

    @settings(max_examples=30, deadline=None)
    @given(series(6), series(6, c0_zero=True))
    def test_compose_matches_direct_expansion(self, f, g):
        # f(g) = c_0 + sum_n f_n g^n / n!, expanded with mul/pow only
        order = f.order
        acc = ExpSeries.one(QQ, order).scale(f[0])
        fact = 1
        for n in range(1, order + 1):
            fact *= n
            acc = acc + g.pow(n).scale(Fraction(f[n], fact))
        assert f.compose(g).coeffs == acc.coeffs


class TestInvert:
    def test_nonunit_linear_coeff_over_poly_ring(self):
        # c_1 = 1 even though m - 1 is no unit: inversion still works
        ring = poly_ring("m")
        m = PolyVar.gen("m")
        order = 6
        coeffs = [ring.zero, ring.one] + [
            (-1) ** (n - 1) * _fact(n - 1) * m for n in range(2, order + 1)
        ]
        f = ExpSeries(ring, coeffs)
        g = f.invert()
        comp = f.compose(g)
        assert comp.coeffs == ExpSeries.identity(ring, order).coeffs

    def test_invert_requires_zero_constant(self):
        with pytest.raises(ValueError):
            ExpSeries.one(QQ, 4).invert()


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestMulPowIntegrate:
    def test_mul_one(self):
        f = make_named("log1p", 6)
        assert (f * ExpSeries.one(QQ, 6)).coeffs == f.coeffs

    def test_integrate_one(self):
        one = ExpSeries.one(QQ, 5)
        assert one.integrate().coeffs == ExpSeries.identity(QQ, 5).coeffs

    def test_pow_expm1_squared(self):
        f = make_named("exp_minus_one", 6)
        assert f.pow(2)[2] == 2

    def test_negative_pow_is_reciprocal(self):
        f = ExpSeries(QQ, [Fraction(1), Fraction(2), Fraction(-1), Fraction(3)])
        lhs = f.pow(-2)
        rhs = f.reciprocal() * f.reciprocal()
        assert lhs.coeffs == rhs.coeffs
        assert (f * f.reciprocal()).coeffs == ExpSeries.one(QQ, 3).coeffs

    def test_reciprocal_needs_unit_constant(self):
        f = ExpSeries.identity(QQ, 4)
        with pytest.raises(ArithmeticError):
            f.reciprocal()

    @settings(max_examples=30, deadline=None)
    @given(series(6, c0_zero=True))
    def test_integrate_differentiate_roundtrip(self, f):
        assert f.differentiate().integrate().coeffs == f.coeffs


class TestNamed:
    def test_log1p_coeffs(self):
        f = make_named("log1p", 4)
        assert f.coeffs[1:] == (Fraction(1), Fraction(-1), Fraction(2), Fraction(-6))

    def test_identity(self):
        f = make_named("identity", 5)
        assert f.coeffs == ExpSeries.identity(QQ, 5).coeffs

    def test_neg_log_one_minus(self):
        f = make_named("neg_log_one_minus", 4)
        assert f.coeffs[1:] == (Fraction(1), Fraction(1), Fraction(2), Fraction(6))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_named("nope", 4)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            make_named("log1p", 0)


def test_json_serialization():
    f = make_named("log1p", 3)
    data = json.loads(f.to_json())
    assert data == {"order": 3, "coeffs": ["0/1", "1/1", "-1/1", "2/1"]}


@pytest.mark.parametrize("series", [
    lambda: ExpSeries(WEIGHT_RING, p_series(1, 2)),
    lambda: ExpSeries.identity(poly_ring("m"), 3),
])
def test_json_rejects_non_rational_rings(series):
    with pytest.raises(ValueError, match=r"exact rationals only.*Z\["):
        series().to_json()
