from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seriesforge.rings import QQ, PolyVar, poly_ring


class TestPolyVar:
    def test_substitute_identity(self):
        p = PolyVar([0, 1, 2], "t")
        assert p.substitute(1) == p

    def test_substitute_refined_example(self):
        # t + 2t^2 + 2t^3 with t -> t^2
        p = PolyVar([0, 1, 2, 2], "t")
        assert p.substitute(2) == PolyVar([0, 0, 1, 0, 2, 0, 2], "t")

    def test_substitute_zero(self):
        assert PolyVar([], "t").substitute(3) == PolyVar([], "t")

    def test_eval_examples(self):
        assert PolyVar([0, 1, 2, 2], "t").eval_at(1) == 5
        assert PolyVar([7, 3], "t").eval_at(0) == 7
        assert PolyVar([0, 1, 1], "t").eval_at(2) == 6

    def test_compose(self):
        p = PolyVar([0, 0, 1], "t")  # t^2
        q = PolyVar([-1, 1], "m")    # m - 1
        assert p.compose(q) == PolyVar([1, -2, 1], "m")

    def test_shift_down(self):
        assert PolyVar([0, 1, 2], "t").shift_down() == PolyVar([1, 2], "t")
        with pytest.raises(ArithmeticError):
            PolyVar([1, 1], "t").shift_down()

    def test_scale_exact(self):
        assert PolyVar([2, 4], "t").scale_exact(3, 2) == PolyVar([3, 6], "t")
        with pytest.raises(ArithmeticError, match="1/2"):
            PolyVar([2, 1], "t").scale_exact(1, 2)

    def test_degree_of_product(self):
        p, q = PolyVar([1, 2, 3]), PolyVar([0, 5, 0, 7])
        assert (p * q).degree == p.degree + q.degree

    def test_trailing_zeros_trimmed(self):
        assert PolyVar([1, 0, 0]).coeffs == (1,)
        assert PolyVar([0, 0]).is_zero()

    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.integers(1, 4),
        st.integers(-5, 5),
    )
    def test_substitute_consistent_with_eval(self, coeffs, d, x):
        p = PolyVar(coeffs, "t")
        assert p.substitute(d).eval_at(x) == p.eval_at(x ** d)


small_fraction = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@given(small_fraction, small_fraction, small_fraction)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + QQ.zero == a
    assert a * QQ.one == a
    assert a * b == b * a


small_poly = st.lists(st.integers(-9, 9), max_size=4).map(PolyVar)


@given(small_poly, small_poly, small_poly)
def test_poly_ring_axioms(a, b, c):
    ring = poly_ring("m")
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero == a
    assert a * ring.one == a
    assert a * b == b * a


def test_ring_invert():
    assert QQ.invert(Fraction(3, 4)) == Fraction(4, 3)
    ring = poly_ring("m")
    assert ring.invert(ring.one) == ring.one
    with pytest.raises(ArithmeticError):
        ring.invert(PolyVar([2]))
