from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seriesforge.egf import QQ, poly_ring
from seriesforge.rings import PolyVar


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

    @pytest.mark.parametrize("coeffs", [[], [5], [1, -2, 1], [0, 3, 0, -7]])
    def test_eval_at_the_bare_variable_is_the_polynomial_named_by_it(self, coeffs):
        # equality ignores the name, so the repr checks that it is kept
        p, k = PolyVar(coeffs, "t"), PolyVar.gen("k")
        horner = sum((c * k ** i for i, c in enumerate(coeffs)), PolyVar([], "k"))
        assert p.eval_at(k) == p.compose(k) == horner
        assert repr(p.eval_at(k)) == repr(p.compose(k)) == repr(horner)

    def test_pow_examples(self):
        m = PolyVar.gen("m")
        assert (m - 1) ** 2 == PolyVar([1, -2, 1], "m")
        assert m ** 0 == PolyVar.const(1) and (m ** 0).var == "m"
        assert PolyVar([]) ** 3 == PolyVar([])
        with pytest.raises(ValueError):
            m ** -1
        with pytest.raises(TypeError):
            m ** 0.5

    def test_shift_down(self):
        assert PolyVar([0, 1, 2], "t").shift_down() == PolyVar([1, 2], "t")
        with pytest.raises(ArithmeticError):
            PolyVar([1, 1], "t").shift_down()

    def test_scale_exact(self):
        assert PolyVar([2, 4], "t").scale_exact(3, 2) == PolyVar([3, 6], "t")
        with pytest.raises(ArithmeticError, match="1/2"):
            PolyVar([2, 1], "t").scale_exact(1, 2)

    def test_floordiv_is_exact_division(self):
        m = PolyVar.gen("m")
        assert PolyVar([2, -2], "m") // (m - 1) == -2
        assert (m * m - 1) // (m - 1) == m + 1
        assert (6 * m + 4) // 2 == 3 * m + 2
        assert PolyVar([]) // (m - 1) == 0
        for num, den in ((m * m, m - 1), (m + 2, 2), (m, m * m)):
            with pytest.raises(ArithmeticError, match="not divisible"):
                num // den
        with pytest.raises(ZeroDivisionError):
            m // PolyVar([])

    def test_trailing_zeros_trimmed(self):
        assert PolyVar([1, 0, 0]).coeffs == (1,)
        assert PolyVar([0, 0]).is_zero()

    def test_equality_ignores_the_variable_name(self):
        p, q = PolyVar([1, 1], "t"), PolyVar([1, 1], "m")
        assert p == q and hash(p) == hash(q)

    @given(st.integers(-2 ** 70, 2 ** 70))
    def test_a_constant_hashes_as_the_int_it_equals(self, c):
        # a == b must imply hash(a) == hash(b), also across types
        assert PolyVar.const(c, "t") == c and hash(PolyVar.const(c, "t")) == hash(c)
        assert len({PolyVar.const(c), c}) == 1 and len({PolyVar([]), 0}) == 1

    def test_product_with_interior_zeros(self):
        t = PolyVar.gen("t")
        t3, t2_plus_1 = PolyVar([0, 0, 0, 1], "t"), PolyVar([1, 0, 1], "t")
        assert t3 * t2_plus_1 == PolyVar([0, 0, 0, 1, 0, 1], "t")
        assert t2_plus_1 * t3 == t * t * t * t * t + t * t * t
        assert (PolyVar([], "t") * t3).is_zero() and (t3 * PolyVar([], "t")).is_zero()

    @given(
        st.lists(st.sampled_from([0, 0, 0, 0, -3, 1, 2, 7]), min_size=1, max_size=12),
        st.lists(st.sampled_from([0, 0, 0, 0, -1, 1, 5, Fraction(1, 3)]), min_size=1, max_size=12),
    )
    def test_product_of_sparse_polynomials(self, a, b):
        # mostly zero coefficients, as in a polynomial in t^j
        p, q = PolyVar(a + [1], "t"), PolyVar(b + [-2], "t")
        for x in (-3, -1, 0, 1, 2, 5):
            assert (p * q).eval_at(x) == p.eval_at(x) * q.eval_at(x)
        assert (p * q).degree == p.degree + q.degree

    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.integers(1, 4),
        st.integers(-5, 5),
    )
    def test_substitute_consistent_with_eval(self, coeffs, d, x):
        p = PolyVar(coeffs, "t")
        assert p.substitute(d).eval_at(x) == p.eval_at(x ** d)


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


@given(small_poly, st.integers(0, 9), st.integers(-4, 4))
def test_pow_is_repeated_product(a, e, point):
    power = PolyVar.const(1)
    for _ in range(e):
        power = power * a
    assert a ** e == power
    assert (a ** e).eval_at(point) == a.eval_at(point) ** e


@given(small_poly, small_poly)
def test_floordiv_undoes_the_product(a, b):
    if b:
        assert (a * b) // b == a


def test_ring_dot_defaults_to_the_term_by_term_sum():
    ring = poly_ring("m")
    m = PolyVar.gen("m")
    assert ring.dot([]) == ring.zero
    assert ring.dot([(2, m, m + 1), (-3, ring.one, m)]) == 2 * m * (m + 1) - 3 * m


def test_ring_invert():
    assert QQ.invert(Fraction(3, 4)) == Fraction(4, 3)
    ring = poly_ring("m")
    assert ring.invert(ring.one) == ring.one
    with pytest.raises(ArithmeticError):
        ring.invert(PolyVar([2]))
