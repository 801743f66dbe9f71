from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriesforge.labeled import DegreeSpec, p_series
from seriesforge.weights import WeightPoly

# a monomial as (c, k, exponent) factors; repeated variables and exponents
# >= 2 both occur
factors = st.lists(st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(1, 3)),
                   max_size=3)


def monomial(fs) -> WeightPoly:
    gens = [WeightPoly.gen(c, k) for c, k, e in fs for _ in range(e)]
    return reduce(mul, gens, WeightPoly.const(1))


def build(terms) -> WeightPoly:
    return sum((coeff * monomial(fs) for coeff, fs in terms), WeightPoly())


polys = st.lists(st.tuples(st.integers(-5, 5), factors), max_size=4).map(build)
# a value for each x_{c,k} that `factors` can produce
values = st.fixed_dictionaries(
    {(c, k): st.integers(-3, 3) for c in range(1, 4) for k in range(2, 5)}
)


class TestEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(polys, polys, values)
    def test_substitute_is_a_ring_homomorphism(self, a, b, vals):
        f = lambda c, k: vals[(c, k)]  # noqa: E731
        assert (a * b).substitute(f) == a.substitute(f) * b.substitute(f)
        assert (a + b).substitute(f) == a.substitute(f) + b.substitute(f)


class TestDegreeMass:
    @settings(max_examples=60, deadline=None)
    @given(factors.filter(bool), factors.filter(bool))
    def test_mass_of_a_product_is_the_sum(self, f1, f2):
        (m1,) = monomial(f1).degree_mass()
        (m2,) = monomial(f2).degree_mass()
        assert (monomial(f1) * monomial(f2)).degree_mass() == {m1 + m2}


class TestArithmetic:
    @settings(max_examples=30, deadline=None)
    @given(polys)
    def test_difference_with_itself_has_no_terms(self, x):
        d = x - x
        assert not d.terms and d == 0

    @pytest.mark.parametrize("color, degree", [(0, 2), (1, 1)])
    def test_gen_rejects_bad_indices(self, color, degree):
        with pytest.raises(ValueError):
            WeightPoly.gen(color, degree)


class TestPrintedOrder:
    def test_monomials_print_in_triple_order(self):
        # terms are ordered by their [c, k, e] triples: x[1,2]*x[2,2]^2
        # comes before x[1,2]^2*x[2,2]
        assert repr(p_series(DegreeSpec(2), 4)[4]) == (
            "15*x[1,2]*x[2,2]^2 + 10*x[1,2]*x[2,3] + 15*x[1,2]^2*x[2,2]"
            " + 10*x[1,3]*x[2,2] + x[1,4] + x[2,4]"
        )
