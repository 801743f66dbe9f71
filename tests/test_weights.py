import json
from collections import Counter
from functools import reduce
from operator import mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriesforge import weights
from seriesforge.labeled import p_series
from seriesforge.oracle import WEIGHT_RING
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

    @given(st.integers(-2 ** 70, 2 ** 70))
    def test_a_constant_hashes_as_the_int_it_equals(self, c):
        # a == b must imply hash(a) == hash(b), also across types
        assert WeightPoly.const(c) == c and hash(WeightPoly.const(c)) == hash(c)
        assert len({WeightPoly.const(c), c}) == 1

    @pytest.mark.parametrize("color, degree", [(0, 2), (1, 1)])
    def test_gen_rejects_bad_indices(self, color, degree):
        with pytest.raises(ValueError):
            WeightPoly.gen(color, degree)

    @pytest.mark.parametrize("color, degree", [
        (True, 2), (1, True), (False, 2), (1.0, 2), (2, 3.0), ("1", 2), (None, 2),
    ])
    def test_gen_rejects_indices_that_are_not_ints(self, color, degree):
        # a bool would pass the range check and print as true in
        # to_jsonable but as 1 in to_json
        with pytest.raises(TypeError):
            WeightPoly.gen(color, degree)


class TestPrintedOrder:
    def test_monomials_print_in_triple_order(self):
        # terms are ordered by their [c, k, e] triples: x[1,2]*x[2,2]^2
        # comes before x[1,2]^2*x[2,2]
        assert repr(p_series(2, 4)[4]) == (
            "15*x[1,2]*x[2,2]^2 + 10*x[1,2]*x[2,3] + 15*x[1,2]^2*x[2,2]"
            " + 10*x[1,3]*x[2,2] + x[1,4] + x[2,4]"
        )


def fresh_registry():
    """A context in which no variable has a field yet, so the next gen
    calls hand out the fields in the order they are made."""
    return mock.patch.object(weights, "_FIELDS", {})


def as_counters(poly: WeightPoly) -> dict:
    """{frozenset of ((c, k), exp): coeff}, read from the JSON form."""
    return {
        frozenset(((c, k), e) for c, k, e in term["monomial"]): term["coeff"]
        for term in poly.to_jsonable()
    }


# a pool of variables, with c up to 6 and k up to 20
pools = st.lists(st.tuples(st.integers(1, 6), st.integers(2, 20)), min_size=1, max_size=6,
                 unique=True)


class TestPackedMonomials:
    @settings(max_examples=80, deadline=None)
    @given(pools, st.data())
    def test_sums_and_products_match_counter_reference(self, pool, data):
        order = data.draw(st.permutations(pool))
        monos = st.dictionaries(st.sampled_from(pool), st.integers(1, 6), max_size=3)
        spec = st.lists(st.tuples(st.integers(-4, 4), monos), max_size=5)
        a_spec, b_spec = data.draw(spec), data.draw(spec)

        def reference(terms) -> dict:
            out = Counter()
            for coeff, mono in terms:
                out[frozenset(Counter(mono).items())] += coeff
            return {m: c for m, c in out.items() if c}

        def build_poly(terms) -> WeightPoly:
            total = WeightPoly()
            for coeff, mono in terms:
                term = WeightPoly.const(coeff)
                for (c, k), e in mono.items():
                    for _ in range(e):
                        term = term * WeightPoly.gen(c, k)
                total = total + term
            return total

        product = [(c1 * c2, Counter(m1) + Counter(m2))
                   for c1, m1 in a_spec for c2, m2 in b_spec]
        with fresh_registry():
            for c, k in order:
                WeightPoly.gen(c, k)
            a, b = build_poly(a_spec), build_poly(b_spec)
            assert as_counters(a + b) == reference(a_spec + b_spec)
            assert as_counters(a * b) == reference(product)
            assert as_counters(a - b) == reference(a_spec + [(-c, m) for c, m in b_spec])

    @pytest.mark.parametrize("color, degree", [(1, 2), (6, 20)])
    def test_exponent_past_the_field_raises(self, color, degree):
        # x^(2^i) for i = 0..14: their product is x^(2^15 - 1), the largest
        # exponent a field holds; one more factor of x reaches the guard bit
        powers = [WeightPoly.gen(color, degree)]
        for _ in range(14):
            powers.append(powers[-1] * powers[-1])
        assert repr(powers[-1]) == f"x[{color},{degree}]^16384"
        top = reduce(mul, powers)
        assert top.to_jsonable() == [{"monomial": [[color, degree, 2 ** 15 - 1]], "coeff": 1}]
        with pytest.raises(OverflowError):
            powers[-1] * powers[-1]
        with pytest.raises(OverflowError):
            top * WeightPoly.gen(color, degree)

    def test_output_does_not_depend_on_the_field_order(self):
        def render(order):
            with fresh_registry():
                for c, k in order:
                    WeightPoly.gen(c, k)
                poly = p_series(2, 5)[5] * WeightPoly.gen(6, 20) - 3
                return repr(poly), poly.to_jsonable()

        variables = [(6, 20)] + [(c, k) for c in (1, 2) for k in range(2, 6)]
        first, second = render(variables), render(variables[::-1])
        assert first == second
        assert first[0].startswith("-3 + ")


# coefficients on both sides of 2^53, from where JSON quotes them, and
# exponents up to the largest a field holds
json_coeffs = st.one_of(
    st.sampled_from([2 ** 53 - 1, 2 ** 53, -(2 ** 53 - 1), -(2 ** 53)]),
    st.integers(-2 ** 60, 2 ** 60),
)
exponents = st.one_of(st.just(2 ** 15 - 1), st.integers(1, 2 ** 15 - 1))
# a variable whose color or out-degree does not fit in a 16-bit field
wide_variables = st.one_of(st.tuples(st.integers(2 ** 16, 2 ** 20), st.integers(2, 20)),
                           st.tuples(st.integers(1, 6), st.integers(2 ** 16, 2 ** 20)))


def packed(poly_spec) -> WeightPoly:
    """[({(c, k): exponent}, coeff)] as a WeightPoly, each monomial packed
    from the one-term monomials of its variables; a later term replaces an
    earlier one with the same monomial."""
    def mono(factors):
        return sum(e * next(iter(WeightPoly.gen(c, k).terms)) for (c, k), e in factors.items())
    return WeightPoly({mono(factors): coeff for factors, coeff in poly_spec})


def jsonable(poly_spec) -> list:
    """What to_jsonable should give for packed(poly_spec): the nonzero
    terms as sorted triples, in triple order."""
    terms = {frozenset(factors.items()): coeff for factors, coeff in poly_spec}
    return [{"monomial": triples, "coeff": coeff if abs(coeff) < 2 ** 53 else str(coeff)}
            for triples, coeff in sorted((sorted([c, k, e] for (c, k), e in factors), coeff)
                                         for factors, coeff in terms.items() if coeff)]


def assert_json_matches(poly: WeightPoly, expected: list):
    text = poly.to_json()
    assert poly.to_jsonable() == expected
    assert text == json.dumps(expected)
    assert json.loads(text) == expected


class TestJson:
    @pytest.mark.parametrize("value", [0, 1, -7, 2 ** 53 - 1, 2 ** 53, -(2 ** 53), 3 ** 200])
    def test_constants(self, value):
        assert_json_matches(WeightPoly.const(value), jsonable([({}, value)]))

    @settings(max_examples=100, deadline=None)
    @given(pools, wide_variables, st.data())
    def test_to_json_is_json_dumps_of_to_jsonable(self, pool, wide, data):
        # the variables are registered in a shuffled order, part of them
        # only after a first polynomial was written, so the order the keys
        # stand for changes between the two
        variables = data.draw(st.permutations(pool + [wide]))
        cut = data.draw(st.integers(0, len(variables)))

        def spec(names):
            monos = st.dictionaries(st.sampled_from(names), exponents, max_size=4)
            return data.draw(st.lists(st.tuples(monos, json_coeffs), max_size=6))

        with fresh_registry():
            for c, k in variables[:cut]:
                WeightPoly.gen(c, k)
            if cut:
                first = spec(variables[:cut])
                assert_json_matches(packed(first), jsonable(first))
            for c, k in variables[cut:]:
                WeightPoly.gen(c, k)
            second = spec(variables)
            assert_json_matches(packed(second), jsonable(second))


class TestSumOfProducts:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), polys, polys), max_size=4))
    def test_matches_the_term_by_term_sum(self, terms):
        naive = WeightPoly()
        for b, y, z in terms:
            naive = naive + b * y * z
        got = weights.sum_of_products(terms)
        assert got == naive
        assert 0 not in got.terms.values()

    def test_is_the_weight_ring_dot(self):
        x12, x23 = WeightPoly.gen(1, 2), WeightPoly.gen(2, 3)
        assert WEIGHT_RING.dot([(2, x12, x23), (-2, x23, x12)]) == 0

    def test_exponent_past_the_field_raises(self):
        # x^(2^14) times x^(2^14 - 1) is the largest exponent a field holds;
        # x^(2^14) squared reaches the guard bit
        powers = [WeightPoly.gen(1, 2)]
        for _ in range(14):
            powers.append(powers[-1] * powers[-1])
        top = weights.sum_of_products([(1, powers[-1], reduce(mul, powers[:-1]))])
        assert top.to_jsonable() == [{"monomial": [[1, 2, 2 ** 15 - 1]], "coeff": 1}]
        with pytest.raises(OverflowError):
            weights.sum_of_products([(1, powers[-1], powers[-1])])
        # the guard holds also where the overflowing terms cancel
        with pytest.raises(OverflowError):
            weights.sum_of_products([(1, powers[-1], powers[-1]), (-1, powers[-1], powers[-1])])


def swapped_counters(poly: WeightPoly, a: int, b: int) -> dict:
    """as_counters of poly with colors a and b exchanged."""
    other = {a: b, b: a}
    return {
        frozenset(((other.get(c, c), k), e) for (c, k), e in mono): coeff
        for mono, coeff in as_counters(poly).items()
    }


class TestColorSwap:
    @settings(max_examples=60, deadline=None)
    @given(pools, st.data())
    def test_exchanges_two_colors_for_any_field_order(self, pool, data):
        order = data.draw(st.permutations(pool))
        a, b = data.draw(st.sampled_from([(1, 2), (1, 3), (2, 5)]))
        mono = st.dictionaries(st.sampled_from(pool), st.integers(1, 6), max_size=3)
        spec = data.draw(st.lists(st.tuples(st.integers(-4, 4), mono), max_size=5))
        with fresh_registry():
            for c, k in order:
                WeightPoly.gen(c, k)
            poly = build([(coeff, [(c, k, e) for (c, k), e in factors.items()])
                          for coeff, factors in spec])
            swap = weights.color_swap(a, b)
            assert as_counters(swap(poly)) == swapped_counters(poly, a, b)
            assert swap(swap(poly)) == poly

    def test_registers_the_partner_of_a_variable(self):
        with fresh_registry():
            x = WeightPoly.gen(1, 7)
            swap = weights.color_swap(1, 4)
            assert swap(x) == WeightPoly.gen(4, 7)
            assert swap(3 * x * x + 1) == 3 * WeightPoly.gen(4, 7) * WeightPoly.gen(4, 7) + 1

    def test_keeps_a_field_registered_after_it_was_built(self):
        with fresh_registry():
            x12 = WeightPoly.gen(1, 2)
            swap = weights.color_swap(1, 2)
            x32 = WeightPoly.gen(3, 2)
            assert swap(x12 * x32) == WeightPoly.gen(2, 2) * x32
