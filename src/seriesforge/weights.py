"""Sparse multivariate polynomials in the indeterminates x_{c,k}
(color c >= 1, out-degree k >= 2) with exact integer coefficients.

A monomial is one int of packed exponents: the first time ``gen(c, k)``
sees x_{c,k} it gives that variable the next free field of _WIDTH bits,
and the exponent of x_{c,k} sits in that field.  A product of monomials is
then the sum of their ints.  The top bit of every field is a guard: a
product whose exponent reaches it raises OverflowError rather than carry
into the next field.  Output decodes the fields into [c, k, exponent]
triples and orders terms by them, so it does not depend on the order in
which the variables were first seen.  Tree weights and the per-leaf-count
coefficients of the weighted generating function live here, with the two
kernels of labeled.p_series: sum_of_products, the weight ring's Ring.dot,
adds a whole Bell-table entry into one dict (sparse accumulation as in
Monagan and Pearce, 2011), and color_swap exchanges two colors of a
polynomial by masks and shifts of its packed monomials.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .rings import Ring

_WIDTH = 16                              # bits per exponent field: one "H" item
_GUARD_BIT = 1 << (_WIDTH - 1)

_FIELDS: dict = {}                       # (c, k) -> field index
_VARIABLES: list = []                    # field index -> (c, k)
_guards = 0                              # guard bit of every field in use


def _field_of(color: int, degree: int) -> int:
    """Field index of x_{color,degree}, taking the next free one if new."""
    global _guards
    key = (color, degree)
    if key not in _FIELDS:
        _FIELDS[key] = len(_VARIABLES)
        _VARIABLES.append(key)
        _guards |= _GUARD_BIT << (_WIDTH * _FIELDS[key])
    return _FIELDS[key]


def _decode(mono: int) -> list:
    """A packed monomial as sorted [c, k, exponent] triples, read from its
    highest nonzero field down."""
    triples = []
    while mono:
        shift = (mono.bit_length() - 1) // _WIDTH * _WIDTH
        e = mono >> shift
        mono ^= e << shift
        c, k = _VARIABLES[shift // _WIDTH]
        triples.append([c, k, e])
    triples.sort()
    return triples


def _json_int(v: int):
    """v as a JSON number, or as a string from 2^53 on, where a reader
    that parses numbers as doubles would round it."""
    return v if abs(v) < 2 ** 53 else str(v)


class WeightPoly:
    """Polynomial over the x_{c,k} with int coefficients; ``terms`` maps
    each packed monomial to its nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {mono: coeff for mono, coeff in (terms or {}).items() if coeff != 0}

    @classmethod
    def _of(cls, terms: dict) -> "WeightPoly":
        """Wrap a dict that already holds no zero coefficient."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def const(cls, c) -> "WeightPoly":
        return cls({0: c})

    @classmethod
    def gen(cls, color: int, degree: int) -> "WeightPoly":
        """The single indeterminate x_{color,degree}."""
        if color < 1 or degree < 2:
            raise ValueError("need color >= 1 and out-degree >= 2")
        return cls._of({1 << (_WIDTH * _field_of(color, degree)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, WeightPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            return self.terms == {0: other}
        return NotImplemented

    def __hash__(self):
        if self.terms.keys() <= {0}:      # a constant hashes as its int
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "WeightPoly":
        if isinstance(other, int):
            other = WeightPoly.const(other)
        if not isinstance(other, WeightPoly):
            return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for mono, coeff in small.items():
            coeff += out.get(mono, 0)
            if coeff:
                out[mono] = coeff
            else:
                del out[mono]
        return WeightPoly._of(out)

    __radd__ = __add__

    def __neg__(self) -> "WeightPoly":
        return WeightPoly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "WeightPoly":
        if isinstance(other, int):
            other = WeightPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "WeightPoly":
        return (-self) + other

    def __mul__(self, other) -> "WeightPoly":
        if isinstance(other, int):
            if other == 0:
                return WeightPoly()
            return WeightPoly._of({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, WeightPoly):
            return NotImplemented
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def substitute(self, fn):
        """Replace every x_{c,k} by fn(c, k) and evaluate exactly."""
        total = 0
        for mono, coeff in self.terms.items():
            val = coeff
            for c, k, e in _decode(mono):
                val = val * fn(c, k) ** e
            total = total + val
        return total

    def degree_mass(self) -> set:
        """Set of sum (k-1)*exp over the monomials (leaf-count balance)."""
        return {sum((k - 1) * e for _, k, e in _decode(mono)) for mono in self.terms if mono}

    def _triples(self) -> list:
        """(monomial as [c, k, exp] triples, coeff) per term, in output order."""
        return sorted((_decode(mono), coeff) for mono, coeff in self.terms.items())

    def to_jsonable(self):
        """Monomials as sorted [c, k, exp] triples with integer coefficient."""
        return [{"monomial": triples, "coeff": _json_int(coeff)}
                for triples, coeff in self._triples()]

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_jsonable())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for triples, coeff in self._triples():
            factors = []
            if coeff != 1 or not triples:
                factors.append(str(coeff))
            for c, k, e in triples:
                v = f"x[{c},{k}]"
                factors.append(v if e == 1 else f"{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def sum_of_products(terms) -> WeightPoly:
    """sum b * y * z over the (int b, WeightPoly y, WeightPoly z) triples,
    every product accumulated into one dict: the guard bits are checked
    and the zero coefficients dropped once, for the whole sum."""
    out: dict = {}
    get = out.get
    for b, y, z in terms:
        right = z.terms.items()
        for m1, c1 in y.terms.items():
            c1 *= b
            for m2, c2 in right:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    if reduce(or_, out, 0) & _guards:
        raise OverflowError(f"an exponent of a product reached 2^{_WIDTH - 1}")
    if 0 in out.values():
        out = {m: c for m, c in out.items() if c}
    return WeightPoly._of(out)


def color_swap(a: int, b: int):
    """The map exchanging colors a and b in every x_{c,k} of colors a and
    b registered now; a partner x_{b,k} of a registered x_{a,k} (and back)
    is registered first, and every other field stays where it is.

    Fields that move by the same distance share one mask, so a monomial
    is a few masks and shifts: three when the fields of each color are
    contiguous, more when the registry was filled in another order.
    """
    for c, k in list(_VARIABLES):
        if c in (a, b):
            _field_of(a + b - c, k)
    runs: dict = {}                      # shift in bits -> mask of the fields it moves
    for field, (c, k) in enumerate(_VARIABLES):
        shift = (_FIELDS[(a + b - c, k)] - field) * _WIDTH if c in (a, b) else 0
        if shift:
            runs[shift] = runs.get(shift, 0) | ((1 << _WIDTH) - 1) << (_WIDTH * field)
    keep = ~reduce(or_, runs.values(), 0)  # also the fields registered later
    left = [(mask, shift) for shift, mask in runs.items() if shift > 0]
    right = [(mask, -shift) for shift, mask in runs.items() if shift < 0]

    def swap(poly: WeightPoly) -> WeightPoly:
        out = {}
        for mono, coeff in poly.terms.items():
            moved = mono & keep
            for mask, shift in left:
                moved |= (mono & mask) << shift
            for mask, shift in right:
                moved |= (mono & mask) >> shift
            out[moved] = coeff
        return WeightPoly._of(out)

    return swap


WEIGHT_RING = Ring("Z[x_{c,k}]", WeightPoly(), WeightPoly.const(1),
                   sum_of_products=sum_of_products)
