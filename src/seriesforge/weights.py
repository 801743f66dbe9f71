"""Sparse multivariate polynomials in the indeterminates x_{c,k}
(color c >= 1, out-degree k >= 2) with exact integer coefficients.

A monomial is one int of packed exponents: the first time ``gen(c, k)``
sees x_{c,k} it gives that variable the next free field of _WIDTH bits,
and the exponent of x_{c,k} sits in that field.  A product of monomials
is then the sum of their ints.  The registry of the process is one
insertion-ordered dict, _FIELDS, from (c, k) to field index; the field
count, the guard mask of a product, the (c, k) order of the output keys
and the masks of a color swap are all read from it.  labeled.p_series
registers its variables degree-major, the m colors of each out-degree
side by side, so a monomial of low degrees is a short int and a color
swap moves a monomial with one mask and shift each way.  The top bit of every field is a guard: a
product whose exponent reaches it raises OverflowError rather than carry
into the next field.  Output reads each monomial once into sorted int
keys, one per factor: the rank of x_{c,k} among the registered variables
in (c, k) order, shifted past the exponent, so a key orders as its
[c, k, e] triple and terms are ordered by their triples whatever order
the variables were first seen in.  ``to_json`` sorts the terms by their
keys and joins the cached text "[c, k, e]" of each key, with no json
module and no per-term dict, into the text ``json.dumps`` gives for
``to_jsonable()``; the CLI writes each coefficient's text as it is
made.  Tree weights and the per-leaf-count
coefficients of the weighted generating function live here, with the two
kernels of labeled.p_series: sum_of_products, which p_series passes to
bell_row and calls for each T_{1,n}, adds a whole sum of products into
one dict (sparse accumulation as in Monagan and Pearce, 2011), and
color_swap exchanges two colors of a polynomial by masks and shifts of
its packed monomials.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

_WIDTH = 16                              # bits per exponent field
_MASK = (1 << _WIDTH) - 1
_GUARD_BIT = 1 << (_WIDTH - 1)
_EXACT = 2 ** 53                         # JSON quotes ints from here on: a double rounds 2^53 + 1

_FIELDS: dict = {}                       # (c, k) -> field index, in the order handed out


def _field_of(color: int, degree: int) -> int:
    """Field index of x_{color,degree}, taking the next free one if new."""
    return _FIELDS.setdefault((color, degree), len(_FIELDS))


class _KeyOrder(dict):
    """The keys of the registry as it is now, made afresh for each
    polynomial read, so that a variable registered since is ranked too.
    ranks[field] is the rank of the field's variable in (c, k) order,
    shifted past the exponent, so the key rank | e of a factor x_{c,k}^e
    orders as [c, k, e]; variables[rank] is that variable.  As a dict it
    maps each key met so far to its JSON text "[c, k, e]"."""

    __slots__ = ("ranks", "variables")

    def __init__(self):
        super().__init__()
        self.variables = sorted(_FIELDS)
        self.ranks = [0] * len(_FIELDS)
        for rank, variable in enumerate(self.variables):
            self.ranks[_FIELDS[variable]] = rank << _WIDTH

    def __missing__(self, key: int) -> str:
        text = self[key] = "[%d, %d, %d]" % tuple(self.triple(key))
        return text

    def triple(self, key: int) -> list:
        c, k = self.variables[key >> _WIDTH]
        return [c, k, key & _MASK]


def _keys(mono: int, ranks: list) -> list:
    """A packed monomial as the sorted keys rank | e of its factors, read
    from its highest nonzero field down."""
    keys = []
    while mono:
        field = (mono.bit_length() - 1) // _WIDTH
        shift = field * _WIDTH
        e = mono >> shift
        mono ^= e << shift
        keys.append(ranks[field] | e)
    keys.sort()
    return keys


def _json_int(v: int):
    """v as a JSON number, or as a string from 2^53 on, where a reader
    that parses numbers as doubles would round it."""
    return v if -_EXACT < v < _EXACT else str(v)


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
        """The single indeterminate x_{color,degree}; a bool or any other
        index that is not an int raises TypeError."""
        if not all(type(i) is int for i in (color, degree)):
            raise TypeError("color and out-degree must be ints")
        if color < 1 or degree < 2:
            raise ValueError("need color >= 1 and out-degree >= 2")
        return cls._of({1 << (_WIDTH * _field_of(color, degree)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = WeightPoly.const(other)
        if not isinstance(other, WeightPoly):
            return NotImplemented
        return self.terms == other.terms

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
        return self + (-other)

    def __rsub__(self, other) -> "WeightPoly":
        return (-self) + other

    def __mul__(self, other) -> "WeightPoly":
        if isinstance(other, int):
            other = WeightPoly.const(other)
        if not isinstance(other, WeightPoly):
            return NotImplemented
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def substitute(self, fn):
        """Replace every x_{c,k} by fn(c, k) and evaluate exactly."""
        total = 0
        for triples, coeff in self._triples():
            for c, k, e in triples:
                coeff = coeff * fn(c, k) ** e
            total = total + coeff
        return total

    def degree_mass(self) -> set:
        """Set of sum (k-1)*exp over the monomials (leaf-count balance)."""
        return {sum((k - 1) * e for _, k, e in triples) for triples, _ in self._triples() if triples}

    def _sorted(self):
        """The key order of the registry, and (keys, coeff) per term in
        output order."""
        order = _KeyOrder()
        ranks = order.ranks
        return order, sorted((_keys(mono, ranks), coeff) for mono, coeff in self.terms.items())

    def _triples(self) -> list:
        """(monomial as [c, k, exp] triples, coeff) per term, in output order."""
        order, rows = self._sorted()
        return [([order.triple(key) for key in keys], coeff) for keys, coeff in rows]

    def to_jsonable(self):
        """Monomials as sorted [c, k, exp] triples with integer coefficient."""
        return [{"monomial": triples, "coeff": _json_int(coeff)}
                for triples, coeff in self._triples()]

    def to_json(self) -> str:
        """The text of json.dumps(self.to_jsonable()), joined from the
        cached text of each key."""
        order, rows = self._sorted()
        text = order.__getitem__
        parts = []
        for keys, coeff in rows:
            if not -_EXACT < coeff < _EXACT:
                coeff = f'"{coeff}"'
            parts.append(f'{{"monomial": [{", ".join(map(text, keys))}], "coeff": {coeff}}}')
        return f"[{', '.join(parts)}]"

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
    guards = _GUARD_BIT * ((1 << _WIDTH * len(_FIELDS)) - 1) // _MASK   # top bit of each field
    if reduce(or_, out, 0) & guards:
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
    for c, k in list(_FIELDS):
        if c in (a, b):
            _field_of(a + b - c, k)
    runs: dict = {}                      # shift in bits -> mask of the fields it moves
    for (c, k), field in _FIELDS.items():
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

