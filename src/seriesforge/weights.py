"""Sparse multivariate polynomials in the indeterminates x_{c,k}
(color c >= 1, out-degree k >= 2) with exact integer coefficients.

A monomial is one int of packed exponents: the first time ``gen(c, k)``
sees x_{c,k} it gives that variable the next free field of _WIDTH bits,
and the exponent of x_{c,k} sits in that field.  A product of monomials
is then the sum of their ints.  The registry of the process is one
insertion-ordered dict, _FIELDS, from (c, k) to field index; the field
count, the guard mask of a product, the (c, k) order of the output keys
and the masks of a color exchange are all read from it.  color_swaps
registers the variables of labeled.p_series degree-major, the m colors
of each out-degree side by side, so a monomial of low degrees is a short
int and a color exchange moves a monomial with one mask and shift each
way; no other module knows the layout.  The top bit of every field is a
guard: a product whose exponent reaches it raises OverflowError rather
than carry into the next field.  Output reads each monomial once into
sorted int keys, one per factor: the rank of x_{c,k} among the registered variables
in (c, k) order, shifted past the exponent, so a key orders as its
[c, k, e] triple and terms are ordered by their triples whatever order
the variables were first seen in; the terms of one polynomial share one
int object per key, which nearly halves the memory of its sorted terms.
``_json_pieces`` sorts the terms by their keys and writes the cached
text "[c, k, e]" of each key, with no json module and no per-term dict,
in pieces of _BATCH terms; joined, the pieces are ``to_json``, the text
``json.dumps`` gives for ``to_jsonable()``.  The CLI writes each piece as
it is made, so no coefficient's whole text is held.  Tree weights and the
per-leaf-count coefficients of the weighted generating function live
here, with the kernels of labeled.p_series, each of which adds straight
into one dict (sparse accumulation as in Monagan and Pearce, 2011) and
deletes any zero coefficient in place, never filtering into a copy:
sum_of_products, which p_series passes to bell_row and calls for each
T_{1,n}, adds a whole sum of products; the color orbit that color_swaps
returns adds the exchanges of color 1 with every other color of a
polynomial, by masks and shifts of its packed monomials; and add_into
adds one polynomial into another's own dict.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_

_WIDTH = 16                              # bits per exponent field
_MASK = (1 << _WIDTH) - 1
_GUARD_BIT = 1 << (_WIDTH - 1)
_EXACT = 2 ** 53                         # JSON quotes ints from here on: a double rounds 2^53 + 1
_BATCH = 256                             # terms per piece of rendered JSON text

_FIELDS: dict = {}                       # (c, k) -> field index, in the order handed out


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


def _keys(mono: int, ranks: list, interned: dict) -> list:
    """A packed monomial as the sorted keys rank | e of its factors, read
    from its highest nonzero field down.  Each key is the int that
    interned holds for its value, so the terms of a polynomial share one
    object per key, and two equal keys compare by identity."""
    keys = []
    while mono:
        field = (mono.bit_length() - 1) // _WIDTH
        shift = field * _WIDTH
        e = mono >> shift
        mono ^= e << shift
        key = ranks[field] | e
        keys.append(interned.setdefault(key, key))
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
        return cls._of({1 << (_WIDTH * _FIELDS.setdefault((color, degree), len(_FIELDS))): 1})

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
        big, small = (other, self) if len(self.terms) < len(other.terms) else (self, other)
        return add_into(WeightPoly._of(dict(big.terms)), small)

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
        ranks, interned = order.ranks, {}
        return order, sorted((_keys(mono, ranks, interned), coeff)
                             for mono, coeff in self.terms.items())

    def _triples(self) -> list:
        """(monomial as [c, k, exp] triples, coeff) per term, in output order."""
        order, rows = self._sorted()
        return [([order.triple(key) for key in keys], coeff) for keys, coeff in rows]

    def to_jsonable(self):
        """Monomials as sorted [c, k, exp] triples with integer coefficient."""
        return [{"monomial": triples, "coeff": _json_int(coeff)}
                for triples, coeff in self._triples()]

    def to_json(self) -> str:
        """The text of json.dumps(self.to_jsonable()): the pieces of
        _json_pieces joined."""
        return "".join(self._json_pieces())

    def _json_pieces(self):
        """The text of to_json in pieces of at most _BATCH terms each,
        made from the cached text of each key as each piece's turn comes."""
        order, rows = self._sorted()
        text = order.__getitem__
        yield "["
        for start in range(0, len(rows), _BATCH):
            parts = []
            for keys, coeff in rows[start:start + _BATCH]:
                if not -_EXACT < coeff < _EXACT:
                    coeff = f'"{coeff}"'
                parts.append(f'{{"monomial": [{", ".join(map(text, keys))}], "coeff": {coeff}}}')
            yield (", " if start else "") + ", ".join(parts)
        yield "]"

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
        if not z.terms:                 # a Bell entry that v_1 = 0 leaves empty
            continue
        right = z.terms.items()
        for m1, c1 in y.terms.items():
            c1 *= b
            for m2, c2 in right:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    guards = _GUARD_BIT * ((1 << _WIDTH * len(_FIELDS)) - 1) // _MASK   # top bit of each field
    if reduce(or_, out, 0) & guards:
        raise OverflowError(f"an exponent of a product reached 2^{_WIDTH - 1}")
    return WeightPoly._of(_drop_zeros(out))


def color_swaps(m: int, order: int):
    """The color orbit map of a polynomial whose x_{1,k} and x_{c,k} all
    have k <= order: poly -> sum_{c=2..m} poly with colors 1 and c
    exchanged, the variables of other colors left as they are.

    It first registers the x_{c,k}, 1 <= c <= m and 2 <= k <= order,
    degree-major, the m colors of each out-degree side by side, so a
    monomial of low degrees is a short int and each exchange moves it by
    one shift each way.  Fields that move by the same distance share one
    mask, and every field of another variable stays where it is.

    The fields stay registered for the life of the process, so a later
    call at a larger m gets the new colors' fields after all the old
    ones, not degree-major: the output is the same, but each exchange
    needs one mask per run of moved fields and the monomials are longer
    ints.
    """
    for k in range(2, order + 1):
        for c in range(1, m + 1):
            _FIELDS.setdefault((c, k), len(_FIELDS))
    moves = []
    for c in range(2, m + 1):
        runs: dict = {}                  # shift in bits -> mask of the fields it moves
        for k in range(2, order + 1):
            for a, b in ((1, c), (c, 1)):
                shift = (_FIELDS[(b, k)] - _FIELDS[(a, k)]) * _WIDTH
                runs[shift] = runs.get(shift, 0) | _MASK << (_WIDTH * _FIELDS[(a, k)])
        left = [(mask, shift) for shift, mask in runs.items() if shift > 0]
        right = [(mask, -shift) for shift, mask in runs.items() if shift < 0]
        moves.append((~reduce(or_, runs.values(), 0), left, right))
    return partial(_orbit, moves)


def _orbit(moves: list, poly: WeightPoly) -> WeightPoly:
    """The sum over the (keep, left, right) of moves of poly with the
    fields under each mask of left moved up by its shift, those of right
    moved down and those under keep left in place: every image is added
    straight into one dict, and no image is built."""
    out: dict = {}
    get = out.get
    terms = poly.terms.items()
    for keep, left, right in moves:
        for mono, coeff in terms:
            moved = mono & keep
            for mask, shift in left:
                moved |= (mono & mask) << shift
            for mask, shift in right:
                moved |= (mono & mask) >> shift
            out[moved] = get(moved, 0) + coeff
    return WeightPoly._of(_drop_zeros(out))


def add_into(total: WeightPoly, poly: WeightPoly) -> WeightPoly:
    """total + poly, made in total's own dict, which total then holds;
    total changes its value, so it must not be a set member or a dict key."""
    out = total.terms
    get = out.get
    for mono, coeff in poly.terms.items():
        out[mono] = get(mono, 0) + coeff
    _drop_zeros(out)
    return total


def _drop_zeros(out: dict) -> dict:
    """out with its zero coefficients deleted in place, no copy made."""
    if 0 in out.values():
        for mono in [mono for mono, coeff in out.items() if not coeff]:
            del out[mono]
    return out
