"""Sparse multivariate polynomials in the indeterminates x_{c,k}
(color c >= 1, out-degree k >= 2) with exact integer coefficients.

A monomial is the sorted tuple of its variables (c, k), each repeated as
often as its exponent: x_{1,2}^2 x_{2,3} is ((1, 2), (1, 2), (2, 3)), so a
product of monomials is their sorted concatenation.  Output groups the
repeats back into [c, k, exponent] triples and orders terms by them.  Tree
weights and the per-leaf-count coefficients of the weighted generating
function live here.
"""

from __future__ import annotations

import json
from itertools import groupby
from typing import Callable

from .rings import Ring


class WeightPoly:
    """Polynomial over the x_{c,k} with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for mono, coeff in (terms or {}).items():
            if coeff != 0:
                cleaned[mono] = coeff
        self.terms = cleaned

    @classmethod
    def const(cls, c) -> "WeightPoly":
        return cls({(): c})

    @classmethod
    def gen(cls, color: int, degree: int) -> "WeightPoly":
        """The single indeterminate x_{color,degree}."""
        if color < 1 or degree < 2:
            raise ValueError("need color >= 1 and out-degree >= 2")
        return cls({((color, degree),): 1})

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
            return self.terms == {(): other}
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "WeightPoly":
        if isinstance(other, int):
            other = WeightPoly.const(other)
        if not isinstance(other, WeightPoly):
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return WeightPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "WeightPoly":
        return WeightPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "WeightPoly":
        if isinstance(other, int):
            other = WeightPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "WeightPoly":
        return (-self) + other

    def __mul__(self, other) -> "WeightPoly":
        if isinstance(other, int):
            return WeightPoly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, WeightPoly):
            return NotImplemented
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return WeightPoly(out)

    __rmul__ = __mul__

    def substitute(self, fn: Callable[[int, int], object]):
        """Replace every x_{c,k} by fn(c, k) and evaluate exactly."""
        total = 0
        for mono, coeff in self.terms.items():
            val = coeff
            for c, k in mono:
                val = val * fn(c, k)
            total = total + val
        return total

    def degree_mass(self) -> set:
        """Set of sum (k-1)*exp over the monomials (leaf-count balance)."""
        return {sum(k - 1 for _, k in mono) for mono in self.terms if mono}

    def _triples(self) -> list:
        """(monomial as [c, k, exp] triples, coeff) per term, in output order."""
        return sorted(
            ([[c, k, len(list(run))] for (c, k), run in groupby(mono)], coeff)
            for mono, coeff in self.terms.items()
        )

    def to_jsonable(self):
        """Monomials as sorted [c, k, exp] triples with integer coefficient."""
        return [
            {"monomial": triples, "coeff": coeff if abs(coeff) < 2 ** 53 else str(coeff)}
            for triples, coeff in self._triples()
        ]

    def to_json(self) -> str:
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


WEIGHT_RING = Ring("Z[x_{c,k}]", WeightPoly(), WeightPoly.const(1))
