"""Exact arithmetic foundation: big integers, rationals, dense univariate
polynomials, and the commutative-ring contract the series machinery is
generic over.

Python ints are already arbitrary precision and ``fractions.Fraction`` is
always reduced with a positive denominator, so they serve directly as the
integer and rational element types.  Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional


class PolyVar:
    """Dense univariate polynomial with exact coefficients.

    Used both as "polynomial in m" (count families) and "polynomial in t"
    (refined tree-count polynomials).  Coefficients are Python ints or
    Fractions; the trailing coefficient is nonzero unless the polynomial
    is zero.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var: str = "m"):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.var = var

    @classmethod
    def const(cls, c, var: str = "m") -> "PolyVar":
        return cls([c], var)

    @classmethod
    def gen(cls, var: str = "m") -> "PolyVar":
        """The polynomial equal to the variable itself."""
        return cls([0, 1], var)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyVar):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, PolyVar):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyVar([other], self.var)
        return NotImplemented

    def __add__(self, other) -> "PolyVar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyVar([self[i] + other[i] for i in range(n)], self.var)

    __radd__ = __add__

    def __neg__(self) -> "PolyVar":
        return PolyVar([-c for c in self.coeffs], self.var)

    def __sub__(self, other) -> "PolyVar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PolyVar":
        return (-self) + other

    def __mul__(self, other) -> "PolyVar":
        if isinstance(other, (int, Fraction)):
            return PolyVar([c * other for c in self.coeffs], self.var)
        if not isinstance(other, PolyVar):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return PolyVar([], self.var)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyVar(out, self.var)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return not self.is_zero()

    def map_coeffs(self, fn: Callable[[Any], Any]) -> "PolyVar":
        return PolyVar([fn(c) for c in self.coeffs], self.var)

    def scale_exact(self, num, den) -> "PolyVar":
        """Multiply by num/den, requiring every coefficient to stay integral."""
        out = []
        for c in self.coeffs:
            q, r = divmod(c * num, den)
            if r:
                raise ArithmeticError(f"non-integral coefficient {Fraction(c * num, den)}")
            out.append(int(q))
        return PolyVar(out, self.var)

    def substitute(self, power: int) -> "PolyVar":
        """Map the variable v to v**power (power >= 1)."""
        if power < 1:
            raise ValueError("power must be >= 1")
        if power == 1:
            return self
        out = [0] * (len(self.coeffs) * power)
        for k, c in enumerate(self.coeffs):
            out[k * power] = c
        return PolyVar(out, self.var)

    def eval_at(self, point):
        """Exact Horner evaluation."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    __call__ = eval_at

    def compose(self, other: "PolyVar") -> "PolyVar":
        """Substitute another polynomial for the variable."""
        acc = PolyVar([], other.var)
        for c in reversed(self.coeffs):
            acc = acc * other + PolyVar.const(c, other.var)
        return acc

    def shift_down(self) -> "PolyVar":
        """Exact division by the variable; constant term must be zero."""
        if self.coeffs and self.coeffs[0] != 0:
            raise ArithmeticError("constant term nonzero, not divisible")
        return PolyVar(self.coeffs[1:], self.var)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                mono = self.var if k == 1 else f"{self.var}^{k}"
                parts.append(f"{head}{mono}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class Ring:
    """Commutative-ring contract.

    Elements are plain Python values supporting +, -, * and ==; the ring
    object supplies the constants and exact inversion of units when
    available.
    """

    name: str
    zero: Any
    one: Any
    inv: Optional[Callable[[Any], Any]] = field(default=None)

    def is_one(self, x) -> bool:
        return x == self.one

    def invert(self, x):
        """Multiplicative inverse of a unit; errors when unavailable."""
        if self.is_one(x):
            return self.one
        if x == -self.one:
            return x
        if self.inv is None:
            raise ArithmeticError(
                f"{self.name}: element {x!r} is not invertible"
            )
        return self.inv(x)


QQ = Ring("QQ", Fraction(0), Fraction(1), inv=lambda x: 1 / Fraction(x))
ZZ = Ring("ZZ", 0, 1)


def poly_ring(var: str = "m") -> Ring:
    """Univariate integer polynomials in the given variable."""
    return Ring(f"Z[{var}]", PolyVar([], var), PolyVar([1], var))
