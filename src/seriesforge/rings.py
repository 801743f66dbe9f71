"""Dense univariate polynomials with exact int coefficients, PolyVar.

Python ints are already arbitrary precision, so they serve directly as
the integer element type.  The ring contract that the tests and the
oracles compute over, with its rings ZZ, QQ and Z[var], lives in the
test-support :mod:`seriesforge.egf`.  The operations here are pure: a
PolyVar is never changed after it is built.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd


class PolyVar:
    """Dense univariate polynomial with exact coefficients.

    Used both as "polynomial in m" (count families) and "polynomial in t"
    (refined tree-count polynomials).  Coefficients are exact numbers,
    in practice ints, and the scalars it adds, multiplies and compares
    with are ints; the trailing coefficient is nonzero unless the
    polynomial is zero.  var is only a print label: equality and hashing
    compare the coefficients alone, and a constant equals and hashes as
    its value.
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, PolyVar):
            return other
        if isinstance(other, int):
            return PolyVar([other], self.var)
        return NotImplemented

    def __add__(self, other) -> "PolyVar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return PolyVar([a + b for a, b in pairs], self.var)

    __radd__ = __add__

    def __neg__(self) -> "PolyVar":
        return PolyVar([-c for c in self.coeffs], self.var)

    def __sub__(self, other) -> "PolyVar":
        return self + (-other)

    def __rsub__(self, other) -> "PolyVar":
        return (-self) + other

    def __mul__(self, other) -> "PolyVar":
        if isinstance(other, int):
            return PolyVar([c * other for c in self.coeffs], self.var)
        if not isinstance(other, PolyVar):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        # skip zero coefficients: a polynomial in v^j has j - 1 in every j
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return PolyVar(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PolyVar":
        """Power by an int exponent e >= 0, by repeated squaring."""
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("exponent must be >= 0")
        out, base = PolyVar.const(1, self.var), self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __bool__(self) -> bool:
        return not self.is_zero()

    def map_coeffs(self, fn) -> "PolyVar":
        return PolyVar([fn(c) for c in self.coeffs], self.var)

    def scale_exact(self, num, den) -> "PolyVar":
        """Multiply by num/den, requiring every coefficient to stay integral."""
        out = []
        for c in self.coeffs:
            q, r = divmod(c * num, den)
            if r:
                g = gcd(c * num, den) * (1 if den > 0 else -1)
                raise ArithmeticError(f"non-integral coefficient {c * num // g}/{den // g}")
            out.append(int(q))
        return PolyVar(out, self.var)

    def __floordiv__(self, other) -> "PolyVar":
        """Exact quotient by a nonzero int or PolyVar that divides self, by
        long division from the top; ArithmeticError if it leaves a
        remainder."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        *low, lead = other.coeffs
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - len(low), 0)
        for k in reversed(range(len(quot))):
            quot[k], r = divmod(rem[k + len(low)], lead)
            if r:
                raise ArithmeticError(f"{self!r} is not divisible by {other!r}")
            for i, c in enumerate(low):
                rem[k + i] -= quot[k] * c
        if any(rem[:len(low)]):
            raise ArithmeticError(f"{self!r} is not divisible by {other!r}")
        return PolyVar(quot, self.var)

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
        """Exact Horner evaluation; at the bare variable of a PolyVar, self
        named by that variable."""
        if isinstance(point, PolyVar) and point.coeffs == (0, 1):
            return PolyVar(self.coeffs, point.var)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    __call__ = eval_at

    def compose(self, other: "PolyVar") -> "PolyVar":
        """Substitute another polynomial for the variable."""
        return self.eval_at(other) + PolyVar([], other.var)

    def shift_down(self) -> "PolyVar":
        """Exact division by the variable; constant term must be zero."""
        return self // PolyVar.gen(self.var)

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

