"""Truncated exponential generating functions and the rational ring QQ,
for the tests and the oracles only: nothing the CLI imports reaches this
module.

An ExpSeries stores c_0..c_N of sum c_n t^n/n!.  Composition and
compositional inversion act on its tail c_1..c_N, a coefficient sequence
of the group in :mod:`seriesforge.bell`; bell_product, the group product,
lives here beside compose, its one caller.  Multiplication, powers and
formal integration are the standard exponential-convolution operations;
every convolution sum, like every Bell-table sum, is one Ring.dot.
The module keeps this path because the benchmark's tracer wraps the
methods of seriesforge.egf.ExpSeries, so it moves with the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bell import bell_inverse_recursive, bell_row
from .rings import Ring

# Fraction is always reduced with a positive denominator, so it serves
# directly as the rational element type
QQ = Ring("QQ", Fraction(0), Fraction(1), inv=lambda x: 1 / Fraction(x))


def bell_product(x, y, ring: Ring) -> tuple:
    """Coordinates of the group product: (x o y)_n = sum_k x_k B_{n,k}(y)."""
    order = min(len(x), len(y))
    rows = [[ring.one]]
    out = []
    for n in range(1, order + 1):
        bell_row(rows, y, ring)
        out.append(ring.dot((1, x[k - 1], rows[n][k]) for k in range(1, n + 1)))
    return tuple(out)


@dataclass(frozen=True)
class ExpSeries:
    """Exponential series truncated at t^order / order!."""

    ring: Ring
    coeffs: tuple  # c_0 .. c_N

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        if n < 0:
            raise IndexError("negative coefficient index")
        if n >= len(self.coeffs):
            return self.ring.zero
        return self.coeffs[n]

    def tail(self) -> tuple:
        """Coefficients c_1..c_N as a group element (c_0 dropped)."""
        return self.coeffs[1:]

    @classmethod
    def from_tail(cls, ring: Ring, values, c0=None) -> "ExpSeries":
        """The series c0 + sum values[n-1] t^n/n!; c0 defaults to zero."""
        return cls(ring, (ring.zero if c0 is None else c0,) + tuple(values))

    @classmethod
    def zero(cls, ring: Ring, order: int) -> "ExpSeries":
        return cls(ring, [ring.zero] * (order + 1))

    @classmethod
    def one(cls, ring: Ring, order: int) -> "ExpSeries":
        return cls(ring, [ring.one] + [ring.zero] * order)

    @classmethod
    def identity(cls, ring: Ring, order: int) -> "ExpSeries":
        """The series t."""
        c = [ring.zero] * (order + 1)
        if order >= 1:
            c[1] = ring.one
        return cls(ring, c)

    def truncate(self, order: int) -> "ExpSeries":
        if order >= self.order:
            return self
        return ExpSeries(self.ring, self.coeffs[: order + 1])

    # ---- linear structure -------------------------------------------------

    def __add__(self, other: "ExpSeries") -> "ExpSeries":
        n = min(self.order, other.order)
        return ExpSeries(self.ring, [self[i] + other[i] for i in range(n + 1)])

    def __sub__(self, other: "ExpSeries") -> "ExpSeries":
        n = min(self.order, other.order)
        return ExpSeries(self.ring, [self[i] - other[i] for i in range(n + 1)])

    def __neg__(self) -> "ExpSeries":
        return ExpSeries(self.ring, [-c for c in self.coeffs])

    def scale(self, a) -> "ExpSeries":
        return ExpSeries(self.ring, [a * c for c in self.coeffs])

    def add_const(self, a) -> "ExpSeries":
        return ExpSeries(self.ring, (self.coeffs[0] + a,) + self.coeffs[1:])

    # ---- multiplicative structure -----------------------------------------

    def mul(self, other: "ExpSeries") -> "ExpSeries":
        n = min(self.order, other.order)
        return ExpSeries(self.ring, [
            self.ring.dot((comb(s, i), self[i], other[s - i]) for i in range(s + 1))
            for s in range(n + 1)
        ])

    __mul__ = mul

    def reciprocal(self) -> "ExpSeries":
        """1/f for a series with invertible constant term."""
        inv0 = self.ring.invert(self.coeffs[0])
        out = [inv0]
        for n in range(1, self.order + 1):
            out.append(-inv0 * self.ring.dot((comb(n, i), self[i], out[n - i])
                                             for i in range(1, n + 1)))
        return ExpSeries(self.ring, out)

    def pow(self, k: int) -> "ExpSeries":
        """f**k; negative k is reciprocal-then-positive-power."""
        if k < 0:
            return self.reciprocal().pow(-k)
        acc = ExpSeries.one(self.ring, self.order)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # ---- calculus ---------------------------------------------------------

    def integrate(self) -> "ExpSeries":
        """Formal integral from 0; keeps the truncation order."""
        return ExpSeries(self.ring, (self.ring.zero,) + self.coeffs[:-1])

    def differentiate(self) -> "ExpSeries":
        return ExpSeries(self.ring, self.coeffs[1:] + (self.ring.zero,))

    # ---- composition group ------------------------------------------------

    def compose(self, inner: "ExpSeries") -> "ExpSeries":
        """f(g) for g with zero constant term; c_0 of the result is f.c_0."""
        if inner[0] != inner.ring.zero:
            raise ValueError("composition argument must have zero constant term")
        seq = bell_product(self.tail(), inner.tail(), self.ring)
        return ExpSeries.from_tail(self.ring, seq, self.coeffs[0])

    def invert(self) -> "ExpSeries":
        """Compositional inverse; needs c_0 = 0 and c_1 a unit."""
        if self[0] != self.ring.zero:
            raise ValueError("inversion needs zero constant term")
        return ExpSeries.from_tail(self.ring, bell_inverse_recursive(self.tail(), self.ring))

    # ---- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Exact-rational JSON: {"order": N, "coeffs": ["num/den", ...]}."""
        strs = []
        for c in self.coeffs:
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"to_json writes exact rationals only, not {self.ring.name} "
                                 f"coefficients such as {c!r}")
            f = Fraction(c)
            strs.append(f"{f.numerator}/{f.denominator}")
        return json.dumps({"order": self.order, "coeffs": strs})

