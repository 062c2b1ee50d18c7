"""Truncated q-series over exact rationals with a rational prefactor exponent.

A series is q^a * (c_0 + c_1 q + ... + c_{N-1} q^{N-1}) with a rational and
all c_n rational.  The prefactor exponent a carries objects like eta =
q^{1/24} * prod (1 - q^n) exactly; the integer-indexed part keeps the Cauchy
product simple.  Each series clears its denominators once, on first use, and
keeps the int numerators (numerators()); products and inverses run over them.
No floating point enters anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import NonAlignablePrefactor, ZeroLeadingCoefficient

#: Default truncation order: coefficients through q^(a+200).
DEFAULT_ORDER = 201

RationalLike = Union[Fraction, int, str]


def rat(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as reduced 'numerator/denominator' ('0/1' for zero)."""
    return f"{x.numerator}/{x.denominator}"


class FracQSeries:
    """Immutable truncated power series q^prefactor * sum coeffs[n] q^n."""

    # _numerators is filled by numerators() on first use; == and hash ignore it
    __slots__ = ("prefactor", "coeffs", "order", "_numerators")

    def __init__(self, prefactor: RationalLike, coeffs: Iterable[RationalLike]):
        object.__setattr__(self, "prefactor", rat(prefactor))
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in coeffs))
        object.__setattr__(self, "order", len(self.coeffs))
        if self.order < 1:
            raise ValueError("a series must store at least one coefficient")

    def __setattr__(self, name, value):
        raise AttributeError("FracQSeries is immutable")

    def __reduce__(self):   # copies and pickles rebuild through __init__, without the memo
        return FracQSeries, (self.prefactor, self.coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "FracQSeries":
        return cls(0, [1] + [0] * (order - 1))

    @classmethod
    def monomial(cls, exponent: RationalLike, order: int = DEFAULT_ORDER) -> "FracQSeries":
        """q^exponent as a series."""
        return cls(exponent, [1] + [0] * (order - 1))

    @classmethod
    def from_coeff_list(cls, coeffs: Sequence[RationalLike], order: int | None = None,
                        prefactor: RationalLike = 0) -> "FracQSeries":
        """Pad or truncate an explicit coefficient list to the given order."""
        cs = [rat(c) for c in coeffs]
        if order is not None:
            cs = (cs + [Fraction(0)] * order)[:order]
        return cls(prefactor, cs)

    # -- basics ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FracQSeries):
            return NotImplemented
        return (self.prefactor == other.prefactor and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.prefactor, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 6 else ""
        return f"FracQSeries(q^{self.prefactor} * [{head}{tail}], order={self.order})"

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """(a, d) over ints with coeffs[n] = a[n] / d and d the lcm of the denominators:
        computed on the first call, the same pair afterwards."""
        try:
            return self._numerators
        except AttributeError:
            d = lcm(*(c.denominator for c in self.coeffs))
            pair = tuple(c.numerator * (d // c.denominator) for c in self.coeffs), d
            object.__setattr__(self, "_numerators", pair)
            return pair

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "FracQSeries") -> "FracQSeries":
        if not isinstance(other, FracQSeries):
            return NotImplemented
        shift = self.prefactor - other.prefactor
        if shift.denominator != 1:
            raise NonAlignablePrefactor(
                f"prefactors {self.prefactor} and {other.prefactor} differ by a non-integer")
        s = int(shift)
        if abs(s) >= min(self.order, other.order):
            raise NonAlignablePrefactor(
                f"prefactor offset {s} exceeds the shared order "
                f"min({self.order}, {other.order})")
        lo = min(self.prefactor, other.prefactor)
        hi = min(self.prefactor + self.order, other.prefactor + other.order)
        n = int(hi - lo)
        coeffs = [Fraction(0)] * n
        off_f = int(self.prefactor - lo)
        off_g = int(other.prefactor - lo)
        for i, c in enumerate(self.coeffs):
            if off_f + i < n:
                coeffs[off_f + i] += c
        for i, c in enumerate(other.coeffs):
            if off_g + i < n:
                coeffs[off_g + i] += c
        return FracQSeries(lo, coeffs)

    def __neg__(self) -> "FracQSeries":
        return FracQSeries(self.prefactor, [-c for c in self.coeffs])

    def __sub__(self, other: "FracQSeries") -> "FracQSeries":
        return self + (-other)

    def __mul__(self, other) -> "FracQSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FracQSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, da = self.numerators()
        b, db = other.numerators()
        d = da * db
        coeffs = [Fraction(sum(map(mul, a[:k + 1], b[k::-1])), d) for k in range(n)]
        return FracQSeries(self.prefactor + other.prefactor, coeffs)

    __rmul__ = __mul__

    def scale(self, k: RationalLike) -> "FracQSeries":
        k = rat(k)
        return FracQSeries(self.prefactor, [k * c for c in self.coeffs])

    def invert(self) -> "FracQSeries":
        """Multiplicative inverse up to the stored order; prefactor is negated.

        With f = a/d over ints, fraction-free: h_0 = 1 and
        h_m = -sum_{k>=1} a_k a_0^(k-1) h_{m-k}, so that (1/f)_m = d h_m / a_0^(m+1).
        """
        if self.coeffs[0] == 0:
            raise ZeroLeadingCoefficient("leading coefficient is zero")
        a, d = self.numerators()
        a0 = a[0]
        w = [a[k] * a0 ** (k - 1) for k in range(1, self.order)]
        h = [1]
        for m in range(1, self.order):
            h.append(-sum(map(mul, w[:m], h[::-1])))
        return FracQSeries(-self.prefactor,
                           [Fraction(d * h[m], a0 ** (m + 1)) for m in range(self.order)])

    def q_derivative(self) -> "FracQSeries":
        """The operator q d/dq: coefficient of q^(a+n) is multiplied by a+n."""
        a = self.prefactor
        return FracQSeries(a, [(a + n) * c for n, c in enumerate(self.coeffs)])

    def mul_sparse(self, exponent: int, coefficient: RationalLike) -> "FracQSeries":
        """Multiply by the binomial (1 + coefficient * q^exponent) in O(order)."""
        c = rat(coefficient)
        coeffs = list(self.coeffs)
        for n in range(self.order - 1, exponent - 1, -1):
            coeffs[n] += c * self.coeffs[n - exponent]
        return FracQSeries(self.prefactor, coeffs)

    # -- serialization -----------------------------------------------------------

    def to_record(self) -> dict:
        """Byte-stable record: prefactor and coefficients as 'p/q' strings."""
        return {
            "prefactor": rat_str(self.prefactor),
            "order": self.order,
            "coeffs": [rat_str(c) for c in self.coeffs],
        }
