"""Truncated q-series over exact rationals with a rational prefactor exponent.

A series is q^a * (c_0 + c_1 q + ... + c_{N-1} q^{N-1}) with a rational and
all c_n rational.  The prefactor exponent a carries objects like eta =
q^{1/24} * prod (1 - q^n) exactly; the integer-indexed part keeps the Cauchy
product simple.  A series stores its coefficients once, as the reduced int pair
(a, d) of numerators(): c_n = a_n / d, d > 0, gcd(d, *a) = 1.  Every series is
built by from_ints, the one reduction: the ring operations, which compute on the
pair; the exact constructors that start from ints (eta, E2 and E4, the
Rogers-Ramanujan products, the (2,5) characters, the oscillator series); and
FracQSeries(prefactor, rationals), over the lcm of their denominators.  coeffs is
a view, the Fraction tuple built from the pair on its first read and kept.  Every
order-taking entry point accepts 1 <= order <= MAX_ORDER (check_order).  No
floating point enters anywhere in this module: rat rejects a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence, Union

from .errors import NonAlignablePrefactor, OrderTooLarge, ZeroLeadingCoefficient

#: Default truncation order: coefficients through q^(a+200).
DEFAULT_ORDER = 201

#: Largest order an order-taking entry point accepts.  At 4096, `qcft all --order 4096`
#: takes about 1.25 s in two lanes and one ode_residual 0.17 s (CPython 3.11, 2-core x86-64
#: VM), against 0.29 s and 0.05 s at 1601.
MAX_ORDER = 4096

#: _product packs from this order on.  With 4- to 100-bit coefficients the two paths tie
#: near order 20; at 24 the kernel is 10-20% faster, and at 48 twice as fast.
KRONECKER_MIN_ORDER = 24

RationalLike = Union[Fraction, int, str]


def rat(x: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction; a float is a TypeError,
    since its binary value (0.1 is 3602879701896397/2^55) is seldom the rational meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; pass an int, a Fraction or a 'p/q' string")
    return Fraction(x)


def is_int(n) -> bool:
    """The one test of an int argument (an order, a level, a count): a bool is not one."""
    return isinstance(n, int) and not isinstance(n, bool)


def check_order(order: int) -> int:
    """order itself if it is an int with 1 <= order <= MAX_ORDER: ValueError for anything
    else but an int (a bool too) and below 1, OrderTooLarge above MAX_ORDER.  Every
    order-taking entry point calls it before it allocates anything of that size."""
    if not is_int(order):
        raise ValueError(f"order {order!r} is not an int")
    if order < 1:
        raise ValueError(f"order {order} < 1")
    if order > MAX_ORDER:
        raise OrderTooLarge(f"order {order} exceeds MAX_ORDER = {MAX_ORDER}")
    return order


def rat_str(x: Fraction) -> str:
    """Serialize a rational as reduced 'numerator/denominator' ('0/1' for zero)."""
    return f"{x.numerator}/{x.denominator}"


class FracQSeries:
    """Immutable truncated power series q^prefactor * sum coeffs[n] q^n."""

    # _pair: the reduced int pair (a, d), the one stored form of the coefficients;
    # _coeffs: the Fraction view, set on the first read of coeffs; == and hash ignore it
    __slots__ = ("prefactor", "order", "_pair", "_coeffs")

    def __new__(cls, prefactor: RationalLike, coeffs: Iterable[RationalLike]) -> "FracQSeries":
        cs = [rat(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        return cls.from_ints(prefactor, [c.numerator * (d // c.denominator) for c in cs], d)

    def __setattr__(self, name, value):
        raise AttributeError("FracQSeries is immutable")

    def __reduce__(self):   # copies and pickles rebuild from the pair, without the view
        return FracQSeries.from_ints, (self.prefactor, *self._pair)

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "FracQSeries":
        return cls.from_ints(0, [1] + [0] * (check_order(order) - 1))

    # -- basics ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FracQSeries):
            return NotImplemented
        return self.prefactor == other.prefactor and self._pair == other._pair

    def __hash__(self):
        return hash((self.prefactor, self._pair))

    def __repr__(self) -> str:
        a, d = self._pair   # the head alone, without building the coeffs view
        head = ", ".join(str(Fraction(x, d)) for x in a[:6])
        tail = ", ..." if self.order > 6 else ""
        return f"FracQSeries(q^{self.prefactor} * [{head}{tail}], order={self.order})"

    @classmethod
    def from_ints(cls, prefactor: RationalLike, nums: Sequence[int],
                  d: int = 1) -> "FracQSeries":
        """q^prefactor * sum nums[n]/d q^n for ints nums and d != 0: the one reduction of
        a pair (d > 0, gcd(d, *nums) = 1), whose result is the series."""
        if not nums or d == 0:
            raise ValueError("a series needs at least one coefficient and a nonzero d")
        g = gcd(d, *nums)
        if d < 0:
            g = -g
        if g != 1:
            nums = [x // g for x in nums]
            d //= g
        self = object.__new__(cls)
        object.__setattr__(self, "prefactor", rat(prefactor))
        object.__setattr__(self, "order", len(nums))
        object.__setattr__(self, "_pair", (tuple(nums), d))
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """(a[n] / d for n < order) as Fractions: built from the pair on the first read
        and kept."""
        try:
            return self._coeffs
        except AttributeError:
            a, d = self._pair
            view = tuple(Fraction(x, d) for x in a)
            object.__setattr__(self, "_coeffs", view)
            return view

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """The reduced pair (a, d) with coeffs[n] = a[n] / d and d the lcm of the
        denominators: the same object on every call."""
        return self._pair

    def is_zero(self) -> bool:
        return not any(self._pair[0])

    # -- ring operations -------------------------------------------------------

    def _combine(self, other: "FracQSeries", sign: int) -> "FracQSeries":
        """self + sign * other over the common denominator lcm(da, db)."""
        if not isinstance(other, FracQSeries):
            return NotImplemented
        shift = self.prefactor - other.prefactor
        if shift.denominator != 1:
            raise NonAlignablePrefactor(
                f"prefactors {self.prefactor} and {other.prefactor} differ by a non-integer")
        s = shift.numerator
        if abs(s) >= min(self.order, other.order):
            raise NonAlignablePrefactor(
                f"prefactor offset {s} exceeds the shared order "
                f"min({self.order}, {other.order})")
        # the sum starts at the lower prefactor; the other series starts |s| terms in
        off_f, off_g = max(s, 0), max(-s, 0)
        n = min(off_f + self.order, off_g + other.order)
        a, da = self.numerators()
        b, db = other.numerators()
        d = lcm(da, db)
        nums = map(add, _aligned(a, d // da, off_f, n), _aligned(b, sign * (d // db), off_g, n))
        return FracQSeries.from_ints(other.prefactor if s > 0 else self.prefactor,
                                     list(nums), d)

    def __add__(self, other: "FracQSeries") -> "FracQSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "FracQSeries") -> "FracQSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "FracQSeries":
        a, d = self.numerators()
        return FracQSeries.from_ints(self.prefactor, [-x for x in a], d)

    def __mul__(self, other) -> "FracQSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, FracQSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, da = self.numerators()
        b, db = other.numerators()
        return FracQSeries.from_ints(self.prefactor + other.prefactor, _product(a, b, n), da * db)

    __rmul__ = __mul__

    def scale(self, k: RationalLike) -> "FracQSeries":
        k = rat(k)
        a, d = self.numerators()
        return FracQSeries.from_ints(self.prefactor, [k.numerator * x for x in a],
                                     k.denominator * d)

    def invert(self) -> "FracQSeries":
        """Multiplicative inverse up to the stored order; prefactor is negated.

        With f = a/d over ints, fraction-free: h_0 = 1 and
        h_m = -sum_{k>=1} a_k a_0^(k-1) h_{m-k}, so that (1/f)_m = d h_m / a_0^(m+1),
        which is d h_m a_0^(N-1-m) over the one denominator a_0^N.
        """
        a, d = self.numerators()
        a0 = a[0]
        if a0 == 0:
            raise ZeroLeadingCoefficient("leading coefficient is zero")
        powers = [1]   # a_0^0 ... a_0^(N-1)
        for _ in range(1, self.order):
            powers.append(powers[-1] * a0)
        w = list(map(mul, a[1:], powers))
        h = [1]
        for m in range(1, self.order):
            h.append(-sum(map(mul, w, reversed(h))))
        nums = [d * hm * p for hm, p in zip(h, reversed(powers))]
        return FracQSeries.from_ints(-self.prefactor, nums, powers[-1] * a0)

    def q_derivative(self) -> "FracQSeries":
        """The operator q d/dq: coefficient of q^(a+n) is multiplied by a+n; with
        a = p/q and c_n = x_n/d that is (p + n q) x_n over q d."""
        p, q = self.prefactor.numerator, self.prefactor.denominator
        a, d = self.numerators()
        return FracQSeries.from_ints(self.prefactor,
                                     list(map(mul, range(p, p + q * self.order, q), a)), q * d)

    def mul_sparse(self, exponent: int, coefficient: RationalLike) -> "FracQSeries":
        """Multiply by the binomial (1 + coefficient * q^exponent) in O(order)."""
        c = rat(coefficient)
        a, d = self.numerators()
        nums = [c.denominator * x for x in a]
        for n in range(self.order - 1, exponent - 1, -1):
            nums[n] += c.numerator * a[n - exponent]
        return FracQSeries.from_ints(self.prefactor, nums, c.denominator * d)

    # -- serialization -----------------------------------------------------------

    def to_record(self) -> dict:
        """Byte-stable record: prefactor and coefficients as 'p/q' strings."""
        return {
            "prefactor": rat_str(self.prefactor),
            "order": self.order,
            "coeffs": [rat_str(c) for c in self.coeffs],
        }


def _product(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of (sum a_i q^i)(sum b_j q^j), for ints, n <= len(a), len(b).

    Kronecker substitution: each operand is packed into one int with a w-bit slot per
    coefficient, the ints are multiplied once and the slots are read back.  With w the
    whole bytes that hold bitlen(max|a|) + bitlen(max|b|) + bitlen(n) + 2 bits, every
    |c_k| <= n max|a| max|b| < 2^(w-2): no slot overflows, and 2^(w-1) added to each slot
    makes every digit nonnegative.  Below KRONECKER_MIN_ORDER the loop is faster."""
    if n < KRONECKER_MIN_ORDER:
        return [sum(map(mul, a, b[k::-1])) for k in range(n)]   # map stops at k + 1 terms
    a, b = a[:n], b[:n]
    nb = (max(map(int.bit_length, a)) + max(map(int.bit_length, b)) + n.bit_length() + 9) >> 3
    w = nb << 3   # in whole bytes
    ones = int.from_bytes((b"\x01" + bytes(nb - 1)) * n, "little")   # 1 in every slot
    bias = ones << (w - 1)
    p = (_pack(a, nb, ones) * _pack(b, nb, ones) + bias) & ((1 << n * w) - 1)
    return _unpack(p ^ bias, n, nb, signed=True)   # each slot is c_k in two's complement


def _pack(x: Sequence[int], nb: int, ones: int) -> int:
    """sum x_k 2^(8 nb k): the two's-complement slots read as one int, less their borrows."""
    u = int.from_bytes(b"".join([v.to_bytes(nb, "little", signed=True) for v in x]), "little")
    return u - (((u >> (8 * nb - 1)) & ones) << 8 * nb)


def _unpack(row: int, n: int, nb: int, signed: bool = False) -> list[int]:
    """The n little-endian nb-byte slots of row, as ints (two's complement if signed)."""
    data = row.to_bytes(n * nb, "little")
    return [int.from_bytes(data[i:i + nb], "little", signed=signed) for i in range(0, n * nb, nb)]


def _aligned(nums: Sequence[int], unit: int, offset: int, n: int) -> list[int]:
    """nums times unit, moved up by offset zeros and cut to n terms."""
    return [0] * offset + [x * unit for x in nums[:n - offset]]
