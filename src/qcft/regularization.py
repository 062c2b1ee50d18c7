"""Zeta-regularized sums over arithmetic progressions and their consumers.

The closed form sum_{n>=0} (pn + r) = r(p-r)/(2p) - p/12 is the s = -1
Hurwitz value; the naive split p*sum(n) + r*sum(1) misses -r^2/(2p).
Casimir exponents are half the regularized spectrum sum, which is the unique
constant calibration reproducing both (2,5) character prefactors at once.

A spectrum is a special.ArithmeticProgressionSet, the one declaration of an Euler
product: the oscillator traces are q^{casimir_exponent} times its inverse_product, so
oscillator_partition_series(special.RR_SPECTRUM[w]), a sparse_quotient, is a (2,5) character.
"""

from __future__ import annotations

from fractions import Fraction

from .series import DEFAULT_ORDER, FracQSeries
from .special import ArithmeticProgressionSet, _validate


def hurwitz_sum(p: int, r: int) -> Fraction:
    """sum_{n>=0} (pn + r) = r(p-r)/(2p) - p/12."""
    _validate(p, r)
    return Fraction(r * (p - r), 2 * p) - Fraction(p, 12)


def ramanujan_naive_sum(p: int, r: int) -> Fraction:
    """p * sum(n) + r * sum(1) with sum(n) = -1/12 and sum(1) = 1 + zeta(0) = 1/2."""
    _validate(p, r)
    return Fraction(-p, 12) + Fraction(r, 2)


def naive_defect(p: int, r: int) -> Fraction:
    """hurwitz - naive; equals -r^2/(2p) for every progression."""
    return hurwitz_sum(p, r) - ramanujan_naive_sum(p, r)


def casimir_exponent(s: ArithmeticProgressionSet) -> Fraction:
    """Half the regularized sum over the spectrum (the q-prefactor exponent)."""
    total = sum((hurwitz_sum(p, r) for p, r in s.progressions), Fraction(0))
    return total / 2


def _product_series(s: ArithmeticProgressionSet, order: int, sign: int) -> FracQSeries:
    return FracQSeries.from_ints(casimir_exponent(s), s.inverse_product(sign, order))


def oscillator_partition_series(s: ArithmeticProgressionSet,
                                order: int = DEFAULT_ORDER) -> FracQSeries:
    """q^{Casimir} * prod_{E in spectrum} (1 - q^E)^{-1}, truncated."""
    return _product_series(s, order, -1)


def twisted_oscillator_series(s: ArithmeticProgressionSet,
                              order: int = DEFAULT_ORDER) -> FracQSeries:
    """Sign-twisted trace: (1 + q^E)^{-1} factors, same Casimir prefactor."""
    return _product_series(s, order, +1)


def critical_dimension() -> Fraction:
    """Transverse oscillator count forced by a massless level-1 state, plus 2: the d_t
    that solves 1 + d_t * (-1/24) = 0, with -1/24 half the vacuum sum hurwitz_sum(1, 1)."""
    return 1 / (-hurwitz_sum(1, 1) / 2) + 2
