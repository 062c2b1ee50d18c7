"""Named modular objects: Dedekind eta, Eisenstein series, Rogers-Ramanujan products.

Exact constructors return FracQSeries, and every Euler product among them is
expanded over ints by euler_product; eta_eval and evaluate_series are the
numeric consumers (q = exp(2*pi*i*tau) throughout, cutoffs chosen so the first
neglected term is below 1e-15).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable

from .errors import NotInUpperHalfPlane
from .series import DEFAULT_ORDER, FracQSeries


def divisor_sums(k: int, n_max: int) -> list[int]:
    """sigma_k(n) for 1 <= n <= n_max, by sieving over divisors."""
    values = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d ** k
        for m in range(d, n_max + 1, d):
            values[m] += dk
    return values[1:]


def euler_product(exponents: Iterable[int], sign: int, invert: bool,
                  order: int) -> list[int]:
    """The first `order` coefficients of prod (1 + sign q^e) over the exponents,
    or of its inverse: each factor is one in-place pass over ints.

    (1 + s q^e) runs from the top index down, so every term is used once;
    1 / (1 + s q^e) is the coin-change update g_n = f_n - s g_(n-e), bottom up.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [1] + [0] * (order - 1)
    for e in exponents:
        if e < 1:
            raise ValueError(f"exponent {e} < 1")
        if invert:
            for n in range(e, order):
                coeffs[n] -= sign * coeffs[n - e]
        else:
            for n in range(order - 1, e - 1, -1):
                coeffs[n] += sign * coeffs[n - e]
    return coeffs


def dedekind_eta(order: int = DEFAULT_ORDER) -> FracQSeries:
    """q^{1/24} * prod_{n>=1} (1 - q^n), truncated after `order` coefficients."""
    return FracQSeries(Fraction(1, 24), euler_product(range(1, order), -1, False, order))


def eisenstein(k: int, order: int = DEFAULT_ORDER) -> FracQSeries:
    """E2 = 1 - 24 sum sigma_1(n) q^n, E4 = 1 + 240 sum sigma_3(n) q^n."""
    if k == 2:
        mult, power = -24, 1
    elif k == 4:
        mult, power = 240, 3
    else:
        raise ValueError("only E2 and E4 are provided")
    sig = divisor_sums(power, order - 1)
    return FracQSeries(0, [1] + [mult * s for s in sig])


def _rr_parts(which: str, order: int) -> list[int]:
    residues = {"G": (1, 4), "H": (2, 3)}[which]
    return [e for e in range(1, order) if e % 5 in residues]


def rr_product(which: str, order: int = DEFAULT_ORDER) -> FracQSeries:
    """Rogers-Ramanujan products: G over parts = +-1 mod 5, H over +-2 mod 5."""
    return FracQSeries(0, euler_product(_rr_parts(which, order), -1, True, order))


def rr_complement(which: str, order: int = DEFAULT_ORDER) -> FracQSeries:
    """The finite product prod (1 - q^e) over the residues of G or H (not inverted)."""
    return FracQSeries(0, euler_product(_rr_parts(which, order), -1, False, order))


def _nome(tau: complex) -> complex:
    if tau.imag <= 0:
        raise NotInUpperHalfPlane(f"Im(tau) = {tau.imag} <= 0")
    return cmath.exp(2j * math.pi * tau)


def adaptive_cutoff(tau: complex, target: float = 1e-15) -> int:
    """Smallest n with |q|^n < target, floored at 8 terms."""
    y = tau.imag
    if y <= 0:
        raise NotInUpperHalfPlane(f"Im(tau) = {y} <= 0")
    return max(8, int(math.ceil(-math.log(target) / (2 * math.pi * y))) + 1)


def eta_eval(tau: complex, cutoff: int | None = None) -> complex:
    """Numeric eta(tau) = q^{1/24} prod_{n<=cutoff} (1 - q^n)."""
    q = _nome(tau)
    if cutoff is None:
        cutoff = adaptive_cutoff(tau)
    value = cmath.exp(2j * math.pi * tau / 24)
    qn = 1.0 + 0j
    for _ in range(cutoff):
        qn *= q
        value *= 1 - qn
    return value


def evaluate_series(f: FracQSeries, tau: complex) -> complex:
    """Numeric value of a FracQSeries at q = exp(2*pi*i*tau).

    The prefactor q^a is evaluated as exp(2*pi*i*tau*a), which is the branch
    every formula in scope intends.
    """
    q = _nome(tau)
    acc = 0j
    for c in reversed(f.coeffs):
        acc = acc * q + complex(c)
    a = f.prefactor
    if a != 0:
        acc *= cmath.exp(2j * math.pi * tau * complex(a))
    return acc
