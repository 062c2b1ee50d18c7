"""Jacobi theta functions, the K3 elliptic genus, Appell-Lerch subtraction,
and extraction of the integer coefficients of the mock-modular remainder.

The remainder EG * eta^3 / theta_1^2 - 24 * mu is independent of z; sampling
it on a horizontal tau-grid and Fourier-transforming yields the integer
sequence (-2, 90, 462, 1540, 4554), reported as (-1, 45, 231, 770, 2277)
after pulling out the overall scale 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (NotInUpperHalfPlane, RoundingUnstable, ThetaConstantVanishes,
                     ThetaZeroDivision, ZDependenceDetected)
from .series import rat_str

DEFAULT_Z_LIST = (0.17 + 0.04j, 0.36 - 0.03j, 0.45 + 0.07j)


@dataclass(frozen=True)
class JacobiPoint:
    z: complex
    tau: complex
    cutoff: int = 24

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise NotInUpperHalfPlane(f"Im(tau) = {self.tau.imag} <= 0")


def _theta_cutoff(tau: complex, target: float = 1e-16) -> int:
    # terms decay like |q|^{n^2/2}; solve for the first negligible index
    y = tau.imag
    return max(6, int(math.ceil(math.sqrt(-2 * math.log(target) / (2 * math.pi * y)))) + 3)


def jacobi_theta(i: int, p: JacobiPoint) -> complex:
    """theta_i(z, tau) by direct series summation, nome q = exp(2*pi*i*tau)."""
    if i not in (1, 2, 3, 4):
        raise ValueError("theta index must be 1..4")
    z, tau = p.z, p.tau
    cutoff = max(p.cutoff, _theta_cutoff(tau))
    two_pi_i = 2j * math.pi
    total = 0j
    if i in (1, 2):
        for n in range(-cutoff, cutoff + 1):
            sign = -1 if (i == 1 and n % 2) else 1
            half = n + 0.5
            total += sign * cmath.exp(two_pi_i * (half * half / 2 * tau + half * z))
        if i == 1:
            total *= -1j
    else:
        for n in range(-cutoff, cutoff + 1):
            sign = -1 if (i == 4 and n % 2) else 1
            total += sign * cmath.exp(two_pi_i * (n * n / 2 * tau + n * z))
    return total


def elliptic_genus_k3(p: JacobiPoint) -> complex:
    """8 * sum_{i=2,3,4} (theta_i(z,tau) / theta_i(0,tau))^2 (holomorphic form)."""
    total = 0j
    for i in (2, 3, 4):
        t0 = jacobi_theta(i, JacobiPoint(0.0, p.tau, p.cutoff))
        if abs(t0) < 1e-300:
            raise ThetaConstantVanishes(f"theta_{i}(0, tau) ~ 0")
        tz = jacobi_theta(i, p)
        total += (tz / t0) ** 2
    return 8 * total


def _eta3(tau: complex) -> complex:
    from .special import eta_eval
    return eta_eval(tau) ** 3


def appell_lerch_mu(p: JacobiPoint, z2: complex | None = None) -> complex:
    """Two-variable Appell-Lerch sum mu(u, v; tau), diagonal by default.

    mu = -i * e^{pi i u} / theta_1(v, tau) * sum_n (-1)^n q^{n(n+1)/2} y_v^n / (1 - q^n y_u).

    The -i prefactor is the normalization under which 24 copies subtract
    the elliptic genus to a z-independent remainder.
    """
    u = p.z
    v = u if z2 is None else z2
    tau = p.tau
    q = cmath.exp(2j * math.pi * tau)
    yu = cmath.exp(2j * math.pi * u)
    yv = cmath.exp(2j * math.pi * v)
    theta = jacobi_theta(1, JacobiPoint(v, tau, p.cutoff))
    if abs(theta) < 1e-14:
        raise ThetaZeroDivision(f"theta_1({v}, tau) ~ 0")
    cutoff = max(p.cutoff, _theta_cutoff(tau))
    total = 0j
    for n in range(-cutoff, cutoff + 1):
        denom = 1 - q ** n * yu
        if abs(denom) < 1e-12:
            raise ThetaZeroDivision(f"pole 1 - q^{n} y at z = {u}")
        total += (-1) ** n * q ** (n * (n + 1) // 2) * yv ** n / denom
    return -1j * cmath.exp(1j * math.pi * u) / theta * total


@dataclass(frozen=True)
class MockCoefficients:
    """Integer coefficients of q^{-1/8 + n}, with the factored-out scale."""

    values: tuple[int, ...]
    scale: Fraction
    y0: float
    grid: int
    max_z_deviation: float

    def to_record(self) -> dict:
        return {
            "scale": rat_str(self.scale),
            "values": list(self.values),
            "y0": repr(self.y0),
            "grid": self.grid,
            "max_z_deviation": f"{self.max_z_deviation:.3e}",
        }


def mock_remainder(z: complex, tau: complex, kappa: complex = 24) -> complex:
    """elliptic_genus * eta^3 / theta_1^2 - kappa * mu at one point."""
    p = JacobiPoint(z, tau)
    theta1 = jacobi_theta(1, p)
    if abs(theta1) < 1e-14:
        raise ThetaZeroDivision(f"theta_1({z}, tau) ~ 0")
    return (elliptic_genus_k3(p) * _eta3(tau) / theta1 ** 2
            - kappa * appell_lerch_mu(p))


def extract_mock_coefficients(y0: float = 0.3,
                              z_list: tuple[complex, ...] = DEFAULT_Z_LIST,
                              grid: int = 128,
                              kappa: complex = 24,
                              n_terms: int = 5,
                              z_tolerance: float = 1e-6) -> MockCoefficients:
    """Fourier-extract the integer expansion of the mock-modular remainder.

    Samples q^{1/8} * remainder on tau = x + i*y0 over a uniform x-grid,
    checks z-independence across z_list, undoes the e^{-2 pi n y0} damping
    per mode, rounds to integers, and factors out the scale making the
    leading entry -1.
    """
    import numpy as np  # qcft's only numpy use: imported here, `import qcft` does not load it

    if not (0.15 <= y0 <= 0.5):
        raise ValueError("y0 outside [0.15, 0.5]")
    if grid < 64 or grid & (grid - 1):
        raise ValueError("grid must be a power of two >= 64")
    if len(set(z_list)) < 3:
        raise ValueError("need at least 3 distinct z values")

    rows = []
    for z in z_list:
        samples = np.empty(grid, dtype=complex)
        for j in range(grid):
            tau = j / grid + 1j * y0
            phase = cmath.exp(2j * math.pi * tau / 8)  # q^{1/8}
            samples[j] = phase * mock_remainder(z, tau, kappa)
        rows.append(samples)

    max_dev = 0.0
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            max_dev = max(max_dev, float(np.max(np.abs(rows[a] - rows[b]))))
    if max_dev > z_tolerance:
        raise ZDependenceDetected(
            f"remainder varies with z by {max_dev:.3e} (kappa = {kappa}?)")

    modes = np.fft.fft(rows[0]) / grid
    raw: list[int] = []
    for n in range(n_terms):
        value = modes[n].real * math.exp(2 * math.pi * n * y0)
        nearest = round(value)
        if abs(value - nearest) > 1e-4:
            raise RoundingUnstable(f"mode {n}: {value!r} is not near an integer")
        raw.append(int(nearest))

    scale = Fraction(-raw[0])
    if scale == 0:
        raise RoundingUnstable("leading coefficient vanished; cannot normalize")
    values = []
    for v in raw:
        scaled = Fraction(v) / scale
        if scaled.denominator != 1:
            raise RoundingUnstable(f"scale {scale} does not divide {v}")
        values.append(int(scaled))
    return MockCoefficients(tuple(values), scale, y0, grid, max_dev)
