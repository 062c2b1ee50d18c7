"""Jacobi theta functions, the K3 elliptic genus, Appell-Lerch subtraction,
and extraction of the integer coefficients of the mock-modular remainder.

The remainder EG * eta^3 / theta_1^2 - 24 * mu is independent of z; sampling
it on a horizontal tau-grid and Fourier-transforming yields the integer
sequence (-2, 90, 462, 1540, 4554), reported as (-1, 45, 231, 770, 2277)
after pulling out the overall scale 2.

Every value comes from one numpy kernel that evaluates a whole array of tau
at fixed z (numpy is imported inside it, so `import qcft` does not load it):
special.theta_table gives theta_1..theta_4 and mu's numerators, always with the
power-2 cutoff of special.adaptive_cutoff at the smallest Im tau.  A JacobiPoint
builds its one-element table at (z, 0) on first use and keeps it: jacobi_theta,
elliptic_genus_k3 and the diagonal appell_lerch_mu all read it, and only an
off-diagonal mu builds a table of its own.  mock_remainder is a one-element call
into the array kernel.  Every one-point entry folds Re tau into [-12, 12] first
(special.fold_tau).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (RoundingUnstable, ThetaConstantVanishes, ThetaZeroDivision,
                     ZDependenceDetected)
from .series import rat_str
from .special import CUTOFF_MARGIN, check_tau, eta_values, fold_tau, theta_table

DEFAULT_Z_LIST = (0.17 + 0.04j, 0.36 - 0.03j, 0.45 + 0.07j)


def _check_z(z, tau=None):
    """z itself if it is finite and, given a valid tau, |Im z| <= CUTOFF_MARGIN * Im tau,
    else ValueError.  The theta terms peak at m = -Im z / Im tau, and the cutoff's margin
    is what keeps that peak inside the table."""
    if not cmath.isfinite(z):
        raise ValueError(f"z = {z}: need a finite z")
    if tau is not None and abs(z.imag) > CUTOFF_MARGIN * tau.imag:
        raise ValueError(f"z = {z} at tau = {tau}: need |Im z| <= {CUTOFF_MARGIN} Im tau")
    return z


def _one(tau):
    import numpy as np
    return np.array([tau], dtype=complex)


@dataclass(frozen=True)
class JacobiPoint:
    z: complex
    tau: complex

    # _table is filled by table() on first use; ==, hash, repr, copies and pickles ignore it
    def __post_init__(self):
        _check_z(self.z, check_tau(self.tau))

    def __reduce__(self):
        return JacobiPoint, (self.z, self.tau)

    def table(self):
        """(taus, table, thetas): theta_table((z, 0), tau) at taus = [fold_tau(tau)],
        built on the first call and kept."""
        try:
            return self._table
        except AttributeError:
            tau = fold_tau(self.tau)
            kept = (_one(tau), *theta_table((self.z, 0), tau))
            object.__setattr__(self, "_table", kept)
            return kept


def _theta1_guard(theta1, z) -> None:
    import numpy as np
    if np.any(np.abs(theta1) < 1e-14):
        raise ThetaZeroDivision(f"theta_1({z}, tau) ~ 0")


def _elliptic_genus(thetas):
    """8 * sum_{i=2,3,4} (theta_i(z) / theta_i(0))^2 from the kernel's thetas at (z, 0)."""
    import numpy as np
    for i in (2, 3, 4):
        if np.any(np.abs(thetas[i - 1][1]) < 1e-300):
            raise ThetaConstantVanishes(f"theta_{i}(0, tau) ~ 0")
    return 8 * sum((thetas[i - 1][0] / thetas[i - 1][1]) ** 2 for i in (2, 3, 4))


def _mu(u: complex, v: complex, table_v, theta1_v, taus):
    """-i e^{pi i u} / theta_1(v) * sum_n (-1)^n q^{n(n+1)/2} y_v^n / (1 - q^n y_u).

    The numerators are the half-integer entries of v's theta table, which
    carry an extra q^{1/8} e^{pi i v}.  Where |q^n y_u| > 1 a term is divided
    through by q^n y_u, so no power of q overflows; the pole guard reads the
    denominator actually used.
    """
    import numpy as np
    n = np.arange(len(table_v) // 2) + 1 - len(table_v) // 4   # v's n + 1/2 entries
    # in place, one array of n by tau beside denom: power = q^n y_u,
    # or 1 / (q^n y_u) where flipped, and then the numerator factor
    power = 2j * np.pi * (n[:, None] * taus + u)
    flip = power.real > 0
    np.negative(power, out=power, where=flip)
    np.exp(power, out=power)
    denom = 1 - power
    bad = np.abs(denom) < 1e-12
    if np.any(bad):
        raise ThetaZeroDivision(f"pole 1 - q^{n[np.nonzero(bad)[0][0]]} y at z = {u}")
    np.negative(power, out=power, where=flip)
    power[~flip] = 1
    power *= table_v[1::2]
    power /= denom
    total = power[0::2].sum(axis=0) - power[1::2].sum(axis=0)
    return (-1j * cmath.exp(1j * math.pi * (u - v)) * np.exp(-2j * np.pi * taus / 8)
            / theta1_v * total)


def _remainder(z: complex, taus, kappa: complex):
    """elliptic_genus * eta^3 / theta_1^2 - kappa * mu(z, z) at each tau of an array."""
    table, thetas = theta_table((_check_z(z), 0), taus)
    theta1 = thetas[0][0]
    _theta1_guard(theta1, z)
    eg = _elliptic_genus(thetas)
    return eg * eta_values(taus) ** 3 / theta1 ** 2 - kappa * _mu(z, z, table[0], theta1, taus)


def jacobi_theta(i: int, p: JacobiPoint) -> complex:
    """theta_i(z, tau) by direct series summation, nome q = exp(2*pi*i*tau)."""
    if i not in (1, 2, 3, 4):
        raise ValueError("theta index must be 1..4")
    return complex(p.table()[2][i - 1][0, 0])


def elliptic_genus_k3(p: JacobiPoint) -> complex:
    """8 * sum_{i=2,3,4} (theta_i(z,tau) / theta_i(0,tau))^2 (holomorphic form)."""
    return complex(_elliptic_genus(p.table()[2])[0])


def appell_lerch_mu(p: JacobiPoint, z2: complex | None = None) -> complex:
    """Two-variable Appell-Lerch sum mu(u, v; tau), diagonal by default.

    mu = -i * e^{pi i u} / theta_1(v, tau) * sum_n (-1)^n q^{n(n+1)/2} y_v^n / (1 - q^n y_u).

    The -i prefactor is the normalization under which 24 copies subtract
    the elliptic genus to a z-independent remainder.
    """
    u = p.z
    if z2 is None or z2 == u:
        v = u
        taus, table, thetas = p.table()
    else:
        v, tau = _check_z(z2, p.tau), fold_tau(p.tau)
        taus = _one(tau)
        table, thetas = theta_table((v,), tau)
    _theta1_guard(thetas[0][0], v)
    return complex(_mu(u, v, table[0], thetas[0][0], taus)[0])


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
    tau = fold_tau(tau)
    return complex(_remainder(_check_z(z, tau), _one(tau), kappa)[0])


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
    import numpy as np

    if not (0.15 <= y0 <= 0.5):
        raise ValueError("y0 outside [0.15, 0.5]")
    if grid < 64 or grid & (grid - 1):
        raise ValueError("grid must be a power of two >= 64")
    if len(set(z_list)) < 3:
        raise ValueError("need at least 3 distinct z values")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    for z in z_list:
        _check_z(z, 1j * y0)

    taus = np.arange(grid) / grid + 1j * y0
    q_eighth = np.exp(2j * np.pi * taus / 8)
    rows = [q_eighth * _remainder(z, taus, kappa) for z in z_list]

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
