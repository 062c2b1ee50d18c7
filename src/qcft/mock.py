"""Jacobi theta functions, the K3 elliptic genus, Appell-Lerch subtraction,
and extraction of the integer coefficients of the mock-modular remainder.

The remainder EG * eta^3 / theta_1^2 - KAPPA * mu, KAPPA = 24 = chi(K3), is independent
of z; sampling it on a horizontal tau-grid and Fourier-transforming yields the integer
sequence (-2, 90, 462, 1540, 4554), reported as (-1, 45, 231, 770, 2277) after pulling
out the overall scale 2.

Every value comes from one numpy kernel that evaluates a whole array of tau
at fixed z (numpy is imported inside it, so `import qcft` does not load it):
special.theta_table gives theta_1..theta_4 and mu's numerators, always with the
power-2 cutoff of special.adaptive_cutoff at the smallest Im tau.  A _Table holds
theta_1..theta_4 at z and at 0, z's exponent table, and on first use the elliptic
genus and mu(z, z); its remainder() is the one remainder formula, for the
extraction's rows and for one point alike.

The extraction is a sampler and a reader.  sample_mock_rows(y0, grid) samples
q^{1/8} * remainder at tau = k / grid + i*y0 with one theta_table at z = 0 and one
eta^3 for every row and one theta_table((z,), taus) per z of DEFAULT_Z_LIST;
read_mock_coefficients checks z-independence across the rows to Z_TOLERANCE,
Fourier-transforms them and rounds.  Each step is elementwise in tau and the cutoffs
depend only on y0, so the rows at grid // s are the stride rows[:, ::s], bit for bit:
checks.check_mock samples each height once at grid 256 and reads grid 128 as
rows[:, ::2].  extract_mock_coefficients is the two in a row.

Every one-point entry reads, from a cache of the last POINT_CACHE_SIZE (z, tau), the
one-element _Table of one theta_table((z, 0), folded tau), where a miss folds Re tau
into [-12, 12] (special.fold_tau), so jacobi_theta, elliptic_genus_k3, the diagonal
appell_lerch_mu and mock_remainder of one point share one table, one elliptic genus
and one mu; only an off-diagonal mu builds a table of its own.  The cached arrays
are read-only.  An entry's table is about 1 MB at MAX_CUTOFF, so the cache keeps at
most about POINT_CACHE_SIZE MB.  mock_remainder computes its own one-element eta^3:
eta_eval's scalar path may differ from it in the last bit.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (RoundingUnstable, ThetaConstantVanishes, ThetaZeroDivision,
                     ZDependenceDetected)
from .series import is_int
from .special import CUTOFF_MARGIN, check_tau, eta_values, fold_tau, theta_table

KAPPA = 24   # the copies of mu the remainder subtracts: chi(K3), the elliptic genus at z = 0
# the z rows of the extraction; each |Im z| is inside CUTOFF_MARGIN * 0.15, the lowest y0
DEFAULT_Z_LIST = (0.17 + 0.04j, 0.36 - 0.03j, 0.45 + 0.07j)
# the largest spread across the z rows read_mock_coefficients accepts
Z_TOLERANCE = 1e-6


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


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class JacobiPoint:
    z: complex
    tau: complex

    def __post_init__(self):
        _check_z(self.z, check_tau(self.tau))


def _theta1_guard(theta1, z) -> None:
    import numpy as np
    if np.any(np.abs(theta1) < 1e-14):
        raise ThetaZeroDivision(f"theta_1({z}, tau) ~ 0")


def _elliptic_genus(thetas, zero):
    """8 * sum_{i=2,3,4} (theta_i(z) / theta_i(0))^2 from theta_1..theta_4 at z and at 0."""
    import numpy as np
    for i in (2, 3, 4):
        if np.any(np.abs(zero[i - 1]) < 1e-300):
            raise ThetaConstantVanishes(f"theta_{i}(0, tau) ~ 0")
    return 8 * sum((thetas[i - 1] / zero[i - 1]) ** 2 for i in (2, 3, 4))


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


class _Table:
    """theta_1..theta_4 at z and at z = 0 over an array of tau, z's exponent table, and
    on first use the elliptic genus and mu(z, z) (either can raise, so neither is made
    before it is read).  Alone it builds theta_table((z, 0), taus); given zero, the four
    rows at 0 of a build that several z share, it builds only theta_table((z,), taus).
    Each kernel step is elementwise in tau, so both give the same bits."""

    def __init__(self, z: complex, taus, zero=None):
        self.z, self.taus = z, taus
        table, thetas = theta_table((z, 0) if zero is None else (z,), taus)
        thetas = tuple(map(_read_only, thetas))
        self.table, self.thetas = _read_only(table)[0], tuple(t[0] for t in thetas)
        self.zero = tuple(t[1] for t in thetas) if zero is None else zero

    @functools.cached_property
    def eg(self):
        return _read_only(_elliptic_genus(self.thetas, self.zero))

    @functools.cached_property
    def mu(self):
        """mu(z, z), read after _theta1_guard."""
        return _read_only(_mu(self.z, self.z, self.table, self.thetas[0], self.taus))

    def remainder(self, z: complex, eta3=None):
        """elliptic_genus * eta^3 / theta_1^2 - KAPPA * mu(z, z) at each tau, with the
        eta^3 that rows sharing one tau array pass, else this table's own.  The caller's
        z names the point in an error: a kept table's z may be 0.0 where the caller's is -0.0."""
        theta1 = self.thetas[0]
        _theta1_guard(theta1, z)
        eg = self.eg
        if eta3 is None:
            eta3 = eta_values(self.taus) ** 3
        return eg * eta3 / theta1 ** 2 - KAPPA * self.mu


def _remainder(z: complex, taus):
    """The remainder at each tau of an array, from one table of its own."""
    return _Table(_check_z(z), taus).remainder(z)


# one call reads one or two points; an entry holds up to about 1 MB
POINT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=POINT_CACHE_SIZE)
def _point(z: complex, tau: complex) -> _Table:
    """The _Table of a checked z at fold_tau(tau), folded only when the cache misses."""
    return _Table(z, _read_only(_one(fold_tau(tau))))


def jacobi_theta(i: int, p: JacobiPoint) -> complex:
    """theta_i(z, tau) by direct series summation, nome q = exp(2*pi*i*tau)."""
    if i not in (1, 2, 3, 4):
        raise ValueError("theta index must be 1..4")
    return complex(_point(p.z, p.tau).thetas[i - 1][0])


def elliptic_genus_k3(p: JacobiPoint) -> complex:
    """8 * sum_{i=2,3,4} (theta_i(z,tau) / theta_i(0,tau))^2 (holomorphic form)."""
    return complex(_point(p.z, p.tau).eg[0])


def appell_lerch_mu(p: JacobiPoint, z2: complex | None = None) -> complex:
    """Two-variable Appell-Lerch sum mu(u, v; tau), diagonal by default.

    mu = -i * e^{pi i u} / theta_1(v, tau) * sum_n (-1)^n q^{n(n+1)/2} y_v^n / (1 - q^n y_u).

    The -i prefactor is the normalization under which KAPPA copies subtract
    the elliptic genus to a z-independent remainder.
    """
    u = p.z
    if z2 is None or z2 == u:
        point = _point(p.z, p.tau)
        _theta1_guard(point.thetas[0], u)
        return complex(point.mu[0])
    v, tau = _check_z(z2, p.tau), fold_tau(p.tau)
    table, thetas = theta_table((v,), tau)
    _theta1_guard(thetas[0][0], v)
    return complex(_mu(u, v, table[0], thetas[0][0], _one(tau))[0])


@dataclass(frozen=True)
class MockCoefficients:
    """Integer coefficients of q^{-1/8 + n}, with the factored-out scale.  rounding_margin,
    the largest |value - round(value)| over the modes, stays out of the mock.coefficients
    record that checks.check_mock builds."""

    values: tuple[int, ...]
    scale: Fraction
    grid: int
    max_z_deviation: float
    rounding_margin: float


def mock_remainder(z: complex, tau: complex) -> complex:
    """elliptic_genus * eta^3 / theta_1^2 - KAPPA * mu at one point."""
    return complex(_point(_check_z(z, check_tau(tau)), tau).remainder(z)[0])


# the sampler's time and memory grow as grid: at y0 = 0.15 (the largest cutoff) a grid
# of MAX_GRID takes about 0.33 s and a 34 MB peak of numpy arrays on a 2-core VM
MAX_GRID = 2 ** 14


def _check_grid(grid) -> int:
    """grid itself if it is an int power of two in [64, MAX_GRID], else ValueError."""
    if not (is_int(grid) and 64 <= grid <= MAX_GRID and grid & (grid - 1) == 0):
        raise ValueError(f"grid = {grid!r}: need an int power of two in [64, {MAX_GRID}]")
    return grid


def _check_n_terms(n_terms, grid: int) -> int:
    """n_terms itself if it is an int in [1, grid // 2], else ValueError: past grid // 2
    the FFT's modes are the aliases of negative frequencies."""
    if not (is_int(n_terms) and 1 <= n_terms <= grid // 2):
        raise ValueError(f"n_terms = {n_terms!r}: need an int in [1, {grid // 2}] at grid {grid}")
    return n_terms


def sample_mock_rows(y0: float = 0.3, grid: int = 128):
    """q^{1/8} * remainder at tau = k / grid + i*y0 for k = 0 .. grid - 1: an array with
    one row per z of DEFAULT_Z_LIST.

    One theta_table at z = 0 and one eta^3 serve every row, and each z builds its own
    theta_table((z,), taus).  k / grid is exact, the cutoffs depend only on y0, and every
    step is elementwise in tau, so rows[:, ::s] equal, bit for bit, the rows sampled at
    grid // s.
    """
    import numpy as np

    if not (0.15 <= y0 <= 0.5):
        raise ValueError("y0 outside [0.15, 0.5]")
    _check_grid(grid)
    taus = np.arange(grid) / grid + 1j * y0
    zero = tuple(t[0] for t in theta_table((0,), taus)[1])
    eta3 = eta_values(taus) ** 3
    q_eighth = np.exp(2j * np.pi * taus / 8)
    return np.array([q_eighth * _Table(z, taus, zero).remainder(z, eta3)
                     for z in DEFAULT_Z_LIST])


def read_mock_coefficients(rows, y0: float, n_terms: int = 5) -> MockCoefficients:
    """The coefficients from the rows of sample_mock_rows at y0, or a stride of them.

    Checks z-independence across the rows (to Z_TOLERANCE), Fourier-transforms the
    first, undoes the e^{-2 pi n y0} damping per mode, rounds to integers, and factors
    out the scale making the leading entry -1.
    """
    import numpy as np

    grid = rows.shape[1]
    _check_n_terms(n_terms, grid)
    max_dev = 0.0
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            max_dev = max(max_dev, float(np.max(np.abs(rows[a] - rows[b]))))
    if max_dev > Z_TOLERANCE:
        raise ZDependenceDetected(f"remainder varies with z by {max_dev:.3e} (a wrong KAPPA?)")

    modes = np.fft.fft(rows[0]) / grid
    raw: list[int] = []
    margin = 0.0
    for n in range(n_terms):
        value = float(modes[n].real) * math.exp(2 * math.pi * n * y0)
        nearest = round(value)
        miss = abs(value - nearest)
        if miss > 1e-4:
            raise RoundingUnstable(f"mode {n}: {value!r} is not near an integer")
        margin = max(margin, miss)
        raw.append(nearest)

    scale = -raw[0]
    if scale == 0:
        raise RoundingUnstable("leading coefficient vanished; cannot normalize")
    if any(v % scale for v in raw):
        raise RoundingUnstable(f"scale {scale} does not divide {raw}")
    return MockCoefficients(tuple(v // scale for v in raw), Fraction(scale), grid,
                            max_dev, margin)


def extract_mock_coefficients(y0: float = 0.3, grid: int = 128,
                              n_terms: int = 5) -> MockCoefficients:
    """Fourier-extract the integer expansion of the mock-modular remainder.

    sample_mock_rows, then read_mock_coefficients: samples q^{1/8} * remainder on
    tau = x + i*y0 over a uniform x-grid, checks z-independence across the z rows, undoes
    the e^{-2 pi n y0} damping per mode, rounds to integers, and factors out the scale
    making the leading entry -1.  Every argument is checked before anything is sampled.
    """
    _check_n_terms(n_terms, _check_grid(grid))
    return read_mock_coefficients(sample_mock_rows(y0, grid), y0, n_terms)
