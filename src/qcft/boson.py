"""Compact free boson on the torus, its twisted trace, and the lattice
determinant-ratio experiment.

Momentum/winding convention: p_{L,R} = n/R +- w R/2, so the duality map is
R <-> 2/R (self-dual at R = sqrt(2)) and h_L - h_R = n w is an integer.  This
normalization is the one under which radius duality, T-invariance and
S-invariance all hold simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CutoffTooLarge, NonpositiveRadius
from .series import is_int
from .special import adaptive_cutoff, check_terms, eta_eval, fold_tau, q_product, theta_table

# a 1024 x 1024 lattice ratio takes ~0.14 s (2 cores, CPython 3.11); the continuum
# reference sums |j|, |k| <= SPECTRAL_CUTOFF, (256 + 1)^2 floats (0.5 MB)
_MAX_SITES, SPECTRAL_CUTOFF = 1024, 256


def _finite_positive(what: str, *xs: float):
    if not all(0 < x < math.inf for x in xs):
        raise ValueError(f"{what} must be finite and positive, got {xs}")


@dataclass(frozen=True)
class LatticeSpec:
    """Periodic rectangular grid: site counts and physical side lengths."""

    sites: tuple[int, int]
    lengths: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if not all(is_int(n) and 4 <= n <= _MAX_SITES for n in self.sites):
            raise ValueError(f"need int sites, 4 to {_MAX_SITES} per direction, got {self.sites}")
        _finite_positive("side lengths", *self.lengths)


def theta_lattice_sum(R: float, tau: complex) -> complex:
    """Momentum/winding double sum: sum over (n, w) of q^{p_L^2/2} qbar^{p_R^2/2},
    as sum_w e^{-pi y R^2 w^2 / 2} theta_3(w x | 2iy / R^2) at tau = x + iy: one
    special.theta_table of integer steps (halves=False) with a z per winding.  Each
    axis takes the power-2 rule, and n_max * w_max / 2 (about the power-1 cutoff at y)
    is held to MAX_CUTOFF too."""
    import numpy as np
    if not 0 < R < math.inf:
        raise NonpositiveRadius(f"R = {R}")
    tau = fold_tau(tau)
    x, y = tau.real, tau.imag
    axes = (2 * y / R / R, y * R * R / 2)   # Im of the n and w nomes
    if not all(0 < a < math.inf for a in axes):
        raise CutoffTooLarge(f"R = {R} at Im tau = {y}: an axis exceeds MAX_CUTOFF")
    n_max, w_max = (adaptive_cutoff(1j * a, 2) for a in axes)   # theta_table's n_max too
    check_terms(n_max * w_max // 2)
    w = np.arange(-w_max, w_max + 1)
    theta3 = theta_table(w * x, 1j * axes[0], halves=False)[1][0][:, 0]
    return complex((np.exp(-np.pi * axes[1] * w * w) * theta3).sum())


def boson_partition_function(R: float, tau: complex) -> float:
    """Z_R(tau) = Theta_R(tau) / |eta(tau)|^2; real and positive."""
    theta = theta_lattice_sum(R, tau)
    return theta.real / abs(eta_eval(tau)) ** 2


def twisted_boson_partition_function(tau: complex) -> float:
    """|prod_n (1 + q^n)^{-1}|^2; structurally independent of the radius."""
    return 1.0 / abs(complex(q_product(fold_tau(tau), 1))) ** 2


# -- determinant ratios ----------------------------------------------------------

def lattice_determinant_ratio(spec: LatticeSpec, m1: float, m2: float) -> float:
    """det(Delta_lattice + m1^2) / det(Delta_lattice + m2^2).

    Eigenvalues of the periodic 5-point Laplacian are explicit; the ratio
    cancels any overall measure normalization.  The k-direction eigenvalues
    and the squared masses are computed once; each term is the same float
    expression, summed in the same order.
    """
    _finite_positive("masses", m1, m2)
    lx, ly = spec.sites
    a1 = spec.lengths[0] / lx
    a2 = spec.lengths[1] / ly
    ck = [(2 / a2 ** 2) * (1 - math.cos(2 * math.pi * k / ly)) for k in range(ly)]
    m1_sq, m2_sq = m1 * m1, m2 * m2
    log_ratio = 0.0
    for j in range(lx):
        cj = (2 / a1 ** 2) * (1 - math.cos(2 * math.pi * j / lx))
        for c in ck:
            lam = cj + c
            log_ratio += math.log((lam + m1_sq) / (lam + m2_sq))
    return math.exp(log_ratio)


def continuum_determinant_ratio(lengths: tuple[float, float], m1: float, m2: float) -> float:
    """Truncated continuum spectral sum over |j|, |k| <= SPECTRAL_CUTOFF.

    The mode sum only converges like a 2d log, so this is a reference value
    at a declared cutoff rather than a limit; lattice ratios approach it as
    the grid refines while the grid momenta stay well inside the cutoff.
    """
    _finite_positive("side lengths", *lengths)
    _finite_positive("masses", m1, m2)
    import numpy as np
    def fold(a):
        # the summand depends on j only through j^2: the sum over -c..c is
        # twice the sum over 0..c less the j = 0 term
        return 2 * a.sum(axis=0) - a[0]

    n = np.arange(SPECTRAL_CUTOFF + 1)
    lam = np.add.outer((2 * np.pi * n / lengths[0]) ** 2, (2 * np.pi * n / lengths[1]) ** 2)
    # log((lam + m1^2) / (lam + m2^2)) = log1p((m1^2 - m2^2) / (lam + m2^2)), in place
    lam += m2 * m2
    np.divide(m1 * m1 - m2 * m2, lam, out=lam)
    return math.exp(fold(fold(np.log1p(lam, out=lam))))
