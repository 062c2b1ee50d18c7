"""Compact boson on the torus and the lattice determinant-ratio experiment."""

import cmath
import math
import random

import pytest

from qcft import boson
from qcft.boson import (_MAX_SITES, LatticeSpec, boson_partition_function,
                        continuum_determinant_ratio, lattice_determinant_ratio,
                        theta_lattice_sum, twisted_boson_partition_function)
from qcft.errors import NonpositiveRadius, NotInUpperHalfPlane

TAU = 0.21 + 1.13j


def test_duality_term_bijection():
    # R <-> 2/R swaps the n and w axes, and so their cutoffs n_max and w_max, so the
    # (n, w) <-> (w, n) map is a term-by-term bijection; only float rounding of n/R
    # vs w/(2/R) survives
    for R in (0.8, 1.7, 3.0):
        a = theta_lattice_sum(R, TAU)
        b = theta_lattice_sum(2 / R, TAU)
        assert abs(a - b) < 5e-16 * abs(a)


def test_duality_full_partition_function():
    for R in (0.6, 1.1, 2.5):
        z1 = boson_partition_function(R, TAU)
        z2 = boson_partition_function(2 / R, TAU)
        assert abs(z1 - z2) < 1e-12 * abs(z1)


def test_self_dual_radius_fixed_point():
    r = math.sqrt(2)
    assert abs(boson_partition_function(r, TAU) - boson_partition_function(2 / r, TAU)) == 0.0


def test_t_invariance():
    # h_L - h_R = n*w is an integer, so tau -> tau + 1 is exact up to eta phases
    for R in (0.9, 1.4):
        z1 = boson_partition_function(R, TAU)
        z2 = boson_partition_function(R, TAU + 1)
        assert abs(z1 - z2) < 1e-10 * abs(z1)


def test_s_invariance():
    for R in (0.9, math.sqrt(2), 2.2):
        for s in (0.8, 1.5):
            tau = 1j * s
            z1 = boson_partition_function(R, tau)
            z2 = boson_partition_function(R, -1 / tau)
            assert abs(z1 - z2) < 1e-8 * abs(z1)


def test_partition_function_positive_real():
    z = boson_partition_function(1.23, TAU)
    assert isinstance(z, float) and z > 0
    theta = theta_lattice_sum(1.23, TAU)
    assert abs(theta.imag) < 1e-12 * abs(theta)


def theta_lattice_loop(R, tau):
    """The (n, w) double loop, each axis cut where its factor falls below 1e-15,
    that theta_lattice_sum ran before it became one theta table."""
    budget = -math.log(1e-15) / (2 * math.pi * tau.imag)
    n_max = int(math.ceil(R * math.sqrt(budget))) + 1
    w_max = int(math.ceil(2 / R * math.sqrt(budget))) + 1
    total = 0j
    for n in range(-n_max, n_max + 1):
        for w in range(-w_max, w_max + 1):
            pl = n / R + w * R / 2
            pr = n / R - w * R / 2
            hl, hr = pl * pl / 2, pr * pr / 2
            total += cmath.exp(2j * math.pi * (hl * tau - hr * tau.conjugate()))
    return total


def test_theta_table_matches_double_loop():
    rng = random.Random(1004)
    for _ in range(120):
        R = math.exp(rng.uniform(math.log(0.25), math.log(8.0)))
        tau = complex(rng.uniform(-1.5, 1.5), math.exp(rng.uniform(math.log(0.08), math.log(3.0))))
        want = theta_lattice_loop(R, tau)
        got = theta_lattice_sum(R, tau)
        assert abs(got - want) <= 1e-13 * abs(want), (R, tau, got, want)


def test_input_validation():
    for R in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(NonpositiveRadius):
            theta_lattice_sum(R, TAU)
        with pytest.raises(NonpositiveRadius):
            boson_partition_function(R, TAU)
    with pytest.raises(NotInUpperHalfPlane):
        theta_lattice_sum(1.0, 0.5 - 0.2j)
    with pytest.raises(NotInUpperHalfPlane):
        twisted_boson_partition_function(0.3 - 1j)


def test_twisted_trace_matches_exact_series():
    # evaluate the exact sign-twisted oscillator series numerically
    from qcft.regularization import ArithmeticProgressionSet, twisted_oscillator_series
    from qcft.special import evaluate_series
    f = twisted_oscillator_series(ArithmeticProgressionSet([(1, 1)]), 80)
    for tau in (TAU, 0.4 + 0.9j):
        body = evaluate_series(f, tau)
        # strip the q^{-1/24} prefactor: the twisted trace has no Casimir factor
        import cmath
        body *= cmath.exp(2j * cmath.pi * tau * (1 / 24))
        expect = abs(body) ** 2
        assert abs(twisted_boson_partition_function(tau) - expect) < 1e-10 * expect


def test_twisted_trace_radius_free():
    # signature takes no radius at all; value depends only on tau
    z = twisted_boson_partition_function(TAU)
    assert z > 0


# -- determinant ratios --------------------------------------------------------------

def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec((2, 16))
    with pytest.raises(ValueError):
        LatticeSpec((16, 16), (0.0, 1.0))


def test_equal_masses_give_unity():
    assert lattice_determinant_ratio(LatticeSpec((16, 16)), 1.5, 1.5) == 1.0
    assert continuum_determinant_ratio((1.0, 2.0), 0.7, 0.7) == 1.0


def continuum_ratio_full_sum(lengths, m1, m2, cutoff):
    """The full (2c+1)^2 double loop over -c <= j, k <= c."""
    l1, l2 = lengths
    log_ratio = 0.0
    for j in range(-cutoff, cutoff + 1):
        wj = (2 * math.pi * j / l1) ** 2
        for k in range(-cutoff, cutoff + 1):
            lam = wj + (2 * math.pi * k / l2) ** 2
            log_ratio += math.log((lam + m1 * m1) / (lam + m2 * m2))
    return math.exp(log_ratio)


def test_continuum_quarter_sum_matches_full_sum(monkeypatch):
    for cutoff in (16, 64):
        monkeypatch.setattr(boson, "SPECTRAL_CUTOFF", cutoff)
        for lengths in ((1.0, 1.0), (1.0, 2.0)):
            for m1, m2 in ((1.0, 2.0), (0.5, 3.0)):
                want = continuum_ratio_full_sum(lengths, m1, m2, cutoff)
                got = continuum_determinant_ratio(lengths, m1, m2)
                assert abs(got - want) <= 1e-12 * want


def lattice_ratio_double_loop(spec, m1, m2):
    """The double loop lattice_determinant_ratio ran before its k eigenvalues and
    squared masses were computed once per call."""
    lx, ly = spec.sites
    a1 = spec.lengths[0] / lx
    a2 = spec.lengths[1] / ly
    log_ratio = 0.0
    for j in range(lx):
        cj = (2 / a1 ** 2) * (1 - math.cos(2 * math.pi * j / lx))
        for k in range(ly):
            lam = cj + (2 / a2 ** 2) * (1 - math.cos(2 * math.pi * k / ly))
            log_ratio += math.log((lam + m1 * m1) / (lam + m2 * m2))
    return math.exp(log_ratio)


# the report's sizes and masses, and one rectangular spec
@pytest.mark.parametrize("spec,m1,m2", [
    *((LatticeSpec((n, n)), m1, m2) for n in (16, 32, 64)
      for m1, m2 in ((1.0, 2.0), (0.5, 3.0), (1.5, 1.5))),
    (LatticeSpec((20, 28), (1.0, 2.5)), 1.1, 0.6),
])
def test_lattice_ratio_is_bit_identical_to_the_double_loop(spec, m1, m2):
    assert lattice_determinant_ratio(spec, m1, m2) == lattice_ratio_double_loop(spec, m1, m2)


def test_mass_monotonicity():
    spec = LatticeSpec((24, 24))
    assert lattice_determinant_ratio(spec, 2.0, 1.0) > 1.0
    assert lattice_determinant_ratio(spec, 1.0, 2.0) < 1.0


def test_lattice_converges_to_continuum_reference():
    for lengths, m1, m2 in [((1.0, 2.0), 1.0, 2.0), ((0.5, 3.0), 0.8, 1.7)]:
        target = continuum_determinant_ratio(lengths, m1, m2)
        errs = []
        for n in (16, 32, 64):
            got = lattice_determinant_ratio(LatticeSpec((n, n), lengths), m1, m2)
            errs.append(abs(got - target))
        assert errs[0] > errs[1] > errs[2]


def test_ratio_inverts_under_mass_swap():
    spec = LatticeSpec((20, 28), (1.0, 1.5))
    a = lattice_determinant_ratio(spec, 1.1, 0.6)
    b = lattice_determinant_ratio(spec, 0.6, 1.1)
    assert a * b == pytest.approx(1.0, rel=1e-12)


def test_mass_validation():
    with pytest.raises(ValueError):
        lattice_determinant_ratio(LatticeSpec((8, 8)), -1.0, 1.0)
    with pytest.raises(ValueError):
        continuum_determinant_ratio((1.0, 1.0), 1.0, 0.0)


# each rule is checked before any work: 10^9 sites a side would be 10^18 loop steps

@pytest.mark.parametrize("sites", [(16.5, 16), (16, 16.0), (True, 16), (3, 16),
                                   (10 ** 9, 10 ** 9), (16, _MAX_SITES + 1)])
def test_lattice_sites_are_ints_up_to_the_cap(sites):
    with pytest.raises(ValueError, match="int sites"):
        LatticeSpec(sites)


def test_lattice_sites_at_the_cap_are_accepted():
    assert LatticeSpec((_MAX_SITES, 4)).sites == (_MAX_SITES, 4)


@pytest.mark.parametrize("lengths", [(math.nan, 1.0), (1.0, math.inf), (-1.0, 1.0)])
def test_side_lengths_are_finite_and_positive(lengths):
    with pytest.raises(ValueError, match="side lengths"):
        LatticeSpec((16, 16), lengths)
    with pytest.raises(ValueError, match="side lengths"):
        continuum_determinant_ratio(lengths, 1.0, 2.0)


@pytest.mark.parametrize("m1,m2", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_masses_are_finite_and_positive(m1, m2):
    with pytest.raises(ValueError, match="masses"):
        lattice_determinant_ratio(LatticeSpec((8, 8)), m1, m2)
    with pytest.raises(ValueError, match="masses"):
        continuum_determinant_ratio((1.0, 1.0), m1, m2)
