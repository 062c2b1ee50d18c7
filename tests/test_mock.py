"""Theta functions, the K3 elliptic genus, the Appell-Lerch sum, and the
integer mock-modular coefficients.  Theta oracles are classical identities
and mpmath at 30 digits; the mu function is pinned by its quasi-periodicity
in both arguments and by its defining sum evaluated in mpmath."""

import cmath
import copy
import json
import math
import pickle
import random
import warnings

import mpmath
import numpy as np
import pytest

from qcft import boson, checks, mock, special
from qcft.config import RunConfig
from qcft.errors import (NotInUpperHalfPlane, RoundingUnstable, ThetaConstantVanishes,
                         ThetaZeroDivision, ZDependenceDetected)
from qcft.mock import (DEFAULT_Z_LIST, JacobiPoint, appell_lerch_mu, elliptic_genus_k3,
                       extract_mock_coefficients, jacobi_theta, mock_remainder,
                       read_mock_coefficients, sample_mock_rows)
from qcft.series import rat_str
from qcft.special import eta_eval

TAU = 0.13 + 0.78j


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts and ends with no point or eta kept, so no test reads another's
    builds, nor a value a test made with a patched kernel."""
    mock._point.cache_clear()
    special._eta_at.cache_clear()
    yield
    mock._point.cache_clear()
    special._eta_at.cache_clear()


def theta(i, z, tau=TAU):
    return jacobi_theta(i, JacobiPoint(z, tau))


# -- theta identities -----------------------------------------------------------------

def test_theta1_odd_theta2_even():
    z = 0.23 + 0.11j
    assert abs(theta(1, z) + theta(1, -z)) < 1e-13
    assert abs(theta(2, z) - theta(2, -z)) < 1e-13
    assert abs(theta(1, 0.0)) < 1e-13


def test_theta_periodicity():
    z = 0.31 - 0.05j
    assert abs(theta(1, z + 1) + theta(1, z)) < 1e-12   # antiperiodic
    assert abs(theta(3, z + 1) - theta(3, z)) < 1e-12
    q_eighth = cmath.exp(1j * math.pi * TAU / 4)
    # theta_1(z + tau/2) = i q^{-1/8} e^{-pi i z} theta_4(z)
    lhs = theta(1, z + TAU / 2)
    rhs = 1j / q_eighth * cmath.exp(-1j * math.pi * z) * theta(4, z)
    assert abs(lhs - rhs) < 1e-12


def test_jacobi_quartic_identity():
    # theta_3(0)^4 = theta_2(0)^4 + theta_4(0)^4
    t2, t3, t4 = (theta(i, 0.0) for i in (2, 3, 4))
    assert abs(t3 ** 4 - t2 ** 4 - t4 ** 4) < 1e-13 * abs(t3) ** 4


def test_theta1_derivative_eta_cubed():
    # theta_1'(0, tau) = 2 pi eta(tau)^3
    from qcft.special import eta_eval
    eps = 1e-5
    deriv = (theta(1, eps) - theta(1, -eps)) / (2 * eps)
    assert abs(deriv - 2 * math.pi * eta_eval(TAU) ** 3) < 1e-7 * abs(deriv)


def test_theta_index_validation():
    with pytest.raises(ValueError):
        theta(5, 0.1)
    with pytest.raises(NotInUpperHalfPlane):
        JacobiPoint(0.1, 0.3 - 0.4j)


# -- elliptic genus -------------------------------------------------------------------

def test_elliptic_genus_euler_characteristic():
    for tau in (0.2 + 0.9j, 1j, -0.37 + 0.55j):
        val = elliptic_genus_k3(JacobiPoint(0.0, tau))
        assert abs(val - 24) < 1e-10


def test_elliptic_genus_even_in_z():
    z = 0.21 + 0.06j
    a = elliptic_genus_k3(JacobiPoint(z, TAU))
    b = elliptic_genus_k3(JacobiPoint(-z, TAU))
    assert abs(a - b) < 1e-12 * abs(a)


# -- Appell-Lerch sum ------------------------------------------------------------------

def mu(u, v, tau=TAU):
    return appell_lerch_mu(JacobiPoint(u, tau), z2=v)


def test_mu_symmetric_in_arguments():
    u, v = 0.23 + 0.05j, 0.41 - 0.03j
    assert abs(mu(u, v) - mu(v, u)) < 1e-12


def test_mu_elliptic_shift_u_by_one():
    u, v = 0.19 + 0.04j, 0.37 + 0.02j
    assert abs(mu(u + 1, v) + mu(u, v)) < 1e-12


def test_mu_quasi_periodicity_in_tau_direction():
    # mu(u + tau, v) picks up an exponential plus an inhomogeneous term:
    # mu(u, v) + e^{-2 pi i (u - v) - pi i tau} mu(u + tau, v)
    #   = e^{-pi i (u - v) - pi i tau / 4}
    u, v = 0.23 + 0.05j, 0.41 - 0.03j
    lhs = mu(u, v) + cmath.exp(-2j * math.pi * (u - v) - 1j * math.pi * TAU) \
        * mu(u + TAU, v)
    rhs = cmath.exp(-1j * math.pi * (u - v) - 1j * math.pi * TAU / 4)
    assert abs(lhs - rhs) < 1e-11


def test_mu_diagonal_default():
    z = 0.27 + 0.06j
    assert abs(appell_lerch_mu(JacobiPoint(z, TAU)) - mu(z, z)) < 1e-14


def test_mu_pole_growth_near_zero():
    assert abs(mu(0.01, 0.01)) > abs(mu(0.1, 0.1)) > abs(mu(0.3, 0.3))


def test_mu_rejects_theta_zero():
    with pytest.raises(ThetaZeroDivision):
        mu(0.25, 0.0)   # theta_1(0) = 0


# -- remainder and extraction ------------------------------------------------------------

def test_remainder_z_independent_at_24():
    tau = 0.07 + 0.41j
    vals = [mock_remainder(z, tau) for z in DEFAULT_Z_LIST]
    spread = max(abs(a - b) for a in vals for b in vals)
    assert spread < 1e-9 * max(abs(v) for v in vals)


def test_remainder_z_dependent_otherwise(monkeypatch):
    monkeypatch.setattr(mock, "KAPPA", 23)
    tau = 0.07 + 0.41j
    vals = [mock_remainder(z, tau) for z in DEFAULT_Z_LIST]
    spread = max(abs(a - b) for a in vals for b in vals)
    assert spread > 1e-3


def test_default_z_rows_are_distinct_and_inside_the_bound():
    # the sampler's rows at every y0 it accepts, down to 0.15, are inside mock._check_z's bound
    assert len(set(DEFAULT_Z_LIST)) == 3
    for z in DEFAULT_Z_LIST:
        assert mock._check_z(z, 0.15j) == z


def test_extraction_reference_values():
    got = extract_mock_coefficients()
    assert got.values == (-1, 45, 231, 770, 2277)
    assert got.scale == 2
    assert got.max_z_deviation < 1e-6


def test_extraction_stable_across_settings():
    for y0 in (0.2, 0.4):
        for grid in (64, 128):
            got = extract_mock_coefficients(y0=y0, grid=grid, n_terms=4)
            assert got.values == (-1, 45, 231, 770)


def test_extraction_detects_wrong_kappa(monkeypatch):
    monkeypatch.setattr(mock, "KAPPA", 23)
    with pytest.raises(ZDependenceDetected):
        extract_mock_coefficients()


def test_extraction_argument_validation():
    with pytest.raises(ValueError):
        extract_mock_coefficients(y0=0.05)
    with pytest.raises(ValueError):
        extract_mock_coefficients(grid=100)
    for n_terms in (0, -3):
        with pytest.raises(ValueError):
            extract_mock_coefficients(n_terms=n_terms)


BAD_SIZES = [{"grid": 128.0}, {"grid": True}, {"grid": 2 * mock.MAX_GRID}, {"grid": 2 ** 40},
             {"n_terms": 2.5}, {"n_terms": True}, {"n_terms": 65}, {"grid": 64, "n_terms": 33}]


@pytest.mark.parametrize("kwargs", BAD_SIZES, ids=repr)
def test_extraction_rejects_bad_sizes_before_sampling(monkeypatch, kwargs):
    builds = counting_builds(monkeypatch)
    with pytest.raises(ValueError, match="need an int"):
        extract_mock_coefficients(**kwargs)
    if "n_terms" not in kwargs:
        with pytest.raises(ValueError, match="need an int"):
            sample_mock_rows(**kwargs)
    assert builds == {"theta_table": 0, "q_product": 0}


@pytest.mark.parametrize("n_terms", [0, 65, 2.5])
def test_reader_rejects_n_terms_past_half_the_rows(n_terms):
    rows = sample_mock_rows(grid=128)
    with pytest.raises(ValueError, match=r"\[1, 64\] at grid 128"):
        read_mock_coefficients(rows, 0.3, n_terms)


def test_size_bounds_are_inclusive():
    assert mock._check_grid(64) == 64 and mock._check_grid(mock.MAX_GRID) == mock.MAX_GRID
    assert mock._check_n_terms(1, 64) == 1 and mock._check_n_terms(32, 64) == 32


# -- the vectorized kernel -------------------------------------------------------------

def mp_nome_and_branch(tau):
    """qcft's q^{1/4} = e^{pi i tau / 4} over mpmath's principal root of e^{pi i tau}."""
    nome = mpmath.exp(1j * mpmath.pi * tau)
    return nome, mpmath.exp(1j * mpmath.pi * tau / 4) / mpmath.exp(mpmath.log(nome) / 4)


def mp_theta(i, z, tau):
    nome, branch = mp_nome_and_branch(tau)
    value = mpmath.jtheta(i, mpmath.pi * z, nome)
    return value * branch if i < 3 else value


def mp_mu(u, v, tau):
    """mu(u, v) by its defining sum, until |q|^{n^2/2} < 1e-35, over mpmath's theta_1."""
    q = mpmath.exp(2j * mpmath.pi * tau)
    yu, yv = mpmath.exp(2j * mpmath.pi * u), mpmath.exp(2j * mpmath.pi * v)
    cutoff = int(math.sqrt(2 * 35 * math.log(10) / (2 * math.pi * tau.imag))) + 8
    total = mpmath.fsum((-1) ** n * q ** (n * (n + 1) // 2) * yv ** n / (1 - q ** n * yu)
                        for n in range(-cutoff, cutoff + 1))
    return -1j * mpmath.exp(1j * mpmath.pi * u) / mp_theta(1, v, tau) * total


def seeded_points(count, seed):
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        tau = complex(rng.uniform(-1.5, 1.5), math.exp(rng.uniform(math.log(0.05), math.log(3))))
        u, v = (rng.uniform(0.1, 0.9) + rng.uniform(-0.3, 0.3) * tau for _ in range(2))
        points.append((tau, u, v))
    return points


def assert_relative(got, want, rel, label):
    want = complex(want)
    assert abs(got - want) <= rel * abs(want), (label, got, want)


def test_kernel_against_mpmath():
    with mpmath.workdps(30):
        for tau, u, v in seeded_points(40, 2002):
            for i in (1, 2, 3, 4):
                assert_relative(jacobi_theta(i, JacobiPoint(u, tau)), mp_theta(i, u, tau),
                                1e-10, (i, tau, u))
            assert_relative(eta_eval(tau), mpmath.eta(tau), 1e-10, ("eta", tau))
            assert_relative(mu(u, v, tau), mp_mu(u, v, tau), 1e-10, ("mu", tau, u, v))


def test_kernel_row_equals_points():
    # Im tau varies along the row, so the row's cutoff (set by its smallest
    # Im tau) is larger than most single points' own
    taus = np.linspace(-0.5, 0.5, 17) + 1j * np.linspace(0.1, 1.0, 17)
    z = 0.31 + 0.05j
    row = mock._remainder(z, taus)
    table, thetas = special.theta_table((z,), taus)
    for k, tau in enumerate(taus):
        point = mock_remainder(z, tau)
        assert abs(row[k] - point) <= 1e-13 * abs(point)
        for i in (1, 2, 3, 4):
            point = jacobi_theta(i, JacobiPoint(z, tau))
            assert abs(thetas[i - 1][0, k] - point) <= 1e-13 * abs(point)


def test_kernel_guards_raise_on_rows():
    taus = np.arange(64) / 64 + 0.3j
    with pytest.raises(ThetaZeroDivision):
        mock._remainder(0.0, taus)
    with pytest.raises(NotInUpperHalfPlane):
        mock._remainder(0.2, np.append(taus, 0.5 - 0.1j))


def test_mu_pole_guard():
    with pytest.raises(ThetaZeroDivision, match="pole"):
        mu(0.0, 0.3)            # 1 - q^0 y_u = 0
    with pytest.raises(ThetaZeroDivision, match="pole"):
        mu(TAU, 0.3)            # 1 - q^-1 y_u = 0


def test_theta_constant_guard():
    with pytest.raises(ThetaConstantVanishes):
        elliptic_genus_k3(JacobiPoint(0.2, 1000j))   # theta_2(0) ~ q^{1/8} underflows


def test_large_imaginary_tau():
    # the rule's cutoff at Im tau = 30 is 4, and q^n y_u for n = -4 would reach
    # |q|^-4 = e^{2 pi 4 Im tau} = e^754, past the float range, so those terms are
    # divided through by it
    tau = 0.3 + 30.0j
    assert special.adaptive_cutoff(tau, 2) == 4
    with mpmath.workdps(30):
        assert_relative(mu(0.2 + 0.1j, 0.4, tau), mp_mu(0.2 + 0.1j, 0.4, tau), 1e-10, tau)
    vals = [mock_remainder(z, tau) for z in DEFAULT_Z_LIST]
    assert max(abs(a - vals[0]) for a in vals) < 1e-9 * abs(vals[0])


# -- one theta table per point -----------------------------------------------------------

def test_one_point_builds_one_table(monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[0])
        return special.theta_table(*args, **kwargs)

    monkeypatch.setattr(mock, "theta_table", counted)
    p = JacobiPoint(0.27 + 0.06j, TAU)
    for i in (1, 2, 3, 4):
        jacobi_theta(i, p)
    elliptic_genus_k3(p)
    appell_lerch_mu(p)
    appell_lerch_mu(p, z2=p.z)
    mock_remainder(p.z, p.tau)
    assert len(builds) == 1
    appell_lerch_mu(p, z2=0.41 - 0.03j)   # off the diagonal: a one-row table of its own
    assert builds == [(p.z, 0), (0.41 - 0.03j,)]


def test_cached_arrays_are_read_only():
    p = JacobiPoint(0.27 + 0.06j, TAU)
    before = mock_remainder(p.z, p.tau)
    point = mock._point(p.z, p.tau)
    for a in (point.taus, point.table, *point.thetas, *point.zero, point.eg, point.mu):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert mock_remainder(p.z, p.tau) == before


def counting_builds(monkeypatch):
    """Counts of special.theta_table and special.q_product calls, wherever a module
    bound them."""
    builds = dict.fromkeys(("theta_table", "q_product"), 0)
    for name in builds:
        original = getattr(special, name)

        def counted(*args, original=original, name=name, **kwargs):
            builds[name] += 1
            return original(*args, **kwargs)

        for module in (special, mock, boson):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return builds


def one_point_sequence(z, tau, radius=1.3):
    """The benchmark's one-point kernels in its order, as reprs (an error by its type and
    message)."""
    p = JacobiPoint(z, tau)
    calls = [lambda: boson.boson_partition_function(radius, tau),
             lambda: boson.twisted_boson_partition_function(tau), lambda: eta_eval(tau),
             *(lambda i=i: jacobi_theta(i, p) for i in (1, 2, 3, 4)),
             lambda: elliptic_genus_k3(p), lambda: appell_lerch_mu(p),
             lambda: mock_remainder(z, tau)]
    out = []
    for call in calls:
        try:
            out.append(repr(call()))
        except ThetaZeroDivision as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


def test_one_point_sequence_builds_two_tables_and_three_products(monkeypatch):
    # the lattice sum's table and the point's; eta's, the twisted trace's and the
    # remainder's own one-element eta^3
    builds = counting_builds(monkeypatch)
    first = (0.31 + 0.05j, -0.42 + 0.37j)
    values = one_point_sequence(*first)
    assert builds == {"theta_table": 2, "q_product": 3}
    for tau, z, _ in seeded_points(max(mock.POINT_CACHE_SIZE, special.ETA_CACHE_SIZE) + 1, 16):
        one_point_sequence(z, tau)
    builds.update(theta_table=0, q_product=0)
    assert one_point_sequence(*first) == values   # evicted, rebuilt, the same values
    assert builds == {"theta_table": 2, "q_product": 3}


def test_signed_zeros_read_their_own_values():
    # z = +-0 and Re tau = +-0 are equal keys; each must give what it gives alone
    variants = [(z, complex(x, 0.5)) for z in (0.0, -0.0, 0j, complex(-0.0, -0.0))
                for x in (0.0, -0.0)]
    alone = []
    for z, tau in variants:
        mock._point.cache_clear()
        special._eta_at.cache_clear()
        alone.append(one_point_sequence(z, tau))
    assert [one_point_sequence(z, tau) for z, tau in variants] == alone
    assert alone[1][7:] == ["(24+0j)"] + 2 * ["ThetaZeroDivision: theta_1(0.0, tau) ~ 0"]
    assert alone[2][8:] == 2 * ["ThetaZeroDivision: theta_1(-0.0, tau) ~ 0"]


def one_row_values(z, tau):
    """theta_1..4, the elliptic genus, mu(z, z) and the remainder, each from its own
    table, as every call built one before points kept theirs."""
    taus = np.array([tau], dtype=complex)
    thetas = [complex(special.theta_table((z,), taus)[1][i - 1][0, 0]) for i in (1, 2, 3, 4)]
    at_z_and_0 = special.theta_table((z, 0), taus)[1]
    eg = complex(mock._elliptic_genus(*zip(*at_z_and_0))[0])
    table, row = special.theta_table((z,), taus)
    mu_zz = complex(mock._mu(z, z, table[0], row[0][0], taus)[0])
    return thetas, eg, mu_zz, complex(mock._remainder(z, taus)[0])


def test_point_table_equals_one_row_tables():
    # the remainder keeps its one-element eta^3: eta_eval's scalar value can differ
    # from it in the last bit
    for tau, z, _ in seeded_points(40, 12):
        p = JacobiPoint(z, tau)
        got = ([jacobi_theta(i, p) for i in (1, 2, 3, 4)], elliptic_genus_k3(p),
               appell_lerch_mu(p), mock_remainder(z, tau))
        assert got == one_row_values(z, tau), (tau, z)


def test_point_memo_is_invisible():
    p, fresh = JacobiPoint(0.31 + 0.05j, TAU), JacobiPoint(0.31 + 0.05j, TAU)
    value = jacobi_theta(3, p)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert other == p and hash(other) == hash(p) and repr(other) == repr(p)
        assert jacobi_theta(3, other) == value
    with pytest.raises(AttributeError):
        p.z = 0.2


NONFINITE_Z = [math.nan, math.inf, complex(0.2, math.nan), complex(-math.inf, 0.1)]


@pytest.mark.parametrize("z", NONFINITE_Z, ids=repr)
def test_nonfinite_z_raises(z):
    with pytest.raises(ValueError, match="finite z"):
        JacobiPoint(z, TAU)
    with pytest.raises(ValueError, match="finite z"):
        mock_remainder(z, TAU)
    with pytest.raises(ValueError, match="finite z"):
        appell_lerch_mu(JacobiPoint(0.2, TAU), z2=z)
    with pytest.raises(ValueError, match="finite z"):
        mock._remainder(z, np.array([TAU, 0.1 + 0.5j]))


# the theta terms peak at m = -Im z / Im tau; the cutoff's margin covers |Im z| <= 3 Im tau
EDGE = special.CUTOFF_MARGIN * TAU.imag


def test_z_bound_keeps_values_to_the_edge():
    with mpmath.workdps(30):
        for z in (0.2 + 1j * EDGE, 0.2 - 1j * EDGE):
            for i in (1, 2, 3, 4):
                assert_relative(theta(i, z), mp_theta(i, z, TAU), 1e-10, (i, z))
            assert_relative(mu(z, 0.3), mp_mu(z, 0.3, TAU), 1e-10, ("mu", z))
            assert_relative(mu(0.3, z), mp_mu(0.3, z, TAU), 1e-10, ("mu", z))
            with pytest.raises(ValueError, match="Im z"):
                JacobiPoint(z + 1e-9j * z.imag, TAU)


PAST_THE_BOUND = [(0.2 + 1.001j * EDGE, TAU), (0.2 - 1.001j * EDGE, TAU), (0.2 + 40j, 0.5j)]


@pytest.mark.parametrize("z,tau", PAST_THE_BOUND, ids=["above", "below", "far"])
def test_z_past_the_bound_raises(z, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # raised before numpy sees the point
        with pytest.raises(ValueError, match="Im z"):
            JacobiPoint(z, tau)
        with pytest.raises(ValueError, match="Im z"):
            mock_remainder(z, tau)
        with pytest.raises(ValueError, match="Im z"):
            appell_lerch_mu(JacobiPoint(0.2, tau), z2=z)


# -- one sampling per mock height ------------------------------------------------------

REPORT_Y0 = (0.2, 0.3, 0.4)


def test_check_mock_builds_thirteen_tables_and_three_products(monkeypatch):
    # the origin point's table, then per y0 one zero-row table, one table per z and one
    # eta^3; a standalone extraction builds one height's worth
    builds = counting_builds(monkeypatch)
    checks.check_mock(RunConfig())
    assert builds == {"theta_table": 13, "q_product": 3}
    builds.update(theta_table=0, q_product=0)
    extract_mock_coefficients()
    assert builds == {"theta_table": 4, "q_product": 1}


@pytest.mark.parametrize("y0", REPORT_Y0)
def test_strided_rows_equal_rows_sampled_at_half_the_grid(y0):
    for grid in (128, 256):
        assert np.array_equal(sample_mock_rows(y0, grid=grid)[:, ::2],
                              sample_mock_rows(y0, grid=grid // 2))


@pytest.mark.parametrize("y0", REPORT_Y0)
def test_shared_rows_equal_rows_of_their_own_tables(y0):
    # one zero-row table and one eta^3 for every z give the bits of one (z, 0) table each
    taus = np.arange(256) / 256 + 1j * y0
    q_eighth = np.exp(2j * np.pi * taus / 8)
    for z, row in zip(DEFAULT_Z_LIST, sample_mock_rows(y0, grid=256)):
        assert np.array_equal(row, q_eighth * mock._remainder(z, taus))


def test_check_mock_records_equal_standalone_extractions():
    records = [r for r in checks.check_mock(RunConfig()) if r.name == "mock.coefficients"]
    assert [(r.params["y0"], r.params["grid"]) for r in records] == [
        (y0, grid) for y0 in REPORT_Y0 for grid in (128, 256)]
    for r in records:
        y0, grid = r.params["y0"], r.params["grid"]
        alone = extract_mock_coefficients(y0=y0, grid=grid)
        read = read_mock_coefficients(sample_mock_rows(y0, grid=256)[:, ::256 // grid], y0)
        assert read == alone
        assert r.residual == f"{alone.max_z_deviation:.17g}"
        assert r.details == {"values": list(alone.values), "scale": rat_str(alone.scale)}
        assert r.passed


def test_check_mock_catches_a_perturbed_elliptic_genus(monkeypatch):
    genus = mock._elliptic_genus
    monkeypatch.setattr(mock, "_elliptic_genus", lambda *a: genus(*a) * (1 + 1e-6))
    with pytest.raises(ZDependenceDetected):
        checks.check_mock(RunConfig())


@pytest.mark.parametrize("y0", REPORT_Y0)
def test_rounding_margin_is_small_at_report_settings(y0):
    rows = sample_mock_rows(y0, grid=256)
    records = {r.params["grid"]: r.to_record() for r in checks.check_mock(RunConfig())
               if r.name == "mock.coefficients" and r.params["y0"] == y0}
    for stride in (2, 1):
        got = read_mock_coefficients(rows[:, ::stride], y0)
        assert got.values == (-1, 45, 231, 770, 2277)
        assert 0 <= got.rounding_margin < 1e-9
        record = records[256 // stride]
        assert "rounding_margin" not in record and "rounding_margin" not in record["details"]
        assert repr(got.rounding_margin) not in json.dumps(record)
