"""Eta, Eisenstein and Rogers-Ramanujan constructors checked against
independently coded brute-force oracles (plain integer convolution, divisor
enumeration, partition enumeration)."""

import cmath
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcft import boson, checks, mock, partitions, regularization, special, virasoro
from qcft.config import RunConfig
from qcft.errors import CutoffTooLarge, NotInUpperHalfPlane, OrderTooLarge
from qcft.series import MAX_ORDER, FracQSeries
from qcft.special import (CUTOFF_MARGIN, CUTOFF_TARGET, adaptive_cutoff,
                          dedekind_eta, eisenstein, euler_product, eta_eval, evaluate_series,
                          rr_product)

ORDER = 40


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts with no eta or point kept, so no test reads another's builds."""
    special._eta_at.cache_clear()
    mock._point.cache_clear()


def convolve(a, b, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return out


def product_over(factors, n):
    """Expand a product of polynomials given as coefficient lists."""
    acc = [1] + [0] * (n - 1)
    for f in factors:
        acc = convolve(acc, f, n)
    return acc


def series_invert(a, n):
    out = [F(1, a[0])]
    for k in range(1, n):
        out.append(-sum(a[j] * out[k - j] for j in range(1, k + 1)) / a[0])
    return out


def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


# -- eta ------------------------------------------------------------------------

def test_eta_prefactor():
    assert dedekind_eta(ORDER).prefactor == F(1, 24)


def test_eta_matches_bruteforce_product():
    eta = dedekind_eta(ORDER)
    factors = []
    for m in range(1, ORDER):
        f = [1] + [0] * (ORDER - 1)
        f[m] = -1
        factors.append(f)
    expect = product_over(factors, ORDER)
    assert [int(c) for c in eta.coeffs] == expect


def test_eta_pentagonal_pattern():
    # exponents n(3n-1)/2 carry sign (-1)^n, everything else vanishes
    eta = dedekind_eta(ORDER)
    expect = [0] * ORDER
    n = 1
    expect[0] = 1
    while True:
        e1, e2 = n * (3 * n - 1) // 2, n * (3 * n + 1) // 2
        if e1 >= ORDER:
            break
        expect[e1] = (-1) ** n
        if e2 < ORDER:
            expect[e2] = (-1) ** n
        n += 1
    assert [int(c) for c in eta.coeffs] == expect
    assert [int(c) for c in eta.coeffs[:13]] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_eta_builds_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("eta expanded a product")

    monkeypatch.setattr(special, "euler_product", refuse)
    eta = dedekind_eta(401)
    monkeypatch.undo()
    assert eta == _eta_product(401)


def test_pentagonal_matches_bruteforce():
    for n in range(501):
        expect = {k * (3 * k + s) // 2: (-1) ** k for k in range(1, n + 1) for s in (-1, 1)}
        assert list(special.pentagonal(n)) == sorted((g, v) for g, v in expect.items() if g <= n)


@pytest.mark.parametrize("fault", [None, 1, 40, 77])
def test_a_pentagonal_sign_fault_is_caught(fault, monkeypatch):
    # one flipped sign: the report's eta record (to q^79) and p(n) against the DP both see it
    honest = special.pentagonal
    monkeypatch.setattr(special, "pentagonal", lambda n_max: (
        (g, -sign if g == fault else sign) for g, sign in honest(n_max)))
    record, = (r for r in checks.check_casimir(RunConfig())
               if r.name == "casimir.oscillator_is_inverse_eta")
    assert record.passed == (fault is None)
    counts = partitions.count_partitions(100, partitions.PartitionConstraint())
    assert (partitions.unrestricted_p(100).values == counts.values) == (fault is None)


# -- eisenstein -------------------------------------------------------------------

@pytest.mark.parametrize("k,weight_factor", [(2, -24), (4, 240)])
def test_eisenstein_divisor_oracle(k, weight_factor):
    e = eisenstein(k, ORDER)
    assert e.coeffs[0] == 1
    for n in range(1, ORDER):
        assert e.coeffs[n] == weight_factor * sigma(k - 1, n)


def test_eisenstein_rejects_other_weights():
    with pytest.raises(ValueError):
        eisenstein(6, ORDER)


# -- rogers-ramanujan products -----------------------------------------------------

def enumerate_congruence_partitions(n, residues, modulus):
    parts = [m for m in range(1, n + 1) if m % modulus in residues]

    def count(total, idx):
        if total == 0:
            return 1
        if idx == len(parts) or parts[idx] > total:
            return 0
        return count(total - parts[idx], idx) + count(total, idx + 1)

    return count(n, 0)


@pytest.mark.parametrize("which,residues", [("G", {1, 4}), ("H", {2, 3})])
def test_rr_counts_by_enumeration(which, residues):
    g = rr_product(which, ORDER)
    assert g.prefactor == 0
    for n in range(ORDER):
        assert g.coeffs[n] == enumerate_congruence_partitions(n, residues, 5)


@pytest.mark.parametrize("which", ["g", "", "GH"])
def test_rr_product_rejects_an_unknown_label(which):
    with pytest.raises(ValueError, match="which must be 'G' or 'H'"):
        rr_product(which, 10)


def test_rr_small_values():
    g = rr_product("G", 10)
    h = rr_product("H", 10)
    assert int(g.coeffs[4]) == 2   # {4}, {1,1,1,1}
    assert int(h.coeffs[5]) == 1   # {3,2}
    assert int(h.coeffs[7]) == 2   # {7}, {3,2,2}


# -- euler_product ------------------------------------------------------------------

@given(st.lists(st.integers(1, 45), max_size=15), st.sampled_from((-1, 1)), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_euler_product_matches_mul_sparse_chain(exponents, sign, order):
    chain = FracQSeries.one(order)
    for e in exponents:
        chain = chain.mul_sparse(e, sign)
    assert euler_product(exponents, sign, order) == series_invert(chain.coeffs, order)


def test_euler_product_validation():
    with pytest.raises(ValueError):
        euler_product([1], -1, 0)
    with pytest.raises(ValueError):
        euler_product([0], -1, 5)


# -- the triple-product quotient ---------------------------------------------------

PAIRS = [(p, i) for p in range(2, 14) for i in range(1, p) if 2 * i < p]


def pair_spectrum(p, i):
    return regularization.ArithmeticProgressionSet([(p, p - i), (p, i)])


def test_triple_product_matches_the_expanded_product():
    # Jacobi: prod over n = 0, +-i (mod p) of (1 - q^n), expanded by convolution to q^60
    for p, i in PAIRS:
        expect = product_over([[1] + [0] * (n - 1) + [-1] for n in range(1, 61)
                               if n % p in (0, i, p - i)], 61)
        got = [1] + [0] * 60
        for g, sign in special.triple_product(p, i, 60):
            got[g] = sign
        assert got == expect, (p, i)


@pytest.mark.parametrize("order", [1, 2, 7, 64, 401, 1001])
def test_the_quotient_matches_euler_product(order):
    for p, i in PAIRS:
        spectrum = pair_spectrum(p, i)
        expect = euler_product(spectrum.members(order), -1, order)
        assert spectrum.inverse_product(-1, order) == expect, (p, i)


def test_rr_products_never_call_euler_product(monkeypatch):
    expect = {w: euler_product(s.members(401), -1, 401) for w, s in special.RR_SPECTRUM.items()}

    def refuse(*args):
        raise AssertionError("euler_product called")

    monkeypatch.setattr(special, "euler_product", refuse)
    for w, s in special.RR_SPECTRUM.items():
        assert rr_product(w, 401) == FracQSeries.from_ints(0, expect[w])
        osc = regularization.oscillator_partition_series(s, 401)
        assert osc == FracQSeries.from_ints(regularization.casimir_exponent(s), expect[w])
        assert virasoro.ode_residual(w, 64).is_zero()
    # the (1, 1) spectrum and the twisted sign stay on the coin-change pass
    everything = regularization.ArithmeticProgressionSet([(1, 1)])
    with pytest.raises(AssertionError, match="euler_product called"):
        regularization.oscillator_partition_series(everything, 40)
    with pytest.raises(AssertionError, match="euler_product called"):
        regularization.twisted_oscillator_series(special.RR_SPECTRUM["G"], 40)


@pytest.mark.parametrize("progressions", [[(1, 1)], [(2, 1)], [(5, 1), (5, 3)],
                                          [(5, 1), (10, 4)], [(4, 1), (4, 3), (4, 2)],
                                          [(6, 1), (3, 2)]])
@pytest.mark.parametrize("sign", [-1, 1])
def test_other_spectra_take_euler_product(progressions, sign, monkeypatch):
    def refuse(*args):
        raise AssertionError("sparse_quotient called")

    monkeypatch.setattr(special, "sparse_quotient", refuse)
    spectrum = regularization.ArithmeticProgressionSet(progressions)
    assert spectrum.inverse_product(sign, 64) == euler_product(spectrum.members(64), sign, 64)


# -- numerical evaluation -----------------------------------------------------------

def test_eta_eval_matches_series_evaluation():
    tau = 0.11 + 0.92j
    f = dedekind_eta(120)
    assert abs(eta_eval(tau) - evaluate_series(f, tau)) < 1e-13


def horner_reference(f, tau):
    """evaluate_series coefficient by coefficient: complex(Fraction) at each step."""
    q = cmath.exp(2j * math.pi * tau)
    acc = 0j
    for c in reversed(f.coeffs):
        acc = acc * q + complex(c)
    if f.prefactor != 0:
        acc *= cmath.exp(2j * math.pi * tau * complex(f.prefactor))
    return acc


def test_evaluate_series_equals_fraction_horner():
    rng = random.Random(1101)
    for _ in range(300):
        coeffs = [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                  for _ in range(rng.randint(1, 60))]
        f = FracQSeries(F(rng.randint(-120, 120), 60), coeffs)
        tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.08, 3.0))
        assert evaluate_series(f, tau) == horner_reference(f, tau), (f, tau)
    # 1 / (1 - 4q/3): coefficients (4/3)^k, denominators 3^k past order 600
    f = FracQSeries(F(-1, 60), [1, F(-4, 3)] + [0] * 700).invert()
    assert f.coeffs[650].denominator == 3 ** 650
    for tau in (0.3j, 0.21 + 0.4j, -1.1 + 2.5j):
        assert evaluate_series(f, tau) == horner_reference(f, tau)


def test_evaluate_series_overflows_like_fraction():
    f = FracQSeries(0, [1, 10 ** 400])
    for evaluate in (evaluate_series, horner_reference):
        with pytest.raises(OverflowError):
            evaluate(f, 0.5j)


def test_theta_table_integer_steps_equal_the_full_table():
    zs = (0.0, 0.31 + 0.05j, -1.7, 0.5j)
    rows = [np.linspace(-0.7, 0.9, 11) + 1j * np.geomspace(y, 2.0, 11) for y in (0.08, 0.1)]
    assert {adaptive_cutoff(taus, 2) % 2 for taus in rows} == {0, 1}   # 15 and 14
    for taus in rows:
        table, thetas = special.theta_table(zs, taus)
        half, (theta3, theta4) = special.theta_table(zs, taus, halves=False)
        rule = adaptive_cutoff(taus, 2)
        assert half.shape[1] // 2 - 1 == rule + rule % 2   # an odd cutoff is rounded up to even
        assert np.array_equal(half, table[:, ::2])
        assert np.array_equal(theta3, thetas[2])
        assert np.array_equal(theta4, thetas[3])


def test_eta_modular_inversion():
    # eta(-1/tau) = sqrt(-i tau) eta(tau)
    tau = 0.3 + 1.1j
    lhs = eta_eval(-1 / tau)
    rhs = cmath.sqrt(-1j * tau) * eta_eval(tau)
    assert abs(lhs - rhs) < 1e-10


def test_eta_translation():
    tau = -0.4 + 0.8j
    lhs = eta_eval(tau + 1)
    rhs = cmath.exp(1j * cmath.pi / 12) * eta_eval(tau)
    assert abs(lhs - rhs) < 1e-12


Z, Z2 = 0.2 + 0.05j, 0.41 - 0.03j
AT_ONE_POINT = {
    "eta": eta_eval,
    **{f"theta_{i}": (lambda t, i=i: mock.jacobi_theta(i, mock.JacobiPoint(Z, t)))
       for i in (1, 2, 3, 4)},
    "mu": lambda t: mock.appell_lerch_mu(mock.JacobiPoint(Z, t)),
    "mu(u, v)": lambda t: mock.appell_lerch_mu(mock.JacobiPoint(Z, t), Z2),
    "mock_remainder": lambda t: mock.mock_remainder(Z, t),
    "boson_partition_function": lambda t: boson.boson_partition_function(1.3, t),
    "twisted_boson_partition_function": boson.twisted_boson_partition_function,
    "torus_partition_function_25": virasoro.torus_partition_function_25,
}
# tau -> tau + 1 multiplies each by e^{2 pi i r / 24} (eta: q^{1/24}; theta_1, theta_2:
# q^{1/8}; mu and the remainder: 1 / theta_1(v)), swaps theta_3 and theta_4, and leaves
# the three partition functions alone
T_PHASE = {"eta": 1, "theta_1": 3, "theta_2": 3, "mu": -3, "mu(u, v)": -3, "mock_remainder": -3}
T_SWAP = {"theta_3": "theta_4", "theta_4": "theta_3"}


@pytest.mark.parametrize("re_tau", [1e6 + 0.3, 123456789.3, 1e17], ids=repr)
@pytest.mark.parametrize("entry", sorted(AT_ONE_POINT))
def test_large_real_part_matches_the_t_image(entry, re_tau):
    # at tau = k + x + iy the value is the T-image of the one at x + iy, whose exps
    # see no large Re tau; e.g. eta(1e17 + i) = e^{2 pi i 16 / 24} eta(i)
    k = int(re_tau)
    x = re_tau - k   # exact
    image = T_SWAP.get(entry, entry) if k % 2 else entry
    phase = cmath.exp(2j * math.pi * (T_PHASE.get(entry, 0) * k % 24) / 24)
    for y in (0.3, 1.0, 2.5):
        got = AT_ONE_POINT[entry](complex(re_tau, y))
        want = phase * AT_ONE_POINT[image](complex(x, y))
        assert abs(got - want) <= 1e-12 * abs(want), y


@pytest.mark.parametrize("re_tau", [1e6 + 0.3, 123456789.3, 1e17], ids=repr)
@pytest.mark.parametrize("sector", ["Vm15", "V0"])
def test_series_at_large_real_part_matches_the_t_image(sector, re_tau):
    # the integer powers have period 1 and q^a picks up e^{2 pi i a k} at tau + k
    f = virasoro.character_25(sector)
    k = int(re_tau)
    x = re_tau - k   # exact
    phase = cmath.exp(2j * math.pi * float(f.prefactor * k % 1))
    for y in (0.3, 1.0, 2.5):
        got = evaluate_series(f, complex(re_tau, y))
        want = phase * evaluate_series(f, complex(x, y))
        assert abs(got - want) <= 1e-12 * abs(want), y


def test_fold_tau_period():
    # exact: 1e17 = 120 * 833333333333333 + 40, and |Re tau| <= period / 2 is kept as is
    assert special.fold_tau(1e17 + 1j, 120) == 40 + 1j
    assert special.fold_tau(36.5 + 1j) == -11.5 + 1j
    for x in (-60.0, -12.0, -0.0, 0.7, 12.0, 59.9):
        folded = special.fold_tau(complex(x, 0.5), 120)
        assert folded == complex(x, 0.5) and math.copysign(1, folded.real) == math.copysign(1, x)


def test_eta_eval_keeps_each_folded_tau(monkeypatch):
    products, q_product = [], special.q_product

    def counted(*args, **kwargs):
        products.append(args[0])
        return q_product(*args, **kwargs)

    monkeypatch.setattr(special, "q_product", counted)
    tau = 0.25 + 0.4j   # tau + 24 folds back to it exactly
    value = eta_eval(tau)
    assert eta_eval(tau + 24) == value == eta_eval(tau) and products == [tau]
    for k in range(special.ETA_CACHE_SIZE):
        eta_eval(complex(0.01 * k, 0.5))
    assert eta_eval(tau) == value   # evicted, rebuilt, the same
    assert len(products) == special.ETA_CACHE_SIZE + 2 and products[-1] == tau


def test_adaptive_cutoff_grows_near_real_axis():
    assert adaptive_cutoff(0.1 + 0.05j) > adaptive_cutoff(0.1 + 2.0j)


def test_cutoff_rule_first_neglected_term_below_target():
    # the terms decay like |q|^(n^p / p) = exp(-2 pi y n^p / p)
    rng = random.Random(515)
    for _ in range(200):
        tau = complex(rng.uniform(-1.5, 1.5), math.exp(rng.uniform(math.log(1e-3), math.log(10))))
        for power in (1, 2):
            n = adaptive_cutoff(tau, power)
            term = lambda k: math.exp(-2 * math.pi * tau.imag * k ** power / power)
            assert term(n + 1) < CUTOFF_TARGET, (tau, power, n)
            # and only the margin past the first index below the target
            assert term(n - CUTOFF_MARGIN - 1) >= CUTOFF_TARGET, (tau, power, n)


def test_q_product_matches_sequential_product():
    # the loop eta_eval and the twisted trace ran before one np.prod replaced them
    for tau in (0.11 + 0.92j, -1.3 + 0.06j, 0.5 + 2.5j):
        for sign in (-1, 1):
            cutoff = adaptive_cutoff(tau)
            q, qn, prod = cmath.exp(2j * cmath.pi * tau), 1.0 + 0j, 1.0 + 0j
            for _ in range(cutoff):
                qn *= q
                prod *= 1 + sign * qn
            got = complex(special.q_product(tau, sign))
            assert abs(got - prod) < 1e-13 * abs(prod)


def test_residue_filter_gives_rogers_ramanujan_products():
    # 1 / prod (1 - q^n) over n = +-1 or +-2 mod 5 against the exact G and H series
    for tau in (0.11 + 0.92j, -0.7 + 0.4j, 1.3 + 1.5j):
        for which, spectrum in special.RR_SPECTRUM.items():
            got = 1 / complex(special.q_product(tau, -1, spectrum=spectrum))
            want = evaluate_series(rr_product(which, 201), tau)
            assert abs(got - want) < 1e-13 * abs(want), (tau, which)


# each product declared once, by its spectrum and sign: exact, and evaluated numerically
TWINS = {
    "G": (special.RR_SPECTRUM["G"], -1),
    "H": (special.RR_SPECTRUM["H"], -1),
    "all n, -1": (regularization.ArithmeticProgressionSet([(1, 1)]), -1),
    "all n, +1": (regularization.ArithmeticProgressionSet([(1, 1)]), 1),
}
TWIN_TAUS = (0.3j, 0.41 + 0.3j, -0.5 + 0.35j, 0.17 + 0.5j, -1.3 + 0.72j, 0.5 + 1.0j,
             2.7 + 1.6j, -0.08 + 3.1j)


def _twin_gap(spectrum, sign):
    # the exact 1 / prod (1 + sign q^e), prefactor dropped, to order 201: converged to
    # 1e-16 for Im tau >= 0.03, so it is independent of the numeric cutoff
    exact = FracQSeries.from_ints(0, euler_product(spectrum.members(201), sign, 201))
    return max(abs(evaluate_series(exact, tau) * complex(special.q_product(tau, sign, spectrum))
                   - 1) for tau in TWIN_TAUS)


@pytest.mark.parametrize("entry", sorted(TWINS))
def test_exact_and_numeric_products_agree(entry):
    assert _twin_gap(*TWINS[entry]) <= 1e-13


@pytest.mark.parametrize("entry", sorted(TWINS))
def test_a_loose_cutoff_parts_the_twins(entry, monkeypatch):
    # the numeric side alone truncates early, and the gap shows it
    monkeypatch.setattr(special, "CUTOFF_TARGET", 1e-6)
    assert _twin_gap(*TWINS[entry]) > 1e-13


def test_array_cutoff_follows_smallest_imaginary_part():
    taus = np.array([0.2 + 1.5j, -0.4 + 0.07j, 0.9 + 0.6j])
    assert adaptive_cutoff(taus) == adaptive_cutoff(-0.4 + 0.07j)
    row = special.eta_values(taus)
    for tau, value in zip(taus, row):
        assert abs(value - eta_eval(tau)) < 1e-14 * abs(value)


BAD_TAUS = [0.3 + 0j, 0.3 - 0.4j, complex(0.1, math.nan), complex(math.nan, 0.5),
            complex(0.1, math.inf), complex(math.inf, 0.5)]

NUMERIC_ENTRY_POINTS = {
    "check_tau": special.check_tau,
    "adaptive_cutoff": adaptive_cutoff,
    "q_product": lambda t: special.q_product(t, 1),
    "theta_table": lambda t: special.theta_table((0.2,), t),
    "eta_values": special.eta_values,
    "eta_eval": eta_eval,
    "evaluate_series": lambda t: evaluate_series(dedekind_eta(8), t),
    "JacobiPoint": lambda t: mock.JacobiPoint(0.2, t),
    "mock_remainder": lambda t: mock.mock_remainder(0.2, t),
    "kernel row": lambda t: mock._remainder(0.2, np.array([0.1 + 0.5j, t])),
    "theta_lattice_sum": lambda t: boson.theta_lattice_sum(1.0, t),
    "boson_partition_function": lambda t: boson.boson_partition_function(1.0, t),
    "twisted_boson_partition_function": boson.twisted_boson_partition_function,
    "torus_partition_function_25": virasoro.torus_partition_function_25,
}


@pytest.mark.parametrize("tau", BAD_TAUS, ids=repr)
@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
def test_numeric_entry_points_reject_bad_tau(entry, tau):
    with pytest.raises(NotInUpperHalfPlane):
        NUMERIC_ENTRY_POINTS[entry](tau)


TINY_Y = 0.3 + 1e-12j

EXTREME_INPUTS = {
    "adaptive_cutoff": lambda: adaptive_cutoff(TINY_Y),
    "adaptive_cutoff power 2": lambda: adaptive_cutoff(TINY_Y, 2),
    "q_product": lambda: special.q_product(TINY_Y, 1),
    "eta_values": lambda: special.eta_values(np.array([0.1 + 0.5j, TINY_Y])),
    "eta_eval": lambda: eta_eval(1e-12j),
    "theta_table": lambda: special.theta_table((0.2,), np.array([TINY_Y])),
    "jacobi_theta": lambda: mock.jacobi_theta(3, mock.JacobiPoint(0.2, TINY_Y)),
    "elliptic_genus_k3": lambda: mock.elliptic_genus_k3(mock.JacobiPoint(0.2, TINY_Y)),
    "appell_lerch_mu": lambda: mock.appell_lerch_mu(mock.JacobiPoint(0.2, TINY_Y)),
    "mock_remainder": lambda: mock.mock_remainder(0.2, TINY_Y),
    "kernel row": lambda: mock._remainder(0.2, np.array([0.1 + 0.5j, TINY_Y])),
    "theta_lattice_sum": lambda: boson.theta_lattice_sum(1.0, TINY_Y),
    "boson_partition_function": lambda: boson.boson_partition_function(1.0, TINY_Y),
    "twisted_boson_partition_function": lambda: boson.twisted_boson_partition_function(TINY_Y),
    "torus_partition_function_25": lambda: virasoro.torus_partition_function_25(TINY_Y),
    "theta_lattice_sum R = 1e-9": lambda: boson.theta_lattice_sum(1e-9, 1j),
    "boson_partition_function R = 1e-9": lambda: boson.boson_partition_function(1e-9, 1j),
    "theta_lattice_sum R = 1e9": lambda: boson.theta_lattice_sum(1e9, 1j),
    "theta_lattice_sum R = 1e-200": lambda: boson.theta_lattice_sum(1e-200, 1j),
    "theta_lattice_sum R = 1e200": lambda: boson.theta_lattice_sum(1e200, 1j),
    # each axis within MAX_CUTOFF (108 and 213 terms), the (n, w) table not (11,502)
    "theta_lattice_sum total": lambda: boson.theta_lattice_sum(1.0, 5e-4j),
}


@pytest.mark.parametrize("entry", sorted(EXTREME_INPUTS))
def test_extreme_inputs_raise_cutoff_too_large(entry):
    with pytest.raises(CutoffTooLarge):
        EXTREME_INPUTS[entry]()


# The order-taking entry points just above MAX_ORDER (count_partitions and
# unrestricted_p return n_max + 1 counts).  EXTREME_INPUTS' test asserts
# CutoffTooLarge, so these rows keep a table of their own.
ABOVE = MAX_ORDER + 1
RR_SET = regularization.ArithmeticProgressionSet(((5, 1), (5, 4)))

EXTREME_ORDERS = {
    "RunConfig": lambda: RunConfig(order=ABOVE),
    "euler_product": lambda: euler_product(range(1, ABOVE), -1, ABOVE),
    "dedekind_eta": lambda: dedekind_eta(ABOVE),
    "eisenstein 2": lambda: eisenstein(2, ABOVE),
    "eisenstein 4": lambda: eisenstein(4, ABOVE),
    "rr_product": lambda: rr_product("H", ABOVE),
    "count_partitions": lambda: partitions.count_partitions(
        MAX_ORDER, partitions.PartitionConstraint(min_part=1, min_gap=2)),
    "count_partitions window": lambda: partitions.count_partitions(
        MAX_ORDER, partitions.PartitionConstraint(window=(3, 2))),
    "unrestricted_p": lambda: partitions.unrestricted_p(MAX_ORDER),
    "character_25": lambda: virasoro.character_25("Vm15", ABOVE),
    "ode_residual": lambda: virasoro.ode_residual("G", ABOVE),
    "oscillator_partition_series": lambda: regularization.oscillator_partition_series(
        RR_SET, ABOVE),
    "twisted_oscillator_series": lambda: regularization.twisted_oscillator_series(
        RR_SET, ABOVE),
}


@pytest.mark.parametrize("entry", sorted(EXTREME_ORDERS))
def test_extreme_orders_raise_before_allocating(entry):
    # an order-sized list of ABOVE entries takes 8 * ABOVE bytes of pointers alone
    tracemalloc.start()
    try:
        with pytest.raises(OrderTooLarge, match=f"exceeds MAX_ORDER = {MAX_ORDER}"):
            EXTREME_ORDERS[entry]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * MAX_ORDER


def test_max_order_is_accepted():
    # few factors and few allowed parts, so that the bound itself is all that is tested
    assert euler_product([MAX_ORDER - 1], -1, MAX_ORDER)[-1] == 1
    counts = partitions.count_partitions(
        MAX_ORDER - 1, partitions.PartitionConstraint(min_part=MAX_ORDER - 1))
    assert len(counts) == MAX_ORDER and counts[MAX_ORDER - 1] == 1
    assert RunConfig(order=MAX_ORDER).order == MAX_ORDER


# -- int-built constructors ----------------------------------------------------------

def _gap_two_counts(n, min_part):
    return partitions.count_partitions(
        n - 1, partitions.PartitionConstraint(min_part=min_part, min_gap=2)).values


def _eta_product(n):
    # eta's own product, a chain of mul_sparse factors: no pentagonal number in it
    eta = FracQSeries.from_ints(F(1, 24), [1] + [0] * (n - 1))
    for m in range(1, n):
        eta = eta.mul_sparse(m, -1)
    return eta


def _eisenstein_ints(mult, power, n):
    return [1] + [mult * s for s in special.divisor_sums(power, n - 1)]


INT_BUILT_ORDER = 401
# each constructor, and the same series built through __init__ from its int coefficients
INT_BUILT = {
    "one": (FracQSeries.one, lambda n: FracQSeries(0, [1] + [0] * (n - 1))),
    "monomial": (lambda n: FracQSeries.from_ints(F(-7, 60), [1] + [0] * (n - 1)),
                 lambda n: FracQSeries(F(-7, 60), [1] + [0] * (n - 1))),
    "dedekind_eta": (dedekind_eta, lambda n: FracQSeries(F(1, 24), _eta_product(n).coeffs)),
    "eisenstein 2": (lambda n: eisenstein(2, n),
                     lambda n: FracQSeries(0, _eisenstein_ints(-24, 1, n))),
    "eisenstein 4": (lambda n: eisenstein(4, n),
                     lambda n: FracQSeries(0, _eisenstein_ints(240, 3, n))),
    "rr_product G": (lambda n: rr_product("G", n), lambda n: FracQSeries(
        0, euler_product(special.RR_SPECTRUM["G"].members(n), -1, n))),
    "rr_product H": (lambda n: rr_product("H", n), lambda n: FracQSeries(
        0, euler_product(special.RR_SPECTRUM["H"].members(n), -1, n))),
    "character_25 V0": (lambda n: virasoro.character_25("V0", n),
                        lambda n: FracQSeries(F(11, 60), _gap_two_counts(n, 2))),
    "character_25 Vm15": (lambda n: virasoro.character_25("Vm15", n),
                          lambda n: FracQSeries(F(-1, 60), _gap_two_counts(n, 1))),
    "oscillator_partition_series": (
        lambda n: regularization.oscillator_partition_series(RR_SET, n),
        lambda n: FracQSeries(regularization.casimir_exponent(RR_SET),
                              euler_product(RR_SET.members(n), -1, n))),
    "twisted_oscillator_series": (
        lambda n: regularization.twisted_oscillator_series(RR_SET, n),
        lambda n: FracQSeries(regularization.casimir_exponent(RR_SET),
                              euler_product(RR_SET.members(n), 1, n))),
}


@pytest.mark.parametrize("entry", sorted(INT_BUILT))
def test_int_built_series_match_the_fraction_constructor(entry):
    # built through FracQSeries.from_ints: the same series, record and int pair
    build, reference = INT_BUILT[entry]
    f, ref = build(INT_BUILT_ORDER), reference(INT_BUILT_ORDER)
    assert type(f.prefactor) is F and all(type(c) is F for c in f.coeffs)
    assert f == ref
    assert f.to_record() == ref.to_record()
    assert f.numerators() == ref.numerators()


@pytest.mark.parametrize("which", ["G", "H"])
def test_ode_residual_matches_a_fraction_built_character(which):
    # a wrong right-hand side, so that the residual is not zero; z built through __init__
    sector = next(s for s, w in virasoro.SECTOR_PRODUCT.items() if w == which)
    coefficient = F(1, 3600)
    z = FracQSeries(virasoro.CHARACTER_PREFACTOR[sector], rr_product(which, 201).coeffs)
    want = (virasoro.serre_derivative(z.q_derivative(), 2)
            - coefficient * (eisenstein(4, 201) * z))
    got = virasoro.ode_residual(which, 201, coefficient)
    assert not got.is_zero()
    assert got.to_record() == want.to_record()
    assert got.numerators() == want.numerators()
