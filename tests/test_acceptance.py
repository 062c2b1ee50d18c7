"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL line (run with -s to see them all on success).  Tolerances are
pinned here and must not be loosened."""

import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import qcft
from qcft import checks
from qcft.boson import (LatticeSpec, boson_partition_function,
                        continuum_determinant_ratio, lattice_determinant_ratio)
from qcft.config import RunConfig
from qcft.mock import JacobiPoint, elliptic_genus_k3, extract_mock_coefficients
from qcft.partitions import PartitionConstraint, count_partitions, gordon_check
from qcft.regularization import (ArithmeticProgressionSet, casimir_exponent,
                                 critical_dimension, hurwitz_sum, naive_defect)
from qcft.special import rr_product
from qcft.virasoro import (MinimalModelLabel, PolyCH, central_charge,
                           effective_central_charge, gram_matrix, minimal_c_eff_scan,
                           null_vector_central_charges, ode_residual,
                           torus_partition_function_25)

CFG = RunConfig()   # order 201, float tolerance 1e-8
N = CFG.order - 1   # coefficients through q^200


def verdict(number: int, label: str, ok: bool):
    print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def test_01_rogers_ramanujan_identities():
    ok = True
    for which, min_part, residues in (("G", 1, {1, 4}), ("H", 2, {2, 3})):
        product = rr_product(which, N + 1)
        gaps = count_partitions(N, PartitionConstraint(min_part=min_part, min_gap=2))
        congr = count_partitions(N, PartitionConstraint(
            allowed_residues=frozenset(residues), modulus=5))
        ok &= all(product.coeffs[n] == gaps[n] == congr[n] for n in range(N + 1))
    verdict(1, "rogers-ramanujan identities to q^200", ok)


def test_02_casimir_exponents():
    ok = casimir_exponent(ArithmeticProgressionSet([(5, 1), (5, 4)])) == F(-1, 60)
    ok &= casimir_exponent(ArithmeticProgressionSet([(5, 2), (5, 3)])) == F(11, 60)
    ok &= casimir_exponent(ArithmeticProgressionSet([(1, 1)])) == F(-1, 24)
    ok &= hurwitz_sum(1, 1) == F(-1, 12)
    ok &= all(naive_defect(p, r) == F(-r * r, 2 * p)
              for p in range(1, 13) for r in range(1, p + 1))
    verdict(2, "casimir exponents and regularization defect", ok)


def test_03_minimal_model_constants():
    ok = central_charge(MinimalModelLabel(2, 5)) == F(-22, 5)
    ok &= effective_central_charge(MinimalModelLabel(2, 5)) == F(2, 5)
    ok &= central_charge(MinimalModelLabel(3, 4)) == F(1, 2)
    ok &= central_charge(MinimalModelLabel(2, 3)) == 0
    best, ceff = minimal_c_eff_scan(100)
    ok &= (best.p, best.q) == (2, 5) and ceff == F(2, 5)
    # uniqueness at the bound: no other nontrivial label attains 2/5
    others = [1 - F(6, p * q) for p in range(2, 51) for q in range(p + 1, 51)
              if p * q <= 100 and math.gcd(p, q) == 1
              and (p, q) not in {(2, 3), (2, 5)}]
    ok &= min(others) > F(2, 5)
    c, c_eff = F(-22, 5), F(2, 5)
    ok &= F(11, 60) == -c / 24 and F(-1, 60) == -c_eff / 24
    verdict(3, "minimal-model constants and c_eff minimizer", ok)


def test_04_null_vector():
    det = gram_matrix(4, vacuum=True).determinant()
    ok = det == PolyCH({(3, 0): F(5, 2), (2, 0): F(11)})  # c^2 (5c + 22) / 2
    nv = null_vector_central_charges()
    ok &= nv.central_charges == (F(-22, 5),)
    m = gram_matrix(2).evaluate(F(-22, 5), F(-1, 5))
    ok &= m[0][0] * m[1][1] - m[0][1] * m[1][0] == 0
    verdict(4, "level-4 vacuum null vector at c = -22/5", ok)


def test_05_modular_ode():
    ok = ode_residual("G", CFG.order).is_zero()
    ok &= ode_residual("H", CFG.order).is_zero()
    ok &= not ode_residual("G", 64, rhs_coefficient=F(1, 360)).is_zero()
    verdict(5, "modular ODE residual vanishes to q^(a+200)", ok)


def test_06_torus_modular_invariance():
    worst = max(abs(torus_partition_function_25(1j * s) - torus_partition_function_25(1j / s))
                for s in (0.7, 1.3, 2.0))
    verdict(6, f"(2,5) torus S-invariance (worst {worst:.2e} < 1e-8)", worst < 1e-8)


def test_07_andrews_gordon():
    ok = all(gordon_check(k, i, 60) is None
             for k in (2, 3, 4) for i in range(1, k + 1))
    verdict(7, "andrews-gordon double enumeration to n = 60", ok)


def test_08_compact_boson():
    taus = (1j, 0.3 + 1.2j)
    radii = (0.7, 1.0, 1.9)
    z = {(r, t): boson_partition_function(r, t) for r in radii for t in taus}
    dual = max(abs(z[r, t] - boson_partition_function(2 / r, t))
               for r in radii for t in taus)
    t_dev = max(abs(z[r, t] - boson_partition_function(r, t + 1))
                for r in radii for t in taus)
    s_dev = max(abs(z[r, t] - boson_partition_function(r, -1 / t))
                for r in radii for t in taus)
    ok = dual < 1e-12 and t_dev < 1e-10 and s_dev < 1e-8
    ok &= all(v > 0 for v in z.values())
    verdict(8, f"boson duality/T/S ({dual:.1e}/{t_dev:.1e}/{s_dev:.1e})", ok)


def test_09_determinant_ratios():
    ok = True
    for m1, m2 in ((1.0, 2.0), (0.5, 3.0)):
        target = continuum_determinant_ratio((1.0, 1.0), m1, m2)
        devs = [abs(lattice_determinant_ratio(LatticeSpec((L, L)), m1, m2) - target)
                for L in (16, 32, 64)]
        ok &= devs[0] > devs[1] > devs[2]
    ok &= lattice_determinant_ratio(LatticeSpec((16, 16)), 1.5, 1.5) == 1.0
    verdict(9, "lattice determinant ratio refinement", ok)


def test_10_mock_modular_extraction():
    eg = elliptic_genus_k3(JacobiPoint(0.0, 0.2 + 0.9j))
    ok = abs(eg - 24) < 1e-10
    for y0 in (0.2, 0.3, 0.4):
        for grid in (128, 256):
            mc = extract_mock_coefficients(y0=y0, grid=grid)
            ok &= mc.values == (-1, 45, 231, 770, 2277)
            ok &= mc.max_z_deviation < 1e-6
    verdict(10, "mock coefficients (-1, 45, 231, 770, 2277)", ok)


def test_11_critical_dimension():
    verdict(11, "critical dimension 26", critical_dimension() == 26)


def test_12_deterministic_golden(tmp_path):
    g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
    # A scrubbed environment keeps QCFT_ORDER and any other caller state out
    # of the golden run.  PYTHONPATH is the one variable forwarded, pointing
    # at the checkout imported here, so the fresh interpreter finds the same
    # qcft whether or not the package is installed.
    package_root = Path(qcft.__file__).resolve().parent.parent
    env = {"PATH": "/usr/bin:/bin", "HOME": str(tmp_path),
           "PYTHONPATH": str(package_root)}
    for g in (g1, g2):
        proc = subprocess.run(
            [sys.executable, "-m", "qcft.cli", "all", "--golden", str(g)],
            capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
    ok = g1.read_bytes() == g2.read_bytes()
    # and an in-process double run through the registry agrees byte for byte
    from qcft.reports import reports_to_bytes
    ok &= reports_to_bytes(checks.run_all(CFG)) == reports_to_bytes(checks.run_all(CFG))
    verdict(12, "byte-identical golden files on repeat runs", ok)
