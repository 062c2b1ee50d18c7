"""Tests of the benchmark itself: its references, its tracer, and that every
output check rejects a corrupted output.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from qcft import boson, partitions, special, virasoro  # noqa: E402
from qcft.partitions import CountTable, PartitionConstraint  # noqa: E402
from qcft.series import FracQSeries  # noqa: E402
from qcft.virasoro import PolyCH  # noqa: E402


def bump(values, n, by=1):
    """A copy of `values` with entry n off by `by`."""
    out = list(values)
    out[n] += by
    return out


# -- references against brute force ----------------------------------------------------

def brute_partitions(n):
    """Every partition of n as a weakly decreasing tuple."""
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for s in range(min(rest, cap), 0, -1):
            for tail in rec(rest - s, s):
                yield (s,) + tail
    return list(rec(n, n))


def test_gap_counts_match_enumeration():
    for gap, min_part in ((2, 1), (2, 2), (3, 1), (3, 2)):
        want = [sum(1 for p in brute_partitions(n)
                    if all(a - b >= gap for a, b in zip(p, p[1:]))
                    and all(x >= min_part for x in p)) for n in range(25)]
        assert oracles.gap_counts(25, gap, min_part) == want


def test_gordon_counts_match_enumeration():
    for k, min_part in ((2, 1), (2, 2), (3, 1), (3, 2)):
        want = [sum(1 for p in brute_partitions(n)
                    if all(p[j] - p[j + k - 1] >= 2 for j in range(len(p) - k + 1))
                    and all(x >= min_part for x in p)) for n in range(25)]
        assert oracles.gordon_counts(25, k, min_part) == want


def test_pentagonal_matches_product():
    prod = [1] + [0] * 39
    for k in range(1, 40):
        prod = [prod[m] - (prod[m - k] if m >= k else 0) for m in range(40)]
    assert oracles.pentagonal_coefficients(40) == prod


def test_e4_squared_is_e8():
    e4 = oracles.eisenstein(4, 30)
    assert oracles.convolve(e4, e4, 30) == oracles.e4_squared(30)


def test_determinant_and_poly_parser():
    m = [[Fraction(2), Fraction(1), Fraction(0)], [Fraction(1), Fraction(3), Fraction(1)],
         [Fraction(0), Fraction(1), Fraction(4)]]
    assert oracles.determinant(m) == 18
    det = virasoro.gram_matrix(3).determinant()
    assert oracles.parse_poly(str(det)) == det.terms
    assert oracles.parse_poly("-c^2*h + (-3/2)*h + 7") == {
        (2, 1): -1, (0, 1): Fraction(-3, 2), (0, 0): 7}


def test_kac_weights_are_zeros_of_level_2():
    det = virasoro.gram_matrix(2).determinant()
    for r, s in ((1, 1), (1, 2), (2, 1)):
        c, h = oracles.kac_point(Fraction(5, 3), r, s)
        assert oracles.evaluate_poly(det.terms, c, h) == 0
    c, h = oracles.kac_point(Fraction(5, 3), 2, 2)
    assert oracles.evaluate_poly(det.terms, c, h) != 0


def test_hurwitz_exponents():
    assert oracles.hurwitz_exponent(((5, 1), (5, 4))) == Fraction(-1, 60)
    assert oracles.hurwitz_exponent(((5, 2), (5, 3))) == Fraction(11, 60)
    assert oracles.hurwitz_exponent(((1, 1),)) == Fraction(-1, 24)


# -- report checks -----------------------------------------------------------------------

def fake_report(changes=None) -> list[dict]:
    """Records shaped like `qcft all` output, one or more per group."""
    def rec(name, params=None, details=None):
        r = {"name": name, "params": params or {}, "pass": True, "residual": "0/1",
             "kind": "exact"}
        if details is not None:
            r["details"] = details
        return r
    records = [rec("series.leibniz_rule"), rec("rr.G_gap_counting"), rec("ode.residual_G"),
               rec("boson.radius_duality"), rec("lattice.equal_masses_unity"),
               rec("casimir.exponent", {"progressions": "((5, 1), (5, 4))"}, {"value": "-1/60"}),
               rec("casimir.exponent", {"progressions": "((5, 2), (5, 3))"}, {"value": "11/60"}),
               rec("minimal.central_charge", {"p": "2", "q": "5"}, {"value": "-22/5"}),
               rec("minimal.central_charge", {"p": "3", "q": "4"}, {"value": "1/2"}),
               rec("gram.level4_vacuum_determinant", {},
                   {"determinant": "(5/2)*c^3 + 11*c^2"})]
    records += [rec("mock.coefficients", {"y0": "0.2", "grid": "128"},
                    {"values": [-1, 45, 231, 770, 2277], "scale": "2/1"})]
    for r in records:
        for (name, key), value in (changes or {}).items():
            if r["name"] == name:
                r.setdefault("details", {})[key] = value
    return records


def as_output(records, code=0):
    return code, json.dumps(records).encode()


def test_report_check_accepts_the_fake_report():
    assert W.check_report(as_output(fake_report())) == []


@pytest.mark.parametrize("changes", [
    {("mock.coefficients", "values"): [-1, 45, 232, 770, 2277]},
    {("mock.coefficients", "scale"): "1/1"},
    {("minimal.central_charge", "value"): "-21/5"},
    {("casimir.exponent", "value"): "-1/30"},
    {("gram.level4_vacuum_determinant", "determinant"): "(5/2)*c^3 + 12*c^2"},
    {("gram.level4_vacuum_determinant", "determinant"): "0"},
])
def test_report_check_rejects_wrong_facts(changes):
    assert W.check_report(as_output(fake_report(changes)))


def test_report_check_rejects_failures_and_gaps():
    records = fake_report()
    records[0]["pass"] = False
    assert W.check_report(as_output(records))
    assert W.check_report(as_output([r for r in fake_report() if r["name"] != "ode.residual_G"]))
    assert W.check_report(as_output(fake_report(), code=1))


# -- exact checks ------------------------------------------------------------------------

F = FracQSeries(Fraction(-7, 60), [1, 3, -2, 5, 0, -9, 4, 1, 2, -3])
G = FracQSeries(Fraction(53, 60), [-1, 2, 2, -4, 7, 1, 0, 8, -5, 6])


def corrupt(series: FracQSeries, n=3, by=1) -> FracQSeries:
    return FracQSeries(series.prefactor, bump(series.coeffs, n, by))


def test_series_checks_accept_and_reject():
    cases = [(lambda out: W.check_mul(F, G, out), F * G),
             (lambda out: W.check_invert(F, out), F.invert()),
             (lambda out: W.check_q_derivative(F, G, out), F.q_derivative()),
             (lambda out: W.check_add(F, G, out), F + G)]
    for check, good in cases:
        assert check(good) == []
        assert check(corrupt(good))
        assert check(FracQSeries(good.prefactor + 1, good.coeffs))


def test_special_checks_accept_and_reject():
    eta = special.dedekind_eta(30)
    assert W.check_eta(30, eta) == []
    assert W.check_eta(30, corrupt(eta, 12))
    for k in (2, 4):
        e = special.eisenstein(k, 30)
        assert W.check_eisenstein(k, 30, e) == []
        assert W.check_eisenstein(k, 30, corrupt(e, 17))
    g = special.rr_product("G", 40)
    assert W.check_rr("G", 40, Fraction(0), g) == []
    assert W.check_rr("G", 40, Fraction(0), corrupt(g, 39))
    assert W.check_rr("H", 40, Fraction(0), g)


@pytest.mark.parametrize("constraint", [
    PartitionConstraint(min_part=2, min_gap=3),
    PartitionConstraint(allowed_residues=frozenset({1, 6}), modulus=7),
    PartitionConstraint(min_part=1, window=(2, 2)),
    PartitionConstraint(min_part=2, window=(3, 2)),
])
def test_count_checks_accept_and_reject(constraint):
    counts = partitions.count_partitions(70, constraint)
    assert W.check_counts(70, constraint, counts) == []
    assert W.check_counts(70, constraint, CountTable(bump(counts.values, 66)))


def test_ode_check_rejects_a_nonzero_residual():
    res = virasoro.ode_residual("H", 24)
    assert W.check_ode(res) == []
    assert W.check_ode(corrupt(res, 20))


def shift_h(det: PolyCH) -> PolyCH:
    """det(c, h + 1): the determinant taken at a shifted point."""
    out = PolyCH()
    for (i, j), v in det.terms.items():
        for m in range(j + 1):
            out = out + PolyCH({(i, m): v * comb(j, m)})
    return out


@pytest.mark.parametrize("level", [2, 3, 4])
def test_gram_check_accepts_and_rejects(level):
    point, t = (Fraction(-17, 3), Fraction(5, 7)), Fraction(3, 4)
    gram = virasoro.gram_matrix(level)
    det = gram.determinant()
    assert W.check_gram(level, False, point, t, (gram, det)) == []
    assert W.check_gram(level, False, point, t, (gram, shift_h(det)))
    assert W.check_gram(level, False, point, t, (gram, det + PolyCH.const(1)))
    other = virasoro.gram_matrix(level - 1)
    assert W.check_gram(level, False, point, t, (other, other.determinant()))


def test_vacuum_gram_check():
    gram = virasoro.gram_matrix(4, vacuum=True)
    det = gram.determinant()
    point = (Fraction(7, 2), Fraction(0))
    assert W.check_gram(4, True, point, Fraction(1), (gram, det)) == []
    assert W.check_gram(4, True, point, Fraction(1), (gram, det * Fraction(2)))


# -- numeric checks ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def numeric():
    return W.Numeric(seed=5)


def test_numeric_points_cover_the_ranges(numeric):
    points = numeric.points(0)
    assert len(points) == W.POINTS_PER_ROUND
    ys = [p.tau.imag for p in points]
    assert W.IM_TAU[0] <= min(ys) < 1.1 * W.IM_TAU[0] and max(ys) > 0.9 * W.IM_TAU[1]
    assert any(abs(p.tau.real) > 0.5 for p in points)
    assert points == numeric.points(0) and points != numeric.points(1)


@pytest.fixture(scope="module")
def point_and_output(numeric):
    p = W.Point(0.31 + 0.42j, 0.8, 0.37 + 0.05j, 0.62 - 0.02j, True)
    return p, W.evaluate_point(p, numeric.characters)


def test_numeric_check_accepts_a_true_output(numeric, point_and_output):
    p, out = point_and_output
    assert W.check_point(p, numeric.references, out) == []


@pytest.mark.parametrize("key, corruption", [
    ("Z", lambda out, p: boson.boson_partition_function(p.radius * 1.01, p.tau)),
    ("eta", lambda out, p: out["eta"] * (1 + 1e-7)),
    ("theta", lambda out, p: [out["theta"][0] * (1 + 1e-7)] + out["theta"][1:]),
    ("theta", lambda out, p: out["theta"][:3] + [out["theta"][3] + 1e-7]),
    ("eg", lambda out, p: out["eg"] * (1 + 1e-6)),
    ("remainder", lambda out, p: out["remainder"] * (1 + 1e-4)),
    ("mu", lambda out, p: out["mu"] + 1e-7 * abs(out["mu"])),
    ("chi", lambda out, p: [out["chi"][0], out["chi"][1] * (1 + 1e-9)]),
    ("twisted", lambda out, p: out["twisted"] * (1 + 1e-7)),
])
def test_numeric_check_rejects_corruption(numeric, point_and_output, key, corruption):
    p, out = point_and_output
    bad = dict(out)
    bad[key] = corruption(out, p)
    assert W.check_point(p, numeric.references, bad)


# -- tracer ------------------------------------------------------------------------------

def test_tracer_records_nesting_and_restores():
    original = virasoro.rr_product
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert virasoro.rr_product is not original
        virasoro.torus_partition_function_25(1j, 24)
    finally:
        tracer.uninstall()
    assert virasoro.rr_product is original and special.rr_product is original
    totals = tracer.span_totals()
    assert totals["virasoro.torus_partition_function_25.calls"] == 1
    assert totals["special.rr_product.calls"] == 2
    assert totals["special.evaluate_series.calls"] == 2
    assert 0 < totals["virasoro.torus_partition_function_25.self_s"] < totals[
        "virasoro.torus_partition_function_25.s"]
    assert totals["series.invert.short.calls"] == 2


def test_tracer_is_silent_when_paused():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = False
        special.eta_eval(0.5j)
        tracer.active = True
        special.eta_eval(0.5j)
    finally:
        tracer.uninstall()
    assert tracer.span_totals()["special.eta_eval.calls"] == 1


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_worker_runs_one_checked_round():
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", "numeric",
                           "--seed", "1", "--round", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ready, result = proc.stdout.splitlines()[0], json.loads(proc.stdout.splitlines()[-1])
    assert ready == "READY"
    assert (result["attempted"], result["failed"]) == (W.POINTS_PER_ROUND, 0)
    assert len(result["latencies"]) == W.POINTS_PER_ROUND
    assert result["round_s"] == pytest.approx(sum(result["latencies"]))


def test_exact_rounds_have_one_makeup():
    def makeup(ops):
        return sorted(op.label.split()[0] for op in ops)
    ops = W.Exact(seed=3).round(0)
    assert set(makeup(ops)) == {"mul", "invert", "q_derivative", "add", "dedekind_eta",
                                "eisenstein", "rr_product", "count_partitions",
                                "ode_residual", "character_25", "gram"}
    assert makeup(ops) == makeup(W.Exact(seed=4).round(7))
    assert [op.label for op in ops] != [op.label for op in W.Exact(seed=3).round(1)]
