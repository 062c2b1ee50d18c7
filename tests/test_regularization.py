"""Regularized progression sums, checked against an independent numerical
Hurwitz zeta continuation (Euler-Maclaurin at s = -1) and brute-force product
expansions."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcft import checks, regularization, special, virasoro
from qcft.config import RunConfig
from qcft.errors import InvalidProgression
from qcft.regularization import (ArithmeticProgressionSet, casimir_exponent,
                                 critical_dimension, hurwitz_sum, naive_defect,
                                 oscillator_partition_series, ramanujan_naive_sum,
                                 twisted_oscillator_series)
from qcft.series import FracQSeries


def hurwitz_zeta_em(s, a, terms=60):
    """Euler-Maclaurin continuation of zeta(s, a); enough orders for s = -1."""
    total = sum(float(a + n) ** -s for n in range(terms))
    x = a + terms
    total += x ** (1 - s) / (s - 1) + 0.5 * x ** -s
    total += (s / 12.0) * x ** (-s - 1)
    total -= (s * (s + 1) * (s + 2) / 720.0) * x ** (-s - 3)
    return total


@pytest.mark.parametrize("p,r", [(1, 1), (5, 1), (5, 4), (5, 2), (5, 3), (7, 3), (12, 5)])
def test_hurwitz_sum_matches_zeta_continuation(p, r):
    # sum (pn + r) = p^{-(-1)} zeta(-1, r/p) = p * zeta(-1, r/p)
    exact = hurwitz_sum(p, r)
    numeric = p * hurwitz_zeta_em(-1.0, r / p)
    assert abs(float(exact) - numeric) < 1e-10


def test_hurwitz_known_values():
    assert hurwitz_sum(1, 1) == F(-1, 12)
    assert hurwitz_sum(5, 1) == hurwitz_sum(5, 4) == F(-1, 60)
    assert hurwitz_sum(5, 2) == hurwitz_sum(5, 3) == F(11, 60)


def test_naive_sum_and_defect():
    assert ramanujan_naive_sum(5, 2) == F(-5, 12) + 1
    assert naive_defect(5, 2) == F(-4, 10)


@given(st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_defect_closed_form(p, r):
    if r > p:
        return
    assert naive_defect(p, r) == F(-r * r, 2 * p)


def test_validation():
    for bad in [(0, 1), (5, 0), (5, 6), (-3, 1)]:
        with pytest.raises(InvalidProgression):
            hurwitz_sum(*bad)
    with pytest.raises(InvalidProgression):
        ArithmeticProgressionSet([(5, 1), (10, 6)])  # 6, 16, ... overlap 6, 11, ...
    with pytest.raises(InvalidProgression):
        ArithmeticProgressionSet([(11, 11), (13, 13)])  # both contain 143
    with pytest.raises(InvalidProgression):
        ArithmeticProgressionSet([])


@pytest.mark.parametrize("pair", [(5.5, 1), (5, 1.7), (5.0, 1), (5, "1"), (F(5), 1), (5, True)])
def test_non_int_progressions_raise(pair):
    """p and r must pass series.is_int, so (5.5, 1) is not read as (5, 1), nor True as 1."""
    with pytest.raises(InvalidProgression, match="pairs of ints"):
        ArithmeticProgressionSet([(5, 4), pair])


def test_casimir_exponents():
    rr_g = ArithmeticProgressionSet([(5, 1), (5, 4)])
    rr_h = ArithmeticProgressionSet([(5, 2), (5, 3)])
    full = ArithmeticProgressionSet([(1, 1)])
    assert casimir_exponent(rr_g) == F(-1, 60)
    assert casimir_exponent(rr_h) == F(11, 60)
    assert casimir_exponent(full) == F(-1, 24)


def test_rr_spectra_are_declared_once_and_give_the_prefactors():
    # the set regularization re-imports is special's, and the (2,5) prefactors are
    # the Casimir sums of its Rogers-Ramanujan spectra
    assert ArithmeticProgressionSet is special.ArithmeticProgressionSet
    assert special.RR_SPECTRUM == {"G": ArithmeticProgressionSet([(5, 1), (5, 4)]),
                                   "H": ArithmeticProgressionSet([(5, 2), (5, 3)])}
    assert virasoro.CHARACTER_PREFACTOR == {"V0": F(11, 60), "Vm15": F(-1, 60)}


def test_a_hurwitz_fault_fails_the_casimir_identities(monkeypatch):
    # the record sums the spectra when it runs, so a wrong closed form reaches it
    def identities():
        reports = checks.check_minimal_model(RunConfig(order=40, exact_only=True))
        return next(r for r in reports if r.name == "minimal.casimir_identities")

    assert identities().passed and identities().details is None
    monkeypatch.setattr(regularization, "hurwitz_sum",
                        lambda p, r: F(r * (p - r), 2 * p) - F(1, 12))   # p/12 -> 1/12
    assert not identities().passed


def test_members_merge_sorted():
    s = ArithmeticProgressionSet([(5, 4), (5, 1)])
    assert s.members(13) == [1, 4, 6, 9, 11]


def convolve_inverse(exponents, n, sign):
    """Brute-force 1/prod(1 + sign*q^e) by building numerator then inverting."""
    num = [F(1)] + [F(0)] * (n - 1)
    for e in exponents:
        new = list(num)
        for i in range(n - e):
            new[i + e] += sign * num[i]
        num = new
    inv = [F(1)]
    for k in range(1, n):
        inv.append(-sum(num[j] * inv[k - j] for j in range(1, k + 1)))
    return inv


@pytest.mark.parametrize("progs,exponent", [
    ([(1, 1)], F(-1, 24)),
    ([(5, 1), (5, 4)], F(-1, 60)),
    ([(5, 2), (5, 3)], F(11, 60)),
])
def test_oscillator_series_bruteforce(progs, exponent):
    n = 30
    s = ArithmeticProgressionSet(progs)
    f = oscillator_partition_series(s, n)
    assert f.prefactor == exponent
    assert list(f.coeffs) == convolve_inverse(s.members(n), n, -1)


def test_twisted_series_bruteforce():
    n = 30
    s = ArithmeticProgressionSet([(1, 1)])
    f = twisted_oscillator_series(s, n)
    assert f.prefactor == F(-1, 24)
    assert list(f.coeffs) == convolve_inverse(s.members(n), n, +1)
    # leading behavior of 1/prod(1+q^m) = prod(1 - q^{2m-1})
    assert [int(c) for c in f.coeffs[:9]] == [1, -1, 0, -1, 1, -1, 1, -1, 2]


def test_untwisted_equals_eta_body():
    from qcft.special import dedekind_eta
    s = ArithmeticProgressionSet([(1, 1)])
    f = oscillator_partition_series(s, 40)
    assert f * dedekind_eta(40) == FracQSeries.one(40)


def test_critical_dimension():
    assert critical_dimension() == 26
