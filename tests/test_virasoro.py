"""Virasoro algebra and Verma-module machinery.

The Gram matrices are cross-checked against a separately written symbolic
normal-ordering oracle built on sympy: expectation values are reduced by
adjacent swaps with an inversion-count termination measure, a different
algorithm from the recursive lowering used in the package.
"""

import math
import random
from fractions import Fraction as F
from itertools import product

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qcft import checks, virasoro
from qcft.config import RunConfig
from qcft.errors import LevelTooLarge
from qcft.series import DEFAULT_ORDER, FracQSeries, rat_str
from qcft.special import rr_product
from qcft.virasoro import (CHARACTER_PREFACTOR, MinimalModelLabel, PolyCH, VermaGram,
                           bracket, central_charge, character_25,
                           effective_central_charge, gram_matrix, minimal_c_eff_scan,
                           null_vector_central_charges, ode_residual, serre_derivative,
                           torus_partition_function_25)

C, H = sympy.symbols("c h")


# -- bracket -----------------------------------------------------------------------

def test_bracket_examples():
    assert bracket(-2, 2) == (4, F(1, 2))
    assert bracket(1, 3) == (2, F(0))
    assert bracket(3, -3) == (-6, F(-2))
    assert bracket(0, 5) == (5, F(0))


def test_jacobi_identity_with_central_terms():
    # [[L_m, L_n], L_k] + cyclic = 0, including the central pieces
    for m, n, k in product(range(-4, 5), repeat=3):
        lin_total: dict[int, F] = {}
        central_total = F(0)
        for a, b, d in ((m, n, k), (n, k, m), (k, m, n)):
            inner_lin, _ = bracket(a, b)
            # [inner_lin * L_{a+b}, L_d]
            lin, central = bracket(a + b, d)
            key = a + b + d
            lin_total[key] = lin_total.get(key, F(0)) + inner_lin * lin
            central_total += inner_lin * central
        assert central_total == 0, (m, n, k)
        assert all(v == 0 for v in lin_total.values()), (m, n, k)


def test_bracket_antisymmetry():
    for m, n in product(range(-5, 6), repeat=2):
        lin1, c1 = bracket(m, n)
        lin2, c2 = bracket(n, m)
        assert lin1 == -lin2 and c1 == -c2


# -- independent Gram oracle --------------------------------------------------------

def vev(word, h):
    """<h| L_{word[0]} ... L_{word[-1]} |h> with positive modes raising.

    Reduction: positives kill the bra at the far left, negatives kill the ket
    at the far right, L_0 inserts the weight, and any adjacent (negative,
    nonnegative) pair is swapped via the commutator.  Swaps strictly reduce
    the number of such inversions, so the recursion terminates.
    """
    if not word:
        return sympy.Integer(1)
    if word[0] > 0 or word[-1] < 0:
        return sympy.Integer(0)
    if word[0] == 0:
        return h * vev(word[1:], h)
    if word[-1] == 0:
        return h * vev(word[:-1], h)
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a < 0 <= b:
            head, tail = word[:i], word[i + 2:]
            total = vev(head + (b, a) + tail, h)
            total += (b - a) * vev(head + (a + b,) + tail, h)
            if a + b == 0:
                total += sympy.Rational(b ** 3 - b, 12) * C * vev(head + tail, h)
            return sympy.expand(total)
    raise AssertionError("unreachable: no inversion left yet ends not handled")


def poly_to_sympy(p: PolyCH):
    return sympy.expand(sum(sympy.Rational(v) * C ** i * H ** j
                            for (i, j), v in p.terms.items()))


@pytest.mark.parametrize("level,vacuum", [(1, False), (2, False), (3, False),
                                          (4, False), (4, True), (6, True)])
def test_gram_matches_normal_ordering_oracle(level, vacuum):
    g = gram_matrix(level, vacuum=vacuum)
    h = sympy.Integer(0) if vacuum else H
    for i, mu in enumerate(g.basis):
        for j, lam in enumerate(g.basis):
            word = tuple(-m for m in reversed(mu)) + tuple(lam)
            expect = sympy.expand(vev(word, h))
            got = poly_to_sympy(g.entries[i][j])
            assert sympy.expand(got - expect) == 0, (mu, lam)


def test_level_one_and_two_entries():
    g1 = gram_matrix(1)
    assert str(g1.entries[0][0]) == "2*h"
    g2 = gram_matrix(2)
    assert g2.basis == ((2,), (1, 1))
    assert [[str(e) for e in row] for row in g2.entries] == [
        ["(1/2)*c + 4*h", "6*h"],
        ["6*h", "8*h^2 + 4*h"],
    ]


def test_level_two_determinant_roots():
    det = gram_matrix(2).determinant()
    # 2h(8h^2 + (c - 5)h + c/2) up to normalization; check the Kac roots
    assert det.evaluate(F(-22, 5), F(-1, 5)) == 0
    assert det.evaluate(F(1, 2), F(1, 2)) == 0    # Ising energy-like root
    assert det.evaluate(F(1, 2), F(1, 3)) != 0


def test_level_four_vacuum_determinant():
    det = gram_matrix(4, vacuum=True).determinant()
    assert det == PolyCH({(3, 0): F(5, 2), (2, 0): F(11)})
    assert str(det) == "(5/2)*c^3 + 11*c^2"


def test_random_specialization_consistency():
    # polynomial entries evaluated at rational points match the sympy oracle
    g = gram_matrix(3)
    for c0, h0 in [(F(1, 2), F(1, 16)), (F(-7, 3), F(2, 5)), (F(0), F(1))]:
        for i in range(g.dimension):
            for j in range(g.dimension):
                word = tuple(-m for m in reversed(g.basis[i])) + tuple(g.basis[j])
                expect = vev(word, H).subs({C: sympy.Rational(c0), H: sympy.Rational(h0)})
                assert g.entries[i][j].evaluate(c0, h0) == F(*sympy.fraction(expect))


def test_gram_level_bounds():
    with pytest.raises(LevelTooLarge):
        gram_matrix(0)
    with pytest.raises(LevelTooLarge):
        gram_matrix(7)
    for level in (2.0, True, F(3), "3"):   # not truncated, and True is not level 1
        with pytest.raises(ValueError, match="not an int"):
            gram_matrix(level)


# -- the Gram build over Fractions: the bracket on {(i, j): coefficient of c^i h^j} ------

def padd(p, q):
    """p + q, zero coefficients dropped."""
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def pmul(p, q):
    """p q, zero coefficients dropped."""
    out = {}
    for (i1, j1), v1 in p.items():
        for (i2, j2), v2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def fraction_act_lowering(m, mono, h):
    """L_{-m} L_{mono[0]} ... |h> with Fraction weights in (c, h): the lowering mode is
    pushed through by bracket() until it annihilates |h>."""
    if not mono:
        return []
    n1, rest = mono[0], mono[1:]
    out = [((n1,) + tail, w) for tail, w in fraction_act_lowering(m, rest, h)]
    lin, central = bracket(-m, n1)
    k = n1 - m
    if k > 0:
        out.append(((k,) + rest, {(0, 0): F(lin)}))
    elif k == 0:
        out.append((rest, pmul(padd(h, {(0, 0): F(sum(rest))}), {(0, 0): F(lin)})))
    else:
        out += [(tail, pmul(w, {(0, 0): F(lin)}))
                for tail, w in fraction_act_lowering(-k, rest, h)]
    if central != 0:
        out.append((rest, {(1, 0): central}))
    return out


def fraction_contract(bra, ket, h):
    state = {ket: {(0, 0): F(1)}}
    for m in bra:
        nxt = {}
        for mono, coef in state.items():
            for mono2, w in fraction_act_lowering(m, mono, h):
                nxt[mono2] = padd(nxt.get(mono2, {}), pmul(coef, w))
        state = {k: v for k, v in nxt.items() if v}
    return state.get((), {})


@pytest.mark.parametrize("vacuum", [False, True], ids=["generic", "vacuum"])
@pytest.mark.parametrize("level", range(1, 7))
def test_gram_entries_over_z_c_h_match_the_fraction_build(level, vacuum):
    g = gram_matrix(level, vacuum)
    h = {} if vacuum else {(0, 1): F(1)}
    for i, mu in enumerate(g.basis):
        for j, lam in enumerate(g.basis):
            assert g.entries[i][j].terms == fraction_contract(mu, lam, h), (mu, lam)


def test_determinant_never_builds_the_entries_view():
    g = gram_matrix(5)
    g.determinant()
    assert "entries" not in vars(g)
    assert g.entries is g.entries


def partition_number(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p[n]


def kac_product(level, t, h):
    """prod over rs <= level of (h - h_{r,s})^{p(level - rs)} at c = 13 - 6(t + 1/t)."""
    total = F(1)
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            h_rs = ((r * r - 1) * t + F(s * s - 1) / t) / 4 - F(r * s - 1, 2)
            total *= (h - h_rs) ** partition_number(level - r * s)
    return total


def test_determinant_matches_kac_formula():
    # det G_N / Kac product is one basis-dependent nonzero constant; compare
    # the ratio across rational points instead of hard-coding it
    points = [(F(2, 3), F(1, 7)), (F(5, 7), F(-3, 11)), (F(3, 11), F(2, 5)), (F(-4, 3), F(9, 13))]
    for level in (5, 6):
        det = gram_matrix(level).determinant()
        ratios = {det.evaluate(13 - 6 * (t + 1 / t), h) / kac_product(level, t, h)
                  for t, h in points}
        assert len(ratios) == 1 and ratios != {0}, level
    # the vacuum module at level 6 (parts >= 2) has dimension 4
    g = gram_matrix(6, vacuum=True)
    assert g.dimension == 4
    det = g.determinant()
    for c0 in (F(1, 2), F(-22, 5), F(7, 3)):
        m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                          for row in g.evaluate(c0, F(0))])
        assert det.evaluate(c0, F(0)) == F(*sympy.fraction(m.det()))


# {(i, j): the int coefficient of C^i h^j}, C = c/12; a drawn zero coefficient stays in
sparse_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               st.integers(-6, 6), max_size=3)


@st.composite
def random_grams(draw):
    """Square matrices of sparse entries over Z[C, h], often with a zero row and a zero
    column."""
    n = draw(st.integers(0, 5))
    rows = [[draw(sparse_polys) for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [{}] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = {}
    return VermaGram(0, False, tuple((k,) for k in range(n)), tuple(map(tuple, rows)))


@settings(max_examples=60, deadline=None)
@given(random_grams())
def test_determinant_matches_sympy(g):
    m = sympy.Matrix(g.dimension, g.dimension,
                     [poly_to_sympy(e) for row in g.entries for e in row])
    assert sympy.expand(poly_to_sympy(g.determinant()) - m.det(method="domain-ge")) == 0
    assert g.determinant() == dict_determinant(g)


def dict_determinant(g):
    """The Laplace expansion memoized on column masks with each minor a dict polynomial
    over Z[C, h]: no packing, so it is the oracle of the packed determinant."""
    minors = {0: {(0, 0): 1}}
    for row in g.c12:
        nxt = {}
        for mask, minor in minors.items():
            for j, entry in enumerate(row):
                if mask >> j & 1:
                    continue
                sign = -1 if (mask >> j).bit_count() & 1 else 1
                acc = nxt.setdefault(mask | 1 << j, {})
                for (i1, j1), v1 in entry.items():
                    for (i2, j2), v2 in minor.items():
                        k = (i1 + i2, j1 + j2)
                        acc[k] = acc.get(k, 0) + sign * v1 * v2
        minors = {m: {k: v for k, v in p.items() if v} for m, p in nxt.items()}
        minors = {m: p for m, p in minors.items() if p}
    full = minors.get((1 << g.dimension) - 1, {})
    return PolyCH({(i, j): F(v, 12 ** i) for (i, j), v in full.items()})


@pytest.mark.parametrize("vacuum", [False, True], ids=["generic", "vacuum"])
@pytest.mark.parametrize("level", range(1, 7))
def test_packed_determinant_matches_the_dict_expansion(level, vacuum):
    g = gram_matrix(level, vacuum)
    det, oracle = g.determinant(), dict_determinant(g)
    assert det == oracle and str(det) == str(oracle)


def diagonal_gram(entries):
    n = len(entries)
    rows = [[entries[i] if i == j else {} for j in range(n)] for i in range(n)]
    return VermaGram(0, False, tuple((k,) for k in range(n)), tuple(map(tuple, rows)))


def test_determinant_of_dimension_zero_is_one():
    assert str(diagonal_gram([]).determinant()) == "1"


def test_identically_zero_determinant():
    row = ({(1, 0): 3, (0, 2): -5}, {(0, 0): 7})
    g = VermaGram(0, False, ((1,), (2,)), (row, row))
    assert g.determinant().terms == {} and str(g.determinant()) == "0"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits", [1, 6, 7, 8, 14, 15, 16, 23, 24, 63, 64, 65])
def test_determinant_coefficient_at_the_l1_bound(bits, sign):
    # single-term diagonal entries: the one coefficient of the determinant is the product
    # of the rows' l1 norms, 2^bits - 1, so a slot one bit too narrow for it is caught
    bound = 2 ** bits - 1
    for entries in ([{(0, 0): sign * bound}],
                    [{(1, 0): sign * bound}, {(0, 1): 1}, {(2, 3): -1}, {(0, 0): -1}],
                    [{(0, 2): 3}, {(1, 1): sign * bound}, {(0, 0): 1}]):
        coefficient = math.prod(v for e in entries for v in e.values())
        degrees = tuple(map(sum, zip(*(k for e in entries for k in e))))
        assert diagonal_gram(entries).determinant() == PolyCH(
            {degrees: F(coefficient, 12 ** degrees[0])})


# -- null vector ---------------------------------------------------------------------

def test_null_vector():
    res = null_vector_central_charges()
    assert res.central_charges == (F(-22, 5),)
    assert res.beta == F(-3, 5)
    assert res.tt_remainder_ratio == F(-1, 5)


def fake_level4_gram(g44, g42, g22, det=None):
    """A level-4 vacuum Gram matrix with the given entries over Z[C, h], and optionally
    a determinant that disagrees with them."""
    class Fake(VermaGram):
        def determinant(self):
            return super().determinant() if det is None else det
    return Fake(4, True, ((4,), (2, 2)), ((g44, g42), (g42, g22)))


LEVEL4_VACUUM = gram_matrix(4, vacuum=True).c12   # over the basis (4,), (2, 2)


@pytest.mark.parametrize("gram,want", [
    # det = C^2: no nontrivial factor, so no charge and no null direction
    (fake_level4_gram({(1, 0): 1}, {}, {(1, 0): 1}), ((), None, None)),
    # det = C^2 (1 + C), root C = -1, where L_4|0> has norm C + C^2 = 0
    (fake_level4_gram({(1, 0): 1, (2, 0): 1}, {}, {(1, 0): 1}), ((F(-12),), None, None)),
    # the real entries with a determinant whose root (c = -2) is not one of theirs
    (fake_level4_gram(*LEVEL4_VACUUM[0], LEVEL4_VACUUM[1][1],
                      PolyCH({(3, 0): F(1), (2, 0): F(2)})), ((F(-2),), F(-3, 5), None)),
])
def test_null_vector_leaves_out_what_it_cannot_compute(monkeypatch, gram, want):
    # each failure is a value, none an exception, and each fails gram.null_vector_charge
    monkeypatch.setattr(virasoro, "gram_matrix", lambda level, vacuum=False: gram)
    res = null_vector_central_charges()
    assert (res.central_charges, res.beta, res.tt_remainder_ratio) == want
    (record,) = [r.to_record() for r in checks.check_gram(RunConfig())
                 if r.name == "gram.null_vector_charge"]
    assert not record["pass"]
    assert record["details"] == {"beta": None if want[1] is None else rat_str(want[1])}


def test_null_vector_is_null_in_oracle():
    # (L_2^2 - 3/5 L_4)|0> has zero norm and zero overlap with both basis states
    c0 = sympy.Rational(-22, 5)
    beta = sympy.Rational(-3, 5)
    for bra in [(2, 2), (4,)]:
        word_sq = tuple(-m for m in reversed(bra))
        overlap = (vev(word_sq + (2, 2), sympy.Integer(0))
                   + beta * vev(word_sq + (4,), sympy.Integer(0)))
        assert overlap.subs(C, c0) == 0


# -- minimal models --------------------------------------------------------------------

def test_minimal_model_constants():
    lee_yang = MinimalModelLabel(2, 5)
    assert central_charge(lee_yang) == F(-22, 5)
    assert effective_central_charge(lee_yang) == F(2, 5)
    ising = MinimalModelLabel(3, 4)
    assert central_charge(ising) == F(1, 2)


def test_minimal_model_label_validation():
    for p, q in [(1, 2), (2, 2), (4, 2), (2, 4), (3, 6), (2.0, 5), (2, 5.0), (2, F(5)),
                 (True, 5), ("2", "5")]:
        with pytest.raises(ValueError):
            MinimalModelLabel(p, q)


@pytest.mark.parametrize("bound", [10.5, 100.0, "100", True])
def test_c_eff_scan_rejects_a_bound_that_is_not_an_int(bound):
    with pytest.raises(ValueError, match="not an int"):
        minimal_c_eff_scan(bound)


@pytest.mark.parametrize("bound", [5, -1])
def test_c_eff_scan_rejects_bound_without_states(bound):
    # (2,5) is the first label with states, at p*q = 10
    with pytest.raises(ValueError, match=rf"<= {bound}$"):
        minimal_c_eff_scan(bound)


def test_c_eff_scan():
    label, ceff = minimal_c_eff_scan(100)
    assert (label.p, label.q) == (2, 5)
    assert ceff == F(2, 5)
    # uniqueness: every other label with states has strictly larger c_eff
    runner_up = min(F(1, 1) - F(6, p * q)
                    for p in range(2, 101) for q in range(p + 1, 101)
                    if p * q <= 100 and sympy.gcd(p, q) == 1
                    and (p, q) not in {(2, 3), (2, 5)})
    assert runner_up > F(2, 5)


# -- characters and the torus ------------------------------------------------------------

def test_characters_match_rr_series():
    n = 80
    chi0 = character_25("V0", n)
    chi1 = character_25("Vm15", n)
    assert chi0 == FracQSeries(CHARACTER_PREFACTOR["V0"], rr_product("H", n).coeffs)
    assert chi1 == FracQSeries(CHARACTER_PREFACTOR["Vm15"], rr_product("G", n).coeffs)


def test_character_at_order_600_matches_coin_change():
    # past the depth where a recursive DP fails: parts = +-2 mod 5 expand H(q)
    n = 600
    h = [1] + [0] * (n - 1)
    for m in range(1, n):
        if m % 5 in (2, 3):
            for j in range(m, n):
                h[j] += h[j - m]
    assert character_25("V0", n) == FracQSeries(CHARACTER_PREFACTOR["V0"], h)


def test_character_sector_validation():
    with pytest.raises(ValueError):
        character_25("V1")


@pytest.mark.parametrize("s", [0.7, 1.3, 2.0])
def test_torus_modular_invariance(s):
    z1 = torus_partition_function_25(1j * s)
    z2 = torus_partition_function_25(1j / s)
    assert abs(z1 - z2) < 1e-8
    assert z1 > 0


def test_torus_t_invariance():
    tau = 0.31 + 0.83j
    assert abs(torus_partition_function_25(tau) - torus_partition_function_25(tau + 1)) < 1e-10


@pytest.mark.parametrize("s", [0.05, 0.02, 0.01])
def test_torus_modular_invariance_near_the_cusp(s):
    # Z(0.01i) is about 1.2e9: compared relative to Z
    z1 = torus_partition_function_25(1j * s)
    z2 = torus_partition_function_25(1j / s)
    assert abs(z1 - z2) <= 1e-12 * z2


def mpmath_torus(tau: complex) -> float:
    """|q^(-1/60) G|^2 + |q^(11/60) H|^2 with the products over n = +-1, +-2 mod 5
    multiplied out at 30 digits until |q|^n < 1e-25."""
    with mpmath.workdps(30):
        tau = mpmath.mpc(tau)
        q = mpmath.exp(2j * mpmath.pi * tau)
        n_max = int(25 * math.log(10) / (2 * math.pi * float(tau.imag))) + 1
        total = mpmath.mpf(0)
        for a, residues in ((F(-1, 60), (1, 4)), (F(11, 60), (2, 3))):
            prod, qn = mpmath.mpc(1), mpmath.mpc(1)
            for n in range(1, n_max + 1):
                qn *= q
                if n % 5 in residues:
                    prod *= 1 - qn
            chi = mpmath.exp(2j * mpmath.pi * tau * mpmath.mpf(a.numerator) / a.denominator) / prod
            total += abs(chi) ** 2
        return float(total)


def test_torus_matches_mpmath_product():
    rng = random.Random(2025)
    for _ in range(40):
        tau = complex(rng.uniform(-1.5, 1.5), math.exp(rng.uniform(math.log(1e-3), math.log(3))))
        want = mpmath_torus(tau)
        assert abs(torus_partition_function_25(tau) - want) <= 1e-12 * want, tau


# -- modular ODE -----------------------------------------------------------------------

def test_serre_derivative_weight_four():
    # the weight-4 Eisenstein series maps to -1/3 of the weight-6 one
    from qcft.special import divisor_sums, eisenstein
    n = 30
    lhs = serre_derivative(eisenstein(4, n), 4)
    sig5 = divisor_sums(5, n - 1)   # sigma_5(1), ..., sigma_5(n-1)
    e6 = FracQSeries(0, [1] + [-504 * s for s in sig5])
    assert lhs == F(-1, 3) * e6


@pytest.mark.parametrize("which", ["G", "H"])
def test_ode_residual_vanishes(which):
    assert ode_residual(which, DEFAULT_ORDER).is_zero()


def test_ode_residual_sector_validation():
    with pytest.raises(ValueError):
        ode_residual("X")


def test_ode_probe_detects_wrong_coefficient():
    assert not ode_residual("G", 60, rhs_coefficient=F(1, 360)).is_zero()
