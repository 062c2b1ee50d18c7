"""Virasoro bracket, Verma-module Gram matrices, minimal-model data, and the
second-order modular differential equation satisfied by the (2,5) characters.

Each (2,5) character is q^a times the Rogers-Ramanujan product SECTOR_PRODUCT names,
declared once as its spectrum special.RR_SPECTRUM[w]: a = CHARACTER_PREFACTOR is that
spectrum's Casimir exponent, and the exact and numeric products read its members.

Mode convention: positive modes raise the L_0 weight (L_m maps weight h to
weight h + m), so a lowest-weight vector |h> is annihilated by every L_{-m}
with m > 0.  Gram entries are exact polynomials kept over the ints in C = c/12 and h,
and the determinant is expanded there too; PolyCH, in (c, h), is only their printed view.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import LevelTooLarge
from .partitions import PartitionConstraint, count_partitions
from .regularization import casimir_exponent, oscillator_partition_series
from .series import DEFAULT_ORDER, FracQSeries, _unpack, check_order, is_int
from .special import RR_RESIDUES, RR_SPECTRUM, eisenstein, fold_tau, q_product

# level 6 (dimension 11) is in reach: its matrix takes ~3-5 ms and its determinant 0.15-0.28 s
# (2 cores, CPython 3.11)
MAX_GRAM_LEVEL = 6


def bracket(m: int, n: int) -> tuple[int, Fraction]:
    """[L_m, L_n] = (n - m) L_{m+n} + c/12 (n^3 - n) delta_{m+n,0}.

    Returns (coefficient of L_{m+n}, coefficient of c).
    """
    lin, central = _bracket_c12(m, n)
    return lin, Fraction(central, 12)


def _bracket_c12(m: int, n: int) -> tuple[int, int]:
    """bracket(m, n) with the central term over C = c/12: both coefficients are ints."""
    return n - m, n ** 3 - n if m + n == 0 else 0


# -- bivariate polynomials in (c, h) ------------------------------------------

class PolyCH:
    """Polynomial in the central charge c and the weight h, exact coefficients: the
    printed view of a Gram entry or determinant.  Its ring is PolyCH(), const, + and
    scalar *, which perfbench/test_perfbench.py builds perturbed determinants with."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def const(cls, x) -> "PolyCH":
        return cls({(0, 0): Fraction(x)})

    def __add__(self, other: "PolyCH") -> "PolyCH":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return PolyCH(out)

    def __mul__(self, scalar) -> "PolyCH":
        return PolyCH({k: v * scalar for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyCH) and self.terms == other.terms

    def evaluate(self, c, h) -> Fraction:
        """The exact value at ints or Fractions c and h."""
        return sum((v * c ** i * h ** j for (i, j), v in self.terms.items()), Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, reverse=True):
            v = self.terms[(i, j)]
            coeff = f"{v.numerator}" if v.denominator == 1 else f"({v.numerator}/{v.denominator})"
            factors = [coeff]
            if i:
                factors.append("c" if i == 1 else f"c^{i}")
            if j:
                factors.append("h" if j == 1 else f"h^{j}")
            if (i or j) and v == 1:
                factors = factors[1:]
            elif (i or j) and v == -1:
                factors = ["-" + factors[1]] + factors[2:]
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


# -- Gram matrices -------------------------------------------------------------

def _partitions_of(level: int, min_part: int) -> list[tuple[int, ...]]:
    """Weakly decreasing partitions of `level`, lexicographically descending."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, acc: tuple[int, ...]):
        if rest == 0:
            out.append(acc)
            return
        for s in range(min(cap, rest), min_part - 1, -1):
            rec(rest - s, s, acc + (s,))

    rec(level, level, ())
    return out


IntPoly = dict[tuple[int, int], int]   # {(i, j): the int coefficient of C^i h^j}


def _act_lowering(m: int, mono: tuple[int, ...], vacuum: bool
                  ) -> list[tuple[tuple[int, ...], IntPoly]]:
    """L_{-m} applied to L_{mono[0]} ... L_{mono[-1]} |h>, m > 0.

    Returns monomials of raising modes with weights in Z[C, h], C = c/12, h = 0 in the
    vacuum module; the lowering operator is pushed through by the bracket until it
    annihilates |h>.
    """
    if not mono:
        return []
    n1, rest = mono[0], mono[1:]
    out = [((n1,) + tail, w) for tail, w in _act_lowering(m, rest, vacuum)]
    lin, central = _bracket_c12(-m, n1)   # lin L_k, and C central if k == 0
    k = n1 - m
    if k > 0:
        out.append(((k,) + rest, {(0, 0): lin}))
    elif k == 0:   # L_0 on the weight h + sum(rest), and the central term
        weight = {(0, 0): lin * sum(rest), (1, 0): central, (0, 1): 0 if vacuum else lin}
        out.append((rest, {key: v for key, v in weight.items() if v}))
    else:
        out += [(tail, {key: v * lin for key, v in w.items()})
                for tail, w in _act_lowering(-k, rest, vacuum)]
    return out


def _add_product(acc: IntPoly, p: IntPoly, q: IntPoly):
    """acc += p q."""
    for (i1, j1), v1 in p.items():
        for (i2, j2), v2 in q.items():
            k = (i1 + i2, j1 + j2)
            acc[k] = acc.get(k, 0) + v1 * v2


def _contract(bra: tuple[int, ...], ket: tuple[int, ...], vacuum: bool) -> IntPoly:
    """<h| adjoint(L_bra ... ) L_ket ... |h> in Z[C, h], C = c/12."""
    state: dict[tuple[int, ...], IntPoly] = {ket: {(0, 0): 1}}
    for m in bra:
        nxt: dict[tuple[int, ...], IntPoly] = {}
        for mono, coef in state.items():
            for mono2, w in _act_lowering(m, mono, vacuum):
                _add_product(nxt.setdefault(mono2, {}), coef, w)
        state = {k: v for k, v in nxt.items() if any(v.values())}
    return state.get((), {})


def _to_c(p: IntPoly) -> PolyCH:
    """The (c, h) view of a polynomial over Z[C, h]: v C^i h^j = v / 12^i c^i h^j."""
    return PolyCH({(i, j): Fraction(v, 12 ** i) for (i, j), v in p.items()})


@dataclass(frozen=True)
class VermaGram:
    """Level-graded Gram matrix of descendants of a lowest-weight vector: c12 holds its
    entries over Z[C, h], C = c/12, and entries is their (c, h) view, built on first read."""

    level: int
    vacuum: bool
    basis: tuple[tuple[int, ...], ...]
    c12: tuple[tuple[IntPoly, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def entries(self) -> tuple[tuple[PolyCH, ...], ...]:
        return tuple(tuple(_to_c(e) for e in row) for row in self.c12)

    def determinant(self) -> PolyCH:
        """Exact determinant by Laplace expansion along the rows, memoized on
        the set of columns used: O(n 2^n) entry-by-minor products, not O(n!).

        minors[S], the determinant of the first |S| rows on the columns in S, is one int:
        its polynomial over Z[C, h] at C = 2^w, h = 2^(w (d_C + 1)).  The sums d_C and d_h
        of the rows' largest C- and h-degrees bound every minor's degrees, and the product
        of the rows' l1 norms its coefficients, which w holds with two bits to spare.  So
        an entry times a minor is a few small-int multiplies and shifts, and the full
        minor alone is read back, by the bias of series._product, and converted to (c, h).
        Dimension 0 is the empty mask, whose minor is 1.
        """
        rows = self.c12
        d_c = sum(max((i for e in row for i, _ in e), default=0) for row in rows)
        d_h = sum(max((j for e in row for _, j in e), default=0) for row in rows)
        bound = math.prod(sum(abs(v) for e in row for v in e.values()) for row in rows)
        nb = (bound.bit_length() + 9) >> 3   # two bits above the bound, in whole bytes
        w, slots = 8 * nb, (d_c + 1) * (d_h + 1)
        minors = {0: 1}
        for row in rows:
            nonzero = [(j, [(v, w * (i + (d_c + 1) * k)) for (i, k), v in e.items() if v])
                       for j, e in enumerate(row) if e]
            nxt: dict[int, int] = {}
            for mask, minor in minors.items():
                for j, terms in nonzero:
                    if mask >> j & 1:
                        continue
                    # (-1)^(columns of the mask right of j) is the cofactor sign
                    sign = -1 if (mask >> j).bit_count() & 1 else 1
                    nxt[mask | 1 << j] = nxt.get(mask | 1 << j, 0) + sum(
                        [sign * v * minor << shift for v, shift in terms])
            minors = {m: p for m, p in nxt.items() if p}
        bias = int.from_bytes((b"\x01" + bytes(nb - 1)) * slots, "little") << (w - 1)
        det = (minors.get((1 << self.dimension) - 1, 0) + bias) ^ bias
        coeffs = _unpack(det, slots, nb, signed=True)
        return _to_c({(s % (d_c + 1), s // (d_c + 1)): v for s, v in enumerate(coeffs) if v})

    def evaluate(self, c, h) -> list[list]:
        return [[e.evaluate(c, h) for e in row] for row in self.entries]


def gram_matrix(level: int, vacuum: bool = False) -> VermaGram:
    """Gram matrix at a given level; the vacuum module restricts parts to >= 2."""
    if not is_int(level):
        raise ValueError(f"level {level!r} is not an int")
    if not (1 <= level <= MAX_GRAM_LEVEL):
        raise LevelTooLarge(f"level {level} outside 1..{MAX_GRAM_LEVEL}")
    basis = tuple(_partitions_of(level, 2 if vacuum else 1))
    entries: list[list[IntPoly]] = []
    for i, mu in enumerate(basis):   # symmetric: the entries left of the diagonal are read back
        entries.append([entries[j][i] if j < i else _contract(mu, lam, vacuum)
                        for j, lam in enumerate(basis)])
    return VermaGram(level, vacuum, basis, tuple(tuple(r) for r in entries))


@dataclass(frozen=True)
class NullVectorResult:
    central_charges: tuple[Fraction, ...]
    beta: Fraction | None       # null combination (L_2^2 + beta L_4)|0>
    tt_remainder_ratio: Fraction | None  # ratio of the regular TT term to d^2 T


def null_vector_central_charges() -> NullVectorResult:
    """Central charges at which the level-4 vacuum Gram matrix degenerates.

    The determinant factors as c^2 * (linear in c) / const; the c = 0 factors
    are degenerate (the whole matrix vanishes) and are excluded.  What cannot be
    computed is left out: the charges and beta without a linear factor, beta if L_4|0>
    has norm 0 at the root, and the ratio if the rows disagree on the null direction.
    """
    g = gram_matrix(4, vacuum=True)
    terms = g.determinant().terms   # by (power of c, power of h); a vacuum one has no h
    low = min((i for i, _ in terms), default=0)   # multiplicity of the degenerate c = 0 root
    reduced = {i - low: v for (i, _), v in terms.items()}
    if sorted(reduced) != [0, 1]:
        return NullVectorResult((), None, None)
    root = -reduced[0] / reduced[1]
    # Null direction beta * L_4 + 1 * L_2^2 at the root, over the basis (4,), (2, 2).
    (g44, g42), (_, g22) = g.evaluate(root, 0)
    beta = -g42 / g44 if g44 else None
    # The regular term of the normal-ordered TT product is L_2^2 - L_4 acting
    # on the vacuum (symmetric subtraction of the singular part), while the
    # second derivative of the weight-2 field is 2 L_4.  In the quotient
    # L_2^2 = -beta L_4, so their ratio is (-beta - 1)/2.
    ratio = (-beta - 1) / 2 if beta is not None and g42 * beta + g22 == 0 else None
    return NullVectorResult((root,), beta, ratio)


# -- minimal models --------------------------------------------------------------

@dataclass(frozen=True)
class MinimalModelLabel:
    p: int
    q: int

    def __post_init__(self):
        if not (is_int(self.p) and is_int(self.q) and 1 < self.p < self.q
                and math.gcd(self.p, self.q) == 1):
            raise ValueError(f"({self.p!r}, {self.q!r}) is not a valid minimal-model label")


def central_charge(m: MinimalModelLabel) -> Fraction:
    """c = 1 - 6 (p - q)^2 / (p q)."""
    return 1 - Fraction(6 * (m.p - m.q) ** 2, m.p * m.q)


def effective_central_charge(m: MinimalModelLabel) -> Fraction:
    """c_eff = 1 - 6 / (p q), the growth exponent of the state count."""
    return 1 - Fraction(6, m.p * m.q)


def minimal_c_eff_scan(bound: int) -> tuple[MinimalModelLabel, Fraction]:
    """Label minimizing c_eff over all labels with p*q <= bound.

    The label (2,3) has c = 0 and an empty field content, so it is excluded
    from the scan: the minimum is over models with states to count.
    """
    if not is_int(bound):
        raise ValueError(f"bound {bound!r} is not an int")
    best: tuple[MinimalModelLabel, Fraction] | None = None
    for p in range(2, bound + 1):
        for q in range(p + 1, bound // p + 1):
            if math.gcd(p, q) != 1:
                continue
            label = MinimalModelLabel(p, q)
            if central_charge(label) == 0:
                continue
            ceff = effective_central_charge(label)
            if best is None or ceff < best[1]:
                best = (label, ceff)
    if best is None:
        raise ValueError(f"no minimal-model label with states has p*q <= {bound}")
    return best


# -- (2,5) characters and the torus ----------------------------------------------

# each character is q^CHARACTER_PREFACTOR times one Rogers-Ramanujan product
SECTOR_PRODUCT = {"V0": "H", "Vm15": "G"}
# the Casimir sum of the product's spectrum: 11/60 = -c/24 for V0, -1/60 = h - c/24 for Vm15
CHARACTER_PREFACTOR = {sector: casimir_exponent(RR_SPECTRUM[which])
                       for sector, which in SECTOR_PRODUCT.items()}


def character_25(sector: str, order: int = DEFAULT_ORDER) -> FracQSeries:
    """Graded dimensions of the two (2,5) irreducibles, with Casimir prefactor.

    Partitions with gaps >= 2 and smallest part that of the sector's product
    (V0 has no 1s, Vm15 allows them), so each is its SECTOR_PRODUCT exactly.
    """
    if sector not in CHARACTER_PREFACTOR:
        raise ValueError("sector must be 'V0' or 'Vm15'")
    min_part = min(RR_RESIDUES[SECTOR_PRODUCT[sector]])
    counts = count_partitions(check_order(order) - 1,
                              PartitionConstraint(min_part=min_part, min_gap=2))
    return FracQSeries.from_ints(CHARACTER_PREFACTOR[sector], counts.values)


def torus_partition_function_25(tau: complex) -> float:
    """The sum over the sectors of |q^a / prod (1 - q^n)|^2 at q = exp(2*pi*i*tau), with
    a = CHARACTER_PREFACTOR and n over the RR_SPECTRUM of the sector's product (one
    q_product each), at fold_tau(tau), which also checks tau before the first exp."""
    tau = fold_tau(tau)
    total = 0.0
    for sector, which in SECTOR_PRODUCT.items():
        product = complex(q_product(tau, -1, RR_SPECTRUM[which]))
        prefactor = cmath.exp(2j * math.pi * tau * float(CHARACTER_PREFACTOR[sector]))
        total += abs(prefactor / product) ** 2
    return total


# -- modular ODE -------------------------------------------------------------------

def serre_derivative(f: FracQSeries, k) -> FracQSeries:
    """q d/dq f - (k/12) E2 f, mapping weight k to weight k + 2."""
    e2 = eisenstein(2, f.order)
    return f.q_derivative() - (Fraction(k) / 12) * (e2 * f)


def ode_residual(which: str, order: int = DEFAULT_ORDER,
                 rhs_coefficient: Fraction = Fraction(11, 3600)) -> FracQSeries:
    """LHS - RHS of (q d/dq - 1/6 E2) q d/dq Z = (11/3600) E4 Z.

    Z is the character of the sector whose product is `which` (G or H), the oscillator
    series of its RR_SPECTRUM; the residual must vanish identically.
    A different rhs_coefficient deliberately breaks the equation (probe).
    """
    if which not in RR_SPECTRUM:
        raise ValueError("which must be 'G' or 'H'")
    z = oscillator_partition_series(RR_SPECTRUM[which], order)
    dz = z.q_derivative()
    lhs = serre_derivative(dz, 2)
    rhs = rhs_coefficient * (eisenstein(4, order) * z)
    return lhs - rhs
