"""Named modular objects: Dedekind eta, Eisenstein series, Rogers-Ramanujan products.

Exact constructors return FracQSeries over ints: eta from pentagonal, the p = 3 case of
the Jacobi triple-product terms of triple_product (unrestricted_p reads it too).  A product
is declared once, by its spectrum: an ArithmeticProgressionSet whose members are its
exponents (RR_SPECTRUM for G and H), which q_product reads numerically and
inverse_product exactly: one sparse_quotient over triple_product, O(order^(3/2)), for a
+-i pair mod p, else euler_product's coin-change pass, the oracle.  The numeric side evaluates
at q = exp(2*pi*i*tau) in numpy (imported lazily) at one tau or over an array of them,
with one of each primitive: check_tau validates tau, fold_tau moves a scalar's Re tau
into [-period/2, period/2] (every kernel is periodic in it with a period dividing 24,
the default; evaluate_series passes lcm(24, den(a)) for its q^a), adaptive_cutoff is the
only truncation of every q-sum (|q|^(n^p / p) below CUTOFF_TARGET, plus CUTOFF_MARGIN,
at most MAX_CUTOFF by check_terms), q_product the Euler product, theta_table the theta
series (with halves=False only its integer steps, theta_3 and theta_4).  No kernel takes
a cutoff, and each checks tau before anything is allocated: in adaptive_cutoff, and
first in fold_tau at the one-point entries.  eta_eval keeps the last ETA_CACHE_SIZE
values by folded tau (the scalar path's value; an eta_values array may differ from it in
the last bit).  evaluate_series sums a FracQSeries by Horner over the series' memoized
int numerators.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import CutoffTooLarge, InvalidProgression, NotInUpperHalfPlane
from .series import DEFAULT_ORDER, FracQSeries, check_order, is_int


def divisor_sums(k: int, n_max: int) -> list[int]:
    """sigma_k(n) for 1 <= n <= n_max, by sieving over divisors."""
    values = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dk = d ** k
        for m in range(d, n_max + 1, d):
            values[m] += dk
    return values[1:]


def euler_product(exponents: Iterable[int], sign: int, order: int) -> list[int]:
    """The first `order` coefficients of 1 / prod (1 + sign q^e) over the exponents: each
    factor is one in-place coin-change pass g_n = f_n - sign g_(n-e), bottom up."""
    coeffs = [1] + [0] * (check_order(order) - 1)
    for e in exponents:
        if e < 1:
            raise ValueError(f"exponent {e} < 1")
        for n in range(e, order):
            coeffs[n] -= sign * coeffs[n - e]
    return coeffs


def triple_product(p: int, i: int, n_max: int) -> Iterator[tuple[int, int]]:
    """(g, (-1)^k) for g = (pk^2 -+ (p - 2i)k)/2 <= n_max, k >= 1, 1 <= i < p/2, ascending:
    Jacobi's triple product, prod_{n = 0, +-i (mod p)} (1 - q^n) = 1 + sum (-1)^k q^g
    (Andrews, The Theory of Partitions, Thm 2.8)."""
    k = 1
    while (g := k * (p * k - p + 2 * i) // 2) <= n_max:
        yield g, (-1) ** k
        if g + (p - 2 * i) * k <= n_max:
            yield g + (p - 2 * i) * k, (-1) ** k
        k += 1


def pentagonal(n_max: int) -> Iterator[tuple[int, int]]:
    """triple_product(3, 1), k(3k -+ 1)/2: Euler's pentagonal number theorem."""
    return triple_product(3, 1, n_max)


def sparse_quotient(numerator: Iterable[tuple[int, int]], theta: Iterable[tuple[int, int]],
                    order: int) -> list[int]:
    """The first `order` coefficients of (1 + sum s q^e) / (1 + sum t q^g) over the distinct
    e >= 1 of numerator and the ascending g >= 1 of theta, t = +-1: one sparse division
    f_n = N_n - sum t f_(n-g), O(order len(theta))."""
    f = [1] + [0] * (check_order(order) - 1)
    for e, s in numerator:
        f[e] = s
    terms = list(theta)
    for n in range(1, order):
        acc = f[n]
        for g, t in terms:
            if g > n:
                break
            if t > 0:
                acc -= f[n - g]
            else:
                acc += f[n - g]
        f[n] = acc
    return f


def dedekind_eta(order: int = DEFAULT_ORDER) -> FracQSeries:
    """q^{1/24} * prod_{n>=1} (1 - q^n), truncated after `order` coefficients: the
    signs of pentagonal at its g, and 0 elsewhere."""
    coeffs = [1] + [0] * (check_order(order) - 1)
    for g, sign in pentagonal(order - 1):
        coeffs[g] = sign
    return FracQSeries.from_ints(Fraction(1, 24), coeffs)


def eisenstein(k: int, order: int = DEFAULT_ORDER) -> FracQSeries:
    """E2 = 1 - 24 sum sigma_1(n) q^n, E4 = 1 + 240 sum sigma_3(n) q^n."""
    if k == 2:
        mult, power = -24, 1
    elif k == 4:
        mult, power = 240, 3
    else:
        raise ValueError("only E2 and E4 are provided")
    sig = divisor_sums(power, check_order(order) - 1)
    return FracQSeries.from_ints(0, [1] + [mult * s for s in sig])


@dataclass(frozen=True)
class ArithmeticProgressionSet:
    """A finite union of progressions {p*n + r : n >= 0} with 0 < r <= p: the spectrum
    of an Euler product, whose exponents are its members."""

    progressions: tuple[tuple[int, int], ...]

    def __init__(self, progressions):
        progs = tuple((p, r) for p, r in progressions)
        if not all(is_int(p) and is_int(r) for p, r in progs):   # 5.5 is not read as 5
            raise InvalidProgression(f"progressions must be pairs of ints: {progs}")
        if not progs:
            raise InvalidProgression("no progressions")
        for i, (p, r) in enumerate(progs):
            _validate(p, r)
            # {pn + r} and {p'n + r'} share a member iff r = r' mod gcd(p, p') (CRT)
            for p2, r2 in progs[:i]:
                if (r - r2) % math.gcd(p, p2) == 0:
                    raise InvalidProgression(f"progressions ({p2}, {r2}) and ({p}, {r}) overlap")
        object.__setattr__(self, "progressions", progs)

    def members(self, below: int) -> list[int]:
        """All spectrum members < below, ascending (progressions kept disjoint)."""
        return sorted(e for p, r in self.progressions for e in range(r, below, p))

    def inverse_product(self, sign: int, order: int) -> list[int]:
        """The first `order` coefficients of 1 / prod (1 + sign q^e) over the members: by
        euler_product, or, when sign is -1 and the members are the n = +-i (mod p) with
        1 <= i < p/2, as (q^p; q^p)_oo / triple_product(p, i) by sparse_quotient."""
        (p, i), *rest = sorted(self.progressions)
        if sign == -1 and rest == [(p, p - i)]:
            top = check_order(order) - 1
            return sparse_quotient(((p * g, s) for g, s in pentagonal(top // p)),
                                   triple_product(p, i, top), order)
        return euler_product(self.members(check_order(order)), sign, order)


def _validate(p: int, r: int):
    if p < 1 or not (1 <= r <= p):
        raise InvalidProgression(f"(p, r) = ({p}, {r})")


# parts of G and H (n % RR_MODULUS in the residues); the smallest is that of the gap-2 side
RR_MODULUS = 5
RR_RESIDUES = {"G": (1, 4), "H": (2, 3)}
RR_SPECTRUM = {w: ArithmeticProgressionSet((RR_MODULUS, r) for r in rs)
               for w, rs in RR_RESIDUES.items()}


def rr_product(which: str, order: int = DEFAULT_ORDER) -> FracQSeries:
    """Rogers-Ramanujan products 1 / prod (1 - q^e) over the members of RR_SPECTRUM."""
    if which not in RR_SPECTRUM:
        raise ValueError("which must be 'G' or 'H'")
    return FracQSeries.from_ints(0, RR_SPECTRUM[which].inverse_product(-1, order))


def check_tau(tau):
    """tau itself if it is finite with Im(tau) > 0, else NotInUpperHalfPlane.

    tau may be a complex or a numpy array of them; an array passes only when
    every entry does.
    """
    import numpy as np
    if isinstance(tau, np.ndarray):
        ok = np.isfinite(tau).all() and (tau.imag > 0).all()
    else:   # the one-point calls: the same rule without numpy's per-call overhead
        ok = cmath.isfinite(tau) and tau.imag > 0
    if not ok:
        raise NotInUpperHalfPlane(f"tau = {tau}: need a finite tau with Im(tau) > 0")
    return tau


def fold_tau(tau: complex, period: int = 24) -> complex:
    """A scalar tau, checked, with Re tau moved into [-period/2, period/2] by
    math.remainder(Re tau, period).

    The remainder is exact and leaves |Re tau| <= period/2 bit-identical.  Every numeric
    kernel is periodic in Re tau with a period dividing 24 (eta's q^{1/24} has 24, each
    theta term exp(pi i m^2 tau) and mu's q^{-1/8} have 8 or less), so the value is the
    same, and the exps no longer lose the digits of a large Re tau.  A series with a
    prefactor q^a needs a multiple of den(a) as its period.
    """
    tau = check_tau(tau)
    return complex(math.remainder(tau.real, period), tau.imag)


CUTOFF_TARGET = 1e-15
CUTOFF_MARGIN = 3
# about the power-1 cutoff at Im tau = 6.7e-4, so every Im tau >= 1e-3 evaluates
MAX_CUTOFF = 8192


def check_terms(terms):
    """terms itself if it is at most MAX_CUTOFF, else CutoffTooLarge (also for NaN)."""
    if not terms <= MAX_CUTOFF:
        raise CutoffTooLarge(f"a cutoff of {terms:.6g} terms exceeds MAX_CUTOFF = {MAX_CUTOFF}")
    return terms


def adaptive_cutoff(tau, power: int = 1) -> int:
    """The smallest n with |q|^(n^power / power) < CUTOFF_TARGET at the smallest Im tau,
    plus CUTOFF_MARGIN: power 1 for Euler products, 2 for theta sums.  CutoffTooLarge
    above MAX_CUTOFF, raised before anything is allocated."""
    import numpy as np
    y = check_tau(tau).imag
    y = float(y.min() if isinstance(y, np.ndarray) else y)
    # exp(-2 pi y n^p / p) < target  <=>  n > (p log(1/target) / (2 pi y))^(1/p)
    bound = (-power * math.log(CUTOFF_TARGET) / (2 * math.pi * y)) ** (1 / power)
    return math.floor(check_terms(bound + 1 + CUTOFF_MARGIN))


def q_product(tau, sign: int, spectrum: ArithmeticProgressionSet | None = None):
    """prod (1 + sign q^n) over n <= c at each tau of an array (or at one tau), with c the
    adaptive_cutoff at the smallest Im tau, so every entry is converged: every n, or the
    members of spectrum.  One np.prod over the table q^n = exp(2 pi i n tau)."""
    import numpy as np
    c = adaptive_cutoff(tau)   # which checks tau
    n = np.arange(1, c + 1) if spectrum is None else np.array(spectrum.members(c + 1))
    return np.multiply.reduce(1 + sign * np.exp(2j * np.pi * np.multiply.outer(n, tau)))


def theta_table(zs, taus, halves: bool = True):
    """The exponent table of the four theta series and its sums, for each z of zs, at
    one tau or at each tau of an array (a tau axis of one entry for one tau).

    table[k, :, t] = exp(pi i m^2 tau_t + 2 pi i m zs[k]) over m from -c to c + 3/2
    in steps of 1/2, with c the power-2 adaptive_cutoff rounded up to even.
    So the entries come in fours: an even integer n, n + 1/2, the odd n + 1, n + 3/2.
    theta_3 and theta_2 sum over integers and half-integers; theta_4 and theta_1 weigh
    them by (-1)^floor(m).  Returns (table, thetas), thetas[i - 1][k] = theta_i(zs[k]).

    halves=False builds only the integer steps m from -c to c + 1, in pairs (even n,
    odd n + 1), and returns (table, (theta_3, theta_4)), equal to the full table's.
    """
    import numpy as np
    c = adaptive_cutoff(taus, 2)   # which checks tau, at the scalar's cost for one tau
    taus = np.atleast_1d(taus)
    c += c % 2   # MAX_CUTOFF is even, so this stays within it
    k = 2 if halves else 1   # entries per unit of m
    m = np.arange(-k * c, k * (c + 2)) / k
    # built in place: the table is the largest array of a row
    table = np.empty((len(zs), m.size, taus.size), dtype=complex)
    np.multiply.outer(1j * np.pi * m * m, taus, out=table[0])
    table[1:] = table[0]
    table += 2j * np.pi * np.asarray(zs, dtype=complex)[:, None, None] * m[:, None]
    np.exp(table, out=table)
    parts = table.reshape(len(zs), c + 1, 2 * k, taus.size).sum(axis=1)
    if not halves:
        even, odd = parts.transpose(1, 0, 2)
        return table, (even + odd, even - odd)
    even, even_half, odd, odd_half = parts.transpose(1, 0, 2)
    return table, (-1j * (even_half - odd_half), even_half + odd_half, even + odd, even - odd)


def eta_values(tau):
    """Numeric eta = q^{1/24} prod_n (1 - q^n) at each tau of an array (or at one tau)."""
    import numpy as np
    product = q_product(tau, -1)   # which checks tau
    return np.exp(2j * np.pi * tau / 24) * product


# one call reads one or two tau; each entry is a complex
ETA_CACHE_SIZE = 16


@functools.lru_cache(maxsize=ETA_CACHE_SIZE)
def _eta_at(tau: complex) -> complex:
    return complex(eta_values(tau))


def eta_eval(tau: complex) -> complex:
    """Numeric eta(tau) = q^{1/24} prod_n (1 - q^n), at fold_tau(tau), kept for the
    last ETA_CACHE_SIZE folded tau."""
    return _eta_at(fold_tau(tau))


def evaluate_series(f: FracQSeries, tau: complex) -> complex:
    """Numeric value of a FracQSeries at q = exp(2*pi*i*tau).

    Horner over f.numerators(): n / d is int true division, correctly rounded like
    complex(Fraction(n, d)), so each coefficient is the float of the exact rational.
    The prefactor q^a is evaluated as exp(2*pi*i*tau*a), which is the branch
    every formula in scope intends.  Re tau is folded by lcm(24, den(a)), the period of
    q^a times the integer powers, so |Re tau| <= 12 is summed as given.
    """
    tau = fold_tau(tau, math.lcm(24, f.prefactor.denominator))
    q = cmath.exp(2j * math.pi * tau)
    numerators, d = f.numerators()
    acc = 0j
    for n in reversed(numerators):
        acc = acc * q + n / d
    a = f.prefactor
    if a != 0:
        acc *= cmath.exp(2j * math.pi * tau * complex(a))
    return acc
