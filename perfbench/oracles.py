"""Reference computations made apart from qcft.

Everything here uses only the standard library: integer dynamic programs,
closed forms from the literature and plain `Fraction` elimination.  The
benchmark compares qcft's outputs against these, never against stored copies
of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Eguchi-Ooguri-Tachikawa (arXiv:1004.0956): the K3 elliptic genus has mock
# part 2 q^{-1/8} (-1 + 45 q + 231 q^2 + 770 q^3 + 2277 q^4 + ...).
EOT_COEFFICIENTS = (-1, 45, 231, 770, 2277)
EOT_SCALE = 2


# -- integer series ---------------------------------------------------------------

def common_denominator(coeffs) -> tuple[int, list[int]]:
    """(D, [c * D]) with D the lcm of the denominators of the rationals."""
    d = 1
    for c in coeffs:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """The first n coefficients of the product of two integer series."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def series_product(f_coeffs, g_coeffs, n: int) -> list[Fraction]:
    """Truncated product of two rational coefficient lists, in integers."""
    df, fa = common_denominator(f_coeffs)
    dg, ga = common_denominator(g_coeffs)
    return [Fraction(c, df * dg) for c in convolve(fa, ga, n)]


def q_derivative(prefactor: Fraction, coeffs) -> list[Fraction]:
    """q d/dq on q^a sum c_n q^n: coefficient n becomes (a + n) c_n."""
    return [(prefactor + n) * c for n, c in enumerate(coeffs)]


def aligned_sum(pf: Fraction, f, pg: Fraction, g) -> tuple[Fraction, list[Fraction]]:
    """q^pf f + q^pg g, kept only where both operands are known."""
    lo = min(pf, pg)
    hi = min(pf + len(f), pg + len(g))
    out = [Fraction(0)] * int(hi - lo)
    for pref, cs in ((pf, f), (pg, g)):
        off = int(pref - lo)
        for i, c in enumerate(cs):
            if off + i < len(out):
                out[off + i] += c
    return lo, out


# -- products and partitions ---------------------------------------------------------

def pentagonal_coefficients(n: int) -> list[int]:
    """prod (1 - q^k) through q^(n-1), by Euler's pentagonal number theorem."""
    out = [0] * n
    k = 0
    while True:
        g1 = k * (3 * k - 1) // 2
        if g1 >= n:
            break
        sign = -1 if k % 2 else 1
        out[g1] = sign
        g2 = k * (3 * k + 1) // 2
        if k and g2 < n:
            out[g2] = sign
        k += 1
    return out


def coin_change(n: int, parts) -> list[int]:
    """Partitions of 0..n-1 into the given parts (each usable any number of times)."""
    out = [1] + [0] * (n - 1)
    for p in parts:
        for m in range(p, n):
            out[m] += out[m - p]
    return out


def residue_parts(n: int, modulus: int, residues) -> list[int]:
    return [p for p in range(1, n) if p % modulus in residues]


def rogers_ramanujan(which: str, n: int) -> list[int]:
    """G (parts = +-1 mod 5) or H (parts = +-2 mod 5) through q^(n-1)."""
    residues = {"G": (1, 4), "H": (2, 3)}[which]
    return coin_change(n, residue_parts(n, 5, residues))


def gap_counts(n: int, min_gap: int, min_part: int) -> list[int]:
    """Partitions of 0..n-1 whose parts are >= min_part and differ by >= min_gap.

    Subtracting the staircase (min_part - 1) + min_gap * (k - 1 - j) from a
    partition with k parts leaves an arbitrary partition into exactly k parts,
    counted by p_k(m) = p_k(m - k) + p_{k-1}(m - 1).
    """
    exact = [[0] * n for _ in range(n)]  # exact[k][m]: m into exactly k parts
    exact[0][0] = 1
    for k in range(1, n):
        for m in range(k, n):
            exact[k][m] = exact[k][m - k] + exact[k - 1][m - 1]
    out = [0] * n
    for total in range(n):
        k = 0
        while True:
            shift = (min_part - 1) * k + min_gap * k * (k - 1) // 2
            if shift + k > total and k > 0:
                break
            out[total] += exact[k][total - shift]
            k += 1
    return out


def gordon_counts(n: int, k: int, min_part: int) -> list[int]:
    """Partitions with b_j - b_{j+k-1} >= 2 and parts >= min_part (1 or 2).

    By Gordon's theorem these equal the partitions into parts not congruent
    to 0 or +-i mod 2k+1, where at most i-1 parts equal 1: i = k when ones
    are allowed (the window already caps them at k-1) and i = 1 when not.
    """
    i = k if min_part == 1 else 1
    m = 2 * k + 1
    banned = {0, i % m, (-i) % m}
    return coin_change(n, [p for p in range(1, n) if p % m not in banned])


def divisor_sum(k: int, n: int) -> int:
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            if d * d != n:
                total += (n // d) ** k
        d += 1
    return total


def eisenstein(k: int, n: int) -> list[int]:
    mult = {2: -24, 4: 240}[k]
    return [1] + [mult * divisor_sum(k - 1, m) for m in range(1, n)]


def e4_squared(n: int) -> list[int]:
    """E4^2 = E8 = 1 + 480 sum sigma_7(m) q^m."""
    return [1] + [480 * divisor_sum(7, m) for m in range(1, n)]


def partitions_with_min_part(level: int, min_part: int) -> int:
    """Number of partitions of `level` into parts >= min_part."""
    return coin_change(level + 1, range(min_part, level + 1))[level]


# -- regularization and Virasoro -----------------------------------------------------

def hurwitz_exponent(progressions) -> Fraction:
    """Half of sum_p p * zeta(-1, r/p) = -p B_2(r/p) / 2 over the progressions."""
    total = Fraction(0)
    for p, r in progressions:
        x = Fraction(r, p)
        total += -p * (x * x - x + Fraction(1, 6)) / 2
    return total / 2


def central_charge(p: int, q: int) -> Fraction:
    return 1 - Fraction(6 * (p - q) ** 2, p * q)


def kac_point(t: Fraction, r: int, s: int) -> tuple[Fraction, Fraction]:
    """(c, h_{r,s}) with c = 13 - 6 (t + 1/t) and the Kac weight for (r, s)."""
    c = 13 - 6 * (t + 1 / t)
    h = ((r * t - s) ** 2 - (t - 1) ** 2) / (4 * t)
    return c, h


def evaluate_poly(terms: dict, c: Fraction, h: Fraction) -> Fraction:
    """Evaluate a polynomial given as {(i, j): coefficient of c^i h^j}."""
    return sum((v * c ** i * h ** j for (i, j), v in terms.items()), Fraction(0))


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [list(row) for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                for k in range(col, n):
                    a[r][k] -= factor * a[col][k]
    return det


def parse_poly(text: str) -> dict:
    """Parse the printed form of a qcft PolyCH, e.g. '(5/2)*c^3 + 11*c^2'."""
    terms: dict = {}
    if text.strip() == "0":
        return terms
    for term in text.split(" + "):
        coeff, i, j = Fraction(1), 0, 0
        for factor in term.split("*"):
            if factor.startswith("("):
                coeff *= Fraction(factor.strip("()"))
                continue
            if factor.lstrip("-").isdigit():
                coeff *= Fraction(factor)
                continue
            if factor.startswith("-"):
                coeff, factor = -coeff, factor[1:]
            var, _, power = factor.partition("^")
            if var == "c":
                i += int(power or 1)
            elif var == "h":
                j += int(power or 1)
            else:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
        terms[(i, j)] = terms.get((i, j), Fraction(0)) + coeff
    return terms
