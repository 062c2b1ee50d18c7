"""The three workloads: their seeded inputs, their timed operations and the
checks that judge each output.

A workload object does its set-up when it is made; `round(index)` draws one
round of inputs from the seed and returns its operations.  Every round of a
workload has the same make-up, so a run attempts whole rounds of the same
operations; the seed only moves the inputs inside fixed ranges.  Each check returns a list of failure messages,
empty when the output is right, and runs outside the timed call.
"""

from __future__ import annotations

import ast
import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from qcft import boson, cli, mock, partitions, special, virasoro
from qcft.series import DEFAULT_ORDER, FracQSeries

import oracles


@dataclass
class Op:
    """One timed call into qcft and the check of its output."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


def stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k values, one drawn uniformly from each of k equal slices of [lo, hi)."""
    width = (hi - lo) / k
    return [lo + (i + rng.random()) * width for i in range(k)]


def stratified_ints(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one from each of k equal slices."""
    return [min(hi, int(v)) for v in stratified(rng, lo, hi + 1, k)]


def _compare(label: str, got, want) -> list[str]:
    got, want = list(got), list(want)
    if len(got) != len(want):
        return [f"{label}: {len(got)} coefficients, expected {len(want)}"]
    for n, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{label}: coefficient {n} is {a}, expected {b}"]
    return []


def _close(label: str, got: complex, want: complex, rel: float) -> list[str]:
    scale = max(abs(want), 1e-300)
    if not abs(got - want) <= rel * scale:
        return [f"{label}: {got!r} vs {want!r} (relative {abs(got - want) / scale:.2e})"]
    return []


# == report: the `qcft all` command path ===============================================

GROUP_PREFIXES = {"series": "series.", "casimir": "casimir.", "rr": "rr.",
                  "minimal-model": "minimal.", "gram": "gram.", "ode": "ode.",
                  "boson": "boson.", "lattice-det": "lattice.", "mock": "mock."}


def run_qcft_all() -> tuple[int, bytes]:
    """`qcft all` at the default configuration: exit code and report bytes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["all"])
    return code, out.getvalue().encode()


def check_report(output: tuple[int, bytes]) -> list[str]:
    code, payload = output
    errors = [] if code == 0 else [f"qcft all exited {code}"]
    records = json.loads(payload)
    errors += [f"{r['name']} {r['params']} failed" for r in records if not r["pass"]]
    for group, prefix in GROUP_PREFIXES.items():
        if not any(r["name"].startswith(prefix) for r in records):
            errors.append(f"group {group} has no records")
    by_name: dict[str, list[dict]] = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r)

    mocks = by_name.get("mock.coefficients", [])
    if not mocks:
        errors.append("no mock.coefficients record")
    for r in mocks:
        values = tuple(r["details"]["values"])
        if values != oracles.EOT_COEFFICIENTS:
            errors.append(f"mock coefficients {values} at {r['params']}")
        if Fraction(r["details"]["scale"]) != oracles.EOT_SCALE:
            errors.append(f"mock scale {r['details']['scale']} at {r['params']}")

    charges = by_name.get("minimal.central_charge", [])
    if not charges:
        errors.append("no minimal.central_charge record")
    for r in charges:
        p, q = int(r["params"]["p"]), int(r["params"]["q"])
        if Fraction(r["details"]["value"]) != oracles.central_charge(p, q):
            errors.append(f"c({p},{q}) reported as {r['details']['value']}")

    exponents = set()
    for r in by_name.get("casimir.exponent", []):
        progressions = ast.literal_eval(r["params"]["progressions"])
        value = Fraction(r["details"]["value"])
        exponents.add(value)
        if value != oracles.hurwitz_exponent(progressions):
            errors.append(f"Casimir exponent {value} for {progressions}")
    if not {Fraction(-1, 60), Fraction(11, 60)} <= exponents:
        errors.append(f"Casimir exponents {sorted(map(str, exponents))} lack -1/60, 11/60")

    dets = by_name.get("gram.level4_vacuum_determinant", [])
    if len(dets) != 1:
        errors.append("no gram.level4_vacuum_determinant record")
    else:
        terms = oracles.parse_poly(dets[0]["details"]["determinant"])
        if not terms:
            errors.append("level-4 vacuum determinant is identically zero")
        elif oracles.evaluate_poly(terms, Fraction(-22, 5), Fraction(0)) != 0:
            errors.append("level-4 vacuum determinant does not vanish at c = -22/5")
    return errors


class Report:
    """One operation per round: the whole `qcft all` report."""

    name = "report"

    def __init__(self, seed: int):
        self.seed = seed  # the default configuration takes no seeded input

    def round(self, index: int) -> list[Op]:
        return [Op("qcft all", run_qcft_all, check_report)]


# == exact: seeded calls into the exact layers =========================================

SHORT = (8, 64)        # short orders, one drawn from each slice of this range
LONG = (201, 401)      # long orders: near the default 201, and just under 401
JITTER = 8             # long orders and partition sizes move by at most 2 * JITTER
N_SHORT_SERIES = 144   # series pairs per round at short orders (two more at long ones)
GRAM_LEVELS = range(1, 6)  # cofactor expansion does not finish level 6 in 60 s

_P = partitions.PartitionConstraint
# (constraint, largest n); count_partitions recurses too deep from n = 498 on.
PARTITION_SHAPES = ((_P(min_part=1, min_gap=2), 200),
                    (_P(min_part=2, min_gap=3), 400),
                    (_P(allowed_residues=frozenset({1, 4}), modulus=5), 300),
                    (_P(allowed_residues=frozenset({2, 5}), modulus=7), 100),
                    (_P(min_part=1, window=(2, 2)), 250),
                    (_P(min_part=2, window=(3, 2)), 350))


def long_orders(rng: random.Random) -> list[int]:
    """One order near 201 and one just under 401: a round's cost barely moves."""
    return [LONG[0] + rng.randint(-JITTER, JITTER), LONG[1] - rng.randint(0, 2 * JITTER)]


def random_series(rng: random.Random, order: int, prefactor: Fraction) -> FracQSeries:
    """Integer coefficients in [-9, 9] after a unit leading coefficient."""
    coeffs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(order - 1)]
    return FracQSeries(prefactor, coeffs)


def check_mul(f: FracQSeries, g: FracQSeries, out: FracQSeries) -> list[str]:
    n = min(f.order, g.order)
    errors = [] if out.prefactor == f.prefactor + g.prefactor else ["mul prefactor"]
    return errors + _compare("mul", out.coeffs, oracles.series_product(f.coeffs, g.coeffs, n))


def check_invert(f: FracQSeries, out: FracQSeries) -> list[str]:
    errors = [] if out.prefactor == -f.prefactor else ["invert prefactor"]
    one = [1] + [0] * (f.order - 1)
    return errors + _compare("f * f^-1", oracles.series_product(f.coeffs, out.coeffs, f.order),
                             one)


def check_q_derivative(f: FracQSeries, g: FracQSeries, out: FracQSeries) -> list[str]:
    """The definition (a + n) c_n, and the Leibniz rule D(fg) = D(f) g + f D(g)."""
    errors = [] if out.prefactor == f.prefactor else ["q_derivative prefactor"]
    errors += _compare("q d/dq", out.coeffs, oracles.q_derivative(f.prefactor, f.coeffs))
    n = min(f.order, g.order)
    fg = oracles.series_product(f.coeffs, g.coeffs, n)
    lhs = oracles.q_derivative(f.prefactor + g.prefactor, fg)
    dg = oracles.q_derivative(g.prefactor, g.coeffs)
    rhs = [a + b for a, b in zip(oracles.series_product(out.coeffs, g.coeffs, n),
                                 oracles.series_product(f.coeffs, dg, n))]
    return errors + _compare("Leibniz", lhs, rhs)


def check_add(f: FracQSeries, g: FracQSeries, out: FracQSeries) -> list[str]:
    lo, want = oracles.aligned_sum(f.prefactor, f.coeffs, g.prefactor, g.coeffs)
    errors = [] if out.prefactor == lo else ["add prefactor"]
    return errors + _compare("add", out.coeffs, want)


def check_eta(order: int, out: FracQSeries) -> list[str]:
    errors = [] if out.prefactor == Fraction(1, 24) else ["eta prefactor"]
    return errors + _compare("eta vs pentagonal", out.coeffs,
                             oracles.pentagonal_coefficients(order))


def check_eisenstein(k: int, order: int, out: FracQSeries) -> list[str]:
    errors = _compare(f"E{k}", out.coeffs, oracles.eisenstein(k, order))
    if k == 4 and not errors:
        errors += _compare("E4^2 vs 1 + 480 sigma_7",
                           oracles.series_product(out.coeffs, out.coeffs, order),
                           oracles.e4_squared(order))
    return errors


def check_rr(which: str, order: int, prefactor: Fraction, out: FracQSeries) -> list[str]:
    errors = [] if out.prefactor == prefactor else [f"{which} prefactor {out.prefactor}"]
    return errors + _compare(f"{which} vs coin change", out.coeffs,
                             oracles.rogers_ramanujan(which, order))


def partition_reference(n_max: int, c: partitions.PartitionConstraint) -> list[int]:
    n = n_max + 1
    if c.window is not None:
        return oracles.gordon_counts(n, c.window[0], c.min_part)
    if c.modulus is not None:
        return oracles.coin_change(n, oracles.residue_parts(n, c.modulus, c.allowed_residues))
    return oracles.gap_counts(n, c.min_gap, c.min_part)


def check_counts(n_max: int, c: partitions.PartitionConstraint, out) -> list[str]:
    return _compare(f"counts {c}", out.values, partition_reference(n_max, c))


def check_ode(out: FracQSeries) -> list[str]:
    nonzero = [n for n, c in enumerate(out.coeffs) if c != 0]
    return [f"ODE residual nonzero at q^(a+{nonzero[0]})"] if nonzero else []


def check_gram(level: int, vacuum: bool, point: tuple[Fraction, Fraction],
               kac_t: Fraction, out) -> list[str]:
    """Determinant at a rational point vs elimination; zeros at Kac weights."""
    gram, det = out
    errors = []
    want_dim = oracles.partitions_with_min_part(level, 2 if vacuum else 1)
    if gram.dimension != want_dim:
        errors.append(f"level {level} dimension {gram.dimension}, expected {want_dim}")
    c, h = point
    matrix = [[oracles.evaluate_poly(e.terms, c, h) for e in row] for row in gram.entries]
    got = oracles.evaluate_poly(det.terms, c, h)
    want = oracles.determinant(matrix)
    if got != want:
        errors.append(f"det at (c, h) = ({c}, {h}) is {got}, elimination gives {want}")
    if not vacuum:
        for r in range(1, level + 1):
            for s in range(1, level // r + 1):
                kc, kh = oracles.kac_point(kac_t, r, s)
                if oracles.evaluate_poly(det.terms, kc, kh) != 0:
                    errors.append(f"level {level} det nonzero at h_({r},{s}), t = {kac_t}")
    return errors


def _rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 9))


class Exact:
    """A seeded stream of calls into series, special, partitions and virasoro."""

    name = "exact"

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, index: int) -> list[Op]:
        rng = random.Random(f"exact/{self.seed}/{index}")
        ops: list[Op] = []
        for n in stratified_ints(rng, *SHORT, N_SHORT_SERIES) + long_orders(rng):
            f = random_series(rng, n, Fraction(rng.randint(-59, 59), 60))
            g = random_series(rng, n, f.prefactor + rng.randint(0, 3))
            ops += [Op(f"mul {n}", lambda f=f, g=g: f * g,
                       lambda out, f=f, g=g: check_mul(f, g, out)),
                    Op(f"invert {n}", lambda f=f: f.invert(),
                       lambda out, f=f: check_invert(f, out)),
                    Op(f"q_derivative {n}", lambda f=f: f.q_derivative(),
                       lambda out, f=f, g=g: check_q_derivative(f, g, out)),
                    Op(f"add {n}", lambda f=f, g=g: f + g,
                       lambda out, f=f, g=g: check_add(f, g, out))]

        short, long = stratified_ints(rng, *SHORT, 8), long_orders(rng)
        for n in short + long[:1]:
            ops.append(Op(f"dedekind_eta {n}", lambda n=n: special.dedekind_eta(n),
                          lambda out, n=n: check_eta(n, out)))
        for n in short + long:
            k = rng.choice((2, 4))
            ops.append(Op(f"eisenstein {k} {n}", lambda k=k, n=n: special.eisenstein(k, n),
                          lambda out, k=k, n=n: check_eisenstein(k, n, out)))
            which = rng.choice("GH")
            ops.append(Op(f"rr_product {which} {n}",
                          lambda w=which, n=n: special.rr_product(w, n),
                          lambda out, w=which, n=n: check_rr(w, n, Fraction(0), out)))

        for c, top in PARTITION_SHAPES:
            n_max = top - rng.randint(0, 2 * JITTER)
            ops.append(Op(f"count_partitions {n_max} {c}",
                          lambda n=n_max, c=c: partitions.count_partitions(n, c),
                          lambda out, n=n_max, c=c: check_counts(n, c, out)))

        for which, n in zip("GH", (100 + rng.randint(-JITTER, JITTER),
                                   DEFAULT_ORDER - rng.randint(0, 2 * JITTER))):
            ops.append(Op(f"ode_residual {which} {n}",
                          lambda w=which, n=n: virasoro.ode_residual(w, n), check_ode))
        for (sector, which), n in zip((("Vm15", "G"), ("V0", "H")), long_orders(rng)):
            ops.append(Op(f"character_25 {sector} {n}",
                          lambda s=sector, n=n: virasoro.character_25(s, n),
                          lambda out, w=which, s=sector, n=n: check_rr(
                              w, n, virasoro.CHARACTER_PREFACTOR[s], out)))

        for level in GRAM_LEVELS:
            for vacuum in (False, True):
                point = (_rational(rng, 60), Fraction(0) if vacuum else _rational(rng, 30))
                t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
                ops.append(Op(f"gram {level} {'vacuum' if vacuum else 'generic'}",
                              lambda lv=level, v=vacuum: _gram_and_det(lv, v),
                              lambda out, lv=level, v=vacuum, p=point, t=t: check_gram(
                                  lv, v, p, t, out)))
        rng.shuffle(ops)
        return ops


def _gram_and_det(level: int, vacuum: bool):
    gram = virasoro.gram_matrix(level, vacuum)
    return gram, gram.determinant()


# == numeric: every numeric function at one point ======================================

IM_TAU = (0.08, 3.0)   # cost grows like 1 / Im tau; below ~0.05 precision is lost
RE_TAU = (-1.5, 1.5)   # outside the fundamental domain too
RADIUS = (0.25, 8.0)   # log-uniform; theta sums grow like 1/R and R at the ends
POINTS_PER_ROUND = 400
MPMATH_EVERY = 10      # one point in this many is also checked against mpmath


@dataclass(frozen=True)
class Point:
    tau: complex
    radius: float
    z: complex
    z_other: complex     # a second z for the z-independence of the remainder
    with_mpmath: bool


def evaluate_point(p: Point, characters) -> dict:
    """The numeric workload's operation: every numeric kernel at one point."""
    jp = mock.JacobiPoint(p.z, p.tau)
    return {
        "Z": boson.boson_partition_function(p.radius, p.tau),
        "twisted": boson.twisted_boson_partition_function(p.tau),
        "eta": special.eta_eval(p.tau),
        "theta": [mock.jacobi_theta(i, jp) for i in (1, 2, 3, 4)],
        "eg": mock.elliptic_genus_k3(jp),
        "mu": mock.appell_lerch_mu(jp),
        "remainder": mock.mock_remainder(p.z, p.tau),
        "chi": [special.evaluate_series(c, p.tau) for c in characters],
    }


def _horner(coeffs, prefactor: Fraction, tau: complex) -> complex:
    q = cmath.exp(2j * math.pi * tau)
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc * cmath.exp(2j * math.pi * tau * float(prefactor))


def check_point(p: Point, references, out: dict) -> list[str]:
    """Dualities and invariances, z-independence, and mpmath on a subset."""
    tau, R = p.tau, p.radius
    z = out["Z"]
    errors = _close("Z_R vs Z_2/R", boson.boson_partition_function(2 / R, tau), z, 1e-9)
    errors += _close("Z(tau+1)", boson.boson_partition_function(R, tau + 1), z, 1e-9)
    errors += _close("Z(-1/tau)", boson.boson_partition_function(R, -1 / tau), z, 1e-8)
    eg0 = mock.elliptic_genus_k3(mock.JacobiPoint(0.0, tau))
    if not abs(eg0 - 24) <= 1e-9:
        errors.append(f"elliptic genus at z = 0 is {eg0!r}")
    errors += _close("remainder across z", mock.mock_remainder(p.z_other, tau),
                     out["remainder"], 1e-6)
    for (coeffs, prefactor), got in zip(references, out["chi"]):
        errors += _close("evaluate_series", got, _horner(coeffs, prefactor, tau), 1e-12)
    if p.with_mpmath:
        errors += check_against_mpmath(p, out)
    return errors


def check_against_mpmath(p: Point, out: dict) -> list[str]:
    import mpmath
    tau = p.tau
    nome = complex(mpmath.exp(1j * mpmath.pi * tau))   # mpmath's q = e^{i pi tau}
    errors = _close("eta vs mpmath", out["eta"], complex(mpmath.eta(tau)), 1e-10)
    # theta_1 and theta_2 carry q^{1/4}: mpmath takes the principal root of
    # its nome, qcft the root e^{i pi tau / 4}; they differ once |Re tau| > 1.
    branch = cmath.exp(1j * math.pi * tau / 4) / cmath.exp(cmath.log(nome) / 4)
    thetas = [complex(mpmath.jtheta(i, math.pi * p.z, nome)) * (branch if i < 3 else 1)
              for i in (1, 2, 3, 4)]
    for i, (got, want) in enumerate(zip(out["theta"], thetas), start=1):
        errors += _close(f"theta_{i} vs mpmath", got, want, 1e-10)
    eg = 8 * sum((complex(mpmath.jtheta(i, math.pi * p.z, nome))
                  / complex(mpmath.jtheta(i, 0, nome))) ** 2 for i in (2, 3, 4))
    errors += _close("elliptic genus vs mpmath", out["eg"], eg, 1e-9)
    q = mpmath.exp(2j * mpmath.pi * tau)
    # mu(z, z) = -i e^{pi i z} / theta_1 * sum_n (-1)^n q^{n(n+1)/2} y^n / (1 - q^n y),
    # summed in mpmath until |q|^{n^2/2} < e^{-40}, over mpmath's theta_1
    y = mpmath.exp(2j * mpmath.pi * p.z)
    cutoff = int(math.sqrt(40 / (math.pi * tau.imag))) + 8
    total = mpmath.fsum((-1) ** n * q ** (n * (n + 1) // 2) * y ** n / (1 - q ** n * y)
                        for n in range(-cutoff, cutoff + 1))
    mu = -1j * cmath.exp(1j * math.pi * p.z) / thetas[0] * complex(total)
    errors += _close("mu vs its defining sum in mpmath", out["mu"], mu, 1e-9)
    twisted = 1 / abs(complex(mpmath.qp(-q, q))) ** 2
    errors += _close("twisted vs mpmath", out["twisted"], twisted, 1e-9)
    return errors


class Numeric:
    """Seeded points (tau, R, z) spread over the upper half-plane."""

    name = "numeric"

    def __init__(self, seed: int):
        self.seed = seed
        sectors = (("Vm15", "G"), ("V0", "H"))
        self.characters = [virasoro.character_25(s) for s, _ in sectors]
        self.references = [(oracles.rogers_ramanujan(w, DEFAULT_ORDER),
                            virasoro.CHARACTER_PREFACTOR[s]) for s, w in sectors]

    def points(self, index: int) -> list[Point]:
        rng = random.Random(f"numeric/{self.seed}/{index}")
        k = POINTS_PER_ROUND
        log_y = stratified(rng, math.log(IM_TAU[0]), math.log(IM_TAU[1]), k)
        x = stratified(rng, *RE_TAU, k)
        log_r = stratified(rng, math.log(RADIUS[0]), math.log(RADIUS[1]), k)
        rng.shuffle(x)
        rng.shuffle(log_r)
        out = []
        for i in range(k):
            tau = complex(x[i], math.exp(log_y[i]))
            z, z_other = (rng.uniform(0.1, 0.9) + rng.uniform(-0.3, 0.3) * tau
                          for _ in range(2))
            out.append(Point(tau, math.exp(log_r[i]), z, z_other, i % MPMATH_EVERY == 0))
        rng.shuffle(out)
        return out

    def round(self, index: int) -> list[Op]:
        chars, refs = self.characters, self.references
        return [Op(f"point {p.tau:.4g} R={p.radius:.4g}",
                   lambda p=p: evaluate_point(p, chars),
                   lambda out, p=p: check_point(p, refs, out))
                for p in self.points(index)]


WORKLOADS = {w.name: w for w in (Report, Exact, Numeric)}
