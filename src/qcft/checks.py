"""Static registry of named checks behind the CLI and the acceptance suite.

Each group function maps a RunConfig to an ordered list of CheckReports.  run_all runs
the groups in forked lanes and joins their reports in GROUPS order, so report order is
fixed by construction, never by completion order or by the lane that ran a group.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from fractions import Fraction

from . import boson, mock, partitions, regularization, special, virasoro
from .config import RunConfig
from .errors import QcftError
from .reports import CheckReport
from .series import FracQSeries, rat_str


def _exact(name: str, params: dict, ok: bool, details: dict | None = None) -> CheckReport:
    return CheckReport(name, params, ok, "0/1" if ok else "1/1", details, "exact")


def _located(name: str, params: dict, key: str, where) -> CheckReport:
    """An exact check that passes when `where` is None and otherwise says where it failed."""
    return _exact(name, params, where is None, None if where is None else {key: where})


def _numeric(name: str, params: dict, residual: float, tolerance: float,
             details: dict | None = None) -> CheckReport:
    return CheckReport(name, params, residual <= tolerance,
                       f"{residual:.17g}", details, "numeric")


# -- series ----------------------------------------------------------------------

def check_series(cfg: RunConfig) -> list[CheckReport]:
    n = min(cfg.order, 64)
    eta = special.dedekind_eta(n)
    out = []
    out.append(_exact("series.eta_invert_roundtrip", {"order": n},
                      eta.invert().invert() == eta))
    one = eta * eta.invert()
    out.append(_exact("series.eta_times_inverse_is_one", {"order": n},
                      one == FracQSeries.one(n)))
    f, g = special.eisenstein(2, n), special.eisenstein(4, n)
    leibniz = (f * g).q_derivative() - (f.q_derivative() * g + f * g.q_derivative())
    out.append(_exact("series.leibniz_rule", {"order": n}, leibniz.is_zero()))
    rec1 = special.rr_product("G", n).to_record()
    rec2 = special.rr_product("G", n).to_record()
    out.append(_exact("series.serialization_stable", {"order": n}, rec1 == rec2,
                      {"prefactor": rec1["prefactor"], "head": rec1["coeffs"][:6]}))
    return out


# -- regularization ----------------------------------------------------------------

def check_casimir(cfg: RunConfig,
                  progressions: tuple[tuple[int, int], ...] | None = None) -> list[CheckReport]:
    if progressions is not None:
        aps = regularization.ArithmeticProgressionSet(progressions)
        value = regularization.casimir_exponent(aps)
        return [_exact("casimir.custom", {"progressions": progressions}, True,
                       {"value": rat_str(value)})]

    out = [_exact("casimir.hurwitz_all_integers", {"p": 1, "r": 1},
                  regularization.hurwitz_sum(1, 1) == Fraction(-1, 12))]
    g, h = special.RR_SPECTRUM["G"], special.RR_SPECTRUM["H"]
    pair_g, pair_h = (sum(regularization.hurwitz_sum(p, r) for p, r in s.progressions)
                      for s in (g, h))
    out.append(_exact("casimir.hurwitz_pair_1_4_mod_5", {}, pair_g == Fraction(-1, 30)))
    out.append(_exact("casimir.hurwitz_pair_2_3_mod_5", {}, pair_h == Fraction(11, 30)))

    targets = {g: Fraction(-1, 60), h: Fraction(11, 60),
               regularization.ArithmeticProgressionSet([(1, 1)]): Fraction(-1, 24)}
    for aps, expected in targets.items():
        value = regularization.casimir_exponent(aps)
        out.append(_exact("casimir.exponent", {"progressions": aps.progressions},
                          value == expected, {"value": rat_str(value)}))

    defect_ok = all(
        regularization.naive_defect(p, r) == Fraction(-r * r, 2 * p)
        for p in range(1, 13) for r in range(1, p + 1))
    out.append(_exact("casimir.ramanujan_defect", {"p_max": 12}, defect_ok))

    n = min(cfg.order, 80)
    osc = regularization.oscillator_partition_series(
        regularization.ArithmeticProgressionSet([(1, 1)]), n)
    out.append(_exact("casimir.oscillator_is_inverse_eta", {"order": n},
                      osc == special.dedekind_eta(n).invert()))
    dim = regularization.critical_dimension()   # printed as an int when it is one
    out.append(_exact("casimir.critical_dimension", {}, dim == 26,
                      {"value": dim.numerator if dim.denominator == 1 else rat_str(dim)}))
    return out


# -- Rogers-Ramanujan / Andrews-Gordon -----------------------------------------------

def _first_mismatch(a, b, n_max: int) -> int | None:
    return next((i for i in range(n_max + 1) if a[i] != b[i]), None)


def check_rr(cfg: RunConfig) -> list[CheckReport]:
    """Products against the counting DPs to n_max, DPs against the enumerator to 60."""
    n = cfg.order - 1
    m = min(n, partitions.ENUMERATION_LIMIT)
    out = []
    for which, residues in special.RR_RESIDUES.items():
        product = special.rr_product(which, n + 1)
        # the two sides of the identity: gaps >= 2 above the smallest residue, and the residues
        for rule, c in (("gap", partitions.PartitionConstraint(min_part=min(residues), min_gap=2)),
                        ("congruence", partitions.PartitionConstraint(
                            allowed_residues=frozenset(residues), modulus=special.RR_MODULUS))):
            counts = partitions.count_partitions(n, c)
            out.append(_located(f"rr.{which}_{rule}_counting", {"n_max": n}, "first_mismatch",
                                _first_mismatch(product.coeffs, counts, n)))
            oracle = partitions._enumerate_counts(m, c)
            out.append(_located("rr.partition_oracle",
                                {"which": which, "rule": rule, "n_max": m},
                                "first_mismatch", _first_mismatch(oracle, counts, m)))
    for k in (2, 3, 4):
        for i in range(1, k + 1):
            out.append(_located(f"rr.gordon_k{k}_i{i}", {"k": k, "i": i, "n_max": 60},
                                "first_mismatch", partitions.gordon_check(k, i, 60)))
    return out


# -- minimal models ---------------------------------------------------------------

def check_minimal_model(cfg: RunConfig) -> list[CheckReport]:
    out = []
    cases = {(2, 5): Fraction(-22, 5), (3, 4): Fraction(1, 2), (2, 3): Fraction(0)}
    for (p, q), expected in cases.items():
        charge = virasoro.central_charge(virasoro.MinimalModelLabel(p, q))
        out.append(_exact("minimal.central_charge", {"p": p, "q": q},
                          charge == expected, {"value": rat_str(charge)}))
    ceff_25 = virasoro.effective_central_charge(virasoro.MinimalModelLabel(2, 5))
    out.append(_exact("minimal.c_eff_25", {}, ceff_25 == Fraction(2, 5)))
    best, ceff = virasoro.minimal_c_eff_scan(100)
    out.append(_exact("minimal.c_eff_scan", {"bound": 100},
                      (best.p, best.q) == (2, 5) and ceff == Fraction(2, 5),
                      {"minimizer": f"({best.p},{best.q})", "c_eff": rat_str(ceff)}))
    c = virasoro.central_charge(virasoro.MinimalModelLabel(2, 5))
    casimir = {w: regularization.casimir_exponent(s) for w, s in special.RR_SPECTRUM.items()}
    out.append(_exact("minimal.casimir_identities", {},
                      casimir["H"] == -c / 24 and casimir["G"] == -ceff_25 / 24))

    n = min(cfg.order, 201)
    for sector, which in virasoro.SECTOR_PRODUCT.items():
        chi = virasoro.character_25(sector, n)
        ref = regularization.oscillator_partition_series(special.RR_SPECTRUM[which], n)
        out.append(_exact(f"minimal.character_{sector}", {"order": n}, chi == ref))

    if not cfg.exact_only:
        worst = 0.0
        for s in (0.7, 1.3, 2.0):
            z1 = virasoro.torus_partition_function_25(1j * s)
            z2 = virasoro.torus_partition_function_25(1j / s)
            worst = max(worst, abs(z1 - z2))
        out.append(_numeric("minimal.torus_modular_invariance",
                            {"s": (0.7, 1.3, 2.0)}, worst, 1e-8))
    return out


# -- Gram matrices -----------------------------------------------------------------

def check_gram(cfg: RunConfig) -> list[CheckReport]:
    out = []
    lin, central = virasoro.bracket(-2, 2)
    out.append(_exact("gram.bracket_m2_2", {}, lin == 4 and central == Fraction(1, 2)))
    det = virasoro.gram_matrix(4, vacuum=True).determinant()
    expected = (virasoro.PolyCH({(3, 0): Fraction(5, 2), (2, 0): Fraction(11)}))
    out.append(_exact("gram.level4_vacuum_determinant", {},
                      det == expected, {"determinant": str(det)}))
    nv = virasoro.null_vector_central_charges()
    out.append(_exact("gram.null_vector_charge", {},
                      nv.central_charges == (Fraction(-22, 5),)
                      and nv.tt_remainder_ratio == Fraction(-1, 5),
                      {"beta": None if nv.beta is None else rat_str(nv.beta)}))
    det2 = virasoro.gram_matrix(2).determinant().evaluate(Fraction(-22, 5), Fraction(-1, 5))
    out.append(_exact("gram.level2_singular_at_25_weight", {}, det2 == 0))
    out.append(_exact("gram.level4_nonsingular_at_ising", {},
                      det.evaluate(Fraction(1, 2), Fraction(0)) != 0))
    return out


# -- modular ODE -------------------------------------------------------------------

def check_ode(cfg: RunConfig) -> list[CheckReport]:
    n = cfg.order
    out = []
    for which in ("G", "H"):
        res = virasoro.ode_residual(which, n)
        first = next((rat_str(res.prefactor + k) for k, x in enumerate(res.numerators()[0]) if x),
                     None)
        out.append(_located(f"ode.residual_{which}", {"order": n},
                            "first_nonzero_exponent", first))
    probe = virasoro.ode_residual("G", min(n, 32), rhs_coefficient=Fraction(1, 360))
    out.append(_exact("ode.perturbed_probe_nonzero", {}, not probe.is_zero()))
    return out


# -- compact boson -----------------------------------------------------------------

def check_boson(cfg: RunConfig) -> list[CheckReport]:
    if cfg.exact_only:
        return []
    out = []
    taus = (1j, 0.3 + 1.2j)
    radii = (0.7, 1.0, 1.9)
    z = {(r, t): boson.boson_partition_function(r, t) for r in radii for t in taus}
    for name, image, tolerance in (("radius_duality", lambda r, t: (2 / r, t), 1e-12),
                                   ("T_invariance", lambda r, t: (r, t + 1), 1e-10),
                                   ("S_invariance", lambda r, t: (r, -1 / t), 1e-8)):
        dev = max(abs(z_rt - boson.boson_partition_function(*image(r, t)))
                  for (r, t), z_rt in z.items())
        out.append(_numeric(f"boson.{name}", {"radii": radii}, dev, tolerance))
    out.append(_exact("boson.positivity", {"radii": radii}, all(v > 0 for v in z.values())))

    numeric_twisted = boson.twisted_boson_partition_function(1j)
    series = regularization.twisted_oscillator_series(
        regularization.ArithmeticProgressionSet([(1, 1)]), 64)
    body = FracQSeries.from_ints(0, *series.numerators())
    val = special.evaluate_series(body, 1j)
    out.append(_numeric("boson.twisted_matches_exact_series", {"tau": "i"},
                        abs(numeric_twisted - abs(val) ** 2), 1e-10))
    return out


# -- determinant ratios --------------------------------------------------------------

def check_lattice_det(cfg: RunConfig) -> list[CheckReport]:
    if cfg.exact_only:
        return []
    out = []
    for m1, m2 in ((1.0, 2.0), (0.5, 3.0)):
        oracle = boson.continuum_determinant_ratio((1.0, 1.0), m1, m2)
        devs = [abs(boson.lattice_determinant_ratio(
            boson.LatticeSpec((L, L)), m1, m2) - oracle) for L in (16, 32, 64)]
        ok = devs[0] > devs[1] > devs[2]
        out.append(CheckReport("lattice.refinement_converges",
                               {"m1": m1, "m2": m2}, ok,
                               f"{devs[2]:.17g}",
                               {"deviations": [f"{d:.6g}" for d in devs]},
                               "numeric"))
    equal = boson.lattice_determinant_ratio(boson.LatticeSpec((16, 16)), 1.5, 1.5)
    out.append(_exact("lattice.equal_masses_unity", {"m": 1.5}, equal == 1.0))
    return out


# -- mock modular ------------------------------------------------------------------

MOCK_TARGET = (-1, 45, 231, 770, 2277)


def check_mock(cfg: RunConfig, n_terms: int = 5) -> list[CheckReport]:
    if cfg.exact_only:
        return []
    out = []
    eg = mock.elliptic_genus_k3(mock.JacobiPoint(0.0, 0.2 + 0.9j))
    out.append(_numeric("mock.elliptic_genus_at_origin", {"tau": "0.2+0.9i"},
                        abs(eg - 24), 1e-10))
    for y0 in (0.2, 0.3, 0.4):
        rows = mock.sample_mock_rows(y0, grid=256)   # grid 128 reads every second tau
        for grid in (128, 256):
            mc = mock.read_mock_coefficients(rows[:, ::256 // grid], y0, n_terms)
            ok = mc.values[:5] == MOCK_TARGET[:min(n_terms, 5)]
            out.append(CheckReport(
                "mock.coefficients", {"y0": y0, "grid": grid}, ok,
                f"{mc.max_z_deviation:.17g}",
                {"values": list(mc.values), "scale": rat_str(mc.scale)},
                "numeric"))
    return out


GROUPS = {
    "series": check_series,
    "casimir": check_casimir,
    "rr": check_rr,
    "minimal-model": check_minimal_model,
    "gram": check_gram,
    "ode": check_ode,
    "boson": check_boson,
    "lattice-det": check_lattice_det,
    "mock": check_mock,
}


def run_group(name: str, cfg: RunConfig, **kwargs) -> list[CheckReport]:
    if name not in GROUPS:
        raise ValueError(f"unknown check group {name!r}; know {sorted(GROUPS)}")
    return GROUPS[name](cfg, **kwargs)


def run_all(cfg: RunConfig) -> list[CheckReport]:
    """Every group, in lanes: this process and a forked child per other usable CPU.  Raises
    the error of the earliest failing group, or a QcftError if a lane died."""
    names = list(GROUPS)

    def lane() -> dict:
        """{index: reports or error} of every group this lane claims from the pipe; an
        error that pickle cannot carry becomes a QcftError naming its group, in any lane."""
        done = {}
        for (i,) in iter(lambda: os.read(claims, 1), b""):   # a claim is one index byte
            try:
                done[i] = GROUPS[names[i]](cfg)
            except Exception as e:
                try:
                    pickle.loads(pickle.dumps(e))
                    done[i] = e
                except Exception:
                    done[i] = QcftError(f"group {names[i]} raised {type(e).__name__}: {e}")
        return done

    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    lanes = max(1, min(len(names), len(usable)))
    if lanes > 1 and not cfg.exact_only:
        __import__("numpy")   # once, before the fork, not once per lane
    claims, w = os.pipe()
    os.write(w, bytes(range(len(names))))
    os.close(w)
    done, children = {}, []   # children: (pid, the child's result pipe)
    try:
        for _ in range(lanes - 1):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(w, "wb") as out:
                        pickle.dump(lane(), out)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        done.update(lane())
    finally:
        os.close(claims)
        for pid, result in children:
            with result, contextlib.suppress(EOFError, pickle.UnpicklingError):   # a lane died
                done.update(pickle.load(result))
            os.waitpid(pid, 0)
    if missing := [name for i, name in enumerate(names) if i not in done]:
        raise QcftError(f"a lane died without the results of {', '.join(missing)}")
    if error := next((done[i] for i in sorted(done) if isinstance(done[i], Exception)), None):
        raise error
    return [r for i in sorted(done) for r in done[i]]
