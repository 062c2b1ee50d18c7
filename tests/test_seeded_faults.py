"""Seeded faults: a one-token fault in the library must fail named report records, with
the group's whole report printed and no traceback.

Each fault is one str.replace in a copy of src, and the text it replaces must occur
exactly once, so that the table cannot go stale silently.  The group runs from the
copy's own root with a scrubbed environment: pyproject.toml's pythonpath would put the
clean src first in a run from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcft
from qcft import checks, partitions
from qcft.config import RunConfig

# (module, old text, new text, check group, the names of the records that must fail, and
# (name, details) pairs no record may print: a failing record shows the value it computed)
FAULTS = {
    "hurwitz_sum r(p + r)": (
        "regularization.py", "r * (p - r)", "r * (p + r)", "casimir",
        {"casimir.hurwitz_all_integers", "casimir.hurwitz_pair_1_4_mod_5",
         "casimir.hurwitz_pair_2_3_mod_5", "casimir.exponent", "casimir.ramanujan_defect",
         "casimir.oscillator_is_inverse_eta", "casimir.critical_dimension"},
        [("casimir.exponent", {"value": "-1/60"}), ("casimir.exponent", {"value": "11/60"}),
         ("casimir.critical_dimension", {"value": 26})]),
    "L_0 weight off by one": (
        "virasoro.py", "lin * sum(rest)", "lin * sum(rest) + 1", "gram",
        {"gram.level4_vacuum_determinant", "gram.null_vector_charge",
         "gram.level2_singular_at_25_weight"}, []),
    # through the whole report, so through the lanes of run_all
    "bracket central term n^3 + n": (
        "virasoro.py", "n ** 3 - n", "n ** 3 + n", "all",
        {"gram.bracket_m2_2", "gram.level2_singular_at_25_weight",
         "gram.level4_vacuum_determinant", "gram.null_vector_charge"}, []),
    # in the triple-product generator, whose (3, 1) case is the pentagonal series
    "pentagonal sign flipped": (
        "special.py", "yield g + (p - 2 * i) * k, (-1) ** k",
        "yield g + (p - 2 * i) * k, (-1) ** (k + 1)", "casimir",
        {"casimir.oscillator_is_inverse_eta"}, []),
    # every theta term of sign -1 divided with the wrong sign: both RR products go wrong
    "sparse quotient sign": (
        "special.py", "acc += f[n - g]", "acc -= f[n - g]", "rr",
        {"rr.G_gap_counting", "rr.G_congruence_counting", "rr.H_gap_counting",
         "rr.H_congruence_counting"}, []),
    "E4 from sigma_2": (
        "special.py", "mult, power = 240, 3", "mult, power = 240, 2", "ode",
        {"ode.residual_G", "ode.residual_H"}, []),
    "null-vector root sign flipped": (
        "virasoro.py", "root = -reduced[0] / reduced[1]", "root = reduced[0] / reduced[1]",
        "gram", {"gram.null_vector_charge"}, []),
    # every mock.coefficients record fails, since none may print the normalised values
    "mock scale sign flipped": (
        "mock.py", "-raw[0]", "raw[0]", "mock", {"mock.coefficients"},
        [("mock.coefficients", {"values": [-1, 45, 231, 770, 2277], "scale": "2/1"})]),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_seeded_fault_fails_its_records(tmp_path, fault):
    module, old, new, group, failing, stale = FAULTS[fault]
    src = tmp_path / "src"
    shutil.copytree(Path(qcft.__file__).resolve().parent, src / "qcft",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "qcft" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    env = {"PATH": "/usr/bin:/bin", "HOME": str(tmp_path), "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "qcft", group],
                          capture_output=True, cwd=tmp_path, env=env)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode == 1
    records = json.loads(proc.stdout)
    assert isinstance(records, list) and records
    assert {r["name"] for r in records if not r["pass"]} == failing
    assert [(r["name"], r.get("details")) for r in records
            if (r["name"], r.get("details")) in stale] == []


def test_a_gordon_record_says_where_the_sides_differ(monkeypatch):
    real = partitions._dp_window

    def perturbed(n_max, c):   # the gap side, one too many at n = 17
        return [x + (n == 17) for n, x in enumerate(real(n_max, c))]

    monkeypatch.setattr(partitions, "_dp_window", perturbed)
    (record,) = [r.to_record() for r in checks.check_rr(RunConfig())
                 if r.name == "rr.gordon_k3_i1"]
    assert record == {"name": "rr.gordon_k3_i1", "params": {"i": "1", "k": "3", "n_max": "60"},
                      "pass": False, "residual": "1/1", "kind": "exact",
                      "details": {"first_mismatch": 17}}
