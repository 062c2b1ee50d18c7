"""Configuration precedence, report serialization, golden files, and CLI
exit codes.  CLI calls run in-process through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcft
from qcft import boson, partitions, special, virasoro
from qcft.checks import GROUPS, run_all, run_group
from qcft.cli import _parse_progressions, build_parser, main
from qcft.config import RunConfig, load_config
from qcft.errors import ConfigParse, GoldenMismatch, OrderTooLarge
from qcft.reports import CheckReport, compare_golden, reports_to_bytes, write_golden
from qcft.series import MAX_ORDER

GOLDEN_EXACT = Path(__file__).parent / "data" / "golden_exact.json"
# sha256 of golden_exact.json as pinned before the rr.partition_oracle records: 42 records
GOLDEN_EXACT_BEFORE_ORACLE = "c7ec078af139a1fd923e4d3158ec03a1d64ea8e0ecaaeb28b0ee110995a7bbb2"
# sha256 of the stdout of `qcft all --order 4096 --exact-only`
EXACT_AT_MAX_ORDER = "76302185641c402269de33273dea080c5a5f9daa38ca1d3e6fe1c061603a5cea"
ORDER_ARGS = ["--order", "40"]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QCFT_ORDER", raising=False)


# -- config ----------------------------------------------------------------------

def test_defaults():
    cfg = load_config()
    assert cfg.order == 201
    assert cfg.float_tolerance == 1e-8
    assert cfg.exact_only is False


def test_env_overrides_default(monkeypatch):
    monkeypatch.setenv("QCFT_ORDER", "99")
    assert load_config().order == 99


def test_file_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv("QCFT_ORDER", "99")
    f = tmp_path / "run.cfg"
    f.write_text("# comment\norder = 55\ntolerance = 1e-6\n")
    cfg = load_config(f)
    assert cfg.order == 55
    assert cfg.float_tolerance == 1e-6


def test_flags_override_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("order = 55\nexact_only = yes\n")
    cfg = load_config(f, order=72)
    assert cfg.order == 72
    assert cfg.exact_only is True


def test_config_parse_errors(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("order = 40\nwat = 1\n")
    with pytest.raises(ConfigParse) as exc:
        load_config(f)
    assert exc.value.line == 2
    f.write_text("just nonsense\n")
    with pytest.raises(ConfigParse) as exc:
        load_config(f)
    assert exc.value.line == 1
    f.write_text("exact_only = maybe\n")
    with pytest.raises(ConfigParse):
        load_config(f)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(order=4)
    with pytest.raises(ValueError):
        RunConfig(float_tolerance=0.5)
    with pytest.raises(ConfigParse):
        load_config(order=2)


def test_bad_env_value(monkeypatch):
    monkeypatch.setenv("QCFT_ORDER", "many")
    with pytest.raises(ConfigParse):
        load_config()


# -- reports and golden files -------------------------------------------------------

def sample_reports():
    return [
        CheckReport("alpha", {"p": 5}, True),
        CheckReport("beta", {"s": 0.7}, True, residual="1.5e-12", kind="numeric"),
    ]


def test_report_serialization_is_stable():
    a = reports_to_bytes(sample_reports())
    b = reports_to_bytes(sample_reports())
    assert a == b
    records = json.loads(a)
    assert [r["name"] for r in records] == ["alpha", "beta"]
    assert records[0]["params"] == {"p": "5"}


def test_golden_roundtrip(tmp_path):
    golden = tmp_path / "gold.json"
    write_golden(sample_reports(), golden)
    assert compare_golden(sample_reports(), golden)


def test_golden_numeric_tolerance(tmp_path):
    golden = tmp_path / "gold.json"
    write_golden(sample_reports(), golden)
    drifted = sample_reports()
    drifted[1].residual = "2.0e-12"
    assert compare_golden(drifted, golden, tolerance=1e-8)
    drifted[1].residual = "0.5"
    with pytest.raises(GoldenMismatch):
        compare_golden(drifted, golden, tolerance=1e-8)


def test_golden_exact_is_strict(tmp_path):
    golden = tmp_path / "gold.json"
    write_golden(sample_reports(), golden)
    changed = sample_reports()
    changed[0].params = {"p": 7}
    with pytest.raises(GoldenMismatch) as exc:
        compare_golden(changed, golden)
    assert "alpha" in str(exc.value)


def test_exact_report_matches_pinned_golden():
    # the exact-only report holds only rationals, so its bytes are the same on any machine
    reports = run_all(RunConfig(exact_only=True))
    assert reports_to_bytes(reports) == GOLDEN_EXACT.read_bytes()
    assert main(["all", "--exact-only", "--golden", str(GOLDEN_EXACT)]) == 0
    # the file only gained the four additive rr.partition_oracle records: without them it
    # is the file pinned before they existed, byte for byte
    stored = json.loads(GOLDEN_EXACT.read_text())
    rest = [r for r in stored if r["name"] != "rr.partition_oracle"]
    rest_bytes = (json.dumps(rest, sort_keys=True, indent=1) + "\n").encode()
    assert hashlib.sha256(rest_bytes).hexdigest() == GOLDEN_EXACT_BEFORE_ORACLE
    oracle = [r for r in reports if r.name == "rr.partition_oracle"]
    assert len(oracle) == 4
    assert {(r.params["which"], r.params["rule"]) for r in oracle} == {
        (w, rule) for w in "GH" for rule in ("gap", "congruence")}
    assert all(r.passed and r.params["n_max"] == 60 and r.details is None for r in oracle)


def test_failing_exact_checks_say_where(monkeypatch):
    # the one product builder that the rr products and the ODE's characters both read
    real = special.sparse_quotient

    def corrupted(numerator, theta, order):
        coeffs = real(numerator, theta, order)
        coeffs[7] += 1
        return coeffs

    monkeypatch.setattr(special, "sparse_quotient", corrupted)
    cfg = RunConfig(order=40)
    rr = {r.name: r for r in run_group("rr", cfg)}
    for which in "GH":
        for rule in ("gap", "congruence"):
            rep = rr[f"rr.{which}_{rule}_counting"]
            assert not rep.passed and rep.details == {"first_mismatch": 7}
    ode = {r.name: r for r in run_group("ode", cfg)}
    # q^a (q d/dq - E2/6) q d/dq - (11/3600) E4 acts on q^(a+7) by
    # (a+7)^2 - (a+7)/6 - 11/3600, which is zero only at a+7 = -1/60 or 11/60
    assert ode["ode.residual_G"].details == {"first_nonzero_exponent": "419/60"}
    assert ode["ode.residual_H"].details == {"first_nonzero_exponent": "431/60"}
    assert not ode["ode.residual_G"].passed and not ode["ode.residual_H"].passed


def test_tolerance_flag_leaves_torus_check_at_1e_8(monkeypatch):
    # --tolerance sets the golden comparison; the torus record keeps its own 1e-8
    real = virasoro.torus_partition_function_25

    def skewed(tau):
        return real(tau) + (1e-4 if tau.imag > 1 else 0.0)

    monkeypatch.setattr(virasoro, "torus_partition_function_25", skewed)
    reports = run_group("minimal-model", RunConfig(float_tolerance=1e-2))
    torus = [r for r in reports if r.name == "minimal.torus_modular_invariance"]
    assert len(torus) == 1 and not torus[0].passed


def test_boson_group_evaluates_each_partition_function_once(monkeypatch):
    # Z_R(tau) at 3 radii and 2 tau, and its duality, T and S images: 24 calls
    real, calls = boson.boson_partition_function, []

    def counted(r, tau):
        calls.append((r, tau))
        return real(r, tau)

    monkeypatch.setattr(boson, "boson_partition_function", counted)
    reports = run_group("boson", RunConfig())
    assert all(r.passed for r in reports)
    assert len(calls) == 24


def test_failing_partition_oracle_says_where(monkeypatch):
    real = partitions._dp_counts

    def off_by_one(n_max, c):
        counts = real(n_max, c)
        counts[7] += 1
        return counts

    monkeypatch.setattr(partitions, "_dp_counts", off_by_one)
    oracle = [r for r in run_group("rr", RunConfig(order=40)) if r.name == "rr.partition_oracle"]
    assert len(oracle) == 4
    assert all(not r.passed and r.details == {"first_mismatch": 7} for r in oracle)


def test_import_leaves_numpy_unloaded(tmp_path):
    package_root = Path(qcft.__file__).resolve().parent.parent
    env = {"PATH": "/usr/bin:/bin", "HOME": str(tmp_path), "PYTHONPATH": str(package_root)}
    code = "import sys, qcft; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_python_dash_m_runs_the_cli(tmp_path):
    package_root = Path(qcft.__file__).resolve().parent.parent
    env = {"PATH": "/usr/bin:/bin", "HOME": str(tmp_path), "PYTHONPATH": str(package_root)}
    run = subprocess.run([sys.executable, "-m", "qcft", "series"], env=env,
                         capture_output=True)
    assert run.returncode == 0, run.stderr
    assert b'"series.' in run.stdout


# -- CLI -------------------------------------------------------------------------

def test_parse_progressions():
    assert _parse_progressions("5:1,4") == ((5, 1), (5, 4))
    assert _parse_progressions("5:2,3;7:1") == ((5, 2), (5, 3), (7, 1))
    with pytest.raises(ValueError):
        _parse_progressions("5")


def test_subcommand_choices():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["no-such-group"])


def test_every_group_runs_clean(capsys):
    for group in GROUPS:
        code = main([group, *ORDER_ARGS])
        out = capsys.readouterr().out
        assert code == 0, group
        records = json.loads(out)
        assert records and all(r["pass"] for r in records)


def test_rr_group_at_order_600(capsys):
    assert main(["rr", "--order", "600"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["params"]["n_max"] for r in reports if "counting" in r["name"]} == {"599"}


def test_exact_report_at_max_order_is_pinned(capsys):
    # the only tier-1 guard on the bytes of the exact kernels at MAX_ORDER
    assert main(["all", "--order", str(MAX_ORDER), "--exact-only"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == EXACT_AT_MAX_ORDER


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("order = banana\n")
    assert main(["series", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_orders_above_max_order_are_typed(tmp_path, monkeypatch):
    with pytest.raises(OrderTooLarge):
        load_config(order=MAX_ORDER + 1)
    f = tmp_path / "big.cfg"
    f.write_text(f"order = {MAX_ORDER + 1}\n")
    with pytest.raises(OrderTooLarge):
        load_config(f)
    monkeypatch.setenv("QCFT_ORDER", str(MAX_ORDER + 1))
    with pytest.raises(OrderTooLarge):
        load_config()


@pytest.mark.parametrize("source", ["flag", "env", "file"])
def test_exit_code_2_on_order_above_max_order(source, tmp_path, monkeypatch, capsys):
    big = str(MAX_ORDER + 1)
    args = ["ode"]
    if source == "flag":
        args += ["--order", big]
    elif source == "env":
        monkeypatch.setenv("QCFT_ORDER", big)
    else:
        f = tmp_path / "big.cfg"
        f.write_text(f"order = {big}\n")
        args += ["--config", str(f)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"order {big} exceeds MAX_ORDER = {MAX_ORDER}" in captured.err
    assert "Traceback" not in captured.err


def test_exit_code_2_on_bad_progressions(capsys):
    assert main(["casimir", "--progressions", "zero", *ORDER_ARGS]) == 2


@pytest.mark.parametrize("spec", ["5:7", "5:1,1", "0:1", "5", "5:x"])
def test_invalid_progressions_exit_2_before_any_group_runs(spec, capsys, monkeypatch):
    # out of range, overlapping and zero-period sets are usage errors, as malformed text is
    def refuse(*args, **kwargs):
        raise AssertionError("a group ran")

    monkeypatch.setattr(qcft.checks, "run_group", refuse)
    assert main(["casimir", "--progressions", spec, *ORDER_ARGS]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("qcft: ")
    assert "Traceback" not in captured.err


def test_output_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["series", *ORDER_ARGS, "--output", str(out_path)])
    captured = capsys.readouterr().out
    assert code == 0
    assert out_path.read_bytes().decode() == captured


def test_golden_cycle_via_cli(tmp_path, capsys):
    golden = tmp_path / "g.json"
    assert main(["casimir", *ORDER_ARGS, "--golden", str(golden)]) == 0
    capsys.readouterr()
    # second run compares against the stored file and still passes
    assert main(["casimir", *ORDER_ARGS, "--golden", str(golden)]) == 0
    capsys.readouterr()
    # tampering with an exact record must be caught
    records = json.loads(golden.read_text())
    records[0]["residual"] = "1/1"
    golden.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    assert main(["casimir", *ORDER_ARGS, "--golden", str(golden)]) == 1
    assert "golden mismatch" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert main(["series", *ORDER_ARGS, "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcft: ") and "missing" in err


def test_golden_directory_exits_2(tmp_path, capsys):
    assert main(["series", *ORDER_ARGS, "--golden", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qcft: ") and str(tmp_path) in err


@pytest.mark.parametrize("text", ["not json", '{"a": 1, "b": 2}', "[1, 2]", b"\xff\xfe"], ids=repr)
def test_golden_that_is_not_records_is_a_mismatch(tmp_path, capsys, text):
    golden = tmp_path / "bad.json"
    golden.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(GoldenMismatch):
        compare_golden(sample_reports(), golden)
    assert main(["series", *ORDER_ARGS, "--golden", str(golden)]) == 1
    assert capsys.readouterr().err.startswith("qcft: golden mismatch: ")


def test_custom_progression_values(capsys):
    assert main(["casimir", *ORDER_ARGS, "--progressions", "5:1,4"]) == 0
    records = json.loads(capsys.readouterr().out)
    exps = [r for r in records if r["name"] == "casimir.custom"]
    assert exps and exps[0]["details"]["value"] == "-1/60"


def test_mock_terms_flag(capsys):
    assert main(["mock", "--terms", "4", *ORDER_ARGS]) == 0
    records = json.loads(capsys.readouterr().out)
    ext = [r for r in records if "values" in (r.get("details") or {})]
    assert ext and ext[0]["details"]["values"] == [-1, 45, 231, 770]


@pytest.mark.parametrize("argv", [
    ["series", "--terms", "0"], ["casimir", "--terms", "5"], ["all", "--terms", "5"],
    ["mock", "--progressions", "5:1"], ["series", "--progressions", "zero"],
    ["all", "--progressions", "5:1,4"]], ids=" ".join)
def test_group_flags_on_another_subcommand_exit_2_before_any_group_runs(
        argv, capsys, monkeypatch):
    # --terms feeds only mock and --progressions only casimir; `all` is another subcommand
    def refuse(*args, **kwargs):
        raise AssertionError("a group ran")

    monkeypatch.setattr(qcft.checks, "run_group", refuse)
    monkeypatch.setattr(qcft.checks, "run_all", refuse)
    assert main([*argv, *ORDER_ARGS]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("qcft: configuration error: ")
    assert "applies only to" in captured.err


def test_mock_without_terms_keeps_its_default(capsys, monkeypatch):
    # no --terms passes no n_terms, so check_mock's own default of 5 holds
    seen = []
    monkeypatch.setattr(qcft.checks, "run_group", lambda name, cfg, **kw: seen.append(kw) or [])
    assert main(["mock", *ORDER_ARGS]) == 0 and main(["casimir", *ORDER_ARGS]) == 0
    assert seen == [{}, {}]


@pytest.mark.parametrize("terms", ["0", "-3"])
def test_mock_terms_must_be_positive(capsys, terms):
    assert main(["mock", "--terms", terms, *ORDER_ARGS]) == 2
    assert capsys.readouterr().err.startswith("qcft: ")


@pytest.mark.parametrize("terms", ["65", "1000"])
def test_mock_terms_past_the_grid_are_a_usage_error(capsys, terms):
    # grid 128 has 64 modes before the aliases of the negative frequencies
    assert main(["mock", "--terms", terms, *ORDER_ARGS]) == 2
    assert "need an int in [1, 64] at grid 128" in capsys.readouterr().err


def test_run_group_unknown():
    with pytest.raises(ValueError):
        run_group("nonexistent", RunConfig(order=40))
