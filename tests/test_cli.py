import csv
import io
import itertools
import json
import time

import pytest

from qsphere import duality, koszul
from qsphere.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_example(capsys):
    code, out, _ = run_cli(capsys, "nf", "--algebra", "podles", "y1*y-1")
    assert code == 0
    assert json.loads(out)["result"] == "q^-2*y0^2 + q^-1*y0"


def test_ext_json_shape(capsys):
    code, out, _ = run_cli(capsys, "ext", "--N", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["dims"] == [0, 0, 1]
    assert payload["result"]["character"] == {"y-1": "0", "y0": "0", "y1": "0"}


def test_member_and_pi(capsys):
    code, out, _ = run_cli(capsys, "member", "b*c")
    assert code == 0 and json.loads(out)["result"] is True
    code, out, _ = run_cli(capsys, "member", "b")
    assert code == 0 and json.loads(out)["result"] is False
    code, out, _ = run_cli(capsys, "pi", "a*d")
    assert json.loads(out)["result"] == "1"


def test_delta_and_antipode(capsys):
    code, out, _ = run_cli(capsys, "delta", "a")
    assert code == 0
    assert json.loads(out)["result"] == ["a (x) a", "b (x) c"]
    code, out, _ = run_cli(capsys, "antipode", "--power", "2", "--algebra",
                           "podles", "y1")
    assert json.loads(out)["result"] == "q^-2*y1"


def test_tensor_coefficient_format(capsys):
    code, out, _ = run_cli(capsys, "delta", "2*a")
    assert code == 0
    assert json.loads(out)["result"] == ["(2) * a (x) a", "(2) * b (x) c"]
    code, out, _ = run_cli(capsys, "member", "q*b*c")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] is True
    assert payload["coaction"] == ["(q) * 1 (x) b*c"]


def test_sigma_beta_omega(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--apply", "y0*y1")
    assert json.loads(out)["result"] == "q^-2*y0*y1"
    code, out, _ = run_cli(capsys, "beta", "--apply", "b*c + a")
    assert json.loads(out)["result"] == "y0"
    code, out, _ = run_cli(capsys, "omega-basis", "--n", "1", "--N", "1")
    assert json.loads(out)["result"] == ["a", "b"]


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "nf", "--algebra", "podles", "y0 @ y1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("h0-table", "--jmax", "-1"),
    ("h0-table", "--imax", "-1"),
    ("--trials", "-3", "xi-check"),
    ("xi-check", "--trials", "0"),
    ("--trials", "-1", "verify-all"),
])
def test_bad_sizes_and_trial_counts_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_h0_table_has_no_N_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["h0-table", "--N", "3"])
    assert exc.value.code == 2


def test_zeta_and_checks_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--jmax", "2")
    assert code == 0  # full column rank holds
    code, out, _ = run_cli(capsys, "transes-check", "--N", "3")
    assert code == 0
    code, out, _ = run_cli(capsys, "sigma-inv-check", "--N", "2")
    assert code == 0


def test_ext_is_stable_when_one_more_level_keeps_the_dims(monkeypatch,
                                                          capsys):
    code, out, _ = run_cli(capsys, "ext", "--N", "3")
    assert code == 0 and json.loads(out)["result"]["stable"] is True
    real = koszul.ext_counit_module

    def shifted(N, field):
        r = real(N, field)
        return dict(r, dims=(0, 1, 1)) if N == 4 else r

    monkeypatch.setattr(koszul, "ext_counit_module", shifted)
    code, out, _ = run_cli(capsys, "ext", "--N", "3")
    assert code == 0 and json.loads(out)["result"]["stable"] is False


@pytest.mark.parametrize("argv, module, name, wrong", [
    (["ext", "--N", "2"], koszul, "ext_counit_module",
     lambda r: dict(r, dims=(1, 0, 1))),
    (["zeta", "--jmax", "1"], koszul, "zeta_matrix",
     lambda r: (r[0], dict(r[1], full_column_rank=False))),
    (["transes-check", "--N", "1"], duality, "transes_check",
     lambda r: dict(r, failures=["y0"])),
    (["sigma-inv-check", "--N", "1"], duality, "sigma_inverse_check",
     lambda r: dict(r, roundtrip_failures=["y0"])),
])
def test_check_commands_exit_1_when_result_contradicts_expected(
        monkeypatch, capsys, argv, module, name, wrong):
    code, out, _ = run_cli(capsys, "--q", "3/2", *argv)
    assert code == 0 and json.loads(out)["pass"] is True
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: wrong(real(*a, **k)))
    code, out, _ = run_cli(capsys, "--q", "3/2", *argv)
    assert code == 1 and json.loads(out)["pass"] is False


def test_determinism_byte_identical(capsys):
    args = ["--no-timing", "--seed", "7", "xi-check", "--trials", "4"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    args[2] = "8"
    _, out3, _ = run_cli(capsys, *args)
    assert out3 != out1  # the seed is honoured


def test_csv_and_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "--format", "csv", "--out", str(target),
                           "koszul-verify", "--N", "2")
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("check,pass")
    assert "koszul-exactness" in lines[1]


def test_koszul_verify_checks_d1_d2_up_to_N(monkeypatch, capsys):
    seen = []
    real = koszul.koszul_d2_d1_zero

    def spy(maxlen, field):
        seen.append(maxlen)
        return real(maxlen, field)

    monkeypatch.setattr(koszul, "koszul_d2_d1_zero", spy)
    code, out, _ = run_cli(capsys, "--q", "3/2", "koszul-verify", "--N", "8")
    assert code == 0 and seen == [8]
    assert json.loads(out)["result"]["d1_d2_levels"] == 8


@pytest.mark.parametrize("argv", [["ext", "--N", "2"], ["zeta", "--jmax", "1"],
                                  ["transes-check", "--N", "1"],
                                  ["sigma-inv-check", "--N", "1"]])
def test_check_commands_report_their_elapsed_time(monkeypatch, capsys, argv):
    # a clock that advances one second per reading
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    _, out, _ = run_cli(capsys, "--q", "3/2", *argv)
    assert json.loads(out)["elapsed_ms"] >= 1000
    _, out, _ = run_cli(capsys, "--q", "3/2", "--no-timing", *argv)
    assert json.loads(out)["elapsed_ms"] == 0


def test_csv_of_a_plain_payload_keeps_its_keys(capsys):
    _, out, _ = run_cli(capsys, "member", "b*c")
    coaction = json.loads(out)["coaction"]
    code, out, _ = run_cli(capsys, "--format", "csv", "member", "b*c")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert list(row) == ["result", "coaction"]
    assert json.loads(row["result"]) is True
    assert json.loads(row["coaction"]) == coaction


def test_env_override(monkeypatch, capsys):
    monkeypatch.setenv("QSPHERE_N", "3")
    code, out, _ = run_cli(capsys, "ext")
    assert code == 0
    assert json.loads(out)["params"]["N"] == 3


@pytest.mark.parametrize("argv", [
    ("nf", "1/0"),
    ("nf", "0^-1"),
    ("--q", "3/2", "nf", "1/(q-3/2)"),
])
def test_division_by_zero_in_an_expression_is_named(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: division by zero\n"


def test_zero_denominator_in_q_names_the_flag(monkeypatch, capsys):
    code, out, err = run_cli(capsys, "--q", "1/0", "nf", "y0")
    assert code == 2 and out == ""
    assert err == "error: --q 1/0: division by zero\n"
    monkeypatch.setenv("QSPHERE_Q", "1/0")
    code, out, err = run_cli(capsys, "nf", "y0")
    assert code == 2 and out == ""
    assert err == "error: --q 1/0: division by zero\n"


def test_malformed_env_values_are_usage_errors(monkeypatch, capsys):
    for name, raw in (("SEED", "abc"), ("TRIALS", "x"), ("N", "1.5"),
                      ("FORMAT", "xml")):
        monkeypatch.setenv(f"QSPHERE_{name}", raw)
        code, out, err = run_cli(capsys, "nf", "y0")
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"QSPHERE_{name}" in err
        monkeypatch.delenv(f"QSPHERE_{name}")


def test_verify_all_reports_and_exit(capsys):
    # small trial counts; the zeta pattern check stays red by design, so
    # the suite exit code is 1 and every other check passes
    code, out, _ = run_cli(capsys, "--trials", "2", "verify-all")
    assert code == 1
    reports = json.loads(out)
    by_name = {r["check"]: r for r in reports}
    assert [r["check"] for r in reports] == sorted(by_name)
    assert not by_name["zeta-injectivity"]["pass"]
    assert all(r["pass"] for r in reports if r["check"] != "zeta-injectivity")
    for r in reports:
        assert set(r) == {"check", "params", "result", "expected", "pass",
                          "elapsed_ms"}


def test_unwritable_out_is_a_usage_error_before_any_work(capsys, tmp_path,
                                                          monkeypatch):
    def no_run(args):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr("qsphere.cli.run", no_run)
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(capsys, "--out", str(target), "nf", "y0")
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out")


def test_out_writes_the_report(capsys, tmp_path):
    target = tmp_path / "r.json"
    code, out, _ = run_cli(capsys, "--out", str(target), "nf", "y0")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"] == "y0"
