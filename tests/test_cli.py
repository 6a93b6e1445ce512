"""Command-line surface: documented invocations, formats, exit codes."""

import json

from qknot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_u_pretty(capsys):
    code, out, _ = run(capsys, "series", "U", "--t", "2", "--m", "1", "--trunc", "5",
                       "--format", "pretty")
    assert code == 0
    assert out == "1 + q + (x+2+x^-1)q^2 + (2x+3+2x^-1)q^3 + (3x+6+3x^-1)q^4\n"


def test_series_jones_left(capsys):
    code, out, _ = run(capsys, "series", "jones", "--t", "1", "--N", "2",
                       "--hand", "left", "--format", "pretty")
    assert code == 0
    assert out == "q + q^3 - q^4\n"


def test_series_c_coefficient(capsys):
    code, out, _ = run(capsys, "series", "C", "--t", "1", "--m", "1", "--n", "3",
                       "--format", "pretty")
    assert code == 0
    assert out == "q^3\n"


def test_series_json_deterministic(capsys):
    code, out1, _ = run(capsys, "series", "U", "--t", "2", "--m", "2", "--trunc", "4")
    assert code == 0
    code, out2, _ = run(capsys, "series", "U", "--t", "2", "--m", "2", "--trunc", "4")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["kind"] == "qseries" and payload["trunc"] == 4


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "jones", "--t", "1", "--N", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "scale,trunc,q_exp,x_exp,num,den"
    assert len(lines) == 4


def test_series_f_root(capsys):
    code, out, _ = run(capsys, "series", "F-root", "--t", "1", "--m", "1", "--N", "2",
                       "--inverse", "--format", "pretty")
    assert code == 0
    assert out == "-3\n"


def test_series_theta_and_hecke(capsys):
    code, out, _ = run(capsys, "series", "theta", "--t", "1", "--m", "1",
                       "--trunc", "100", "--format", "pretty")
    assert code == 0 and "q^(1/24)" in out
    code, out, _ = run(capsys, "series", "hecke", "--t", "1", "--m", "1",
                       "--trunc", "6", "--format", "pretty")
    assert code == 0 and out.startswith("1 + q")
    code, out, _ = run(capsys, "series", "hecke", "--double", "--trunc", "6",
                       "--format", "pretty")
    assert code == 0 and out.startswith("(-x+1)")


def test_series_x_specializations(capsys):
    code, out, _ = run(capsys, "series", "U", "--t", "1", "--m", "1", "--trunc", "4",
                       "--x", "minus-one", "--format", "pretty")
    assert code == 0
    code, out2, _ = run(capsys, "series", "U", "--t", "1", "--m", "1", "--trunc", "4",
                        "--x", "1", "--format", "pretty")
    assert code == 0 and out != out2


def test_series_u_at_minus_q_to_the_n_is_the_invariant(capsys):
    code, out, _ = run(capsys, "series", "U", "--t", "1", "--m", "1", "--N", "2",
                       "--x", "minus-qN", "--format", "pretty")
    assert code == 0
    assert out == "q + q^3 - q^4\n"


def test_check_duality_reports_value(capsys):
    code, out, err = run(capsys, "check", "duality", "--t", "1", "--m", "1", "--N", "2")
    assert code == 0
    report = json.loads(out.strip())
    assert report["status"] == "pass"
    assert report["value"] == "-3"
    assert "1/1 checks passed" in err


def test_check_hecke(capsys):
    code, out, _ = run(capsys, "check", "hecke", "--t", "1", "--m", "1", "--trunc", "12")
    assert code == 0
    assert json.loads(out.strip())["status"] == "pass"


def test_check_bailey(capsys):
    code, out, _ = run(capsys, "check", "bailey", "--t", "1", "--n", "4", "--trunc", "25")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert len(lines) == 5 and all(l["status"] == "pass" for l in lines)


def test_check_bailey_keeps_explicit_zeros(capsys):
    code, out, _ = run(capsys, "check", "bailey", "--t", "1", "--n", "0", "--trunc", "3")
    assert code == 0
    params = [json.loads(line)["params"] for line in out.strip().split("\n")]
    assert all(p["n_max"] == 0 and p["trunc"] == 3 for p in params)
    for flag, bad in (("--t", "0"), ("--n", "-1"), ("--trunc", "0")):
        code, out, err = run(capsys, "check", "bailey", flag, bad)
        assert code == 2 and flag in err and out == ""


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "check", "duality", "--t", "1", "--m", "5", "--N", "2")
    assert code == 2 and "1 <= m <= t" in err
    code, _, err = run(capsys, "series", "U", "--t", "2", "--m", "1")
    assert code == 2 and "--trunc" in err
    code, _, err = run(capsys, "series", "U", "--t", "0", "--m", "1", "--trunc", "3")
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, out, _ = run(capsys, "series", "C", "--t", "2", "--m", "1", "--n", "1",
                       "--output", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["kind"] == "qseries"


def test_profile_env_default(monkeypatch):
    from qknot.cli import build_parser

    monkeypatch.setenv("QKNOT_PROFILE", "quick")
    # parser reads the environment at build time
    args = build_parser().parse_args(["check", "suite"])
    assert args.profile == "quick"
