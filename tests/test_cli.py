"""Command-line surface: documented invocations, formats, exit codes."""

import json

import pytest

from qknot import verify
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


# Small arguments for every family `qknot check` reaches, as CLI flags and as
# the positional arguments of the Python check function.
_CLI_CASES = {
    "duality": ("--t 1 --m 1 --N 2", (1, 1, 2)),
    "jones-agreement": ("--t 2 --m 1 --N 3", (2, 1, 3)),
    "bernoulli": ("--t 1 --m 1 --N 2", (1, 1, 2)),
    "hecke": ("--t 1 --m 1 --trunc 6", (1, 1, 6)),
    "hecke-double": ("--trunc 6", (6,)),
    "hecke-stability": ("--t 2 --m 2 --trunc 6", (2, 2, 6)),
    "cyclotomic": ("--t 2 --m 1 --n 3", (2, 1, 3)),
    "habiro": ("--t 2 --m 1 --N 2", (2, 1, 2)),
    "jones-consistency": ("--t 2 --N 3", (2, 3)),
    "golden": ("--t 2 --m 2", (2, 2)),
    "theta": ("--t 1 --m 1 --trunc 100", (1, 1, 100)),
    "bailey-pipeline": ("--t 1 --n 3 --trunc 15", (1, 3, 15)),
}


def _without_timing(line):
    report = json.loads(line)
    report.pop("elapsed_ms")
    return report


def test_check_reaches_exactly_the_flag_only_families(capsys):
    from qknot.cli import _CHECKS

    assert _CHECKS == list(_CLI_CASES)
    # a named Bailey pair has no flag, so its families stay off the CLI
    with pytest.raises(SystemExit) as exc:
        main(["check", "bailey-limit", "--trunc", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family_id", list(_CLI_CASES))
def test_cli_check_prints_the_python_report(capsys, family_id):
    flags, args = _CLI_CASES[family_id]
    code, out, err = run(capsys, "check", family_id, *flags.split())
    assert code == 0 and "1/1 checks passed" in err
    expected = getattr(verify, verify.CHECK_FAMILIES[family_id].build.__name__)(*args)
    assert _without_timing(out) == _without_timing(expected.to_json_line())


def test_check_hecke_double_flag_is_the_hecke_double_family(capsys):
    _, alias, _ = run(capsys, "check", "hecke", "--double", "--trunc", "6")
    _, direct, _ = run(capsys, "check", "hecke-double", "--trunc", "6")
    assert _without_timing(alias) == _without_timing(direct)


@pytest.mark.parametrize(
    "argv",
    [
        "check cyclotomic --t 1 --m 1 --n -1",
        "check habiro --t 1 --m 1 --N -1",
        "check theta --t 1 --m 1 --trunc 0",
        "check golden --t 4 --m 1",
        "check jones-consistency --t 1",
    ],
)
def test_check_rejects_vacuous_or_missing_parameters(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and err.startswith("qknot: ")


def test_unwritable_output_is_a_usage_error(capsys):
    code, out, err = run(capsys, "check", "duality", "--t", "1", "--m", "1", "--N", "2",
                         "--output", "/nonexistent/dir/x.json")
    assert code == 2 and out == ""
    assert "cannot write --output" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", ["0", "-3"])
def test_parallelism_below_one_is_rejected(capsys, bad):
    code, _, err = run(capsys, "check", "suite", "--profile", "quick", "--parallelism", bad)
    assert code == 2 and "--parallelism" in err


def test_parallelism_is_capped_at_the_cpu_count(capsys, monkeypatch):
    asked = []
    monkeypatch.setattr("qknot.verify.run_suite", lambda profile, workers: asked.append(workers) or [])
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    code, _, err = run(capsys, "check", "suite", "--profile", "quick", "--parallelism", "64")
    assert code == 0 and asked == [2] and "capped" in err
    run(capsys, "check", "suite", "--profile", "quick", "--parallelism", "1")
    assert asked == [2, 1]


def test_x_division_by_zero_is_an_unreadable_specialization(capsys):
    code, out, err = run(capsys, "series", "U", "--t", "1", "--m", "1", "--trunc", "3", "--x", "1/0")
    assert code == 2 and out == ""
    assert "cannot read x specialization '1/0'" in err
