"""Verifier: report structure, determinism, suite plumbing, negative controls."""

import dataclasses
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qknot import verify
from qknot.verify import (
    CHECK_FAMILIES,
    PROFILES,
    check_bernoulli_formula,
    check_cyclotomic_coeffs,
    check_duality,
    check_golden_vectors,
    check_habiro_roundtrip,
    check_hecke_match,
    check_jones_consistency,
    mutation_controls,
    run_suite,
    suite_tasks,
)


def test_report_shape_and_value():
    report = check_duality(1, 1, 2)
    assert report.passed
    data = report.to_json_dict()
    assert data["check_id"] == "duality"
    assert data["params"] == {"t": 1, "m": 1, "N": 2}
    assert data["status"] == "pass"
    assert data["value"] == "-3"
    assert "witness" not in data
    json.loads(report.to_json_line())


def test_reports_are_deterministic_and_idempotent():
    a = check_hecke_match(1, 1, 8)
    b = check_hecke_match(1, 1, 8)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsed_ms"), db.pop("elapsed_ms")
    assert da == db


def test_individual_checks_pass():
    assert check_golden_vectors(2, 1).passed
    assert check_cyclotomic_coeffs(2, 2, 4).passed
    assert check_bernoulli_formula(1, 1, 2).passed
    # chains of four and five binomials: t = 4 and 5
    assert check_jones_consistency(4, 16).passed
    assert check_jones_consistency(5, 12).passed
    assert check_duality(5, 2, 12).passed
    # root orders past the desk profile
    assert check_duality(2, 1, 60).passed
    assert check_duality(3, 2, 48).passed
    assert check_duality(3, 2, 72).passed
    assert check_duality(4, 2, 36).passed
    # the two U routes well past the desk orders of 15 to 25
    assert check_hecke_match(2, 1, 60).passed


def test_suite_tasks_cover_families():
    names = {name for name, _ in suite_tasks(PROFILES["desk"])}
    for family in (
        "golden", "duality", "jones-agreement", "hecke", "hecke-double", "habiro",
        "cyclotomic", "jones-consistency", "bernoulli", "theta",
        "bailey-verify", "bailey-step", "bailey-pipeline", "bailey-limit",
        "bailey-conjugate", "hecke-stability",
    ):
        assert family in names, family


class _ReadRecorder:
    """A profile that records the names of the fields read from it."""

    def __init__(self, profile, read):
        self._profile, self._read = profile, read

    def __getattr__(self, name):
        self._read.add(name)
        return getattr(self._profile, name)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_every_profile_field_is_read(name, monkeypatch, capsys):
    from qknot.cli import main

    read = set()
    assert suite_tasks(_ReadRecorder(PROFILES[name], read)) == suite_tasks(PROFILES[name])
    monkeypatch.setitem(PROFILES, name, _ReadRecorder(PROFILES[name], read))
    monkeypatch.setattr(verify, "run_suite", lambda profile, workers: [])
    assert main(["check", "suite", "--profile", name]) == 0
    fields = {f.name for f in dataclasses.fields(verify.Profile)}
    assert fields - read == set(), "a profile field no suite task or CLI run reads"


def test_quick_suite_all_green():
    reports = run_suite("quick")
    failed = [r for r in reports if not r.passed]
    assert not failed, [(r.check_id, r.params, r.witness) for r in failed]
    # merged deterministically: sorted by id/params
    ids = [(r.check_id, sorted(map(str, r.params.items()))) for r in reports]
    assert ids == sorted(ids)


def test_parallel_suite_matches_serial():
    serial = run_suite("quick")
    parallel = run_suite("quick", parallelism=2)
    strip = lambda rs: [
        {k: v for k, v in r.to_json_dict().items() if k != "elapsed_ms"} for r in rs
    ]
    assert strip(serial) == strip(parallel)


def test_import_does_not_load_the_process_pool():
    src = str(Path(verify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, qknot; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True)
    assert (run.returncode, run.stdout.strip()) == (0, "[]"), run.stderr


def test_mutation_controls_all_catch():
    reports = mutation_controls(seed=1)
    assert len(reports) >= 12
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.check_id, r.witness) for r in bad]


def test_mutation_controls_seed_varies_target():
    a = [r.params for r in mutation_controls(seed=2)]
    b = [r.params for r in mutation_controls(seed=3)]
    assert a != b  # different injected spots, same verdicts


def test_mutation_controls_keep_their_twelve_reports():
    ids = [r.check_id for r in mutation_controls(seed=0)]
    assert ids == [
        "mutation:duality", "mutation:jones-agreement", "mutation:bernoulli",
        "mutation:hecke", "mutation:hecke-double", "mutation:cyclotomic",
        "mutation:habiro", "mutation:jones-consistency", "mutation:golden",
        "mutation:theta", "mutation:bailey-verify", "mutation:bailey-conjugate",
    ]


# Evidence arguments for the families without a control in mutation_controls.
_EXTRA_MUTATION_ARGS = {"hecke-stability": (2, 2, 10, 5), "bailey-pipeline": (2, 4, 20)}


@pytest.mark.parametrize(
    "family", [f for f in CHECK_FAMILIES.values() if not f.reports], ids=lambda f: f.id
)
def test_every_evidence_family_catches_a_perturbation(family):
    args = family.mutation or _EXTRA_MUTATION_ARGS[family.id]
    for seed in range(3):
        report = verify._mutation_report(family, args, random.Random(seed))
        assert report.passed, report.witness
        assert report.params["injected"]


def test_public_checks_keep_their_signatures():
    sig = lambda fn: str(inspect.signature(fn))
    assert sig(check_duality) == "(t: 'int', m: 'int', n_root: 'int') -> 'CheckReport'"
    assert sig(verify.check_hecke_stability).startswith(
        "(t: 'int', m: 'int', order: 'int', pad: 'int' = 5)"
    )
    assert sig(verify.check_bailey_step) == (
        "(name: 'str', n_max: 'int', trunc: 'int', steps: 'str' = 'inf', **params) -> 'CheckReport'"
    )
    assert check_duality.__name__ == "check_duality"
    for family in CHECK_FAMILIES.values():
        assert family.build.__name__ in verify.__all__


@pytest.mark.parametrize(
    "call, bound",
    [
        (lambda: check_cyclotomic_coeffs(1, 1, -1), "n_max"),
        (lambda: check_habiro_roundtrip(1, 1, -1), "order"),
        (lambda: check_duality(1, 1, 0), "n_root"),
        (lambda: check_hecke_match(1, 1, -1), "order"),
        (lambda: verify.check_bailey_named("unit", -1, 10), "n_max"),
        (lambda: verify.check_bailey_pipeline(1, 2, 0), "trunc"),
    ],
)
def test_parameters_below_their_bound_are_rejected(call, bound):
    with pytest.raises(ValueError, match=f"{bound}.* must be at least"):
        call()


def test_theta_window_below_the_lowest_exponent_is_rejected():
    # both sides start at q^((2t+1-2m)^2 / (8(2t+1))): a window there compares nothing
    for t, m, lead in ((1, 1, 1), (2, 1, 9), (3, 1, 25)):
        with pytest.raises(ValueError, match="trunc_scaled.* must exceed"):
            verify.check_theta_product(t, m, lead)
        assert verify.check_theta_product(t, m, lead + 1).passed


def test_runner_refuses_an_empty_evidence_list():
    family = CHECK_FAMILIES["cyclotomic"]._replace(build=lambda t, m, n_max: [])
    bound = inspect.signature(family.build).bind(1, 1, 3)
    with pytest.raises(ValueError, match="nothing to compare"):
        verify._run(family, bound)
