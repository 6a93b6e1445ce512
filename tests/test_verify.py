"""Verifier: report structure, determinism, suite plumbing, negative controls."""

import inspect
import json
import random

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


def test_suite_tasks_cover_families():
    names = {name for name, _ in suite_tasks(PROFILES["desk"])}
    for family in (
        "golden", "duality", "jones-agreement", "hecke", "hecke-double", "habiro",
        "cyclotomic", "jones-consistency", "bernoulli", "theta",
        "bailey-verify", "bailey-step", "bailey-pipeline", "bailey-limit",
        "bailey-conjugate", "hecke-stability",
    ):
        assert family in names, family


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


def test_runner_refuses_an_empty_evidence_list():
    family = CHECK_FAMILIES["cyclotomic"]._replace(build=lambda t, m, n_max: [])
    bound = inspect.signature(family.build).bind(1, 1, 3)
    with pytest.raises(ValueError, match="nothing to compare"):
        verify._run(family, bound)
