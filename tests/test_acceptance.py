"""Acceptance criteria, one test per criterion.

Every comparison is exact (no tolerances anywhere); each test prints a
one-line pass/fail summary with its runtime and asserts the stated budget.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from qknot import bailey
from qknot.verify import (
    check_bailey_pipeline,
    check_bailey_step,
    check_bernoulli_formula,
    check_cyclotomic_coeffs,
    check_duality,
    check_golden_vectors,
    check_habiro_roundtrip,
    check_hecke_double,
    check_hecke_match,
    check_jones_consistency,
    check_jones_f_agreement,
    mutation_controls,
    GOLDEN_U,
)


def _criterion(number, description, budget_s, reports):
    elapsed = reports["elapsed"]
    failed = [r for r in reports["reports"] if not r.passed]
    status = "PASS" if not failed and elapsed < budget_s else "FAIL"
    print(f"criterion {number}: {status} ({elapsed:.1f}s / {budget_s:.0f}s) {description}")
    assert not failed, [(r.check_id, r.params, r.witness) for r in failed]
    assert elapsed < budget_s, f"criterion {number} overran: {elapsed:.1f}s"


def _timed(fn):
    start = time.monotonic()
    reports = fn()
    return {"reports": reports, "elapsed": time.monotonic() - start}


def test_criterion_1_golden_vectors():
    def run():
        return [check_golden_vectors(t, m) for (t, m) in GOLDEN_U]

    _criterion(1, "printed low-order expansions of the five U-series", 5, _timed(run))


def test_criterion_2_duality():
    def run():
        return [
            check_duality(t, m, n)
            for t in range(1, 4)
            for m in range(1, t + 1)
            for n in range(1, 11)
        ]

    _criterion(2, "F at inverse roots equals U(-1) at roots, t<=3, N<=10", 60, _timed(run))


def test_criterion_3_hecke_expansions():
    def run():
        reports = [
            check_hecke_match(t, m, 20) for t in range(1, 4) for m in range(1, t + 1)
        ]
        reports.append(check_hecke_double(25))
        return reports

    _criterion(3, "indefinite-theta expansions through q^20 / q^25", 60, _timed(run))


def test_criterion_4_cyclotomic_coefficients():
    def run():
        return [
            check_cyclotomic_coeffs(t, m, 10)
            for t in range(1, 5)
            for m in range(1, t + 1)
        ]

    _criterion(4, "multisum equals product form, t<=4, n<=10, integer Laurent", 60, _timed(run))


def test_criterion_5_jones_consistency_and_roundtrip():
    def run():
        reports = [
            check_jones_consistency(t, n)
            for t in range(1, 5)
            for n in range(1, 9)
        ]
        reports += [
            check_habiro_roundtrip(t, m, 8)
            for t in range(1, 4)
            for m in range(1, t + 1)
        ]
        return reports

    _criterion(5, "three Jones routes agree; Habiro transform round-trips", 30, _timed(run))


def test_criterion_6_root_of_unity_agreement():
    def run():
        return [
            check_jones_f_agreement(t, m, n)
            for t in range(1, 4)
            for m in range(1, t + 1)
            for n in range(1, 11)
        ]

    _criterion(6, "invariants at roots of unity equal the F-values, N<=10", 30, _timed(run))


def test_criterion_7_bernoulli_limit_formula():
    def run():
        reports = [
            check_bernoulli_formula(t, m, n)
            for t in range(1, 3)
            for m in range(1, t + 1)
            for n in range(1, 5)
        ]
        anchor = check_bernoulli_formula(1, 1, 1)
        assert anchor.value == "1", anchor.value
        reports.append(anchor)
        return reports

    _criterion(7, "Bernoulli character sum equals the prefactored F-value", 60, _timed(run))


def test_criterion_8_bailey_engine():
    def run():
        reports = []
        named = [("unit", {}), ("andrews", {})]
        named += [(name, {"t": t}) for t in range(1, 4) for name in ("jones", "lovejoy", "star")]
        for name, kwargs in named:
            pair = bailey.make_named_pair(name, **kwargs)
            reports.append(bailey.bailey_verify(pair, 8, 40))
        reports.append(check_bailey_step("unit", 6, 35))
        reports.append(check_bailey_step("jones", 5, 30, steps="x", t=1))
        for t in range(1, 4):
            reports.append(check_bailey_pipeline(t, 6, 30))
        reports.append(bailey.conjugate_identity_check(bailey.make_named_pair("andrews"), 20))
        reports.append(
            bailey.conjugate_identity_check(bailey.make_named_pair("unit", a_exp=1), 20)
        )
        return reports

    _criterion(8, "named pairs verify (n<=8, window 40); steps, pipeline, conjugate", 60, _timed(run))


def test_criterion_9_negative_controls():
    def run():
        return mutation_controls(seed=0)

    _criterion(9, "single-coefficient mutations fail with correct witnesses", 30, _timed(run))
