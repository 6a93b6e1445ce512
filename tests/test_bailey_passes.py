"""The Bailey sums in nested form against the product-form sums they replaced.

``bailey_oracles`` keeps the former ``_first_failure``, ``bailey_step``,
``_limit_sides`` and ``_conjugate_sides`` verbatim; each multiplied a pair's
terms by whole Pochhammer heads.  The library runs the same sums as chains of
``series._step`` passes and must reproduce them exactly, windows included,
on passing pairs and on corrupted ones, where every witness must stay put.
"""

import itertools

import pytest

import bailey_oracles as oracle
from qknot import bailey, series
from qknot.bailey import (
    andrews_pair, bailey_limit_identity, bailey_verify, conjugate_identity_check,
    make_named_pair, perturbed_pair, unit_pair,
)
from qknot.series import Mono, QSeries

_X = Mono(1, 1, 0)


def test_nested_conjugate_sides_match_their_oracle():
    pairs = [unit_pair(0), unit_pair(1), andrews_pair(_X), andrews_pair(Mono(1, -1, 0))]
    for pair in pairs:
        for trunc in range(1, 26, 4):
            new = bailey._conjugate_sides(pair, trunc)
            old = oracle._conjugate_sides(pair, trunc)
            assert new[0] == old[0] and new[1] == old[1], (pair, trunc)


_STEPS = [
    (None, None), (_X, Mono(1, -1, 0)), (_X, None), (None, Mono(1, -1, 0)),
    (Mono(1, 1, -1), Mono(1, -1, 0)), (Mono(1, 1, -1), None),  # heads of negative valuation
]


@pytest.mark.parametrize("b, c", _STEPS)
def test_stepped_terms_match_the_product_form_step(b, c):
    for base in (unit_pair(), make_named_pair("lovejoy", t=2), andrews_pair()):
        new, old = bailey.bailey_step(base, b, c), oracle.bailey_step(base, b, c)
        for n in range(6):
            for window in (1, 6, 15):
                assert new.alpha(n, window) == old.alpha(n, window), (base, n, window)
                assert new.beta(n, window) == old.beta(n, window), (base, n, window)


def _corrupted_runs():
    """(pair name, params, kind, target, monomial) for every corrupted run."""
    named = [("unit", {}), ("andrews", {}), ("jones", {"t": 2}), ("star", {"t": 3})]
    monos = [Mono(1, 0, 2), Mono(-1, 1, 1)]
    return itertools.product(named, ("alpha", "beta"), range(5), monos)


def _reports(name, params, kind, target, mono) -> list:
    """The three checks on one corrupted pair: report JSON without elapsed_ms,
    or the error a check raised."""
    out = []
    checks = [
        lambda pair: bailey_verify(pair, 5, 14),
        lambda pair: conjugate_identity_check(pair, 12),
        lambda pair: bailey_limit_identity(pair, None, None, 12),
        lambda pair: bailey_limit_identity(pair, _X, Mono(1, -1, 0), 12),
    ]
    for check in checks:
        pair = perturbed_pair(make_named_pair(name, **params), kind, target, mono)
        try:
            report = check(pair).to_json_dict()
        except (ArithmeticError, ValueError) as err:
            out.append((type(err).__name__, str(err)))
            continue
        report.pop("elapsed_ms")
        out.append(report)
    return out


def test_corrupted_pairs_report_as_their_oracle(monkeypatch):
    runs = list(_corrupted_runs())
    new = [_reports(*run[0], *run[1:]) for run in runs]
    for name in ("_first_failure", "_limit_sides", "_conjugate_sides"):
        monkeypatch.setattr(bailey, name, getattr(oracle, name))
    old = [_reports(*run[0], *run[1:]) for run in runs]
    failed = 0
    for run, got, want in zip(runs, new, old):
        assert got == want, run
        failed += sum(isinstance(r, dict) and r["status"] == "fail" for r in got)
    assert failed >= len(runs)  # the runs exercise witnesses, not only passes


def test_relations_build_each_beta_once_at_its_widest_window():
    for pair in (unit_pair(), andrews_pair(), make_named_pair("lovejoy", t=2)):
        asked = []
        beta = pair._beta
        pair._beta = lambda n, window: asked.append((n, window)) or beta(n, window)
        assert bailey._first_failure(pair, 6, 12) is None
        assert asked == [(j, 12 + 6 * j - j * (j + 1) // 2) for j in range(7)], pair



def _nested_sums(monkeypatch, run) -> list:
    """(top, closed, events) for every ``bailey._nested`` sum that ``run()``
    makes, closed whether it was given a close, the events in order: n for each
    term asked, "pass" for each ``series._step`` the sum makes outside its terms
    (the engine, ``series._nested``, runs every level and its close as one)."""
    sums, running, inside = [], [], []
    real_nested, real_pass = bailey._nested, series._step

    def nested(term, top, rise, trunc, close=()):
        events = []
        sums.append((top, bool(close), events))

        def asked(n):
            events.append(n)
            inside.append(n)
            try:
                return term(n)
            finally:
                inside.pop()

        running.append(events)
        try:
            return real_nested(asked, top, rise, trunc, close)
        finally:
            running.pop()

    def level_pass(*args, **kwargs):
        if running and not inside:
            running[-1].append("pass")
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(bailey, "_nested", nested)
    monkeypatch.setattr(series, "_step", level_pass)
    run()
    monkeypatch.undo()
    return sums


def test_nested_sums_ask_each_term_once_when_its_level_comes(monkeypatch):
    # from the top down, one pass between two levels and one after the last
    # level when a close is given; a term may be None (zero)
    terms = lambda n: QSeries.one().mul_mono(Mono(1, 0, n)) if n != 2 else None
    rise = lambda i: (Mono(1, 0, 1), [Mono(1, 0, i + 1)], [Mono(1, 0, i + 2)])
    [(top, _, events)] = _nested_sums(monkeypatch, lambda: bailey._nested(terms, 4, rise, 9))
    assert events == [4, "pass", 3, "pass", 2, "pass", 1, "pass", 0]
    close = (Mono(-1, 0, 2), [Mono(1, 0, 3)], [Mono(1, 0, 1)], None)
    [(top, _, events)] = _nested_sums(monkeypatch, lambda: bailey._nested(terms, 4, rise, 9, close))
    assert events == [4, "pass", 3, "pass", 2, "pass", 1, "pass", 0, "pass"]
    # every caller: the relations' alpha and beta sums, both closed in their
    # chains, a lemma step's beta, also closed, both sides of the limiting
    # identity and the conjugate identity's beta side
    pair = andrews_pair()
    runs = [
        lambda: bailey._first_failure(pair, 4, 10),
        lambda: bailey.bailey_step(unit_pair(), _X, None).beta(5, 12),
        lambda: bailey._limit_sides(pair, None, None, 12),
        lambda: bailey._conjugate_sides(pair, 12),
    ]
    for run, closed in zip(runs, [True, True, False, False]):
        sums = _nested_sums(monkeypatch, run)
        assert sums and max(top for top, _, _ in sums) >= 2
        assert all(c == closed for _, c, _ in sums)
        for top, c, events in sums:
            levels = [[n, "pass"] for n in range(top, 0, -1)]
            want = [e for level in levels for e in level] + [0] + ["pass"] * c
            assert events == want, (top, events)
