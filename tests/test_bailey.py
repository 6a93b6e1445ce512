"""Bailey machinery: named pairs, lemma steps, limiting and conjugate forms."""

import gc
import random
import weakref

import pytest

from qknot import bailey
from qknot.bailey import (
    BaileyPair,
    andrews_pair,
    bailey_limit_identity,
    bailey_step,
    bailey_verify,
    conjugate_identity_check,
    lovejoy_alpha_parts,
    make_named_pair,
    perturbed_pair,
    unit_pair,
    _conjugate_sides,
    _exact,
    _limit_sides,
)
from qknot.cyclotomic_coeffs import c_multisum
from qknot.laurent import ExactnessError, XLaurent
from qknot.series import Mono, QSeries, WindowError, first_difference

from bailey_oracles import beta_chain_closed, jones_alpha
from kernel_oracles import invert, poch_q, qpochhammer


def test_unit_pair_definition():
    pair = make_named_pair("unit")
    assert pair.alpha(0, 10) == QSeries.one()
    assert pair.alpha(3, 10) == QSeries.zero()
    b2 = pair.beta(2, 20)
    expect = invert(_exact(poch_q(1, 2) * poch_q(1, 2)), 20)
    assert first_difference(b2, expect) is None


def test_unit_pair_verifies():
    assert bailey_verify(make_named_pair("unit"), 8, 40).passed


def test_jones_pair_trefoil_beta_is_one():
    pair = make_named_pair("jones", t=1)
    for n in range(5):
        assert pair.beta(n, 25) == QSeries.one()


def test_jones_alpha_matches_its_product_oracle():
    for t in range(1, 5):
        for m in range(1, t + 1):
            pair = make_named_pair("jones", t=t, m=m)
            for n in range(14):
                assert pair.alpha(n, 30) == jones_alpha(t, m, n, 30), (t, m, n)


def test_jones_pairs_verify():
    assert bailey_verify(make_named_pair("jones", t=1), 6, 40).passed
    assert bailey_verify(make_named_pair("jones", t=2), 5, 40).passed
    assert bailey_verify(make_named_pair("jones", t=2, m=2), 5, 40).passed


def test_lovejoy_alpha_zero_case_and_decomposition():
    for t in (1, 2, 3):
        ell = t - 1
        prime, second = lovejoy_alpha_parts(t, ell, 0)
        assert prime.is_zero() and second == XLaurent({0: 1})
        pair = make_named_pair("lovejoy", t=t)
        for n in range(5):
            prime, second = lovejoy_alpha_parts(t, ell, n)
            combo = _exact(second - prime)
            assert first_difference(pair.alpha(n, 30), combo) is None


def test_lovejoy_pairs_verify():
    for t in (1, 2, 3):
        report = bailey_verify(make_named_pair("lovejoy", t=t), 6, 40)
        assert report.passed, (t, report.witness)


def test_star_pairs_verify():
    for t in (1, 2, 3):
        report = bailey_verify(make_named_pair("star", t=t), 6, 40)
        assert report.passed, (t, report.witness)


def test_star_parameter_convention():
    assert make_named_pair("star", t=1).label == "star(k=1,ell=0)"
    assert make_named_pair("star", t=3).label == "star(k=3,ell=1)"


def test_unknown_pair_rejected():
    with pytest.raises(ValueError):
        make_named_pair("nonesuch")


def test_step_limit_on_unit_pair_closed_form():
    stepped = bailey_step(make_named_pair("unit"), None, None)
    for n in (2, 3, 4):
        expect = QSeries.zero(1, 30)
        for k in range(n + 1):
            den = _exact(poch_q(1, n - k) * poch_q(1, k) * poch_q(1, k))
            expect = expect + invert(den, 30 - k * k).mul_mono(Mono(1, 0, k * k))
        assert first_difference(stepped.beta(n, 30), expect) is None


def test_step_preserves_pair_property():
    base = make_named_pair("unit")
    assert bailey_verify(bailey_step(base, None, None), 6, 35).passed
    # nonpositive q-exponents keep the denominator products unit-headed
    rng = random.Random(7)
    for _ in range(3):
        b = Mono(rng.choice([1, -1]), rng.randint(-1, 1), rng.randint(-2, 0))
        c = Mono(rng.choice([1, -1]), rng.randint(-1, 1), rng.randint(-2, 0))
        stepped = bailey_step(base, b, c)
        report = bailey_verify(stepped, 4, 25)
        assert report.passed, (b, c, report.witness)


def test_step_rejects_degenerate_quotient():
    # aq/b collapsing onto the non-unit factor (1 - x^-1) cannot be divided by
    base = make_named_pair("unit")
    stepped = bailey_step(base, Mono(1, 1, 1), Mono(1, 0, -1))
    with pytest.raises(ExactnessError, match="not a single monomial in x"):
        stepped.beta(2, 20)


def test_step_rejects_a_zero_factor_by_name():
    # (aq/b)_3 = (q^-2)_3 contains (1 - q^0)
    stepped = bailey_step(make_named_pair("unit"), Mono(1, 0, 3), Mono(1, 0, -1))
    with pytest.raises(ZeroDivisionError, match=r"zero factor \(1 - Mono\(coeff=1, x_exp=0, q_exp=0\)\)"):
        stepped.alpha(3, 20)


def test_term_below_its_requested_window_is_rejected():
    short = BaileyPair("short", 0, lambda n, w: QSeries.one(), lambda n, w: QSeries.one(1, w - 1))
    assert short.alpha(2, 10) == QSeries.one()
    with pytest.raises(ArithmeticError, match="asked for below q\\^10"):
        short.beta(2, 10)


def test_terms_come_back_at_exactly_their_window():
    unit, lov = make_named_pair("unit"), make_named_pair("lovejoy", t=2)
    named = [
        unit, lov, make_named_pair("star", t=1), make_named_pair("star", t=3),
        make_named_pair("andrews"), andrews_pair(Mono(1, 1, 2)), andrews_pair(Mono(-1, 0, -1)),
    ]
    # a step divides both sides by its factors in one pass, so neither an
    # alpha nor a beta of a stepped pair is ever exact, not even at n = 0
    steps = [
        bailey_step(lov, None, None), bailey_step(unit, None, None),
        bailey_step(unit, Mono(1, 1, 0), None), bailey_step(unit, Mono(-1, 1, -1), Mono(1, 0, -2)),
    ]
    for pair in named + steps:
        for n in range(5):
            for window in (-3, 0, 7, 20):
                allowed = (None, window) if pair in named else (window,)
                for term in (pair.alpha(n, window), pair.beta(n, window)):
                    assert term.trunc in allowed, (pair, n, window, term)


def test_mixed_step_preserves_pair_property():
    stepped = bailey_step(make_named_pair("unit"), Mono(1, 1, 0), None)
    assert bailey_verify(stepped, 4, 25).passed


def test_double_step_of_star_matches_closed_chain():
    pair = make_named_pair("star", t=2)
    twice = bailey_step(bailey_step(pair, None, None), None, None)
    for n in range(5):
        d = first_difference(twice.beta(n, 30), beta_chain_closed(2, 0, n, 30))
        assert d is None, (n, d)


def test_pipeline_identity():
    # t-fold stepped seed minus staircase beta = -q^{t-n} C_{n-1}
    for t in (1, 2, 3):
        lov = make_named_pair("lovejoy", t=t)
        cur = make_named_pair("star", t=t)
        for _ in range(t):
            cur = bailey_step(cur, None, None)
        for n in range(0, 7):
            got = cur.beta(n, 30) - lov.beta(n, 30)
            want = (
                QSeries.zero(1, 30)
                if n == 0
                else _exact(-c_multisum(t, 1, n - 1).shift(t - n))
            )
            assert first_difference(got, want, through=30) is None, (t, n)


def test_vector_label_pipeline():
    # the m >= 2 variants close the same way: staircase tail t-m, seed tail
    # one shorter, and the difference is the vector-label coefficient
    for t, m in [(2, 2), (3, 2), (3, 3)]:
        lov = make_named_pair("lovejoy", t=t, ell=t - m)
        cur = make_named_pair("star", k=t, ell=max(t - m - 1, 0))
        for _ in range(t):
            cur = bailey_step(cur, None, None)
        for n in range(0, 6):
            got = cur.beta(n, 25) - lov.beta(n, 25)
            want = (
                QSeries.zero(1, 25)
                if n == 0
                else _exact(-c_multisum(t, m, n - 1).shift(t - n))
            )
            assert first_difference(got, want, through=25) is None, (t, m, n)


def test_limit_identity_cases():
    assert bailey_limit_identity(make_named_pair("unit"), None, None, 25).passed
    assert bailey_limit_identity(
        make_named_pair("jones", t=1), Mono(1, 1, 0), Mono(1, -1, 0), 25
    ).passed
    assert bailey_limit_identity(make_named_pair("lovejoy", t=2), None, None, 25).passed
    assert bailey_limit_identity(make_named_pair("unit"), Mono(1, 1, 0), None, 20).passed


def test_limit_identity_rejects_degenerate_quotient():
    with pytest.raises(ValueError):
        bailey_limit_identity(make_named_pair("unit"), Mono(1, 0, 1), None, 20)


def test_limit_identity_checks_its_parameters_before_any_term():
    def never(n, window):
        raise AssertionError("a term was asked before the parameter checks")

    pair = BaileyPair("never", 0, never, never, lambda n: 0, lambda n: 0)
    cases = [
        (Mono(1, 0, 1), None, "the quotient of a mixed limit"),
        (Mono(1, 0, 1), Mono(1, 0, 1), r"aq/\(bc\) must carry"),
        (Mono(1, 0, 3), Mono(1, 0, -5), "aq/b needs"),
        (Mono(1, 0, -5), Mono(1, 0, 3), "aq/c needs"),
    ]
    for b, c, message in cases:
        with pytest.raises(ValueError, match=message):
            bailey_limit_identity(pair, b, c, 12)


def test_conjugate_identity():
    assert conjugate_identity_check(make_named_pair("unit", a_exp=1), 20).passed
    assert conjugate_identity_check(make_named_pair("andrews"), 20).passed


# Each identity compares its sides through its own window: a side that came
# back short of it raises, where a comparison over the common window would pass.


def _short(sides, top):
    """The sides function with its right side cut below q^top."""

    def cut(*args):
        lhs, rhs = sides(*args)
        return lhs, rhs.with_trunc(top)

    return cut


def test_limit_identity_compares_through_its_window(monkeypatch):
    assert bailey_limit_identity(unit_pair(), None, None, 25).passed
    monkeypatch.setattr(bailey, "_limit_sides", _short(bailey._limit_sides, 20))
    with pytest.raises(WindowError):
        bailey_limit_identity(unit_pair(), None, None, 25)


def test_conjugate_identity_compares_through_its_window(monkeypatch):
    assert conjugate_identity_check(unit_pair(), 25).passed
    monkeypatch.setattr(bailey, "_conjugate_sides", _short(bailey._conjugate_sides, 20))
    with pytest.raises(WindowError):
        conjugate_identity_check(unit_pair(), 25)


@pytest.mark.parametrize("windowed", [True, False])
def test_pair_relations_compare_through_their_window(monkeypatch, windowed):
    # each relation's right side is one nested sum closed in its chain: the
    # beta relation's by a windowed close, the alpha relation's by one without
    # a window; the sum that the chosen close ends comes back cut short
    assert bailey_verify(make_named_pair("jones", t=1), 3, 25).passed
    real = bailey._nested

    def short(term, top, rise, trunc, close=()):
        out = real(term, top, rise, trunc, close)
        return out.with_trunc(20) if close and (close[3] is not None) == windowed else out

    monkeypatch.setattr(bailey, "_nested", short)
    with pytest.raises(WindowError):
        bailey_verify(make_named_pair("jones", t=1), 3, 25)


# andrews_pair(x) at windows where a term below the window sits past the first
# crossing of a bound: past the n where 3n(n+1)/2 + an alone reaches the window
# (the first two), or past a dip of the bound along r (the third)
_CONJUGATE_PAST_A_CROSSING = [(Mono(1, 0, -8), 15), (Mono(1, 0, -4), 8), (Mono(1, 1, -7), 9)]


@pytest.mark.parametrize("x, trunc", _CONJUGATE_PAST_A_CROSSING)
def test_conjugate_identity_keeps_every_term_below_the_window(x, trunc):
    assert conjugate_identity_check(andrews_pair(x), trunc).passed


@pytest.mark.parametrize("x, trunc", _CONJUGATE_PAST_A_CROSSING)
def test_conjugate_alpha_side_against_rectangle_bruteforce(x, trunc):
    # sum_{n, r} (-1)^n q^{3n(n+1)/2 + n + (2n+1)r} alpha_r / (q)_inf with
    # alpha_r = (-1)^r q^{r(r+1)/2} (x^-r - x^{r+1}), every monomial below the window
    acc: dict[int, dict[int, int]] = {}
    for n in range(25):
        for r in range(60):
            head = 3 * n * (n + 1) // 2 + n + (2 * n + 1) * r + r * (r + 1) // 2
            sign = -1 if (n + r) % 2 else 1
            for k, sgn in ((-r, sign), (r + 1, -sign)):
                e = head + k * x.q_exp
                if e < trunc:
                    acc.setdefault(e, {}).setdefault(k * x.x_exp, 0)
                    acc[e][k * x.x_exp] += sgn
    core = QSeries({e: XLaurent(xs) for e, xs in acc.items()}, 1, trunc)
    low = int(min(0, core._valuation()))
    brute = invert(qpochhammer(Mono(1, 0, 1), None, trunc=trunc - low)) * core
    rhs = _conjugate_sides(andrews_pair(x), trunc)[1]
    assert first_difference(rhs, brute, through=trunc) is None


def test_identity_sums_hold_no_reference_to_their_pair():
    # a reference cycle through the pair would keep it, and its term cache,
    # alive until the cyclic collector runs
    gc.disable()
    try:
        for sides in (lambda p: _conjugate_sides(p, 12), lambda p: _limit_sides(p, None, None, 12)):
            pair = andrews_pair()
            ref = weakref.ref(pair)
            sides(pair)
            del pair
            assert ref() is None
    finally:
        gc.enable()


def test_conjugate_identity_rejects_a_squared():
    with pytest.raises(ValueError):
        conjugate_identity_check(make_named_pair("jones", t=1), 20)


def test_two_variable_identity_bruteforce():
    # the identity produced by the conjugate transform of the two-term pair,
    # both sides built from scratch; term n is q^n times its Pochhammer
    # factors, each built below q^(window - n), so every term is exact below q^window
    window = 21
    lhs = QSeries.zero(1, window)
    for n in range(window + 1):
        lhs = lhs + (
            qpochhammer(Mono(1, 1, 0), n + 1, trunc=window - n)
            * qpochhammer(Mono(1, -1, 1), n, trunc=window - n)
        ).mul_mono(Mono(1, 0, n))
    assert lhs.trunc == window
    acc: dict[int, dict[int, int]] = {}
    for n in range(0, 10):
        for r in range(0, window + 2):
            e = n * (3 * n + 5) // 2 + 2 * n * r + r * (r + 3) // 2
            if e >= window:
                continue
            sign = -1 if (n + r) % 2 else 1
            for xpow, sgn in ((-r, sign), (r + 1, -sign)):
                acc.setdefault(e, {}).setdefault(xpow, 0)
                acc[e][xpow] += sgn
    core = QSeries({e: XLaurent(xs) for e, xs in acc.items()}, 1, window)
    rhs = invert(qpochhammer(Mono(1, 0, 1), None, trunc=window)) * core
    assert first_difference(lhs, rhs, through=window) is None


def test_corrupted_beta_fails_at_target():
    bad = perturbed_pair(make_named_pair("unit"), "beta", 3, Mono(1, 0, 1))
    report = bailey_verify(bad, 8, 40)
    assert not report.passed
    assert report.witness["n"] == 3


def test_corrupted_alpha_fails_conjugate():
    bad = perturbed_pair(make_named_pair("andrews"), "alpha", 2, Mono(1, 0, 2))
    report = conjugate_identity_check(bad, 20)
    assert not report.passed and report.witness is not None


@pytest.mark.parametrize("target, q_exp, at", [(12, -60, -48), (8, -100, -92)])
def test_corrupted_alpha_at_a_late_target_fails_conjugate(target, q_exp, at):
    # lowering the target's floor alone let the walk along r stop before it
    bad = perturbed_pair(andrews_pair(), "alpha", target, Mono(1, 0, q_exp))
    report = conjugate_identity_check(bad, 20)
    assert not report.passed
    assert report.witness["q_exp"] == str(at)


def test_corrupted_floors_shift_together():
    pair = andrews_pair()
    bad = perturbed_pair(pair, "alpha", 12, Mono(1, 0, -60))
    drop = pair.alpha_floor(12) + 60
    assert [bad.alpha_floor(r) for r in range(20)] == [pair.alpha_floor(r) - drop for r in range(20)]
    assert bad.beta_floor(5) == pair.beta_floor(5)
    # a monomial at or above the floor leaves every floor as it is
    same = perturbed_pair(pair, "alpha", 2, Mono(1, 0, pair.alpha_floor(2) + 1))
    assert [same.alpha_floor(r) for r in range(20)] == [pair.alpha_floor(r) for r in range(20)]


def test_andrews_beta_floor_is_the_valuation_for_any_x():
    # x with a q-power: the floor is the sum of the numerator factors'
    # valuations; a floor that only falls with n kept the conjugate sum open
    for x in (Mono(-1, 0, -1), Mono(1, 0, -3), Mono(1, 0, 3), Mono(1, 1, 2)):
        pair = andrews_pair(x)
        for n in range(4):
            beta = pair.beta(n, 12)  # zero once (x)_{n+1} or (q/x)_n meets 1 - q^0
            assert not beta.terms or beta.min_exp() == pair.beta_floor(n), (x, n)
    assert conjugate_identity_check(andrews_pair(Mono(1, 0, 3)), 15).passed
