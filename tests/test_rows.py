"""The packed-row Horner engine against the dict passes it replaced.

``kernel_oracles.by_binomials`` and ``kernel_oracles.nested`` are the former
``series._by_binomials`` and ``series._nested``, verbatim.  The library runs
both on packed x-rows (``series._Rows``) wherever the series and the factors
are integral at scale 1, and on the dict pass elsewhere, so every result,
window and raised error must be the oracle's, and every term must be asked in
the oracle's order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from qknot import bailey, series, useries
from qknot.bailey import andrews_pair, bailey_step, make_named_pair, unit_pair
from qknot.cyclotomic_coeffs import c_series
from qknot.laurent import ExactnessError, XLaurent
from qknot.series import _UNIT, Mono, QSeries, _by_binomials, _nested, _Rows


def _outcome(run):
    """(scale, trunc, rows) of the series run() returns, or the type it raises."""
    try:
        s = run()
    except (ArithmeticError, ValueError) as err:
        return type(err)
    return s.scale, s.trunc, {e: dict(c.coeffs) for e, c in s.terms.items()}


def _as_series(term):
    return QSeries.from_q_laurent(term) if isinstance(term, XLaurent) else term


def _oracle_nested(term, top, rise, trunc, close=()):
    """The former engine, with an x-free polynomial term taken as an exact
    series and the close as one more pass on the sum."""
    out = oracle.nested(lambda n: _as_series(term(n)), top, rise, trunc)
    if close:
        mono, times, over, window = close
        out = oracle.by_binomials(out.mul_mono(mono), times, over, window)
    return out


small = st.sampled_from([1, -1, 2, -3])
wide = st.sampled_from([2**62 + 5, -(2**62) - 1, 2**200 + 3, -(2**201)])
coefficients = st.one_of(small, small, small, wide)
q_exps = st.integers(-3, 12)


def series_of(coeffs):
    rows = st.dictionaries(q_exps, st.builds(XLaurent, st.dictionaries(st.integers(-2, 2), coeffs, max_size=3)), max_size=5)
    return st.builds(QSeries, rows, st.just(1), st.one_of(st.none(), st.integers(-2, 15)))


integral = series_of(coefficients)
rational = series_of(st.one_of(small, st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])))
q_polys = st.builds(XLaurent, st.dictionaries(q_exps, coefficients, max_size=6))
# c x^a q^k with k below, at and above 0: at k = 0 a divisor is a head, a
# non-unit constant, an x-only factor (ExactnessError) or 1 (ZeroDivisionError)
factors = st.builds(Mono, st.sampled_from([1, -1, 2, -2]), st.integers(-1, 1), st.integers(-2, 4))
rational_factors = st.builds(Mono, st.sampled_from([1, -1, 2, Fraction(1, 2)]), st.integers(-1, 1), st.integers(-2, 4))
monos = st.builds(Mono, st.sampled_from([1, -1, 3]), st.integers(-1, 1), st.integers(-2, 3))
windows = st.one_of(st.none(), st.integers(-3, 16))


@settings(max_examples=200, deadline=None)
@given(st.one_of(integral, integral, rational), st.lists(factors, max_size=4), st.lists(factors, max_size=4), windows)
def test_binomial_pass_matches_the_dict_pass(s, times, over, trunc):
    assert _outcome(lambda: _by_binomials(s, times, over, trunc)) == _outcome(
        lambda: oracle.by_binomials(s, times, over, trunc)
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nested_sum_matches_the_dict_engine(data):
    top = data.draw(st.integers(0, 5))
    kinds = st.one_of(st.none(), integral, integral, q_polys, rational)
    terms = [data.draw(kinds) for _ in range(top + 1)]
    rise_factors = data.draw(st.sampled_from([factors, factors, rational_factors]))
    rises = [
        (data.draw(monos), data.draw(st.lists(rise_factors, max_size=3)), data.draw(st.lists(rise_factors, max_size=2)))
        for _ in range(top)
    ]
    trunc = data.draw(st.integers(-3, 16))
    close = data.draw(st.one_of(st.just(()), st.tuples(monos, st.lists(factors, max_size=2), st.lists(factors, max_size=3), windows)))
    asked_new, asked_old = [], []
    new = _outcome(lambda: _nested(lambda n: asked_new.append(n) or terms[n], top, rises.__getitem__, trunc, close))
    old = _outcome(lambda: _oracle_nested(lambda n: asked_old.append(n) or terms[n], top, rises.__getitem__, trunc, close))
    assert new == old
    assert asked_new == asked_old


def _reads(monkeypatch) -> list:
    """The slot width of every ``_Rows`` read-back, in order."""
    widths, real = [], _Rows._read

    def read(self):
        widths.append(self.w)
        return real(self)

    monkeypatch.setattr(_Rows, "_read", read)
    return widths


def test_an_inflated_bound_is_remeasured_and_the_slots_kept(monkeypatch):
    # each (1 - x^a q^k) doubles the bound, but with a = 3, 7, 15, 31 every
    # product term lands on a fresh x-row, so the largest coefficient stays
    # near 2^61 and fits the 64-bit slots
    s = QSeries({0: XLaurent({0: 2**61 + 5, 1: -7}), 2: XLaurent({-1: 3})}, trunc=14)
    times = [Mono(1, 3, 1), Mono(1, 7, 2), Mono(1, 15, 3), Mono(1, 31, 4)]
    acc = _Rows.of(s, s.trunc)
    assert acc.w == 64
    widths = _reads(monkeypatch)
    for f in times:
        acc.times(f)
    assert widths and acc.w == 64  # read back at least once, never widened
    assert _outcome(acc.series) == _outcome(lambda: oracle.by_binomials(s, times))


@pytest.mark.parametrize("big, before, after", [(2**61 + 5, 64, 96), (2**221 + 3, 224, 256)])
def test_coefficients_past_the_slots_widen_them(monkeypatch, big, before, after):
    # (1 - 3) = -2 doubles every coefficient, past 2^63 and 2^223 in turn
    s = QSeries({0: XLaurent({0: big, 2: 1}), 1: XLaurent({0: -big})}, trunc=9)
    times = [Mono(3, 0, 0), Mono(3, 0, 0), Mono(-1, 1, 2)]
    acc = _Rows.of(s, s.trunc)
    assert acc.w == before
    widths = _reads(monkeypatch)
    for f in times:
        acc.times(f)
    assert widths == [before] and acc.w == after  # one re-measure, then one widening
    over = [Mono(2, 0, 1), Mono(-1, 1, 3)]
    for f in over:
        acc.over(f)
    want = oracle.by_binomials(s, times, over)
    assert _outcome(acc.series) == _outcome(lambda: want)
    assert max(abs(c) for row in want.terms.values() for c in row.coeffs.values()) >= 2 * big
    assert _outcome(lambda: _by_binomials(s, times, over)) == _outcome(lambda: want)


def test_a_bound_past_the_slots_raises_on_read_back():
    acc = _Rows.of(QSeries({0: XLaurent({0: 5}), 3: XLaurent({1: -2})}, trunc=6), 6)
    acc.bound = 1 << (acc.w - 1)  # not held by the slots: the read-back refuses it
    with pytest.raises(ExactnessError):
        acc.series()


@pytest.mark.parametrize("t, m, trunc", [(1, 1, 60), (2, 2, 40), (3, 1, 30), (2, 1, 1)])
def test_u_series_matches_the_dict_engine(t, m, trunc):
    coeffs = c_series(t, m, trunc + m - 2, trunc)
    rise = lambda i: (_UNIT, [Mono(-1, 1, i + 1), Mono(-1, -1, i + 1)], ())
    old = oracle.nested(lambda n: QSeries.from_q_laurent(coeffs[n], trunc), trunc + m - 2, rise, trunc)
    assert _outcome(lambda: useries.u_series(t, m, trunc)) == _outcome(lambda: old)


def _on_the_oracle(monkeypatch):
    monkeypatch.setattr(bailey, "_nested", _oracle_nested)
    monkeypatch.setattr(bailey, "_by_binomials", oracle.by_binomials)


_HALF = Mono(Fraction(1, 2), 0, 1)


def test_bailey_sums_match_the_dict_engine(monkeypatch):
    pairs = lambda: [unit_pair(1), andrews_pair(), make_named_pair("lovejoy", t=2), make_named_pair("jones", t=2)]
    steps = [(_HALF, None), (Mono(1, 1, 0), Mono(1, -1, 0)), (None, None)]

    def run():
        out = []
        for pair in pairs():
            out.append(bailey._first_failure(pair, 5, 14))
            out.append(bailey._conjugate_sides(pair, 12) if pair.a_exp < 2 else None)
            for b, c in steps:
                stepped = bailey_step(pair, b, c)
                out.append([(_outcome(lambda: stepped.beta(n, 10)), _outcome(lambda: stepped.alpha(n, 10))) for n in range(5)])
        return out

    new = run()
    _on_the_oracle(monkeypatch)
    assert new == run()


def test_rational_terms_and_rises_move_the_sum_to_the_dict_pass(monkeypatch):
    # b = q/2 makes the terms of the stepped beta's sum rational, b = 1/(2q)
    # puts 1/2 on every rise of the limit identity's sums: a sum is read back
    # from its rows at its first rational term or rise and runs on dicts after
    runs = [
        lambda: [bailey_step(unit_pair(), _HALF, None).beta(n, 12) for n in range(6)],
        lambda: list(bailey._limit_sides(unit_pair(), Mono(Fraction(1, 2), 0, -1), None, 12)),
    ]
    kinds, real = [], series._step

    def step(s, *args):
        out = real(s, *args)
        kinds.append((type(s).__name__, type(out).__name__))
        return out

    monkeypatch.setattr(series, "_step", step)
    got = [run() for run in runs]
    assert ("_Rows", "QSeries") in kinds and ("QSeries", "QSeries") in kinds
    monkeypatch.undo()
    _on_the_oracle(monkeypatch)
    assert got == [run() for run in runs]
