"""Truncated-series layer: windows, inversion, Pochhammer products."""

import itertools
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknot.laurent import ExactnessError, XLaurent, _packed_product
from qknot.series import (
    Mono,
    QSeries,
    WindowError,
    _by_binomials,
    _lattice,
    first_difference,
)

from kernel_oracles import invert, qpochhammer, swap_x


def coeffs_of(s):
    return {e: dict(c.coeffs) for e, c in s.terms.items()}


def test_infinite_pochhammer_pentagonal_pattern():
    s = qpochhammer(Mono(1, 0, 1), None, trunc=11)
    assert coeffs_of(s) == {0: {0: 1}, 1: {0: -1}, 2: {0: -1}, 5: {0: 1}, 7: {0: 1}}


def test_coefficient_reads_inside_the_window_only():
    s = qpochhammer(Mono(1, 0, 1), None, trunc=11)
    assert s.coefficient(5) == XLaurent({0: 1})
    assert s.coefficient(3) == XLaurent()  # a zero inside the window
    assert s.coefficient(-4) == XLaurent()
    for e in (11, 12, 100):
        with pytest.raises(WindowError, match="window ends at 11"):
            s.coefficient(e)
    exact = QSeries({-3: XLaurent({1: 2}), 40: XLaurent({0: -1})})
    assert exact.coefficient(-3) == XLaurent({1: 2})
    assert exact.coefficient(40) == XLaurent({0: -1})
    assert exact.coefficient(10**6) == XLaurent() == exact.coefficient(-(10**6))


def test_infinite_pochhammer_requires_window_and_positive_exponent():
    with pytest.raises(WindowError):
        qpochhammer(Mono(1, 0, 1), None)
    with pytest.raises(ValueError):
        qpochhammer(Mono(1, 0, 0), None, trunc=10)
    with pytest.raises(ValueError):
        qpochhammer(Mono(1, 0, -1), None, trunc=10)


def test_finite_pochhammer_is_exact_polynomial():
    s = qpochhammer(Mono(1, 0, 1), 2)
    assert s.is_exact()
    assert s.to_q_laurent() == XLaurent({0: 1, 1: -1, 2: -1, 3: 1})


def _partition_counts(top):
    # textbook DP over part sizes
    counts = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            counts[total] += counts[total - part]
    return counts


def test_partition_generating_function_to_q30():
    window = 31
    inv = invert(qpochhammer(Mono(1, 0, 1), None, trunc=window), window)
    expected = _partition_counts(30)
    for e in range(31):
        assert inv.terms.get(e, XLaurent()).coeff(0) == expected[e]


def test_geometric_inversions():
    g = invert(QSeries({0: 1, 1: -1}), 6)
    assert coeffs_of(g) == {e: {0: 1} for e in range(6)}
    gx = invert(QSeries.one() - QSeries.monomial(1, 1, 1), 4)
    assert coeffs_of(gx) == {e: {e: 1} for e in range(4)}


def test_invert_rejects_non_monomial_lowest_term():
    s = QSeries({0: XLaurent({0: 1, 1: -1})})
    with pytest.raises(Exception):
        invert(s, 5)


def test_invert_needs_window_for_exact_input():
    s = QSeries({0: 1, 1: -1})
    with pytest.raises(WindowError):
        invert(s)


def test_window_propagation_through_multiplication():
    a = QSeries({1: 1}, trunc=5)     # valid below 5, valuation 1
    b = QSeries({2: 1}, trunc=7)     # valid below 7, valuation 2
    prod = a * b
    assert prod.trunc == 7           # min(5+2, 7+1)
    exact = QSeries({3: 1})
    assert (exact * a).trunc == 5 + 3


def test_comparison_fails_loudly_outside_window():
    a = QSeries({0: 1}, trunc=4)
    b = QSeries({0: 1}, trunc=9)
    assert first_difference(a, b) is None
    with pytest.raises(WindowError):
        first_difference(a, b, through=6)


def test_first_difference_reports_smallest_exponent():
    a = QSeries({0: 1, 2: XLaurent({0: 2, 1: 1})}, trunc=9)
    b = QSeries({0: 1, 2: XLaurent({0: 2, 1: 3}), 4: 1}, trunc=9)
    assert first_difference(a, b) == (Fraction(2), 1, 1, 3)


def test_series_combine_only_at_one_scale():
    a, b = QSeries({0: 1, 2: 1}, 2, 3), QSeries({0: 1, 1: 1}, 1, 3)
    for op in (operator.add, operator.sub, operator.mul, first_difference):
        with pytest.raises(ValueError, match="scales 2 and 1 do not combine"):
            op(a, b)
    # the same value on two grids is two different series
    assert QSeries({0: 1}, 2) != QSeries({0: 1}, 1)
    assert QSeries({0: 1, 2: 1}, 2, 3) != QSeries({0: 1}, 2, 3)


def test_to_q_laurent_guards():
    with pytest.raises(Exception):
        QSeries({0: 1}, trunc=5).to_q_laurent()       # truncated
    with pytest.raises(Exception):
        QSeries({1: 1}, scale=2).to_q_laurent()       # fractional exponent
    with pytest.raises(Exception):
        QSeries({1: XLaurent({1: 1})}).to_q_laurent()  # carries x
    assert QSeries({2: 3}, scale=2).to_q_laurent() == XLaurent({1: 3})


def test_x_substitutions():
    s = QSeries({1: XLaurent({-1: 1, 0: 2, 1: 1})}, trunc=3)
    assert s.negate_x().terms[1] == XLaurent({-1: -1, 0: 2, 1: -1})
    assert swap_x(s).terms[1] == s.terms[1]
    assert 1 not in s.substitute_x(-1).terms  # -1 + 2 - 1 = 0
    assert s.substitute_x(2).terms[1] == XLaurent({0: Fraction(1, 2) + 2 + 2})


xpolys = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(XLaurent)
small_qseries = st.builds(
    lambda d, trunc: QSeries(d, 1, trunc),
    st.dictionaries(st.integers(-3, 6), xpolys, max_size=4),
    st.one_of(st.none(), st.integers(5, 9)),
)


@settings(max_examples=50, deadline=None)
@given(small_qseries, small_qseries, small_qseries)
def test_qseries_ring_laws(a, b, c):
    assert first_difference(a + b, b + a) is None
    assert first_difference(a * b, b * a) is None
    assert first_difference((a + b) + c, a + (b + c)) is None
    assert first_difference((a * b) * c, a * (b * c)) is None
    assert first_difference(a * (b + c), a * b + a * c) is None


monos = st.builds(
    Mono,
    st.integers(-3, 3).filter(bool),
    st.integers(-2, 2),
    st.integers(-2, 4),
)


@settings(max_examples=30, deadline=None)
@given(monos, st.integers(0, 6), st.integers(0, 6))
def test_pochhammer_splitting_law(a, m, n):
    # (a)_{m+n} = (a)_m (a q^m)_n
    whole = qpochhammer(a, m + n, trunc=40)
    split = qpochhammer(a, m, trunc=40) * qpochhammer(
        a.times(Mono(1, 0, m)), n, trunc=40
    )
    assert first_difference(whole, split) is None


unit_series = st.builds(
    lambda lead_x, tail: QSeries(
        dict([(0, XLaurent({lead_x: 1}))] + [(e, XLaurent(xs)) for e, xs in tail.items()]),
        1,
        None,
    ),
    st.integers(-2, 2),
    st.dictionaries(
        st.integers(1, 5),
        st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2),
        max_size=3,
    ),
)


@settings(max_examples=40, deadline=None)
@given(unit_series)
def test_invert_roundtrip(s):
    inv = invert(s, 12)
    prod = s * inv
    one = QSeries.one(1, prod.trunc)
    assert first_difference(prod, one) is None


@st.composite
def kernel_operand(draw, scale):
    """A series whose shape varies in term count, slot density, stride,
    coefficient width and window."""
    stride = draw(st.sampled_from([1, scale]))
    start = draw(st.integers(-4, 4))
    rows = draw(st.sampled_from([20, 12, 6, 3, 1]))
    x_lo = draw(st.integers(-3, 1))
    width = draw(st.sampled_from([4, 2, 1]))
    spread = draw(st.sampled_from([1, 1, 7]))  # 7 leaves most slots empty
    bits = draw(st.sampled_from([3, 95, 130]))
    cells = [(start + stride * spread * r, x_lo + d) for r in range(rows) for d in range(width)]
    digit = st.tuples(st.integers(-3, 3), st.integers(-9, 9))  # c = hi * 2^bits + lo
    digits = draw(st.lists(digit, min_size=len(cells), max_size=len(cells)))
    coeffs = [(hi << bits) + lo for hi, lo in digits]
    terms: dict[int, dict[int, object]] = {}
    for (e, d), c in zip(cells, coeffs):
        terms.setdefault(e, {})[d] = c
    if draw(st.integers(0, 9)) == 0:  # a rational coefficient
        e = next(iter(terms))
        terms[e][x_lo] = Fraction(1, 3)
    cut = draw(st.one_of(st.none(), st.integers(0, rows)))  # rows dropped by the window
    trunc = None if cut is None else start + stride * spread * (rows - cut)
    return QSeries({e: XLaurent(xs) for e, xs in terms.items()}, scale, trunc)


kernel_pairs = st.sampled_from([1, 2, 3]).flatmap(
    lambda scale: st.tuples(kernel_operand(scale), kernel_operand(scale))
)


@st.composite
def packed_operand(draw, scale):
    """(kind, series) across the packed kernel's crossovers.  A one-row series
    (one q-exponent) of kind "dense" packs against another: 16 to 40 nonzero
    int coefficients on consecutive x-powers.  Each other one-row kind is
    refused by one decline rule: "few" has 4 terms, so fewer than 256 term
    pairs against any row here; "sparse" spreads its terms 30 x-powers apart,
    more than four product slots per term pair; "rational" holds a Fraction.
    A "rows" series has two or three q-rows, small, since both sides of the
    comparison run the same term loop for it."""
    kind = draw(st.sampled_from(["dense", "dense", "dense", "few", "sparse", "rational", "rows"]))
    stride = draw(st.sampled_from([1, scale]))
    start = draw(st.integers(-4, 4))
    x_lo = draw(st.integers(-3, 1))
    bits = draw(st.sampled_from([3, 95, 130]))
    rows, size, spread = {
        "few": (1, 4, 1),
        "sparse": (1, draw(st.sampled_from([16, 24])), 30),
        "rows": (draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2, 4])), 1),
    }.get(kind, (1, draw(st.sampled_from([16, 24, 40])), 1))
    cells = [(start + stride * r, x_lo + spread * d) for r in range(rows) for d in range(size)]
    rnd = draw(st.randoms(use_true_random=False))  # one draw for every coefficient
    terms: dict[int, dict[int, object]] = {}
    for e, d in cells:  # c = +-(hi * 2^bits + lo), never 0
        terms.setdefault(e, {})[d] = rnd.choice((1, -1)) * ((rnd.randint(0, 3) << bits) + rnd.randint(1, 7))
    if kind == "rational":
        terms[start][x_lo] = Fraction(1, 3)
    if rows == 1:  # a window above the row never cuts the product's row
        trunc = draw(st.one_of(st.none(), st.integers(start + 1, start + 9)))
    else:
        cut = draw(st.one_of(st.none(), st.integers(0, rows)))  # rows dropped by the window
        trunc = None if cut is None else start + stride * (rows - cut)
    return kind, QSeries({e: XLaurent(xs) for e, xs in terms.items()}, scale, trunc)


packed_pairs = st.sampled_from([1, 2, 3]).flatmap(
    lambda scale: st.tuples(packed_operand(scale), packed_operand(scale))
)


@settings(max_examples=150, deadline=None)
@given(packed_pairs)
def test_packed_product_matches_schoolbook(pair):
    a, b = pair  # (kind, series) each
    for (kx, x), (ky, y) in ((a, b), (a, a), (b, b)):
        packs = []  # per call of the packed kernel: did it take the operands?

        def spy(ra, rb):
            out = _packed_product(ra, rb)
            packs.append(out is not None)
            return out

        with mock.patch("qknot.laurent._packed_product", spy):
            packed = x * y
        if "rows" in (kx, ky):  # a window may cut it to one row, still far too few terms
            assert not any(packs), (kx, ky)
        else:
            assert packs == [kx == ky == "dense"], (kx, ky)
        with mock.patch("qknot.laurent._packed_product", return_value=None):
            school = x * y
        assert (packed.scale, packed.trunc) == (school.scale, school.trunc)
        assert coeffs_of(packed) == coeffs_of(school)


# -- window soundness: each operation on truncated copies of exact series ---


def _window(s):
    return s._window()  # inf for an exact series


def _sound(result, exact):
    """The result equals the exact value strictly below its own window."""
    assert first_difference(result, exact) is None


@st.composite
def cut_series(draw, exact_ok=True):
    """(an exact random series, a copy truncated anywhere around its terms)."""
    exact = QSeries(draw(st.dictionaries(st.integers(-3, 8), xpolys, max_size=5)))
    w = draw(st.one_of(st.none(), st.integers(-4, 10)) if exact_ok else st.integers(-4, 10))
    return exact, exact.with_trunc(w)


@settings(max_examples=150, deadline=None)
@given(cut_series(), cut_series(), monos, st.one_of(st.none(), st.integers(-4, 12)))
def test_ring_and_substitution_windows_are_sound(ab, cd, m, w):
    A, a = ab
    B, b = cd
    wa, wb = _window(a), _window(b)
    cases = [
        (a + b, A + B, min(wa, wb)),
        (a - b, A - B, min(wa, wb)),
        (a * b, A * B, min(wa + b._valuation(), wb + a._valuation())),
        (a.mul_mono(m), A.mul_mono(m), wa + m.q_exp),
        (a.with_trunc(w), A, min(wa, _window(QSeries.zero(1, w)))),
        (-a, -A, wa),
        (a.negate_x(), A.negate_x(), wa),
        (swap_x(a), swap_x(A), wa),
        (a.substitute_x(Fraction(-2, 3)), A.substitute_x(Fraction(-2, 3)), wa),
    ]
    for got, want, rule in cases:
        assert _window(got) >= rule  # not vacuous: no window lost beyond the rule
        _sound(got, want)


@st.composite
def unit_headed_cut(draw):
    e0 = draw(st.integers(-3, 3))
    lead = XLaurent({draw(st.integers(-2, 2)): draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))})
    tail = draw(st.dictionaries(st.integers(1, 6), xpolys, max_size=4))
    exact = QSeries({e0: lead, **{e0 + e: c for e, c in tail.items()}})
    return exact, exact.with_trunc(e0 + draw(st.integers(1, 10))), e0


@settings(max_examples=80, deadline=None)
@given(unit_headed_cut(), st.one_of(st.none(), st.integers(-6, 14)))
def test_invert_windows_are_sound(case, trunc):
    A, a, e0 = case
    inv = invert(a, trunc)
    rule = a.trunc - 2 * e0 if trunc is None else min(a.trunc - 2 * e0, trunc)
    assert inv.trunc >= rule
    # multiplying by the exact A is invertible (unit lowest term), so inv is
    # right below its window iff inv * A is 1 below inv's window + e0
    check = inv * A
    assert check.trunc == inv.trunc + e0
    _sound(check, QSeries.one())


# factors (1 - f) for the binomial passes; a divisor needs a nonzero
# q-exponent or else a constant other than 1
binomials = st.builds(
    Mono, st.sampled_from([1, -1, 2, Fraction(1, 2)]), st.integers(-1, 1), st.integers(-2, 4)
)
divisors = binomials.filter(lambda f: f.q_exp != 0 or (f.x_exp == 0 and f.coeff != 1))


def _product(factors, scale=1):
    out = QSeries.one(scale)
    for f in factors:
        out = out * (QSeries.one(scale) - QSeries.from_mono(f, scale))
    return out


@settings(max_examples=150, deadline=None)
@given(
    cut_series(exact_ok=False),
    st.lists(binomials, max_size=4),
    st.lists(divisors, max_size=4),
    st.one_of(st.none(), st.integers(-4, 12)),
)
def test_binomial_pass_windows_are_sound(ab, times, over, trunc):
    A, a = ab
    got = _by_binomials(a, times, over, trunc)
    rule = a.trunc + sum(min(0, f.q_exp) for f in times) - sum(min(0, f.q_exp) for f in over)
    if trunc is not None:
        rule = min(rule, trunc)
    assert _window(got) >= rule
    if got.trunc is not None:
        assert got.trunc == rule  # the window is exactly the documented one
    # the exact divisor product has a unit lowest term, so got is right
    # below its window iff got * den equals A * num below window + val(den)
    den = _product(over)
    check = got * den
    assert _window(check) == _window(got) + den.min_exp()
    _sound(check, A * _product(times))


# -- differential tests of the binomial passes ------------------------------


def _qpochhammer_oracle(a, n, *, scale=1, trunc=None, base=None):
    """The full-product qpochhammer that the binomial pass replaced, verbatim."""
    if base is None:
        base = Mono(1, 0, scale)
    if n is None:
        if a.q_exp <= 0:
            raise ValueError("infinite product needs a monomial with positive q-exponent")
        if base.q_exp <= 0:
            raise ValueError("infinite product needs a base with positive q-exponent")
        if trunc is None:
            raise WindowError("infinite product needs a truncation window")
        out = QSeries.one(scale, trunc)
        k = 0
        while a.q_exp + k * base.q_exp < trunc:
            f = a.times(base.power(k))
            out = out * (QSeries.one(scale) - QSeries.from_mono(f, scale))
            k += 1
        return out
    if n < 0:
        raise ValueError("negative Pochhammer length")
    out = QSeries.one(scale, trunc)
    for k in range(n):
        f = a.times(base.power(k))
        out = out * (QSeries.one(scale) - QSeries.from_mono(f, scale))
    return out


def _same(a, b):
    assert (a.scale, a.trunc) == (b.scale, b.trunc)
    assert coeffs_of(a) == coeffs_of(b)


scales = st.sampled_from([1, 8 * 3, 8 * 7])  # 1 and 8(2t+1) for t = 1, 3


@st.composite
def scaled_factor(draw, scale, positive=False):
    """c x^d q^k with k a small multiple of the scale plus a fractional part."""
    k = draw(st.integers(0 if positive else -2, 3)) * scale + draw(st.sampled_from([0, 0, 1, scale // 2]))
    if positive and k == 0:
        k = scale
    return Mono(draw(st.sampled_from([1, -1, 2])), draw(st.integers(-1, 1)), k)


@settings(max_examples=120, deadline=None)
@given(scales, st.data())
def test_qpochhammer_matches_the_full_product_loop(scale, data):
    a = data.draw(scaled_factor(scale))
    base = data.draw(st.one_of(st.none(), scaled_factor(scale, positive=True)))
    trunc = data.draw(st.one_of(st.none(), st.integers(-2, 6 * scale)))
    n = data.draw(st.integers(0, 5))
    _same(
        qpochhammer(a, n, scale=scale, trunc=trunc, base=base),
        _qpochhammer_oracle(a, n, scale=scale, trunc=trunc, base=base),
    )
    if a.q_exp > 0 and trunc is not None and (base is None or base.q_exp > 0):
        _same(
            qpochhammer(a, None, scale=scale, trunc=trunc, base=base),
            _qpochhammer_oracle(a, None, scale=scale, trunc=trunc, base=base),
        )


@settings(max_examples=120, deadline=None)
@given(scales, st.data())
def test_multiply_pass_matches_the_full_product_loop(scale, data):
    start = data.draw(kernel_operand(scale))
    factors = data.draw(st.lists(scaled_factor(scale), max_size=5))
    want = start
    for f in factors:  # the loop body of the old qpochhammer
        want = want * (QSeries.one(scale) - QSeries.from_mono(f, scale))
    _same(_by_binomials(start, factors), want)


@settings(max_examples=120, deadline=None)
@given(scales, st.data())
def test_divide_pass_matches_invert_then_multiply(scale, data):
    num = data.draw(kernel_operand(scale))
    if data.draw(st.booleans()):
        num = QSeries(num.terms, scale)  # the exact numerator of the Bailey call sites
    nonzero_q = scaled_factor(scale).filter(lambda f: f.q_exp != 0)
    factors = data.draw(st.lists(nonzero_q, min_size=1, max_size=4))
    window = data.draw(st.integers(-scale, 4 * scale))
    den = _product(factors, scale)
    v = int(min(0, num._valuation()))
    want = (num * invert(den, window - v)).with_trunc(window)
    _same(_by_binomials(num, over=factors, trunc=window), want)


def test_dividing_an_exact_series_needs_a_window():
    with pytest.raises(WindowError):
        _by_binomials(QSeries({0: 1, 1: 2}), over=[Mono(1, 0, 1)])
    zero = _by_binomials(QSeries.zero(), over=[Mono(1, 0, 1)])
    assert zero.is_exact() and not zero.terms


def test_division_by_a_non_unit_factor_names_it():
    one = QSeries.one(1, 10)
    with pytest.raises(ZeroDivisionError, match=r"zero factor \(1 - Mono\(coeff=1, x_exp=0, q_exp=0\)\)"):
        _by_binomials(one, over=[Mono(1, 0, 2), Mono(1, 0, 0)])
    with pytest.raises(ExactnessError, match="not a single monomial in x"):
        _by_binomials(one, over=[Mono(1, 1, 0)])
    halved = _by_binomials(one, over=[Mono(3, 0, 0)])  # (1 - 3) is a unit
    assert coeffs_of(halved) == {0: {0: Fraction(-1, 2)}}


# (bound, window, dims, origin): each bound keeps the walker's contract
_LATTICE_CASES = [
    (lambda n: 3 * n + 1, 20, 1, 0),  # increasing
    (lambda n: (n - 5) ** 2 - 10, 0, 1, 0),  # below the window from n = 2 to 8
    (lambda n: (n - 3) ** 2 - 1, 0, 1, 0),  # starts above the window, dips below at n = 3 only
    (lambda n: n * n + 4 * n, 1, 1, -1),  # the region n < 0: falls to n = -2, then rises
    (lambda r, n: (r - 4) ** 2 + n * (n + 1) + 2 * n * r - 12, 0, 2, 0),
    (lambda a, b, c: (a + 3) ** 2 + b * b + c * c - a + a * b - 2 * c, 20, 3, -1),
]


@pytest.mark.parametrize(
    "bound, window, dims, origin", _LATTICE_CASES,
    ids=["increasing", "falls-then-rises", "dips-from-above", "origin-minus-one", "2d", "3d"],
)
def test_lattice_yields_exactly_the_terms_below_the_window(bound, window, dims, origin):
    step = 1 if origin == 0 else -1
    box = itertools.product(range(origin, origin + 20 * step, step), repeat=dims)
    brute = {idx: bound(*idx) for idx in box if bound(*idx) < window}
    walked = list(_lattice(bound, window, dims, origin))
    assert dict(walked) == brute and len(walked) == len(brute)
    assert list(_lattice(bound, window, dims, origin, pad=3)) == walked


def test_lattice_stops_where_the_bound_rises_past_the_window():
    assert [n for (n,), _ in _lattice(lambda n: (n - 5) ** 2 - 10, 0)] == list(range(2, 9))
    assert [n for (n,), _ in _lattice(lambda n: (n - 3) ** 2 - 1, 0)] == [3]
    seen = []
    assert not list(_lattice(lambda n: seen.append(n) or n + 5, 3))
    assert seen == [0, 1]  # at the origin the next value decides the stop
    seen.clear()
    assert len(list(_lattice(lambda n: seen.append(n) or 3 * n, 7))) == 3
    assert seen == [0, 1, 2, 3]  # an increasing bound is read once per value, up to its stop


def test_lattice_walk_that_never_stops_is_refused():
    with pytest.raises(RuntimeError, match="ran away"):
        list(_lattice(lambda n: 0, 1))


def _normal_rows(s: QSeries) -> bool:
    """No zero coefficient, no empty row and no row at or above the window."""
    below = s.trunc is None or all(e < s.trunc for e in s.terms)
    return below and all(c.coeffs and all(c.coeffs.values()) for c in s.terms.values())


factors = st.lists(
    st.builds(Mono, st.sampled_from([1, -1, 2]), st.integers(-1, 1), st.integers(-3, 4)), max_size=3
)


@settings(max_examples=60, deadline=None)
@given(kernel_pairs, small_qseries, factors, factors, st.one_of(st.none(), st.integers(-2, 12)))
def test_products_and_passes_wrap_only_normal_rows(pair, s, times, over, trunc):
    a, b = pair
    for x, y in ((a, b), (a, a), (b, b)):
        assert _normal_rows(x * y)
        with mock.patch("qknot.laurent._packed_product", return_value=None):
            assert _normal_rows(x * y)
    try:
        out = _by_binomials(s, times, over, trunc)
    except (ArithmeticError, ValueError):  # a zero or non-unit factor, or an exact dividend
        return
    assert _normal_rows(out)


def test_a_cancelled_row_is_not_wrapped():
    # (1 - q)(1 + q) = 1 - q^2: the q^1 row cancels in the product and in the pass
    one_minus_q = QSeries({0: 1, 1: -1})
    product = one_minus_q * QSeries({0: 1, 1: 1}, trunc=5)
    for out in (product, _by_binomials(one_minus_q, [Mono(-1, 0, 1)])):
        assert _normal_rows(out) and sorted(out.terms) == [0, 2]

