"""Truncated-series layer: windows, inversion, Pochhammer products."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknot.laurent import XLaurent, _packed_product
from qknot.series import Mono, QSeries, WindowError, first_difference, qpochhammer


def coeffs_of(s):
    return {e: dict(c.coeffs) for e, c in s.terms.items()}


def test_infinite_pochhammer_pentagonal_pattern():
    s = qpochhammer(Mono(1, 0, 1), None, trunc=11)
    assert coeffs_of(s) == {0: {0: 1}, 1: {0: -1}, 2: {0: -1}, 5: {0: 1}, 7: {0: 1}}


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
    inv = qpochhammer(Mono(1, 0, 1), None, trunc=window).invert(window)
    expected = _partition_counts(30)
    for e in range(31):
        assert inv.terms.get(e, XLaurent()).coeff(0) == expected[e]


def test_geometric_inversions():
    g = QSeries({0: 1, 1: -1}).invert(6)
    assert coeffs_of(g) == {e: {0: 1} for e in range(6)}
    gx = (QSeries.one() - QSeries.monomial(1, 1, 1)).invert(4)
    assert coeffs_of(gx) == {e: {e: 1} for e in range(4)}


def test_invert_rejects_non_monomial_lowest_term():
    s = QSeries({0: XLaurent({0: 1, 1: -1})})
    with pytest.raises(Exception):
        s.invert(5)


def test_invert_needs_window_for_exact_input():
    s = QSeries({0: 1, 1: -1})
    with pytest.raises(WindowError):
        s.invert()


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


def test_rescale_and_reduce_roundtrip():
    s = QSeries({3: 1, 11: XLaurent({1: -2})}, scale=4, trunc=16)
    up = s.rescale(8)
    assert up.scale == 8 and up.trunc == 32 and 22 in up.terms
    assert up.reduce_scale() == s.reduce_scale()
    integral = QSeries({8: 5, 16: 7}, scale=8, trunc=24)
    red = integral.reduce_scale()
    assert red.scale == 1 and red.trunc == 3 and red.terms[1] == XLaurent({0: 5})


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
    assert s.swap_x().terms[1] == s.terms[1]
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
    inv = s.invert(12)
    prod = s * inv
    one = QSeries.one(1, prod.trunc)
    assert first_difference(prod, one) is None


@st.composite
def kernel_operand(draw, scale):
    """A series whose shape varies across the packed kernel's crossovers:
    term count, slot density, stride, coefficient width and window."""
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


@settings(max_examples=150, deadline=None)
@given(kernel_pairs)
def test_packed_product_matches_schoolbook(pair):
    a, b = pair
    for x, y in ((a, b), (a, a), (b, b)):
        packed = x * y
        with mock.patch("qknot.series._packed_product", return_value=None):
            school = x * y
        assert (packed.scale, packed.trunc) == (school.scale, school.trunc)
        assert coeffs_of(packed) == coeffs_of(school)


def test_packed_path_runs_on_dense_integer_products():
    # q-exponents strided by 5: packed only if the stride is divided out
    dense = QSeries({5 * e: XLaurent({d: e - d - 5 for d in range(-2, 2)}) for e in range(10)}, 5)
    wide = dense.mul_mono(Mono(1 << 100, 1, 0))
    for a, b in ((dense, dense), (dense, wide)):
        rows = _packed_product(
            {e: c.coeffs for e, c in a.terms.items()}, {e: c.coeffs for e, c in b.terms.items()}
        )
        assert rows is not None
        assert coeffs_of(a * b) == rows
