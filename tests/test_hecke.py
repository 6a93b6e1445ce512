"""Indefinite-theta expansions against the nested-sum route."""

from qknot.hecke import _triple_sum, hecke_u1_double, hecke_u_series, hecke_u_series_x
from qknot.laurent import XLaurent
from qknot.series import Mono, QSeries, first_difference, qpochhammer
from qknot.useries import u_series

from kernel_oracles import invert


def test_lowest_coefficients_t1():
    got = hecke_u_series_x(1, 1, 3)
    assert got.terms[0] == XLaurent({0: 1})
    assert got.terms[1] == XLaurent({0: 1})


def test_appendix_anchor_t2():
    got = hecke_u_series_x(2, 1, 3)
    assert got.terms[2] == XLaurent({-1: 1, 0: 2, 1: 1})


def test_matches_nested_route():
    for t in range(1, 4):
        for m in range(1, t + 1):
            d = first_difference(hecke_u_series_x(t, m, 16), u_series(t, m, 16), through=16)
            assert d is None, (t, m, d)


def test_minus_x_route_is_flip():
    a = hecke_u_series(2, 2, 10)
    b = hecke_u_series_x(2, 2, 10).negate_x()
    assert first_difference(a, b, through=10) is None


def test_double_sum_order_zero():
    got = hecke_u1_double(8)
    assert got.terms[0] == XLaurent({0: 1, 1: -1})


def test_double_sum_matches_u1():
    w = 26
    lhs = hecke_u1_double(w)
    rhs = (QSeries({0: XLaurent({0: 1, 1: -1})})) * u_series(1, 1, w).negate_x()
    assert first_difference(lhs, rhs, through=w) is None


def test_double_sum_matches_triple_route():
    w = 15
    lhs = hecke_u1_double(w)
    rhs = (QSeries({0: XLaurent({0: 1, 1: -1})})) * hecke_u_series(1, 1, w)
    assert first_difference(lhs, rhs, through=w) is None


def test_double_sum_vanishes_at_x_one():
    s = hecke_u1_double(15).substitute_x(1)
    assert not s.terms


def test_enumeration_is_stable_under_padding():
    for t, m in [(1, 1), (2, 2), (3, 1)]:
        base = hecke_u_series(t, m, 14)
        padded = hecke_u_series(t, m, 14, pad=5)
        assert first_difference(base, padded, through=14) is None
    assert first_difference(hecke_u1_double(14), hecke_u1_double(14, pad=5), through=14) is None


def test_triple_sum_against_rectangle_bruteforce():
    t, m, window = 2, 1, 12
    smart = _triple_sum(t, m, window)
    acc: dict[int, dict[int, int]] = {}

    def exp8(r, s, u):
        return (r * r + 2 * (4 * t + 3) * r * s + s * s + 4 * (1 + m + t) * r
                + 4 * (1 - m + t) * s + 4 * u * (r + s + 1) + 3 - 4 * t - 4 * m)

    radius = 40
    for region in ("pos", "neg"):
        rng = range(0, radius) if region == "pos" else range(-radius, 0)
        for r in rng:
            for s in rng:
                if (r - s) % 2 == 0:
                    continue
                for u in rng:
                    e8 = exp8(r, s, u)
                    if e8 >= 8 * window:
                        continue
                    assert e8 % 8 == 0
                    sign = -1 if ((r - s - 1) // 2) % 2 else 1
                    acc.setdefault(e8 // 8, {}).setdefault(u, 0)
                    acc[e8 // 8][u] += sign
    brute = QSeries({e: XLaurent(xs) for e, xs in acc.items()}, 1, window)
    assert first_difference(smart, brute, through=window) is None


def test_all_exponents_integral_by_construction():
    # _triple_sum asserts residue-8 integrality for every term it keeps;
    # reaching here with a populated series is the point
    s = _triple_sum(3, 2, 10)
    assert s.terms
    assert all(isinstance(e, int) for e in s.terms)


def test_prefactor_normalization():
    # dividing the full series by the infinite products must recover the
    # bare triple sum (sanity on window propagation through inversion)
    t, m, w = 1, 1, 10
    full = hecke_u_series(t, m, w)
    pref = (
        qpochhammer(Mono(1, 1, 1), None, trunc=w)
        * qpochhammer(Mono(1, -1, 1), None, trunc=w)
        * invert(qpochhammer(Mono(1, 0, 1), None, trunc=w)) ** 2
    )
    core = _triple_sum(t, m, w)
    assert first_difference(-(pref * core), full, through=w) is None
