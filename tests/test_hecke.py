"""Indefinite-theta expansions against the nested-sum route, the pass-based
route they replaced, and the product identities they rest on."""

import pytest

import qknot.hecke as hecke
from qknot.hecke import _triple_sum, hecke_u1_double, hecke_u_series, hecke_u_series_x
from qknot.jones import jones_left
from qknot.laurent import ExactnessError, XLaurent, _width
from qknot.series import Mono, QSeries, first_difference, qpochhammer
from qknot.useries import u_series

from kernel_oracles import invert, pass_hecke_u1_double, pass_hecke_u_series, triple_sum_series


def test_lowest_coefficients_t1():
    got = hecke_u_series_x(1, 1, 3)
    assert got.terms[0] == XLaurent({0: 1})
    assert got.terms[1] == XLaurent({0: 1})


def test_appendix_anchor_t2():
    got = hecke_u_series_x(2, 1, 3)
    assert got.terms[2] == XLaurent({-1: 1, 0: 2, 1: 1})


def test_matches_nested_route():
    for t, w in [(1, 16), (2, 16), (3, 16), (1, 40), (2, 40), (3, 40), (4, 40)]:
        for m in range(1, t + 1):
            d = first_difference(hecke_u_series_x(t, m, w), u_series(t, m, w), through=w)
            assert d is None, (t, m, w, d)


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
    smart = triple_sum_series(t, m, window)
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
    cols = _triple_sum(3, 2, 10)
    assert cols
    # columns {u: {e: c}} with no cancelled entry and no empty column
    assert all(col and all(col.values()) for col in cols.values())
    assert all(isinstance(e, int) for col in cols.values() for e in col)


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
    core = triple_sum_series(t, m, w)
    assert first_difference(-(pref * core), full, through=w) is None


# -- the triple-product route against the pass-based route it replaced ----------

_TM = [(t, m) for t in range(1, 5) for m in range(1, t + 1)]


@pytest.mark.parametrize("t,m", _TM)
def test_series_match_the_pass_route(t, m):
    for w in [*range(1, 31), 45, 60]:
        for pad in (0, 3):
            want = pass_hecke_u_series(t, m, w, pad)
            assert hecke_u_series(t, m, w, pad) == want, (w, pad)
            assert hecke_u_series_x(t, m, w, pad) == want.negate_x(), (w, pad)


def test_series_match_the_pass_route_at_a_wide_window():
    want = pass_hecke_u_series(3, 1, 150)
    assert want.trunc == 150 and want.terms
    assert hecke_u_series(3, 1, 150) == want


def test_double_sum_matches_the_pass_route():
    for w in range(1, 81):
        for pad in (0, 3):
            assert hecke_u1_double(w, pad) == pass_hecke_u1_double(w, pad), (w, pad)


def test_a_slot_one_width_below_the_bound_raises(monkeypatch):
    assert hecke_u_series(2, 1, 80) == pass_hecke_u_series(2, 1, 80)
    monkeypatch.setattr(hecke, "_width", lambda bound: _width(bound) - 32)
    with pytest.raises(ExactnessError):
        hecke_u_series(2, 1, 80)


def test_hecke_routes_make_only_one_row_products(monkeypatch):
    seen = []

    def one_row(a, b, limit=None):
        seen.append((len(a), len(b)))
        return product(a, b, limit)

    def no_series_product(self, other):
        raise AssertionError("a series product")

    product = hecke._product
    monkeypatch.setattr(hecke, "_product", one_row)
    monkeypatch.setattr(QSeries, "__mul__", no_series_product)
    hecke_u1_double(40)
    hecke_u_series(2, 1, 40)
    assert seen and set(seen) == {(1, 1)}


# -- the identities, on series built from their definitions ---------------------


def _theta_r(window):
    """R(x) = sum_n (-1)^n q^(n(n+1)/2) (x^-n - x^(n+1)) below the window."""
    terms, n = {}, 0
    while n * (n + 1) // 2 < window:
        terms[n * (n + 1) // 2] = XLaurent({-n: (-1) ** n, n + 1: -((-1) ** n)})
        n += 1
    return QSeries(terms, 1, window)


def _sparse(terms, window):
    return QSeries({e: c for e, c in terms.items() if e < window}, 1, window)


def test_jacobi_triple_product():
    w = 40
    lhs = (
        QSeries({0: XLaurent({0: 1, 1: -1})})
        * qpochhammer(Mono(1, 1, 1), None, trunc=w)
        * qpochhammer(Mono(1, -1, 1), None, trunc=w)
        * qpochhammer(Mono(1, 0, 1), None, trunc=w)
    )
    assert lhs.trunc == w
    assert lhs == _theta_r(w)


def test_jacobi_cube_and_euler_pentagonal():
    poch = qpochhammer(Mono(1, 0, 1), None, trunc=200)
    jacobi = {n * (n + 1) // 2: (-1) ** n * (2 * n + 1) for n in range(20)}
    euler = {k * (3 * k - 1) // 2: (-1) ** k for k in range(-12, 13)}
    assert poch**3 == _sparse(jacobi, 200)
    assert poch == _sparse(euler, 200)
    # every window up to 200: each triangular and pentagonal number is a stop
    # of the lattice walk, and the x-row sweep counts the keys of the cube
    for w in range(1, 201):
        cube = hecke._jacobi_cube(w)
        assert cube == {e: c for e, c in jacobi.items() if e < w}, w
        assert hecke._euler(w) == {e: c for e, c in euler.items() if e < w}, w
        assert len(cube) == sum(n * (n + 1) // 2 < w for n in range(20)), w
        assert list(cube) == sorted(cube), w


@pytest.mark.parametrize("route", [hecke_u_series, hecke_u_series_x, jones_left])
def test_the_tm_rule_is_the_shared_one(route):
    for t in range(-1, 4):
        for m in range(-1, 5):
            if t >= 1 and 1 <= m <= t:
                route(t, m, 2)
            else:
                with pytest.raises(ValueError, match=f"got m={m}, t={t}|t must be"):
                    route(t, m, 2)


@pytest.mark.parametrize("series", [hecke._jacobi_cube, hecke._euler])
def test_reciprocal_times_its_input_is_one(series):
    for w in (1, 2, 7, 60, 200):
        f = series(w)
        a = hecke._reciprocal(f, w)
        assert len(a) == w
        prod = [sum(c * a[e - g] for g, c in f.items() if g <= e) for e in range(w)]
        assert prod == [1] + [0] * (w - 1)
