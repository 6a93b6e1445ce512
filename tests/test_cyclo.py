"""Cyclotomic-field layer: evaluation, ring operations, the reduction mod Phi_M."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qknot import cyclo
from qknot.cyclo import CycloNum, cyclo_eval
from qknot.laurent import XLaurent, _norm, cyclotomic_polynomial
from qknot.serialize import cyclo_to_json_dict
from qknot.series import QSeries

from kernel_oracles import cyclo_add, cyclo_mul, cyclo_neg, cyclo_sub


def test_eval_hand_values():
    assert cyclo_eval(XLaurent({0: 1, 1: 1}), 2, 1) == 0
    assert cyclo_eval(XLaurent({2: 1}), 4, 1) == -1
    assert cyclo_eval(XLaurent({0: 1, 1: 1, 2: 1}), 3, 1) == 0


def test_eval_negative_exponents_and_inverse_root():
    p = XLaurent({-1: 1})
    assert cyclo_eval(p, 4, 1) == CycloNum.zeta(4, -1)
    assert cyclo_eval(XLaurent({1: 1}), 4, -1) == CycloNum.zeta(4, 3)


def test_eval_rejects_truncated_series():
    s = QSeries({0: 1, 1: 1}, trunc=5)
    with pytest.raises(Exception):
        cyclo_eval(s, 3, 1)


def test_eval_accepts_exact_integral_series():
    s = QSeries({0: 1, 2: 3}, scale=2)
    assert cyclo_eval(s, 5, 1) == cyclo_add(CycloNum.from_rational(5, 1), CycloNum.zeta(5, 1) * 3)


def test_order_one_and_two_fields():
    assert CycloNum.zeta(1, 7) == 1
    assert CycloNum.zeta(2, 1) == -1
    assert cyclo_eval(XLaurent({3: 5}), 1, 1) == 5


def test_a_field_keeps_no_table_of_zeta_powers():
    # a table of every power of zeta held about 1.2 MB at the Bernoulli orders 448 and 480
    for order in (448, 480):
        cyclotomic_polynomial(order)
    tracemalloc.start()
    try:
        kept = [cyclo._context.__wrapped__(order) for order in (448, 480)]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [deg for deg, _, _ in kept] == [192, 128]
    assert size < 64 * 1024, size


polys = st.dictionaries(st.integers(-8, 8), st.integers(-4, 4), max_size=5).map(XLaurent)


@settings(max_examples=40, deadline=None)
@given(polys, polys, st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]), st.integers(-3, 3))
def test_eval_is_ring_homomorphism(p, r, order, k):
    ep, er = cyclo_eval(p, order, k), cyclo_eval(r, order, k)
    assert cyclo_eval(p * r, order, k) == cyclo_mul(ep, er)
    assert cyclo_eval(p + r, order, k) == cyclo_add(ep, er)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12]), st.integers(0, 20), st.integers(0, 20))
def test_zeta_power_arithmetic(order, i, j):
    product = cyclo_mul(CycloNum.zeta(order, i), CycloNum.zeta(order, j))
    assert product == CycloNum.zeta(order, i + j)


def test_rational_scalar_mixing():
    z = CycloNum.zeta(8, 1)
    assert cyclo_add(z * Fraction(1, 2), z * Fraction(1, 2)) == z
    assert cyclo_sub(z, z) == 0
    assert (z * 0).is_zero()
    with pytest.raises(TypeError):  # the library scales by rationals only
        z * z


def test_norm_keeps_ints_and_lowers_integral_fractions():
    big = 10**40 + 7
    assert _norm(big) is big
    two = _norm(Fraction(6, 3))
    assert two == 2 and type(two) is int
    half = _norm(Fraction(1, 2))
    assert half == Fraction(1, 2) and type(half) is Fraction
    ints = [3, -1, 0, 10**30, 5, -2]
    from_ints = CycloNum(7, ints)
    from_fractions = CycloNum(7, [Fraction(k, 1) for k in ints])
    assert from_fractions == from_ints
    assert all(type(c) is int for c in from_fractions.coeffs)
    assert cyclo_to_json_dict(from_fractions) == cyclo_to_json_dict(from_ints)
    # field operations normalize their results the same way
    z = CycloNum.zeta(12, 5)
    for value in (cyclo_add(z, z), cyclo_neg(z), cyclo_mul(z, z), z * 3, cyclo_sub(z, 2), CycloNum.zeta(12, 7)):
        assert all(type(c) is int for c in value.coeffs)
    half = z * Fraction(1, 2)
    assert Fraction(1, 2) in half.coeffs
    for value in (cyclo_add(half, half), half * 2, cyclo_mul(z * Fraction(2, 3), z * Fraction(3, 2))):
        assert all(type(c) is int for c in value.coeffs), value


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5, 7, 8, 9, 12, 15, 30, 36]),
    st.lists(st.integers(-9, 9), min_size=24, max_size=24),
    st.integers(-80, 80),
)
def test_times_zeta_is_the_field_product(order, coeffs, k):
    deg, _, _ = cyclo._context(order)
    vec = coeffs[:deg]
    product = cyclo_mul(CycloNum(order, vec), CycloNum.zeta(order, k))
    assert cyclo._times_zeta(vec, k, order) == list(product.coeffs)


# -- cross-checks against sympy, when it is installed ------------------------


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for order in range(1, 151):
        ours = cyclotomic_polynomial(order).coeffs
        theirs = sympy.Poly(sympy.cyclotomic_poly(order, x), x).as_dict()
        assert ours == {e: int(c) for (e,), c in theirs.items()}, order


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 9, 12, 15, 16, 21, 30, 36, 45, 120, 448, 480]),
    st.lists(st.integers(-20, 20), min_size=192, max_size=192),
    st.lists(st.integers(-20, 20), min_size=192, max_size=192),
)
def test_products_match_sympy_remainders(order, a, b):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    deg, _, _ = cyclo._context(order)
    a, b = a[:deg], b[:deg]
    poly = lambda vec: sympy.Poly(vec[::-1], x, domain="ZZ")
    rem = (poly(a) * poly(b)).rem(sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="ZZ"))
    expected = [0] * deg
    for (e,), c in rem.as_dict().items():
        expected[e] = int(c)
    assert list(cyclo_mul(CycloNum(order, a), CycloNum(order, b)).coeffs) == expected


def test_c_n_is_the_largest_reduced_power_coefficient():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.densearith import dup_rem

    x, zz = sympy.Symbol("x"), sympy.ZZ
    for order in (1, 2, 6, 12, 15, 24, 30, 36, 48, 72, 96, 105, 120, 448, 480):
        phi = [zz(int(c)) for c in sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()]
        largest = max(
            max(map(abs, dup_rem([zz(1)] + [zz(0)] * j, phi, zz))) for j in range(order)
        )
        assert cyclo._c_n(order) == largest, order
    # the Pascal rows of orders 448 and 480 take seconds, so only small tables are built here
    assert cyclo._root_tables.__wrapped__(105)[4] == cyclo._c_n(105) == 2
