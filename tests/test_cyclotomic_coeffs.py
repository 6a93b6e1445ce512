"""Cyclotomic expansion coefficients: both routes, boundary conventions."""

import pytest

from qknot.cyclotomic_coeffs import c_multisum, c_product, c_series
from qknot.laurent import XLaurent

from kernel_oracles import has_integer_coeffs


def test_trefoil_family_is_pure_powers():
    for n in range(8):
        assert c_product(1, 1, n) == XLaurent({n: 1})
        assert c_multisum(1, 1, n) == XLaurent({n: 1})


def test_hand_anchors():
    assert c_product(2, 1, 0) == XLaurent({0: 1})
    assert c_product(2, 1, 1) == XLaurent({1: 1, 2: 1, 4: 1})
    assert c_multisum(2, 1, 1) == XLaurent({1: 1, 2: 1, 4: 1})
    # leading negative powers for the upper vector labels
    assert c_product(2, 2, 0) == XLaurent({-1: 1, 0: 1})
    assert c_product(3, 3, 0) == XLaurent({-2: 1, -1: 1, 0: 1})


def test_multisum_matches_product_small_grid():
    for t in range(1, 4):
        for m in range(1, t + 1):
            for n in range(0, 7):
                assert c_multisum(t, m, n) == c_product(t, m, n), (t, m, n)


def test_every_coefficient_is_integer_laurent():
    for t in range(1, 4):
        for m in range(1, t + 1):
            for n in range(0, 7):
                assert has_integer_coeffs(c_product(t, m, n))
                assert has_integer_coeffs(c_multisum(t, m, n))


def test_truncated_route_agrees_below_window():
    for t, m, n in [(2, 1, 4), (3, 2, 5), (3, 3, 2)]:
        full = c_product(t, m, n)
        part = c_series(t, m, n, 6)[n]
        assert part.coeffs == {e: c for e, c in full.coeffs.items() if e < 6}, (t, m, n)


def test_negative_index_is_zero():
    assert c_product(2, 1, -1).is_zero()
    assert c_multisum(2, 1, -1).is_zero()


def test_validation():
    with pytest.raises(ValueError):
        c_product(0, 1, 1)
    with pytest.raises(ValueError):
        c_product(2, 3, 1)
    with pytest.raises(ValueError):
        c_multisum(2, 0, 1)
