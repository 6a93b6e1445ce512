"""Colored Jones polynomials: three routes, mirror symmetry, Habiro transform."""

import pytest

from qknot import laurent
from qknot.cyclotomic_coeffs import c_product, c_products
from qknot.jones import (
    habiro_inverse,
    habiro_inverses,
    habiro_reconstruct,
    jones_hyper,
    jones_left,
    jones_morton,
    mirror,
)
from qknot.laurent import ExactnessError, XLaurent

from kernel_oracles import poch_q


def test_unknot_normalization():
    assert jones_morton(2, 3, 1) == XLaurent({0: 1})
    assert jones_hyper(1, 1) == XLaurent({0: 1})
    assert jones_left(1, 1, 1) == XLaurent({0: 1})


def test_trefoil_color_two():
    expect = XLaurent({-1: 1, -3: 1, -4: -1})
    assert jones_morton(2, 3, 2) == expect
    assert jones_hyper(1, 2) == expect
    assert jones_left(1, 1, 2) == expect.mirror()


def _right_trefoil_oracle(n_color):
    # terminating single-sum form of the right-handed trefoil invariant
    total = XLaurent()
    for n in range(n_color):
        total = total + poch_q(1 - n_color, n).shift(-n * n_color)
    return total.shift(1 - n_color)


def test_morton_against_trefoil_oracle():
    for n_color in range(1, 9):
        assert jones_morton(2, 3, n_color) == _right_trefoil_oracle(n_color)


def test_morton_rejects_non_coprime():
    with pytest.raises(ValueError):
        jones_morton(2, 4, 3)


def test_hyper_equals_morton():
    for t in range(1, 4):
        for n_color in range(1, 7):
            assert jones_hyper(t, n_color) == jones_morton(2, 2 * t + 1, n_color)


def test_mirror_of_morton_is_left_handed():
    for t in range(1, 4):
        for n_color in range(1, 7):
            assert mirror(jones_morton(2, 2 * t + 1, n_color)) == jones_left(t, 1, n_color)


def test_mirror_of_five_torus_knot():
    assert mirror(jones_morton(2, 5, 2)) == jones_left(2, 1, 2)


def test_mirror_involution():
    p = XLaurent({-2: 1, 0: 3, 5: -4})
    assert mirror(mirror(p)) == p


def test_reconstruct_trefoil():
    assert habiro_reconstruct(lambda n: XLaurent({n: 1}), 2) == XLaurent({1: 1, 3: 1, 4: -1})


def test_reconstruct_color_one_gives_constant_term():
    coeffs = lambda n: c_product(2, 2, n)
    assert habiro_reconstruct(coeffs, 1) == c_product(2, 2, 0)


def test_reconstruct_accepts_sequences():
    values = [c_product(2, 1, n) for n in range(4)]
    assert habiro_reconstruct(values, 4) == jones_left(2, 1, 4)


def test_inverse_recovers_coefficients():
    for t, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        family = lambda l: jones_left(t, m, l)
        for n in range(0, 6):
            assert habiro_inverse(family, n) == c_product(t, m, n), (t, m, n)


def test_inverse_of_unknot_is_delta():
    one = lambda l: XLaurent({0: 1})
    assert habiro_inverse(one, 0) == XLaurent({0: 1})
    for n in range(1, 5):
        assert habiro_inverse(one, n).is_zero()


def test_roundtrip_both_ways():
    for t, m in [(2, 1), (3, 3)]:
        coeffs = lambda n: c_product(t, m, n)
        for n_color in range(1, 7):
            assert habiro_reconstruct(coeffs, n_color) == jones_left(t, m, n_color)


def test_inexact_division_raises():
    # a family that is not a genuine sequence of colored invariants
    broken = lambda l: XLaurent({0: 1, 1: 1}) if l == 1 else jones_left(1, 1, l)
    with pytest.raises(ExactnessError):
        habiro_inverse(broken, 2)


def _habiro_inputs(t: int, m: int, order: int):
    colour = {ell: jones_left(t, m, ell) for ell in range(1, order + 2)}.__getitem__
    return colour, c_products(t, m, order)


def test_habiro_routes_read_back_each_result_once(monkeypatch):
    colour, coeffs = _habiro_inputs(2, 1, 8)
    reads, read_back = [], laurent._read_back
    monkeypatch.setattr(laurent, "_read_back", lambda *args: reads.append(args) or read_back(*args))
    monkeypatch.setattr(laurent, "_product", lambda *args: pytest.fail("an XLaurent product"))
    assert habiro_inverses(colour, 8) == coeffs
    assert len(reads) == 9
    assert habiro_reconstruct(coeffs, 9) == colour(9)
    assert len(reads) == 10


def test_a_habiro_slot_one_width_below_the_bound_raises(monkeypatch):
    colour, coeffs = _habiro_inputs(2, 1, 14)
    assert habiro_inverses(colour, 14) == coeffs
    assert habiro_reconstruct(coeffs, 15) == colour(15)
    width, widths = laurent._width, []
    monkeypatch.setattr(laurent, "_width", lambda bound: widths.append(width(bound)) or width(bound) - 32)
    with pytest.raises(ExactnessError):
        habiro_inverses(colour, 14)
    with pytest.raises(ExactnessError):
        habiro_reconstruct(coeffs, 15)
    assert len(widths) == 2 and min(widths) > 32  # each narrowed slot still has room
