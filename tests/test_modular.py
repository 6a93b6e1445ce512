"""Periodic character, theta series, and the Bernoulli limit formula."""

from fractions import Fraction

import pytest

from qknot.cyclo import CycloNum, cyclo_eval
from qknot.jones import jones_hyper, jones_left
from qknot.laurent import XLaurent
from qknot.modular import bernoulli_lhs, bernoulli_rhs, chi_periodic, theta_phi
from qknot.series import first_difference
from qknot.useries import eval_f_at_root

from kernel_oracles import cyclo_add


def test_chi_hand_values():
    assert chi_periodic(1, 1, 1) == 1
    assert chi_periodic(1, 1, 5) == -1
    assert chi_periodic(1, 1, 2) == 0
    assert chi_periodic(1, 1, 7) == -1
    assert chi_periodic(1, 1, 11) == 1


def test_chi_periodicity_and_antiperiod():
    for t, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        period = 8 * t + 4
        for k in range(-10, 40):
            assert chi_periodic(t, m, k) == chi_periodic(t, m, k + period)
            assert chi_periodic(t, m, k - 2 * (2 * t + 1)) == -chi_periodic(t, m, k)


def test_chi_is_even_and_supported_off_even_integers():
    for t, m in [(1, 1), (3, 1), (3, 3)]:
        for k in range(0, 30):
            assert chi_periodic(t, m, k) == chi_periodic(t, m, -k)
            if k % 2 == 0:
                assert chi_periodic(t, m, k) == 0


def test_theta_leading_terms():
    s = theta_phi(1, 1, 30)
    assert s.scale == 24
    assert s.terms[1] == XLaurent({0: 1})      # q^(1/24)
    assert s.terms[25] == XLaurent({0: -1})    # -q^(25/24)
    assert set(s.terms) == {1, 25}


def test_theta_sum_equals_product():
    for t, m in [(1, 1), (2, 1), (2, 2)]:
        scale = 8 * (2 * t + 1)
        d = first_difference(
            theta_phi(t, m, 600),
            theta_phi(t, m, 600, product_side=True),
            through=Fraction(600, scale),
        )
        assert d is None, (t, m, d)


def test_theta_sides_carry_the_same_window():
    # windows at and below the lead exponent (2t+1-2m)^2 included: there the
    # product side is a windowed zero, like the sum side
    for t, m in [(1, 1), (2, 1), (3, 1), (3, 2)]:
        for trunc in (1, 2, 9, 25, 26, 100):
            sums = theta_phi(t, m, trunc)
            prods = theta_phi(t, m, trunc, product_side=True)
            assert (prods.scale, prods.trunc) == (sums.scale, trunc)
            assert prods == sums, (t, m, trunc)


def test_bernoulli_rhs_anchor_is_one():
    assert bernoulli_rhs(1, 1, 1) == 1
    assert bernoulli_lhs(1, 1, 1) == 1


def test_bernoulli_identity_grid():
    for t in range(1, 3):
        for m in range(1, t + 1):
            for n_root in range(1, 4):
                assert bernoulli_lhs(t, m, n_root) == bernoulli_rhs(t, m, n_root), (t, m, n_root)


def test_bernoulli_rhs_lives_in_subfield():
    # every exponent used is a multiple of 8(2t+1), so the value is fixed
    # by the automorphisms that fix zeta_N; spot-check via direct recompute
    t = m = 1
    n_root = 2
    span = 8 * (2 * t + 1)
    order = span * n_root
    direct = CycloNum.zero(order)
    for k in range(1, 4 * (2 * t + 1) * n_root + 1):
        ch = chi_periodic(t, m, k)
        if not ch:
            continue
        e = (k * k - 1) // span
        direct = cyclo_add(direct, CycloNum.zeta(order, e * span) * (
            Fraction(ch) * (Fraction(k, 4 * (2 * t + 1) * n_root) ** 2
                            - Fraction(k, 4 * (2 * t + 1) * n_root) + Fraction(1, 6))
        ))
    assert bernoulli_rhs(t, m, n_root) == direct * ((2 * t + 1) * n_root)


def test_jones_f_agreement_both_orientations():
    for t in range(1, 4):
        for n_root in range(1, 7):
            left = cyclo_eval(jones_hyper(t, n_root), n_root, 1)
            assert left == eval_f_at_root(t, 1, n_root), ("right-handed", t, n_root)
    for t, m in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        for n_root in range(1, 7):
            left = cyclo_eval(jones_left(t, m, n_root), n_root, 1)
            assert left == eval_f_at_root(t, m, n_root, inverse=True), (t, m, n_root)


def test_validation():
    with pytest.raises(ValueError):
        chi_periodic(2, 3, 1)
    with pytest.raises(ValueError):
        theta_phi(1, 1, 0)
    with pytest.raises(ValueError):
        bernoulli_rhs(1, 1, 0)
