"""U-series and F-values: printed expansions, duality, direct-sum oracles."""

import pytest

from qknot.cyclo import CycloNum
from qknot.laurent import XLaurent
from qknot.series import Mono, QSeries, first_difference, qpochhammer
from qknot.useries import eval_f_at_root, u_eval_at_root, u_series

from kernel_oracles import cyclo_add, swap_x


def xs(series, e):
    return dict(series.terms.get(e, XLaurent()).coeffs)


def test_u21_printed_expansion():
    s = u_series(2, 1, 5)
    assert xs(s, 0) == {0: 1}
    assert xs(s, 1) == {0: 1}
    assert xs(s, 2) == {-1: 1, 0: 2, 1: 1}
    assert xs(s, 3) == {-1: 2, 0: 3, 1: 2}
    assert xs(s, 4) == {-1: 3, 0: 6, 1: 3}


def test_u22_printed_expansion():
    s = u_series(2, 2, 3)
    assert xs(s, -1) == {0: 1}
    assert xs(s, 0) == {0: 2}
    assert xs(s, 1) == {-1: 1, 0: 2, 1: 1}
    assert xs(s, 2) == {-1: 2, 0: 4, 1: 2}


def test_u33_printed_expansion():
    s = u_series(3, 3, 1)
    assert xs(s, -2) == {0: 1}
    assert xs(s, -1) == {0: 2}
    assert xs(s, 0) == {-1: 1, 0: 3, 1: 1}


def _u1_direct(window):
    # independent route for t = 1: sum_n q^n (-xq)_n (-1/x q)_n
    total = QSeries.zero(1, window)
    for n in range(window + 1):
        term = qpochhammer(Mono(-1, 1, 1), n, trunc=window) * qpochhammer(
            Mono(-1, -1, 1), n, trunc=window
        )
        total = total + term.mul_mono(Mono(1, 0, n))
    return total


def test_u1_against_direct_sum():
    assert first_difference(u_series(1, 1, 15), _u1_direct(15), through=15) is None


def test_u_coefficients_symmetric_under_x_inversion():
    for t, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        s = u_series(t, m, 12)
        assert first_difference(s, swap_x(s), through=12) is None


def test_window_semantics():
    s = u_series(2, 1, 5)
    assert s.trunc == 5
    with pytest.raises(Exception):
        first_difference(s, s, through=7)


def test_f_values_at_small_roots():
    assert eval_f_at_root(1, 1, 1) == 1
    assert eval_f_at_root(1, 1, 2, inverse=True) == -3
    # F at +zeta_2: F(q) = 1 + (1-q) + 0 + ... -> 1 + 2 = 3, prefactor -1
    assert eval_f_at_root(1, 1, 2) == -3


def test_u_values_at_small_roots():
    assert u_eval_at_root(1, 1, 1) == 1
    assert u_eval_at_root(1, 1, 2) == -3


def test_duality_examples():
    assert eval_f_at_root(1, 1, 5, inverse=True) == u_eval_at_root(1, 1, 5)
    assert eval_f_at_root(2, 2, 3, inverse=True) == u_eval_at_root(2, 2, 3)
    assert eval_f_at_root(3, 2, 7, inverse=True) == u_eval_at_root(3, 2, 7)


def test_duality_small_grid():
    for t in range(1, 4):
        for m in range(1, t + 1):
            for n_root in range(1, 7):
                lhs = eval_f_at_root(t, m, n_root, inverse=True)
                rhs = u_eval_at_root(t, m, n_root)
                assert lhs == rhs, (t, m, n_root)


def test_f_value_is_conjugate_under_root_inversion():
    value = eval_f_at_root(2, 1, 5)
    conj = eval_f_at_root(2, 1, 5, inverse=True)
    # the zeta -> zeta^-1 automorphism must map one value to the other
    mapped = CycloNum.zero(5)
    for i, c in enumerate(value.coeffs):
        mapped = cyclo_add(mapped, CycloNum.zeta(5, -i) * c)
    assert mapped == conj


def test_validation():
    with pytest.raises(ValueError):
        u_series(2, 3, 5)
    with pytest.raises(ValueError):
        eval_f_at_root(1, 1, 0)
    with pytest.raises(ValueError):
        u_series(1, 1, 0)
