"""Hecke-type (indefinite theta) expansions of the U-series.

The triple sum runs over two lattice regions (all indices >= 0, all < 0)
restricted to r != s mod 2.  Its exponents live on one fixed residue class
mod 8, so after folding in the q^{-t/2-m/2+3/8} prefactor every term has an
integer exponent; this is asserted per term.  ``series._lattice`` walks every
region, here and in the double sum: each exponent strictly increases in each
index, which keeps its contract (tested on a rectangle and under padding).

The double-sum variant with 1/(1 - x q^{(r+s+1)/2}) denominators is not
implemented separately: expanding each denominator as a geometric series in
x yields exactly the u-indexed triple sum computed here, which keeps the
module free of rational-function arithmetic.
"""

from __future__ import annotations

from functools import partial

from .laurent import XLaurent
from .series import Mono, QSeries, _by_binomials, _lattice

__all__ = ["hecke_u1_double", "hecke_u_series", "hecke_u_series_x"]


def _exp8(t: int, m: int, r: int, s: int, u: int) -> int:
    """Scaled-by-8 exponent of a triple-sum term, prefactor included."""
    return (
        r * r
        + 2 * (4 * t + 3) * r * s
        + s * s
        + 4 * (1 + m + t) * r
        + 4 * (1 - m + t) * s
        + 4 * u * (r + s + 1)
        + 3
        - 4 * t
        - 4 * m
    )


def _triple_sum(t: int, m: int, window: int, pad: int = 0) -> QSeries:
    """The signed triple sum as a scale-1 series valid strictly below window."""
    acc: dict[int, dict[int, int]] = {}
    for origin in (0, -1):
        for (r, s, u), e8 in _lattice(partial(_exp8, t, m), 8 * window, 3, origin, pad):
            if (r - s) % 2 == 0:
                continue
            if e8 % 8:
                raise ArithmeticError(
                    f"non-integral exponent {e8}/8 at (r,s,u)=({r},{s},{u})"
                )
            sign = -1 if ((r - s - 1) // 2) % 2 else 1
            acc.setdefault(e8 // 8, {}).setdefault(u, 0)
            acc[e8 // 8][u] += sign

    return QSeries(
        {e: XLaurent(xs) for e, xs in acc.items()},
        1,
        window,
    )


def hecke_u_series(t: int, m: int, trunc: int, pad: int = 0) -> QSeries:
    """U_t^{(m)}(-x; q) from the indefinite-theta expansion, window trunc.

    The displayed global sign and prefactor are taken at face value; the
    series route through the cyclotomic coefficients is the cross-check.
    """
    if t < 1 or not 1 <= m <= t:
        raise ValueError("need 1 <= m <= t")
    if trunc < 1:
        raise ValueError("need a positive window")
    core = _triple_sum(t, m, trunc, pad)
    ks = range(1, trunc - int(min(0, core._valuation())))  # the factors reaching the window
    times = [Mono(1, 1, k) for k in ks] + [Mono(1, -1, k) for k in ks]
    return -_by_binomials(core, times, [Mono(1, 0, k) for k in ks] * 2)


def hecke_u_series_x(t: int, m: int, trunc: int, pad: int = 0) -> QSeries:
    """U_t^{(m)}(x; q) via the expansion: the x -> -x flip of hecke_u_series."""
    return hecke_u_series(t, m, trunc, pad).negate_x()


def _double_exp(n: int, r: int) -> int:
    return n * (3 * n + 5) // 2 + 2 * n * r + r * (r + 3) // 2


def hecke_u1_double(trunc: int, pad: int = 0) -> QSeries:
    """(1-x) U_1(-x;q) from the double-sum expansion, window trunc.

    Region n,r >= 0 enters positively with x^{-r}; region n,r < 0 is
    subtracted (and carries positive x-powers after the substitution).
    """
    if trunc < 1:
        raise ValueError("need a positive window")
    acc: dict[int, dict[int, int]] = {}
    for origin, outer_sign in ((0, 1), (-1, -1)):
        for (n, r), e in _lattice(_double_exp, trunc, 2, origin, pad):
            sign = outer_sign * (-1 if (n + r) % 2 else 1)
            acc.setdefault(e, {}).setdefault(-r, 0)
            acc[e][-r] += sign

    core = QSeries({e: XLaurent(xs) for e, xs in acc.items()}, 1, trunc)
    # 1/(q)_inf carries no x: one term-by-term product with the core beats a
    # pass per factor over it, 7 against 22 ms at trunc 120, 20 against 85 at 200
    inverse = _by_binomials(QSeries.one(1, trunc), over=[Mono(1, 0, k) for k in range(1, trunc)])
    return inverse * core
