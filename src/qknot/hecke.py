"""Hecke-type (indefinite theta) expansions of the U-series.

The triple sum runs over two lattice regions (all indices >= 0, all < 0)
restricted to r != s mod 2.  Its exponents live on one fixed residue class
mod 8, so after folding in the q^{-t/2-m/2+3/8} prefactor every term has an
integer exponent; this is asserted per term.  Enumeration caps come from the
exponent being strictly increasing in each index on both regions (checked in
the test suite by re-running with a larger radius).

The double-sum variant with 1/(1 - x q^{(r+s+1)/2}) denominators is not
implemented separately: expanding each denominator as a geometric series in
x yields exactly the u-indexed triple sum computed here, which keeps the
module free of rational-function arithmetic.
"""

from __future__ import annotations

from .laurent import XLaurent
from .series import Mono, QSeries, _by_binomials

__all__ = ["hecke_u1_double", "hecke_u_series", "hecke_u_series_x"]

_HARD_CAP = 100_000  # safety stop for cap searches; never reached in practice


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


def _cap(predicate) -> int:
    """Smallest nonnegative i with predicate(i) True (monotone predicate)."""
    i = 0
    while not predicate(i):
        i += 1
        if i > _HARD_CAP:  # pragma: no cover
            raise RuntimeError("enumeration cap search ran away")
    return i


def _triple_sum(t: int, m: int, window: int, pad: int = 0) -> QSeries:
    """The signed triple sum as a scale-1 series valid strictly below window."""
    t8 = 8 * window
    acc: dict[int, dict[int, int]] = {}

    def add(r: int, s: int, u: int) -> None:
        e8 = _exp8(t, m, r, s, u)
        if e8 >= t8:
            return
        if e8 % 8:
            raise ArithmeticError(
                f"non-integral exponent {e8}/8 at (r,s,u)=({r},{s},{u})"
            )
        sign = -1 if ((r - s - 1) // 2) % 2 else 1
        acc.setdefault(e8 // 8, {}).setdefault(u, 0)
        acc[e8 // 8][u] += sign

    # region r, s, u >= 0
    def r_done(r: int) -> bool:
        return min(_exp8(t, m, r, 0, 0), _exp8(t, m, r, 1, 0)) >= t8

    for r in range(_cap(r_done) + pad + 1):
        s0 = (r + 1) % 2
        s_hi = s0 + 2 * (_cap(lambda i: _exp8(t, m, r, s0 + 2 * i, 0) >= t8) + pad)
        for s in range(s0, s_hi + 1, 2):
            u_hi = _cap(lambda i: _exp8(t, m, r, s, i) >= t8) + pad
            for u in range(u_hi + 1):
                add(r, s, u)

    # region r, s, u < 0 via (r, s, u) = (-1-a, -1-b, -1-c)
    def a_done(a: int) -> bool:
        return min(
            _exp8(t, m, -1 - a, -1, -1),
            _exp8(t, m, -1 - a, -2, -1),
        ) >= t8

    for a in range(_cap(a_done) + pad + 1):
        b0 = (a + 1) % 2
        b_hi = b0 + 2 * (_cap(lambda i: _exp8(t, m, -1 - a, -1 - b0 - 2 * i, -1) >= t8) + pad)
        for b in range(b0, b_hi + 1, 2):
            c_hi = _cap(lambda i: _exp8(t, m, -1 - a, -1 - b, -1 - i) >= t8) + pad
            for c in range(c_hi + 1):
                add(-1 - a, -1 - b, -1 - c)

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

    def add(n: int, r: int, outer_sign: int) -> None:
        e = _double_exp(n, r)
        if e >= trunc:
            return
        sign = outer_sign * (-1 if (n + r) % 2 else 1)
        acc.setdefault(e, {}).setdefault(-r, 0)
        acc[e][-r] += sign

    def n_done(n: int) -> bool:
        return _double_exp(n, 0) >= trunc

    for n in range(_cap(n_done) + pad + 1):
        r_hi = _cap(lambda i: _double_exp(n, i) >= trunc) + pad
        for r in range(r_hi + 1):
            add(n, r, 1)

    def a_done(a: int) -> bool:
        return _double_exp(-1 - a, -1) >= trunc

    for a in range(_cap(a_done) + pad + 1):
        b_hi = _cap(lambda i: _double_exp(-1 - a, -1 - i) >= trunc) + pad
        for b in range(b_hi + 1):
            add(-1 - a, -1 - b, -1)

    core = QSeries({e: XLaurent(xs) for e, xs in acc.items()}, 1, trunc)
    # 1/(q)_inf carries no x: one packed product with the dense core beats
    # a pass per factor over it
    inverse = _by_binomials(QSeries.one(1, trunc), over=[Mono(1, 0, k) for k in range(1, trunc)])
    return inverse * core
