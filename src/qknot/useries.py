"""The generalized Kontsevich-Zagier series F and their dual U-series.

F_t^{(m)} diverges off roots of unity, so it only ever appears here as an
exact cyclotomic-field value (the q-Pochhammer factor kills all but finitely
many terms at a root of unity).  U_t^{(m)}(x;q) converges formally and is
produced as a truncated two-variable series; at x = -1 and q a root of unity
it collapses to a finite sum evaluated directly in the field.
"""

from __future__ import annotations

from .cyclo import CycloNum
from .cyclotomic_coeffs import _validate, c_series
from .series import QSeries

__all__ = ["eval_f_at_root", "u_eval_at_root", "u_series"]


def _field_poch(order: int, eps: int, count: int) -> list[CycloNum]:
    """(q)_k at q = zeta^eps for k = 0..count."""
    out = [CycloNum.one(order)]
    for k in range(1, count + 1):
        factor = CycloNum.one(order) - CycloNum.zeta(order, eps * k)
        out.append(out[-1] * factor)
    return out


def _field_qbinomials(order: int, eps: int, max_n: int) -> list[list[CycloNum]]:
    """Gaussian binomials at q = zeta^eps via the q-Pascal recurrence."""
    one = CycloNum.one(order)
    table = [[one]]
    for n in range(1, max_n + 1):
        row = [one]
        prev = table[n - 1]
        for k in range(1, n):
            row.append(prev[k - 1] + CycloNum.zeta(order, eps * k) * prev[k])
        row.append(one)
        table.append(row)
    return table


def _binom_at(table: list[list[CycloNum]], order: int, n: int, k: int) -> CycloNum:
    if k < 0 or n < 0 or k > n:
        return CycloNum.zero(order)
    return table[n][k]


def eval_f_at_root(t: int, m: int, n_root: int, inverse: bool = False) -> CycloNum:
    """F_t^{(m)} evaluated exactly at zeta_N (or zeta_N^{-1} when inverse).

    The nested sum truncates at k_t <= N-1 because (q)_{k_t} vanishes at an
    N-th root of unity from k_t = N onward.
    """
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    order = n_root
    eps = -1 if inverse else 1
    poch = _field_poch(order, eps, order - 1)
    binom = _field_qbinomials(order, eps, order + 1)
    total = CycloNum.zero(order)

    def rec(i: int, k_next: int, exponent: int, acc: CycloNum) -> None:
        # i runs t-1 .. 1, choosing k_i <= k_{i+1} + [i == m-1]
        nonlocal total
        if i == 0:
            total = total + acc * CycloNum.zeta(order, eps * exponent)
            return
        hi = k_next + (1 if i == m - 1 else 0)
        for k in range(0, hi + 1):
            e = exponent + k * k + (k if i >= m else 0)
            rec(i - 1, k, e, acc * _binom_at(binom, order, hi, k))

    for kt in range(0, order):
        rec(t - 1, kt, t, poch[kt])
    return total


def u_eval_at_root(t: int, m: int, n_root: int) -> CycloNum:
    """U_t^{(m)}(-1; zeta_N) as an exact field element.

    At x = -1 the two Pochhammers square to (q)_{k_t-1}^2, which vanishes
    once k_t - 1 >= N, so the nested sum is finite (k_t <= N).
    """
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    order = n_root
    poch = _field_poch(order, 1, max(order - 1, 0))
    max_top = (2 * t + 1) * (order + 1) + t
    binom = _field_qbinomials(order, 1, max_top)
    total = CycloNum.zero(order)

    def close(k_t: int, sqsum: int, acc: CycloNum) -> None:
        nonlocal total
        head = poch[k_t - 1]
        total = total + acc * head * head * CycloNum.zeta(order, sqsum + k_t)

    def rec(i: int, k_i: int, prefix: int, sqsum: int, acc: CycloNum) -> None:
        # k_i chosen for i <= t-1; prefix/sqsum aggregate indices j < i
        pref = prefix + 2 * k_i + (1 if m > i else 0)
        sq = sqsum + k_i * k_i
        if i == t - 1:
            for kt in range(max(k_i, 1), order + 1):
                b = _binom_at(binom, order, kt - k_i - i + pref, kt - k_i)
                if not b.is_zero():
                    close(kt, sq, acc * b)
            return
        lo = max(k_i, 1) if i + 1 == m else k_i
        for k2 in range(lo, order + 1):
            b = _binom_at(binom, order, k2 - k_i - i + pref, k2 - k_i)
            if not b.is_zero():
                rec(i + 1, k2, pref, sq, acc * b)

    if t == 1:
        for kt in range(1, order + 1):
            close(kt, 0, CycloNum.one(order))
    else:
        lo1 = 1 if m == 1 else 0
        for k1 in range(lo1, order + 1):
            rec(1, k1, 0, 0, CycloNum.one(order))
    return total * CycloNum.zeta(order, -t)


def u_series(t: int, m: int, trunc: int) -> QSeries:
    """U_t^{(m)}(x;q) as a truncated series valid strictly below q^trunc.

    Grouped by the top chain index: the slice at k_t = n+1 contributes the
    cyclotomic coefficient C_n times (-xq)_n (-x^{-1}q)_n, whose valuation
    n+1-m bounds how many slices can touch the window.
    """
    _validate(t, m)
    if trunc <= 1 - m:
        raise ValueError("window too small to contain any terms")
    window = trunc
    wg = window + m - 1
    total = QSeries.zero(1, window)
    g = QSeries.one(1, wg)
    for n in range(0, window + m - 1):
        if n > 0:
            step = (QSeries.one(1) + QSeries.monomial(1, 1, n)) * (
                QSeries.one(1) + QSeries.monomial(1, -1, n)
            )
            g = g * step
        c = c_series(t, m, n, window)
        if c.is_zero():
            continue
        cq = QSeries.from_q_laurent(c, 1, window)
        total = total + cq * g
    return total
