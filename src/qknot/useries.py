"""The generalized Kontsevich-Zagier series F and their dual U-series.

F_t^{(m)} diverges off roots of unity, so it only ever appears here as an
exact cyclotomic-field value (the q-Pochhammer factor kills all but finitely
many terms at a root of unity).  U_t^{(m)}(x;q) converges formally and is
produced as a truncated two-variable series; at x = -1 and q a root of unity
it collapses to a finite sum evaluated directly in the field.  Both field
values sum their nested chains with ``laurent._chain_step``, and read their
Gaussian binomials at q = zeta_N by the q-Lucas theorem
[a choose b] = C(a // N, b // N) [a mod N choose b mod N] from one N-row table.
"""

from __future__ import annotations

from math import comb

from .cyclo import CycloNum
from .cyclotomic_coeffs import _validate, c_series
from .laurent import _chain_step
from .series import Mono, QSeries, _by_binomials

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


def _root_binomial(order: int, eps: int):
    """[a choose b] at q = zeta^eps (zeta primitive of this order) by q-Lucas."""
    small = _field_qbinomials(order, eps, order - 1)
    zero = CycloNum.zero(order)

    def binom(a: int, b: int) -> CycloNum:
        if b < 0 or b > a or b % order > a % order:
            return zero
        c = comb(a // order, b // order)
        entry = small[a % order][b % order]
        return entry if c == 1 else entry * c

    return binom


def eval_f_at_root(t: int, m: int, n_root: int, inverse: bool = False) -> CycloNum:
    """F_t^{(m)} evaluated exactly at zeta_N (or zeta_N^{-1} when inverse).

    The nested sum truncates at k_t <= N-1 because (q)_{k_t} vanishes at an
    N-th root of unity from k_t = N onward.  The chain is summed from the
    top: the state is k_i, the edge weight [k_{i+1} + [i = m-1] choose k_i]
    (q-Lucas, N-row table) and the node factor zeta^{k_i^2 + [i >= m] k_i}.
    """
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    order = n_root
    eps = -1 if inverse else 1
    binom = _root_binomial(order, eps)

    def edges(k_next: int, acc: CycloNum):
        hi = k_next + (1 if i == m - 1 else 0)
        return ((k, b) for k in range(hi + 1) if not (b := binom(hi, k)).is_zero())

    states = dict(enumerate(_field_poch(order, eps, order - 1)))
    for i in range(t - 1, 0, -1):
        states = {
            k: acc * CycloNum.zeta(order, eps * (k * k + (k if i >= m else 0)))
            for k, acc in _chain_step(states, edges).items()
        }
    return sum(states.values(), CycloNum.zero(order)) * CycloNum.zeta(order, eps * t)


def u_eval_at_root(t: int, m: int, n_root: int) -> CycloNum:
    """U_t^{(m)}(-1; zeta_N) as an exact field element.

    At x = -1 the two Pochhammers square to (q)_{k_t-1}^2, which vanishes
    once k_t - 1 >= N, so the nested sum is finite (k_t <= N).  Below the
    top the chain has the product form's states (k_i, p_i) and binomials
    (tops up to about (2t+1)N, so read by q-Lucas from an N-row table),
    with zeta^{k_i^2} per merged state; the top keeps k_t alone.
    """
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    order = n_root
    poch = _field_poch(order, 1, max(order - 1, 0))
    binom = _root_binomial(order, 1)

    def edges(state: tuple[int, int], acc: CycloNum):
        k, pref = state
        for k2 in range(max(k, 1) if i + 1 == m else k, order + 1):
            b = binom(k2 - k - i + pref, k2 - k)
            if not b.is_zero():
                yield (k2, pref + 2 * k2 + (1 if m > i + 1 else 0) if i < t - 1 else None), b

    states: dict = {(0, 0): CycloNum.one(order)}
    for i in range(t):
        states = _chain_step(states, edges)
        if i < t - 1:  # the node factor zeta^{k^2} of each merged state
            states = {s: acc * CycloNum.zeta(order, s[0] * s[0]) for s, acc in states.items()}
    total = CycloNum.zero(order)
    for (k_t, _), acc in states.items():
        total = total + acc * poch[k_t - 1] * poch[k_t - 1] * CycloNum.zeta(order, k_t - t)
    return total


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
            g = _by_binomials(g, [Mono(-1, 1, n), Mono(-1, -1, n)])
        c = c_series(t, m, n, window)
        if c.is_zero():
            continue
        cq = QSeries.from_q_laurent(c, 1, window)
        total = total + cq * g
    return total
