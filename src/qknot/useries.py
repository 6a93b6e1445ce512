"""The generalized Kontsevich-Zagier series F and their dual U-series.

F_t^{(m)} diverges off roots of unity, so it only ever appears here as an
exact cyclotomic-field value (the q-Pochhammer factor kills all but finitely
many terms at a root of unity).  U_t^{(m)}(x;q) converges formally and is
produced as a truncated two-variable series; at x = -1 and q a root of unity
it collapses to a finite sum evaluated directly in the field, the product
form of the C_n (``cyclotomic_coeffs._c_levels``) closed with (q)_n^2.  Both
field values are routes of ``laurent._chain`` over Z[zeta_N] (``cyclo._root``
explains the q-Lucas binomials, the image at zeta = 2^w, the bound and the
read-back).  F's finite sum has integer coefficients, so F at zeta_N^-1 is
the Galois conjugate of F at zeta_N (zeta -> zeta^-1).
"""

from __future__ import annotations

from functools import partial

from .cyclo import CycloNum, _root, cyclo_eval
from .cyclotomic_coeffs import _c_levels, _keyed_close, _validate, c_series
from .laurent import XLaurent, _chain
from .series import _UNIT, Mono, QSeries, _nested

__all__ = ["eval_f_at_root", "u_eval_at_root", "u_series"]


def eval_f_at_root(t: int, m: int, n_root: int, inverse: bool = False) -> CycloNum:
    """F_t^{(m)} evaluated exactly at zeta_N (or zeta_N^{-1} when inverse).

    The nested sum truncates at k_t <= N-1 because (q)_{k_t} vanishes at an
    N-th root of unity from k_t = N onward.  The chain is summed from the
    top: the state is k_i, the head (q)_{k_t}, and the edge into k_i carries
    [k_{i+1} + [i = m-1] choose k_i] and q^{k_i^2 + [i >= m] k_i}, all at
    q = zeta on the pass of ``cyclo._root``.  The value at zeta^-1 is its conjugate.
    """
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    order = n_root

    def route(r):
        binom, step = r.binom, r.step

        def edges(k_next: int, low: int):
            hi = k_next + (1 if i == m - 1 else 0)
            return ((k, binom(hi, k), k * k + (k if i >= m else 0), False) for k in range(hi + 1))

        states = {k: (r.poch(k), 0) for k in range(order)}
        for i in range(t - 1, 0, -1):
            states = step(states, edges)
        return [step(states, lambda k, low: ((None, 1, t, False),)).get(None, (0, 0))]

    value = _chain(partial(_root, order), route)[0][0]
    return cyclo_eval(XLaurent(enumerate(value.coeffs)), order, -1) if inverse else value


def u_eval_at_root(t: int, m: int, n_root: int) -> CycloNum:
    """U_t^{(m)}(-1; zeta_N) as an exact field element.

    At x = -1 the two Pochhammers square to (q)_n^2, which vanishes once
    n >= N, so U(-1; zeta_N) = sum_{n<N} C_n (zeta)_n^2 is finite.  It is the
    product form's chain (``cyclotomic_coeffs._c_levels`` and its keyed close)
    for every n < N with binomials read by q-Lucas from the N-row table (tops
    up to about (2t+1)N), then closed by one step with weight (q)_n^2 and
    shift n+1-t, all at q = zeta on the pass of ``cyclo._root``.
    """
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    order = n_root

    def route(r):
        states = _c_levels(t, m, order, None, r)
        finals = _keyed_close(t, range(order), states, r)
        closing = lambda n, low: ((None, r.poch(n) * r.poch(n), n + 1 - t, False),)
        return [r.step(dict(enumerate(finals)), closing).get(None, (0, 0))]

    return _chain(partial(_root, order), route)[0][0]


def u_series(t: int, m: int, trunc: int) -> QSeries:
    """U_t^{(m)}(x;q) as a truncated series valid strictly below q^trunc.

    The slice at k_t = n+1 is C_n (valuation n+1-m) times (-xq)_n (-x^{-1}q)_n,
    so n < trunc+m-1.  It is summed in nested (Horner) form from the top on
    ``series._nested``, T <- C_n + (1 + xq^{n+1})(1 + x^{-1}q^{n+1}) T: both
    factors have positive q-exponents, so they keep T's window, and every C_n
    comes cut at it from one windowed chain (``cyclotomic_coeffs.c_series``),
    handed over as the polynomial in q that the engine packs.
    """
    _validate(t, m)
    if trunc <= 1 - m:
        raise ValueError("window too small to contain any terms")
    coeffs = c_series(t, m, trunc + m - 2, trunc)
    return _nested(
        coeffs.__getitem__,
        trunc + m - 2,
        lambda i: (_UNIT, [Mono(-1, 1, i + 1), Mono(-1, -1, i + 1)], ()),
        trunc,
    )
