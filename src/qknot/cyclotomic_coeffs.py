"""Cyclotomic-expansion coefficients of the left-handed torus knots T(2,2t+1).

Two independent routes to the same Laurent polynomials C_n:

* c_product: the nested q-binomial product form, manifestly a Laurent
  polynomial with integer coefficients;
* c_multisum: the (2t-1)-fold alternating multisum, assembled over a single
  denominator (q)_{n+1} via Gaussian multinomials and divided exactly by it.

Both are ``laurent._kronecker`` routes: each writes its edges once, as an int
weight (a Gaussian binomial, or a product with 1 - q^d), an exponent shift
and a sign, and the route runs twice, first on l1 norms (||[a, b]||_1 =
C(a, b), ||1 - q^d||_1 <= 2, a monomial has norm 1) to bound every
coefficient of the result, then on exact ints at q = 2^w, whose result is read back once
as balanced digits.  The read-back is exact because the bound leaves a sign
bit in every slot.  The multisum runs one chain for every n <= n_max
(``c_multisums``): only its closing binomial depends on n, so each C_n is
closed, read back under its own bound and divided from the one chain.  The
two routes keep their own states and summands, so their agreement remains a
main verification target.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Sequence

from .laurent import XLaurent, _kronecker, _over_binomials

__all__ = ["CyclotomicCoeffs", "c_multisum", "c_product", "c_series"]


def _validate(t: int, m: int) -> None:
    if t < 1:
        raise ValueError("t must be a positive integer")
    if not 1 <= m <= t:
        raise ValueError(f"need 1 <= m <= t, got m={m}, t={t}")


def _c_sum(t: int, m: int, n: int, cutoff: int | None, binom, one_minus, step):
    """The inner sum of the product form (no q^{n+1-t} prefactor applied), as
    a ``laurent._kronecker`` route.

    Sums over n+1 = k_t >= ... >= k_1 >= 0 with k_m >= 1 the product of
    q^{k_i^2} (i < t) and [k_{i+1} - k_i - i + p_i, k_{i+1} - k_i], where the
    chain state p_i = sum_{j<=i} (2 k_j + [m > j]) rides with k_i.  Each edge
    carries the q^{k^2} of the state it enters; the step into level t-1 also
    carries the closing binomial, so the widest level is never held.

    cutoff, when given, bounds the *full* C_n exponent: an edge whose minimal
    contribution (n+1-t) + o + k^2 reaches it is pruned, o the offset of the
    state it leaves.  Every summand has nonnegative coefficients and every
    nonzero binomial has constant term 1, so nothing cancels and o is the
    exact minimal exponent of the state's value (the lowest set bit of its
    image); pruning is sound because every factor has nonnegative valuation.
    The l1 pass tracks the same offsets, prunes the same edges and so bounds
    exactly the pruned sum.
    """
    base = n + 1 - t
    kt = n + 1
    if t == 1:
        return [(0, 0) if cutoff is not None and base >= cutoff else (1, 0)]

    def edges(state: tuple[int, int], low: int):
        k, pref = state
        for k2 in range(max(k, 1) if i + 1 == m else k, kt + 1):
            sq = k2 * k2
            if cutoff is not None and base + low + sq >= cutoff:
                break
            b = binom(k2 - k - i + pref, k2 - k)
            p2 = pref + 2 * k2 + (1 if m > i + 1 else 0)
            if i + 1 < t - 1:
                yield (k2, p2), b, sq, False
            else:
                yield None, b * binom(kt - k2 - i - 1 + p2, kt - k2), sq, False

    states: dict = {(0, 0): (1, 0)}
    for i in range(t - 1):
        states = step(states, edges)
    return [states.get(None, (0, 0))]


@lru_cache(maxsize=None)
def c_product(t: int, m: int, n: int) -> XLaurent:
    """C_n as the nested product/binomial form: exact Laurent polynomial."""
    _validate(t, m)
    if n < 0:
        return XLaurent()
    return _kronecker(partial(_c_sum, t, m, n, None))[0][0].shift(n + 1 - t)


def c_series(t: int, m: int, n: int, window: int) -> XLaurent:
    """C_n with terms guaranteed only strictly below the window exponent."""
    _validate(t, m)
    if n < 0:
        return XLaurent()
    return _kronecker(partial(_c_sum, t, m, n, window))[0][0].shift(n + 1 - t)


def _multisum(t: int, m: int, ns: Sequence[int], binom, one_minus, step):
    """(q)_{n+1} times the multisum of c_multisum for every n in ``ns``, as a
    ``laurent._kronecker`` route that runs one chain for all of them.

    With n = max(ns), the chain 0 = v_0 <= ... <= v_{2t-1} <= n+1 is summed
    position by position; the state is v plus, at positions t-m..t-1, the v_{t-m} that
    the centre factor 1 - q^{v_t - v_{t-m}} needs.  An edge u -> v carries
    [v choose u], q^{-uv} at positions up to t, and the node factor of v:
    q^{-v} before position t-m, q^{v(v-1)/2} and the sign (-1)^v at t, and
    q^{v^2} after it.  The bound only caps v, and v only climbs along a
    path, so a state with v <= k+1 holds the same value in the chain for n
    as in the chain for k < n; only the closing [k+1 choose v], zero for
    v > k+1, depends on k, and the chain is closed once for each k in ns.
    """
    n = max(ns)
    store = t - m

    def edges(state: tuple[int, int | None], low: int):
        u, w = state
        for v in range(u, n + 2):
            nxt = (v, v if pos == store else w if pos < t else None)
            if pos < t:
                yield nxt, binom(v, u), -u * v - (v if pos < store else 0), False
            elif pos == t:
                yield nxt, binom(v, u) * one_minus(v - w), v * (v - 1) // 2 - u * v, v % 2 == 1
            else:
                yield nxt, binom(v, u), v * v, False

    states: dict = {(0, 0 if store == 0 else None): (1, 0)}
    for pos in range(1, 2 * t):
        states = step(states, edges)

    def close(k: int):
        closing = lambda s, low: ((None, binom(k + 1, s[0]), 0, False),)
        return step(states, closing).get(None, (0, 0))

    return [close(k) for k in ns]


def _over_pochhammer(t: int, n: int, total: XLaurent) -> XLaurent:
    """C_n from (q)_{n+1} times its multisum: the exact division, sign and shift."""
    return (-_over_binomials(total, range(1, n + 2))).shift(n + 1 - t)


@lru_cache(maxsize=None)
def c_multisum(t: int, m: int, n: int) -> XLaurent:
    """C_n via the (2t-1)-fold alternating multisum.

    All inverse Pochhammer denominators combine into Gaussian multinomials
    times 1/(q)_{n+1}: the chain sum runs in the image, is read back once,
    and is divided by (q)_{n+1} one factor at a time; every division must be
    exact.
    """
    _validate(t, m)
    if n < 0:
        return XLaurent()
    return _over_pochhammer(t, n, _kronecker(partial(_multisum, t, m, (n,)))[0][0])


def c_multisums(t: int, m: int, n_max: int) -> list[XLaurent]:
    """[c_multisum(t, m, n) for n in 0..n_max], from one chain."""
    _validate(t, m)
    if n_max < 0:
        return []
    finals = _kronecker(partial(_multisum, t, m, range(n_max + 1)))
    return [_over_pochhammer(t, n, total) for n, (total, _) in enumerate(finals)]


class CyclotomicCoeffs:
    """Lazy family n -> C_n for fixed (t, m), backed by the product form."""

    def __init__(self, t: int, m: int):
        _validate(t, m)
        self.t = t
        self.m = m

    def __call__(self, n: int) -> XLaurent:
        return c_product(self.t, self.m, n)

    __getitem__ = __call__

    def __repr__(self) -> str:
        return f"CyclotomicCoeffs(t={self.t}, m={self.m})"
