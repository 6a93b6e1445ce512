"""Cyclotomic-expansion coefficients of the left-handed torus knots T(2,2t+1).

Two independent routes to the same Laurent polynomials C_n:

* c_product: the nested q-binomial product form, manifestly a Laurent
  polynomial with integer coefficients;
* c_multisum: the (2t-1)-fold alternating multisum, assembled over a single
  denominator (q)_{n+1} via Gaussian multinomials and divided exactly once.

Both walk their chains with ``laurent._chain_step`` but keep their own
states and summands, so their agreement remains a main verification target.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import ONE, ExactnessError, XLaurent, _chain_step, poch_q, qbinomial

__all__ = ["CyclotomicCoeffs", "c_multisum", "c_product", "c_series"]


def _validate(t: int, m: int) -> None:
    if t < 1:
        raise ValueError("t must be a positive integer")
    if not 1 <= m <= t:
        raise ValueError(f"need 1 <= m <= t, got m={m}, t={t}")


def _c_sum(t: int, m: int, n: int, cutoff: int | None) -> XLaurent:
    """The inner sum of the product form (no q^{n+1-t} prefactor applied).

    Sums over n+1 = k_t >= ... >= k_1 >= 0 with k_m >= 1 the product of
    q^{k_i^2} (i < t) and [k_{i+1} - k_i - i + p_i, k_{i+1} - k_i], where the
    chain state p_i = sum_{j<=i} (2 k_j + [m > j]) rides with k_i.  The step
    into level t-1 also applies its q^{k^2} and the closing binomial, so the
    widest level is never held.  cutoff, when given, bounds the *full* C_n
    exponent: an edge whose minimal contribution (n+1-t) + val + k^2 reaches
    it is pruned, sound because every factor has nonnegative valuation.
    """
    base = n + 1 - t
    kt = n + 1
    if t == 1:
        return XLaurent() if cutoff is not None and base >= cutoff else XLaurent.const(1)

    def edges(state: tuple[int, int], value: XLaurent):
        k, pref = state
        floor = base + value.min_exp() if cutoff is not None else 0
        for k2 in range(max(k, 1) if i + 1 == m else k, kt + 1):
            if cutoff is not None and floor + k2 * k2 >= cutoff:
                break
            b = qbinomial(k2 - k - i + pref, k2 - k)
            p2 = pref + 2 * k2 + (1 if m > i + 1 else 0)
            if i + 1 < t - 1:
                yield (k2, p2), b
            else:
                yield None, b.shift(k2 * k2) * qbinomial(kt - k2 - i - 1 + p2, kt - k2)

    states: dict = {(0, 0): ONE}
    for i in range(t - 1):
        states = _chain_step(states, edges)
        if i < t - 2:  # the node factor q^{k^2} of each merged state
            states = {s: p.shift(s[0] * s[0]) for s, p in states.items()}
    return states.get(None, XLaurent())


@lru_cache(maxsize=None)
def c_product(t: int, m: int, n: int) -> XLaurent:
    """C_n as the nested product/binomial form: exact Laurent polynomial."""
    _validate(t, m)
    if n < 0:
        return XLaurent()
    inner = _c_sum(t, m, n, None)
    out = inner.shift(n + 1 - t)
    if not out.has_integer_coeffs():  # pragma: no cover - structurally integral
        raise ExactnessError("cyclotomic coefficient left rational coefficients")
    return out


def c_series(t: int, m: int, n: int, window: int) -> XLaurent:
    """C_n with terms guaranteed only strictly below the window exponent."""
    _validate(t, m)
    if n < 0:
        return XLaurent()
    return _c_sum(t, m, n, window).shift(n + 1 - t)


@lru_cache(maxsize=None)
def c_multisum(t: int, m: int, n: int) -> XLaurent:
    """C_n via the (2t-1)-fold alternating multisum.

    The chain 0 = v_0 <= ... <= v_{2t-1} <= n+1 is summed position by
    position; the state is v plus, at positions t-m..t-1, the v_{t-m} that
    the centre factor 1 - q^{v_t - v_{t-m}} needs (an edge weight, like
    q^{-v_{i-1} v_i}).  All inverse Pochhammer denominators combine into
    Gaussian multinomials times 1/(q)_{n+1}; the single division at the end
    must be exact and land in Z[q, 1/q].
    """
    _validate(t, m)
    if n < 0:
        return XLaurent()
    bound = n + 1
    store = t - m

    def edges(state: tuple[int, int | None], value: XLaurent):
        u, w = state
        for v in range(u, bound + 1):
            b = qbinomial(v, u).shift(-u * v if pos <= t else 0)
            if pos == t:
                b = b * (ONE - XLaurent.term(v - w))
            yield (v, v if pos == store else w if pos < t else None), b

    def node(v: int, p: XLaurent) -> XLaurent:
        if pos == t:
            p = p.shift(v * (v - 1) // 2)
            return -p if v % 2 else p
        return p.shift(-v if pos < store else v * v if pos > t else 0)

    states: dict = {(0, 0 if store == 0 else None): ONE}
    for pos in range(1, 2 * t):
        states = {s: node(s[0], p) for s, p in _chain_step(states, edges).items()}
    closing = lambda s, p: ((None, qbinomial(bound, s[0])),)
    total = _chain_step(states, closing).get(None, XLaurent())

    quot = total.divexact(poch_q(1, bound))
    out = (-quot).shift(bound - t)
    if not out.has_integer_coeffs():
        raise ExactnessError(
            f"multisum C_{n} for (t={t}, m={m}) is not an integer Laurent polynomial"
        )
    return out


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
