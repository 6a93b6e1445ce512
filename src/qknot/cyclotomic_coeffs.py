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
bit in every slot.  Both routes run one chain for every n <= n_max
(``c_products``, ``c_multisums``): only the close into k_t = n+1 depends on
n.  ``c_product(s)`` close the product form by a generating-function pass
that reads no binomial (``_nested_close``).  ``c_series``, the C_n of the U
series cut below one window, runs the same chain windowed: each state and
node is carried modulo q^L, L the exponent below which some n still needs
it, so its image stays a few slots wide, and each final is read back below
the window only.  U(-1; zeta_N) (``useries.u_eval_at_root``, closed at
q = zeta_N with (zeta)_n^2) keeps the keyed close.  The multisum runs on
``_staircase``, the one route that the Bailey chain betas run too.  The two
routes keep their own states and summands, so their agreement remains a main
verification target.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Sequence

from .laurent import XLaurent, _kronecker, _over_binomials

__all__ = ["c_multisum", "c_product", "c_series"]


def _validate(t: int, m: int) -> None:
    if t < 1:
        raise ValueError("t must be a positive integer")
    if not 1 <= m <= t:
        raise ValueError(f"need 1 <= m <= t, got m={m}, t={t}")


def _c_sum(t: int, m: int, ns: range, window: int | None, binom, one_minus, step):
    """The product form's inner sums (no q^{n+1-t}) for every n in ``ns``, as a
    ``laurent._kronecker`` route closed by ``_nested_close``.  With a window
    it is windowed: node (c, j) of the close, like state (j, p) of the levels,
    is needed below window - j + t, so the final for n below window - (n+1-t)."""
    states = _c_levels(t, m, max(ns, default=-1) + 1, window, binom, step)
    if window is not None:
        step = partial(step, limit=lambda node: window - node[1] + t)
    return _nested_close(t, ns, states, step)


def _c_levels(t: int, m: int, top: int, window: int | None, binom, step) -> dict:
    """The states (k_{t-1}, p_{t-1}) of the product form's levels, k <= top:
    the product of q^{k_i^2} and [k_{i+1} - k_i - i + p_i, k_{i+1} - k_i] over
    top >= k_{t-1} >= ... >= k_1 >= 0 with k_m >= 1, p_i = sum_{j<=i} (2 k_j +
    [m > j]), each edge carrying the q^{k^2} of the state it enters.  A state
    holds the same value for every n < top with n+1 >= k (as in ``_multisum``).

    A window makes the steps windowed for every such n at once: state (k, p)
    is needed below window - k + t, since C_n carries q^{n+1-t} and n+1 >= k,
    and an edge into k2 is pruned once k2 - t + o + k2^2 reaches the window,
    o the offset it leaves, the exact least exponent there since nothing
    cancels (nonnegative coefficients, binomials with constant term 1).
    """
    if window is not None:
        step = partial(step, limit=lambda state: window - state[0] + t)

    def edges(state: tuple[int, int], low: int):
        k, pref = state
        for k2 in range(max(k, 1) if i + 1 == m else k, top + 1):
            sq = k2 * k2
            if window is not None and k2 - t + low + sq >= window:
                break
            yield (k2, pref + 2 * k2 + (1 if m > i + 1 else 0)), binom(k2 - k - i + pref, k2 - k), sq, False

    states: dict = {(0, 0): (1, 0)}
    for i in range(t - 1):
        states = step(states, edges)
    return states


def _keyed_close(t: int, ns: range, states: dict, binom, step) -> list:
    """One step sending state (k, p) into each n in ns with n+1 >= k by
    [j + c, j], j = n+1-k, c = p-(t-1).  It stays for ``u_eval_at_root``,
    whose l1 pass here keeps the q-Lucas norms (29 bits, 47 nested at
    (t, m, N) = (2, 1, 24); (3, 2, 72): 0.83 s, 2.16 s nested).
    """

    def close(state: tuple[int, int], low: int):
        k, pref = state
        for n in ns[max(k - 1 - ns.start, 0) :]:
            yield n, binom(n + 1 - k - (t - 1) + pref, n + 1 - k), 0, False

    finals = step(states, close)
    return [finals.get(n, (0, 0)) for n in ns]


def _nested_close(t: int, ns: range, states: dict, step) -> list:
    """The keyed close's finals by shift-adds alone: [j + c, j] is the z^j
    coefficient of 1/(z; q)_{c+1} (Gasper-Rahman, Basic Hypergeometric Series,
    1.3), so the nodes B(c, j) = A(c, j) + B(c+1, j) + q^c B(c, j-1), c from
    the top down, give B(0, n+1) for n, A(c, k) the value of state (k, c+t-1).
    One step per anti-diagonal j - c runs them: edges (c, j) -> (c-1, j),
    (c, j+1) of shifts 0, c, each A(c, k) injected at its node.  On l1 norms
    B(0, n+1) sums C(j + c, j) A(c, k), the keyed close's bound exactly.
    """
    top = max(ns, default=-1) + 1
    injected: dict = {}
    for (k, pref), value in states.items():
        injected.setdefault(k - pref + t - 1, {})[pref - t + 1, k] = value

    def edges(node: tuple[int, int], low: int):
        c, j = node
        if j - c == d:
            return ((node, 1, 0, False),)
        return ((c - 1, j), 1 if c else 0, 0, False), ((c, j + 1), 1 if j < top else 0, c, False)

    nodes, finals = {}, {}
    for d in range(min([0, *injected]), top + 1):
        nodes = step({**nodes, **injected.get(d, {})}, edges)
        finals[d - 1] = nodes.get((0, d), (0, 0))
    return [finals[n] for n in ns]


@lru_cache(maxsize=1024)
def c_product(t: int, m: int, n: int) -> XLaurent:
    """C_n as the nested product/binomial form: exact Laurent polynomial."""
    _validate(t, m)
    if n < 0:
        return XLaurent()
    return _kronecker(partial(_c_sum, t, m, range(n, n + 1), None))[0][0].shift(n + 1 - t)


def c_products(t: int, m: int, n_max: int) -> list[XLaurent]:
    """[c_product(t, m, n) for n in 0..n_max], from one chain."""
    _validate(t, m)
    if n_max < 0:
        return []
    finals = _kronecker(partial(_c_sum, t, m, range(n_max + 1), None))
    return [total.shift(n + 1 - t) for n, (total, _) in enumerate(finals)]


def c_series(t: int, m: int, n_max: int, window: int) -> list[XLaurent]:
    """[C_n for n in 0..n_max], each cut below q^window, from one windowed chain."""
    _validate(t, m)
    if n_max < 0:
        return []
    ns = range(n_max + 1)
    limits = [window - (n + 1 - t) for n in ns]
    finals = _kronecker(partial(_c_sum, t, m, ns, window), limits)
    return [total.shift(n + 1 - t) for n, (total, _) in enumerate(finals)]


def _staircase(
    length: int, bounds: Sequence[int], node: Callable[[int, int], int], coupled: int, sign: int | None,
    binom, one_minus, step, centre: tuple[int, int] | None = None, fold: Callable[[int, int], int] | None = None,
) -> list:
    """Staircase chain sums, one per b in ``bounds``, as a ``laurent._kronecker``
    route: one chain 0 = v_0 <= ... <= v_length <= max(bounds), closed for each
    b by [b choose v_length] q^{fold(v_length, b)}, zero for v_length > b, so
    a state holds the same value for every b >= v.  The edge u -> v at
    position pos carries [v choose u], q^{node(pos, v)}, q^{-uv} at positions
    up to ``coupled`` and (-1)^v at ``sign``; with ``centre`` = (c, s) the
    edge at c also carries 1 - q^{v_c - v_s}, and the state keeps v_s from
    position s to c-1.
    """
    top = max(bounds)
    c, s = centre or (0, -1)  # positions run from 1, so no edge reads v_s

    def edges(state: tuple[int, int | None], low: int):
        u, w = state
        for v in range(u, top + 1):
            nxt = (v, v if pos == s else w if pos < c else None)
            weight = binom(v, u) * one_minus(v - w) if pos == c else binom(v, u)
            shift = node(pos, v) - (u * v if pos <= coupled else 0)
            yield nxt, weight, shift, pos == sign and v % 2 == 1

    states: dict = {(0, 0 if s == 0 else None): (1, 0)}
    for pos in range(1, length + 1):
        states = step(states, edges)

    fold = fold or (lambda v, b: 0)
    close = lambda state, low: (
        (i, binom(b, state[0]), fold(state[0], b), False) for i, b in enumerate(bounds) if b >= state[0]
    )
    finals = step(states, close)
    return [finals.get(i, (0, 0)) for i in range(len(bounds))]


def _multisum(t: int, m: int, ns: Sequence[int], binom, one_minus, step):
    """(q)_{n+1} times the multisum of c_multisum for every n in ``ns``: the
    staircase of length 2t-1 closed at each bound n+1, with q^{-v} before
    position t-m, q^{v(v-1)/2}, the sign and the centre factor
    1 - q^{v_t - v_{t-m}} at t, q^{v^2} after it, and q^{-uv} up to t."""
    store = t - m

    def node(pos: int, v: int) -> int:
        if pos < t:
            return -v if pos < store else 0
        return v * (v - 1) // 2 if pos == t else v * v

    bounds = [k + 1 for k in ns]
    return _staircase(2 * t - 1, bounds, node, t, t, binom, one_minus, step, centre=(t, store))


def _over_pochhammer(t: int, n: int, total: XLaurent) -> XLaurent:
    """C_n from (q)_{n+1} times its multisum: the exact division, sign and shift."""
    return (-_over_binomials(total, range(1, n + 2))).shift(n + 1 - t)


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
