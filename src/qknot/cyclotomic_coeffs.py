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
``_staircase``, the one route that the Bailey chain betas run too; its steps
with work to share, two states that keep one stored v_s or a close into two
bounds, are ``_nested_close`` passes as well, and its other steps read binomial
images, which the image cache shares (passes there were slower).  The two
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
    ``laurent._kronecker`` route closed by ``_nested_close``, state (k, p)
    injected at node (p-t+1, k), the final for n read at (0, n+1).  With a window
    it is windowed: node (c, j) of the close, like state (j, p) of the levels,
    is needed below window - j + t, so the final for n below window - (n+1-t)."""
    top = max(ns, default=-1) + 1
    states = _c_levels(t, m, top, window, binom, step)
    if window is not None:
        step = partial(step, limit=lambda node: window - node[1] + t)
    injected: dict = {}
    for (k, pref), value in states.items():
        injected.setdefault(k - pref + t - 1, {})[pref - t + 1, k] = value
    finals = _nested_close(injected, top, step)
    return [finals.get(n + 1, (0, 0)) for n in ns]


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


def _nested_close(injected: dict, top: int, step, sign: int = 1) -> dict:
    """Sums of [j + c, j] A by shift-adds alone: [j + c, j] is the z^j
    coefficient of 1/(z; q)_{c+1} (Gasper-Rahman, Basic Hypergeometric Series,
    1.3), so the nodes B(c, j) = A(c, j) + B(c+1, j) + q^c B(c, j-1), c from
    the top down, j <= top, give B(0, j) = sum [j - k + c, j - k] A(c, k).
    One step per anti-diagonal j - c runs them: edges (c, j) -> (c-1, j),
    (c, j+1) of shifts 0, c, each A(c, k) injected at its node (c, k), under
    its anti-diagonal in ``injected``.  With sign -1 the shifts are -c: the
    same sums at 1/q.  On l1 norms B(0, j) sums C(j - k + c, j - k) ||A(c, k)||_1,
    the keyed bound exactly.  Returns B(0, j) for every j reached.
    """

    def edges(node: tuple[int, int], low: int):
        c, j = node
        if j - c == d:
            return ((node, 1, 0, False),)
        return ((c - 1, j), 1 if c else 0, 0, False), ((c, j + 1), 1 if j < top else 0, sign * c, False)

    nodes, reads = {}, {}
    for d in range(min([0, *injected]), top + 1):
        nodes = step({**nodes, **injected.get(d, {})}, edges)
        if (0, d) in nodes:
            reads[d] = nodes[0, d]
    return reads


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
    binom, one_minus, step, centre: tuple[int, int] | None = None,
) -> list:
    """Staircase chain sums, one per b in ``bounds``, as a ``laurent._kronecker``
    route: one chain 0 = v_0 <= ... <= v_length <= max(bounds), closed for each
    b by [b choose v_length], zero for v_length > b, so a state holds the same
    value for every b >= v.  The edge u -> v at position pos carries
    [v choose u], q^{node(pos, v)}, q^{-uv} at positions up to ``coupled``, the
    close being position length + 1, and (-1)^v at ``sign``; with ``centre`` =
    (c, s) the edge at c also carries 1 - q^{v_c - v_s}, and the state keeps
    v_s from position s to c-1.

    A step sums T(v, w) = sum_{u <= v} [v, u] (q^{-uv}) S(u, w) over each group
    of states (u, w) that keep one v_s = w, then applies the node factor, the
    sign and the centre factor as weight-1 output edges, the centre's two
    (1 and -q^{v-w}) made only for v > w.  A step with work to share, a group
    of two or more states or a close into two or more bounds, sums each group
    by one ``_nested_close`` pass, S(u, w) injected at node (u, u) and T(v, w)
    read at (0, v), after [v, u] q^{-uv} = q^{-u^2} [v, u] at 1/q; the rest
    read binomial images, which the image cache shares.  Either way T's l1
    bound sums C(v, u) ||S(u, w)||_1 and the centre's two edges sum to 2.
    """
    top = max(bounds)
    c, s = centre or (0, -1)  # positions run from 1, so no edge reads v_s

    def transform(states: dict, targets, shared: bool) -> dict:
        couple = pos <= coupled
        if shared:
            groups: dict = {}
            for (u, w), (v, o) in states.items():
                groups.setdefault(w, {})[u, u] = (v, o - u * u if couple else o)
            passes = ((w, _nested_close({0: group}, top, step, -1 if couple else 1)) for w, group in groups.items())
            return {(v, w): value for w, reads in passes for v, value in reads.items()}
        edges = lambda state, low: (
            ((v, state[1]), binom(v, state[0]), -state[0] * v if couple else 0, False) for v in targets(state[0])
        )
        return step(states, edges)

    def out(read: tuple[int, int | None], low: int):
        v, w = read
        nxt = (v, v if pos == s else w if pos < c else None)
        shift, negate = node(pos, v), pos == sign and v % 2 == 1
        if pos != c:
            return ((nxt, 1, shift, negate),)
        return ((nxt, 1, shift, negate), (nxt, 1, shift + v - w, not negate)) if v > w else ()

    states: dict = {(0, 0 if s == 0 else None): (1, 0)}
    for pos in range(1, length + 1):
        shared = len({w for _, w in states}) < len(states)
        states = step(transform(states, lambda u: range(u, top + 1), shared), out)
    pos = length + 1
    reads = transform(states, lambda u: (b for b in {*bounds} if b >= u), len(bounds) > 1)
    finals = step(reads, lambda read, low: ((i, 1, 0, False) for i, b in enumerate(bounds) if b == read[0]))
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
