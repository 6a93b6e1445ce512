"""The chain-sum engine against the recursions and dynamic programs it replaced.

Each function below is a verbatim copy of an implementation that walked one of
the library's nested chains k_1 <= ... <= k_t on its own (four exponential
recursions and two hand-rolled dynamic programs).  They serve as reference
oracles: the library's one chain step, ``laurent._kron_step``, must reproduce
them exactly.  The one change is that the oracle ``c_multisum`` is not cached.
The root-of-unity oracles multiply and add ``CycloNum``s (by
``kernel_oracles.cyclo_mul``, ``cyclo_add`` and ``cyclo_sub``, since the
library's ``*`` is the scalar product only and a field element has no sum)
and read their Gaussian binomials from the full q-Pascal table at zeta^(+-1)
(``_field_poch``, ``_field_qbinomials`` and ``_binom_at``, also verbatim but
for those sums); the library now sums
those chains on plain ints in Z / Phi_N(2^w) (``cyclo._root_sum``), at zeta
only, conjugates for zeta^-1, and must reproduce them exactly.

The ``*_chain`` oracles are the ``XLaurent`` bodies of ``_c_sum``,
``c_multisum``, ``jones_hyper`` and ``bailey._chain_poly`` on the former
generic step ``_chain_step``, which is kept below, all verbatim but for their
names and the dropped cache.  The library now sums these chains on plain
ints at q = 2^w (``laurent._kronecker``) and must reproduce them exactly.

``u_series``, ``_first_failure``, ``bailey_step`` and ``_limit_sides`` are
verbatim copies of builders that applied the whole Pochhammer product of each
term of a sum to that term; the library now sums them in nested (Horner) form.
``bernoulli_rhs`` is a verbatim copy that added one full field element per
term; the library now evaluates the weights once.  All must be reproduced
exactly, windows included.  ``u_series`` calls ``QSeries.from_q_laurent``
without the scale argument that method no longer takes, and takes each C_n
from the per-n ``kernel_oracles.c_series`` that the library's one windowed
chain replaced.

``_context``, ``cyclo_eval`` and ``cyclo_mul_by_table`` (the body of
``CycloNum.__mul__``) are verbatim copies of the field layer that reduced
through a cached table of every power of zeta; ``bernoulli_lhs`` is the
embedding and product it replaced, with ``CycloNum.embed`` inlined and the
table read in place of ``CycloNum.zeta``.  The library now reduces
everything in one top-down pass mod Phi_M (``cyclo._reduce``), and so does
the product of two elements that moved to ``kernel_oracles.cyclo_mul``; both
must reproduce them exactly.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

import pytest

from qknot import bailey, cyclo, cyclotomic_coeffs, jones, laurent, modular, useries, verify
from qknot.bailey import (
    BaileyPair, FloorFn, TermFn, _exact, _q, _req, make_named_pair,
)
from qknot.cyclo import CycloNum
from qknot.cyclotomic_coeffs import _validate
from qknot.laurent import (
    ONE, ExactnessError, XLaurent, bernoulli_b2, cyclotomic_polynomial, poch_q, qbinomial,
)
from qknot.modular import chi_periodic
from qknot.report import diff_qseries
from qknot.series import Mono, QSeries, _by_binomials, _poch

import bailey_oracles
from bailey_oracles import _lemma, _neg_val_bound
import kernel_oracles
from kernel_oracles import (
    c_series, chain_poly, cyclo_add, cyclo_mul, cyclo_sub, divexact, habiro_reconstruct, has_integer_coeffs,
    keyed_c_sum, keyed_staircase_at, multisum, nested_habiro_reconstruct, per_edge_jones_chain,
    per_term_habiro_inverse, product_close_c_sum, same_field,
)

# ---------------------------------------------------------------------------
# reference oracles: the replaced implementations, verbatim
# ---------------------------------------------------------------------------


def _c_sum(t: int, m: int, n: int, cutoff: int | None) -> XLaurent:
    """The inner sum of the product form (no q^{n+1-t} prefactor applied).

    Sums over n+1 = k_t >= k_{t-1} >= ... >= k_1 >= 0 with k_m >= 1 the
    product of q^{k_i^2} times the coupled Gaussian binomials.  cutoff, when
    given, bounds the *full* C_n exponent: branches whose minimal
    contribution (n+1-t) + sum k_j^2 reaches it are pruned, which is sound
    because every remaining factor has nonnegative valuation.
    """
    base = n + 1 - t
    kt = n + 1
    if t == 1:
        if cutoff is not None and base >= cutoff:
            return XLaurent()
        return XLaurent.const(1)
    total = XLaurent()

    def rec(i: int, k_i: int, prefix: int, sqsum: int, running: XLaurent) -> None:
        # k_i just chosen; running holds the factors of indices < i
        nonlocal total
        sq = sqsum + k_i * k_i
        if cutoff is not None and base + sq >= cutoff:
            return
        pref = prefix + 2 * k_i + (1 if m > i else 0)
        if i == t - 1:
            b = qbinomial(kt - k_i - i + pref, kt - k_i)
            if not b.is_zero():
                total = total + running * b.shift(k_i * k_i)
            return
        lo = max(k_i, 1) if i + 1 == m else k_i
        for k2 in range(lo, kt + 1):
            if cutoff is not None and base + sq + k2 * k2 >= cutoff:
                break
            b = qbinomial(k2 - k_i - i + pref, k2 - k_i)
            if b.is_zero():
                continue
            rec(i + 1, k2, pref, sq, running * b.shift(k_i * k_i))

    lo1 = 1 if m == 1 else 0
    for k1 in range(lo1, kt + 1):
        rec(1, k1, 0, 0, XLaurent.const(1))
    return total


def c_multisum(t: int, m: int, n: int) -> XLaurent:
    """C_n via the (2t-1)-fold alternating multisum.

    The chain v_1 <= ... <= v_{2t-1} <= n+1 is swept by a forward DP whose
    state carries the current value (and, between positions t-m and t, the
    remembered v_{t-m} needed by the center factor).  All inverse Pochhammer
    denominators combine into Gaussian multinomials times 1/(q)_{n+1}; the
    single division at the end must be exact and land in Z[q, 1/q].
    """
    _validate(t, m)
    if n < 0:
        return XLaurent()
    bound = n + 1
    length = 2 * t - 1
    store_pos = t - m if m < t else None

    def node(pos: int, v: int, w: int | None, poly: XLaurent) -> XLaurent:
        shift = 0
        if pos <= t - m - 1:
            shift -= v
        if pos > t:
            shift += v * v
        if pos == t:
            shift += v * (v - 1) // 2
            delta = v - (w if store_pos is not None else 0)
            factor = XLaurent.const(1) - XLaurent.term(delta)
            poly = poly * factor
            if v % 2:
                poly = -poly
        return poly.shift(shift) if shift else poly

    def carry(pos: int) -> bool:
        return store_pos is not None and store_pos <= pos <= t - 1

    states: dict[tuple[int, int | None], XLaurent] = {}
    for v in range(bound + 1):
        w = v if store_pos == 1 else None
        poly = node(1, v, w, XLaurent.const(1))
        key = (v, w if carry(1) else None)
        states[key] = states[key] + poly if key in states else poly

    for pos in range(2, length + 1):
        nxt: dict[tuple[int, int | None], XLaurent] = {}
        for (u, w), poly in states.items():
            for v in range(u, bound + 1):
                p = poly * qbinomial(v, u)
                if pos - 1 <= t - 1:
                    p = p.shift(-u * v)
                win = v if pos == store_pos else w
                p = node(pos, v, win, p)
                wkey = win if carry(pos) else None
                key = (v, wkey)
                nxt[key] = nxt[key] + p if key in nxt else p
        states = nxt

    total = XLaurent()
    for (v, _), poly in states.items():
        total = total + poly * qbinomial(bound, v)

    quot = divexact(total, poch_q(1, bound))
    out = (-quot).shift(bound - t)
    if not has_integer_coeffs(out):
        raise ExactnessError(
            f"multisum C_{n} for (t={t}, m={m}) is not an integer Laurent polynomial"
        )
    return out


def jones_hyper(t: int, n_color: int) -> XLaurent:
    """Colored Jones of T(2, 2t+1) from the nested q-hypergeometric sum.

    The sum terminates because (q^{1-N})_k vanishes for k >= N.
    """
    if t < 1 or n_color < 1:
        raise ValueError("need t >= 1 and a positive color")
    n = n_color
    total = XLaurent()

    def rec(i: int, k_next: int, running: XLaurent) -> None:
        # choose k_i <= k_{i+1}; i counts down from t-1 to 1
        nonlocal total
        if i == 0:
            total = total + running
            return
        for k in range(0, k_next + 1):
            b = qbinomial(k_next, k)
            factor = b.shift(k * (k + 1 - 2 * n))
            rec(i - 1, k, running * factor)

    for kt in range(0, n):
        head = poch_q(1 - n, kt).shift(-n * kt)
        rec(t - 1, kt, head)
    return total.shift(t * (1 - n))


def _field_poch(order: int, eps: int, count: int) -> list[CycloNum]:
    """(q)_k at q = zeta^eps for k = 0..count."""
    out = [CycloNum.one(order)]
    for k in range(1, count + 1):
        factor = cyclo_sub(CycloNum.one(order), CycloNum.zeta(order, eps * k))
        out.append(cyclo_mul(out[-1], factor))
    return out


def _field_qbinomials(order: int, eps: int, max_n: int) -> list[list[CycloNum]]:
    """Gaussian binomials at q = zeta^eps via the q-Pascal recurrence."""
    one = CycloNum.one(order)
    table = [[one]]
    for n in range(1, max_n + 1):
        row = [one]
        prev = table[n - 1]
        for k in range(1, n):
            row.append(cyclo_add(prev[k - 1], cyclo_mul(CycloNum.zeta(order, eps * k), prev[k])))
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
            total = cyclo_add(total, cyclo_mul(acc, CycloNum.zeta(order, eps * exponent)))
            return
        hi = k_next + (1 if i == m - 1 else 0)
        for k in range(0, hi + 1):
            e = exponent + k * k + (k if i >= m else 0)
            rec(i - 1, k, e, cyclo_mul(acc, _binom_at(binom, order, hi, k)))

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
        total = cyclo_add(total, cyclo_mul(
            cyclo_mul(cyclo_mul(acc, head), head), CycloNum.zeta(order, sqsum + k_t)
        ))

    def rec(i: int, k_i: int, prefix: int, sqsum: int, acc: CycloNum) -> None:
        # k_i chosen for i <= t-1; prefix/sqsum aggregate indices j < i
        pref = prefix + 2 * k_i + (1 if m > i else 0)
        sq = sqsum + k_i * k_i
        if i == t - 1:
            for kt in range(max(k_i, 1), order + 1):
                b = _binom_at(binom, order, kt - k_i - i + pref, kt - k_i)
                if not b.is_zero():
                    close(kt, sq, cyclo_mul(acc, b))
            return
        lo = max(k_i, 1) if i + 1 == m else k_i
        for k2 in range(lo, order + 1):
            b = _binom_at(binom, order, k2 - k_i - i + pref, k2 - k_i)
            if not b.is_zero():
                rec(i + 1, k2, pref, sq, cyclo_mul(acc, b))

    if t == 1:
        for kt in range(1, order + 1):
            close(kt, 0, CycloNum.one(order))
    else:
        lo1 = 1 if m == 1 else 0
        for k1 in range(lo1, order + 1):
            rec(1, k1, 0, 0, CycloNum.one(order))
    return cyclo_mul(total, CycloNum.zeta(order, -t))


def _chain_poly(
    length: int,
    bound: int,
    node_shift: Callable[[int, int], int],
    edge_shift: Callable[[int, int, int], int],
    sign_pos: int | None = None,
    fold_shift: Callable[[int], int] | None = None,
) -> XLaurent:
    """sum over chains v_1 <= ... <= v_length <= bound of
    (+-1) q^{shifts} prod_i [v_{i+1} choose v_i] [bound choose v_length],
    which is (q)_bound times the corresponding inverse-Pochhammer chain sum.
    """
    states: dict[int, XLaurent] = {}
    for v in range(bound + 1):
        p = XLaurent.const(-1 if (sign_pos == 1 and v % 2) else 1)
        sh = node_shift(1, v)
        states[v] = p.shift(sh) if sh else p
    for pos in range(2, length + 1):
        nxt: dict[int, XLaurent] = {}
        for u, poly in states.items():
            for v in range(u, bound + 1):
                p = poly * qbinomial(v, u)
                sh = node_shift(pos, v) + edge_shift(pos - 1, u, v)
                if sh:
                    p = p.shift(sh)
                if sign_pos == pos and v % 2:
                    p = -p
                nxt[v] = nxt[v] + p if v in nxt else p
        states = nxt
    total = XLaurent()
    for v, poly in states.items():
        p = poly * qbinomial(bound, v)
        if fold_shift is not None:
            sh = fold_shift(v)
            if sh:
                p = p.shift(sh)
        total = total + p
    return total


def _chain_step(states: dict, edges) -> dict:
    """One transfer-matrix step of a chain sum over k_1 <= ... <= k_t: with
    ``edges(state, value)`` yielding ``(next_state, weight)`` pairs, return
    ``{next_state: sum of value * weight}`` over any ring with ``*`` and
    ``+``.  Callers define ``edges`` inside their level loop, which it reads."""
    out: dict = {}
    for state, value in states.items():
        for nxt, weight in edges(state, value):
            p = value * weight
            out[nxt] = out[nxt] + p if nxt in out else p
    return out


def _chain_poly_chain(
    length: int,
    bound: int,
    node_shift: Callable[[int, int], int],
    coupled: int,
    sign_pos: int | None = None,
    fold_shift: Callable[[int], int] | None = None,
) -> XLaurent:
    """sum over chains v_1 <= ... <= v_length <= bound of
    (+-1) q^{shifts} prod_i [v_{i+1} choose v_i] [bound choose v_length],
    which is (q)_bound times the corresponding inverse-Pochhammer chain sum.
    The first ``coupled`` edges also carry q^{-v_i v_{i+1}}.  The state is
    v, from v_0 = 0; node shifts and the sign go on merged states.
    """

    def edges(u: int, value: XLaurent):
        for v in range(u, bound + 1):
            yield v, qbinomial(v, u).shift(-u * v if pos - 1 <= coupled else 0)

    states: dict = {0: ONE}
    for pos in range(1, length + 1):
        states = {
            v: (-p if pos == sign_pos and v % 2 else p).shift(node_shift(pos, v))
            for v, p in _chain_step(states, edges).items()
        }
    fold = fold_shift or (lambda v: 0)
    closing = lambda v, p: ((None, qbinomial(bound, v).shift(fold(v))),)
    return _chain_step(states, closing).get(None, XLaurent())


def _c_sum_chain(t: int, m: int, n: int, cutoff: int | None) -> XLaurent:
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


def c_multisum_chain(t: int, m: int, n: int) -> XLaurent:
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

    quot = divexact(total, poch_q(1, bound))
    out = (-quot).shift(bound - t)
    if not has_integer_coeffs(out):
        raise ExactnessError(
            f"multisum C_{n} for (t={t}, m={m}) is not an integer Laurent polynomial"
        )
    return out


def jones_hyper_chain(t: int, n_color: int) -> XLaurent:
    """Colored Jones of T(2, 2t+1) from the nested q-hypergeometric sum.

    The chain N-1 >= k_t >= ... >= k_1 >= 0 is summed from the top: the state
    is k_i, the head (q^{1-N})_{k_t} q^{-N k_t}, the edge weight
    [k_{i+1} choose k_i] and the node factor q^{k_i(k_i+1-2N)}.  The sum
    terminates because (q^{1-N})_k vanishes for k >= N.
    """
    if t < 1 or n_color < 1:
        raise ValueError("need t >= 1 and a positive color")
    n = n_color
    states = {kt: poch_q(1 - n, kt).shift(-n * kt) for kt in range(n)}
    edges = lambda k_next, p: ((k, qbinomial(k_next, k)) for k in range(k_next + 1))
    for _ in range(t - 1):
        states = {k: p.shift(k * (k + 1 - 2 * n)) for k, p in _chain_step(states, edges).items()}
    return sum(states.values(), XLaurent()).shift(t * (1 - n))


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
        cq = QSeries.from_q_laurent(c, window)
        total = total + cq * g
    return total


def _first_failure(pair: BaileyPair, n_max: int, trunc: int) -> dict | None:
    """Witness of the first n at which either pair relation fails, or None."""
    a_exp = pair.a_exp
    for n in range(n_max + 1):
        rhs = QSeries.zero(1, trunc)
        for j in range(n + 1):
            alpha_j = pair.alpha(j, trunc)
            if not alpha_j.terms:
                continue
            den = _q(1, n - j) + _q(a_exp + 1, n + j)
            rhs = rhs + _by_binomials(alpha_j, over=den, trunc=trunc)
        witness = diff_qseries(pair.beta(n, trunc), rhs, label=f"beta relation at n={n}")
        if witness is None and n > 0:
            inner = QSeries.zero(1, trunc)
            for j in range(n + 1):
                piece = (poch_q(-n, j) * poch_q(a_exp + n, j)).shift(j)
                if piece.is_zero():
                    continue
                beta_j = pair.beta(j, trunc - min(0, piece.min_exp()))
                inner = inner + beta_j * _exact(piece)
            sign = Mono(-1 if n % 2 else 1, 0, n * (n - 1) // 2)
            pref = [Mono(1, 0, a_exp + 2 * n)] + _q(a_exp + 1, n - 1)
            rhs2 = _by_binomials(inner.mul_mono(sign), pref, _q(1, n))
            witness = diff_qseries(pair.alpha(n, trunc), rhs2, label=f"alpha relation at n={n}")
        if witness is not None:
            witness["n"] = n
            return witness
    return None


def bailey_step(pair: BaileyPair, b: Mono | None, c: Mono | None) -> BaileyPair:
    """One application of the lemma; b, c are monomials or None (a limit).

    With both limits the step is alpha -> a^n q^{n^2} alpha; otherwise the
    generic transform.  Degenerate parameter choices surface when a term
    divides by a Pochhammer factor that is not a unit: (1 - q^0) raises
    ZeroDivisionError and a factor with no q-power but an x-power raises
    ExactnessError, which is the rejection the caller sees.  Every alpha and
    beta term of the stepped pair comes back at exactly the window asked for.
    """
    a_exp = pair.a_exp
    head, den = _lemma(a_exp, b, c)

    def headed(term: TermFn, k: int, n: int, window: int) -> QSeries:
        h = head(k, n)  # exact, so term k is needed below window - val(h) only
        return h * term(k, window - h.min_exp()) if h.terms else h

    def alpha(n: int, window: int) -> QSeries:
        return _by_binomials(headed(pair.alpha, n, n, window), over=den(n), trunc=window)

    def beta(n: int, window: int) -> QSeries:
        out = QSeries.zero(1, window)
        for k in range(n + 1):
            term = headed(pair.beta, k, n, window)
            out = out + _by_binomials(term, over=_q(1, n - k), trunc=window)
        return _by_binomials(out, over=den(n), trunc=window)

    floor_a = floor_b = None  # floors are carried through the (inf, inf) step only
    if b is None and c is None and pair.alpha_floor is not None:
        base_a = pair.alpha_floor
        floor_a = lambda n: base_a(n) + a_exp * n + n * n
    if b is None and c is None and pair.beta_floor is not None:
        base_b = pair.beta_floor
        floor_b = lambda n: min(base_b(k) + a_exp * k + k * k for k in range(n + 1))
    names = [str(p) for p in (b, c) if p is not None] + ["inf", "inf"]
    return BaileyPair(
        pair.label + f"+step({names[0]},{names[1]})", a_exp, alpha, beta,
        alpha_floor=floor_a, beta_floor=floor_b,
    )


def _limit_sides(
    pair: BaileyPair, b: Mono | None, c: Mono | None, trunc: int
) -> tuple[QSeries, QSeries]:
    if pair.alpha_floor is None or pair.beta_floor is None:
        raise ValueError("limit identity needs valuation floors on the pair")
    a_exp = pair.a_exp
    aq = Mono(1, 0, a_exp + 1)
    if (b is None) != (c is None):
        _req(aq.divide(b if b is not None else c), "the quotient of a mixed limit")

    def term_low(n: int, floor: FloorFn) -> int:
        if b is None and c is None:
            return n * n + a_exp * n + floor(n)
        if b is not None and c is not None:
            e = aq.divide(b.times(c)).q_exp
            if e <= 0:
                raise ValueError("aq/(bc) must carry a positive q-exponent")
            return n * e + _neg_val_bound(b) + _neg_val_bound(c) + floor(n)
        fin = b if b is not None else c
        quo = aq.divide(fin)
        return n * (n - 1) // 2 + n * quo.q_exp + _neg_val_bound(fin) + floor(n)

    head, den = _lemma(a_exp, b, c)

    lhs = QSeries.zero(1, trunc)
    n = 0
    while True:
        low = term_low(n, pair.beta_floor)
        if low >= trunc:
            break
        lhs = lhs + head(n, n) * pair.beta(n, trunc - min(0, low))
        n += 1

    inner = QSeries.zero(1, trunc)
    n = 0
    while True:
        low = term_low(n, pair.alpha_floor)
        if low >= trunc:
            break
        prod = head(n, n) * pair.alpha(n, trunc - min(0, low))
        inner = inner + _by_binomials(prod, over=den(n), trunc=trunc)
        n += 1

    v = int(min(0, inner._valuation()))
    w = trunc - v

    def below(mono: Mono, what: str) -> list[Mono]:
        """The factors of the infinite product (mono)_inf that reach q^w."""
        return _poch(_req(mono, what), w - mono.q_exp)

    num, den = [], below(aq, "aq")
    if b is not None:
        num += below(aq.divide(b), "aq/b")
    if c is not None:
        num += below(aq.divide(c), "aq/c")
    if b is not None and c is not None:
        den += below(aq.divide(b.times(c)), "aq/bc")
    return lhs, _by_binomials(inner, num, den)


def bernoulli_rhs(t: int, m: int, n_root: int) -> CycloNum:
    """Finite Bernoulli-weighted character sum, in the order-8(2t+1)N field.

    Every contributing k satisfies k^2 = (2t+1-2m)^2 mod 8(2t+1); that
    common phase is divided out, so the value pairs with bernoulli_lhs.
    The divisibility is asserted term by term.
    """
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    span = 8 * (2 * t + 1)
    order = span * n_root
    shift = (2 * t + 1 - 2 * m) ** 2
    total = CycloNum.zero(order)
    top = 4 * (2 * t + 1) * n_root
    for k in range(1, top + 1):
        ch = chi_periodic(t, m, k)
        if not ch:
            continue
        e = k * k - shift
        if e % span:
            raise ArithmeticError(
                f"character support broke the k^2 congruence at k={k} (t={t}, m={m})"
            )
        weight = bernoulli_b2(Fraction(k, top)) * ch
        total = cyclo_add(total, CycloNum.zeta(order, e) * weight)
    return total * ((2 * t + 1) * n_root)


@lru_cache(maxsize=None)
def _context(order: int):
    """(degree, modulus coeffs, x^k mod Phi tables) for the order-M field."""
    phi = cyclotomic_polynomial(order)
    deg = phi.max_exp()
    mod = [0] * (deg + 1)
    for e, c in phi.coeffs.items():
        mod[e] = int(c)
    # x^deg reduced: x^deg = -sum_{i<deg} mod[i] x^i (Phi is monic)
    top = tuple(-m for m in mod[:deg])
    # zeta powers 0..order-1 (x^order = 1 mod Phi, so this covers every power)
    pows = []
    cur = [0] * deg
    cur[0] = 1
    pows.append(tuple(cur))
    for _ in range(1, order):
        nxt = [0] * deg
        lead = cur[deg - 1] if deg > 0 else 0
        for i in range(deg - 1):
            nxt[i + 1] = cur[i]
        if lead:
            for i in range(deg):
                nxt[i] += lead * top[i]
        cur = nxt
        pows.append(tuple(cur))
    return deg, tuple(mod), tuple(pows)


def cyclo_eval(p: XLaurent | QSeries, order: int, k: int = 1) -> CycloNum:
    """Evaluate a polynomial in q at zeta_order^k, exactly.

    A QSeries argument must be exact (complete), integral-exponent and free
    of x: a truncated series would silently drop terms, so it is rejected.
    """
    if isinstance(p, QSeries):
        p = p.to_q_laurent()
    deg, _, pows = _context(order)
    vec = [0] * deg
    for e, c in p.coeffs.items():
        for i, z in enumerate(pows[(k * e) % order]):
            if z:
                vec[i] += c * z
    return CycloNum(order, vec)


def cyclo_mul_by_table(self: CycloNum, other: CycloNum | int | Fraction) -> CycloNum:
    if isinstance(other, (int, Fraction)):
        return CycloNum(self.order, [a * other for a in self.coeffs])
    same_field(self, other)
    deg, _, pows = _context(self.order)
    raw = [0] * (2 * deg - 1 if deg > 1 else 1)
    for i, a in enumerate(self.coeffs):
        if not a:
            continue
        for j, b in enumerate(other.coeffs):
            if b:
                raw[i + j] += a * b
    vec = list(raw[:deg]) + [0] * (deg - len(raw[:deg]))
    for k in range(deg, len(raw)):
        c = raw[k]
        if not c:
            continue
        for i, p in enumerate(pows[k % self.order]):
            if p:
                vec[i] += c * p
    return CycloNum(self.order, vec)


def bernoulli_lhs(t: int, m: int, n_root: int) -> CycloNum:
    """zeta_N^{-t} F_t^{(m)}(zeta_N), embedded in the order-8(2t+1)N field."""
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    span = 8 * (2 * t + 1)
    order = span * n_root
    f = useries.eval_f_at_root(t, m, n_root, inverse=False)
    # f.embed(order): zeta_N^i -> zeta_M^(i M/N)
    deg_new, _, pows = _context(order)
    vec = [0] * deg_new
    for i, c in enumerate(f.coeffs):
        if not c:
            continue
        for j, p in enumerate(pows[(i * span) % order]):
            if p:
                vec[j] += c * p
    return cyclo_mul_by_table(CycloNum(order, vec), CycloNum(order, pows[(-t * span) % order]))


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

_TM = [(t, m) for t in range(1, 5) for m in range(1, t + 1)]


def test_kron_step_merges_states_and_aligns_offsets():
    # a = 1 + q and b = 3 q^-1: l1 norms at w = 0, images at X = 2^8 at w = 8
    def edges(state, low):
        yield "x", 10, 1, False  # a and b reach x at the offsets 1 and 0
        if state == "b":
            yield "y", 5, -2, True  # a negative shift and a negated edge
            yield "y", 7, -2, False  # at the same offset as the edge before
        yield "z", 0, 5, False  # zero weights are skipped

    norms, images = {"x": (50, 0), "y": (36, -3)}, {"x": (657950, 0), "y": (6, -3)}
    for w, a, want in ((0, 2, norms), (8, 257, images)):
        # both orders, so the higher offset is met first and second
        assert laurent._kron_step({"a": (a, 0), "b": (3, -1)}, edges, w) == want, w
        assert laurent._kron_step({"b": (3, -1), "a": (a, 0)}, edges, w) == want, w
        assert laurent._kron_step({}, edges, w) == {}
    # 10 q (1 + q) + 30 and -15 q^-3 + 21 q^-3, under their l1 bounds
    assert laurent._read_back(657950, 0, 8, 50) == XLaurent({0: 30, 1: 10, 2: 10})
    assert laurent._read_back(6, -3, 8, 36) == XLaurent({-3: 6})


def _below(p: XLaurent, window: int) -> dict:
    return {e: c for e, c in p.coeffs.items() if e < window}


@pytest.mark.parametrize("t, m", _TM)
def test_product_and_multisum_match_their_oracles(t, m):
    for n in range(-1, 7):
        old_product = _c_sum(t, m, n, None).shift(n + 1 - t) if n >= 0 else XLaurent()
        assert cyclotomic_coeffs.c_product(t, m, n) == old_product, n
        old_multisum = c_multisum(t, m, n) if n >= 0 else XLaurent()
        assert cyclotomic_coeffs.c_multisum(t, m, n) == old_multisum, n


@pytest.mark.parametrize("t, m", _TM)
def test_c_series_matches_its_oracle_below_the_window(t, m):
    for window in range(21):
        for n, new in enumerate(cyclotomic_coeffs.c_series(t, m, 6, window)):
            old = _c_sum(t, m, n, window).shift(n + 1 - t)
            assert new.coeffs == _below(old, window), (n, window)


@pytest.mark.parametrize("t", range(1, 5))
def test_jones_hyper_matches_its_oracle(t):
    for n_color in range(1, 9):
        assert jones.jones_hyper(t, n_color) == jones_hyper(t, n_color), n_color


@pytest.mark.parametrize("t, m", _TM)
def test_root_values_match_their_oracles(t, m):
    # the t = 4 oracles take about 25 s per m through N = 24, so that row stops at 16
    for n_root in range(1, 25 if t < 4 else 17):
        for inverse in (False, True):
            new = useries.eval_f_at_root(t, m, n_root, inverse=inverse)
            assert new == eval_f_at_root(t, m, n_root, inverse=inverse), (n_root, inverse)
        assert useries.u_eval_at_root(t, m, n_root) == u_eval_at_root(t, m, n_root), n_root


def _root_value(order: int, pick) -> CycloNum:
    """One binomial or Pochhammer at zeta, as a one-factor route of the engine."""
    return cyclo._root_sum(order, lambda binom, poch, step: (pick(binom, poch), 0))[0]


def _conjugate(value: CycloNum) -> CycloNum:
    """The image of a field element under zeta -> zeta^-1."""
    return cyclo.cyclo_eval(XLaurent(enumerate(value.coeffs)), value.order, -1)


@pytest.mark.parametrize("order", range(1, 17))
def test_q_lucas_binomials_match_q_pascal(order):
    # the conjugate of each value at zeta is checked against the table at zeta^-1
    max_top = 7 * (order + 1) + 3  # the longest table the oracle builds, at t = 3
    tables = {eps: _field_qbinomials(order, eps, max_top) for eps in (1, -1)}
    for a in range(max_top + 1):
        for b in range(a + 1):
            new = _root_value(order, lambda binom, _: binom(a, b))
            assert new == tables[1][a][b] and _conjugate(new) == tables[-1][a][b], (a, b)
    zero = CycloNum.zero(order)
    for a, b in ((-1, 0), (-3, -1), (5, -1), (0, -2), (0, 1), (4, 5), (2, 3 * order)):
        new = _root_value(order, lambda binom, _: binom(a, b))
        assert new == zero == _binom_at(tables[1], order, a, b), (a, b)
    pochs = zip(_field_poch(order, 1, order - 1), _field_poch(order, -1, order - 1))
    for k, (old, old_inverse) in enumerate(pochs):
        new = _root_value(order, lambda _, poch: poch(k))
        assert new == old and _conjugate(new) == old_inverse, k


def test_root_values_read_at_most_n_pascal_rows(monkeypatch):
    assert not hasattr(useries, "_field_qbinomials")
    asked = []
    real = cyclo._pascal_rows

    def spy(order):
        rows = real(order)
        asked.append((order, len(rows)))
        return rows

    monkeypatch.setattr(cyclo, "_pascal_rows", spy)
    cyclo._root_tables.cache_clear()
    for n_root in (1, 2, 7, 24):
        assert verify.check_duality(3, 2, n_root).passed
        # one table per N serves U(-1; zeta) and F(zeta^-1) alike
        assert [order for order, _ in asked] == [1, 2, 7, 24][: len(asked)], asked
    assert len(asked) == 4
    assert all(rows <= order for order, rows in asked), asked


def test_root_tables_are_immutable():
    # every caller shares the cached tables, so none of them may be a list
    rows, norms, poch, poch_norms, _ = cyclo._root_tables(12)
    for table in (rows, norms, *rows, *norms, poch, *poch, poch_norms):
        assert type(table) is tuple


_ROOT_GRID = [
    (t, m, n_root, inverse)
    for t, m in _TM for n_root in range(1, 25) for inverse in (None, False, True)
]


def _root_sums(monkeypatch) -> list:
    """(value, bound) of every root value on the grid, as ``cyclo._root_sum`` returns
    them; inverse None stands for U(-1; zeta), a bool for F at zeta^(+-1)."""
    seen = []
    real = cyclo._root_sum

    def spy(order, route):
        out = real(order, route)
        seen.append((order, route, *out))
        return out

    monkeypatch.setattr(useries, "_root_sum", spy)
    for t, m, n_root, inverse in _ROOT_GRID:
        if inverse is None:
            useries.u_eval_at_root(t, m, n_root)
        else:
            useries.eval_f_at_root(t, m, n_root, inverse=inverse)
    return seen


def test_root_bound_covers_every_decoded_coefficient(monkeypatch):
    seen = _root_sums(monkeypatch)
    assert len(seen) == len(_ROOT_GRID)
    for order, _, value, bound in seen:
        assert max(map(abs, value.coeffs)) <= bound, order


def test_root_bound_covers_every_power_of_zeta():
    # c_N = 1 below N = 105; a zeta power there has a coefficient 2, over its l1 norm 1
    for order in (12, 105):
        for k in range(-order, order):  # q^k as the shift of a one-edge step, of either sign
            edges = lambda state, low: ((None, 1, k, False),)
            value, bound = cyclo._root_sum(order, lambda b, p, step: step({0: (1, 0)}, edges)[None])
            assert value == CycloNum.zeta(order, k), (order, k)
            assert max(map(abs, value.coeffs)) <= bound, (order, k)
    assert max(max(map(abs, CycloNum.zeta(105, k).coeffs)) for k in range(105)) == 2


def test_root_read_back_edges():
    # order 5 at w = 8: bounds up to 2^6 - 1 read back, 2^6 raises
    deg, mod, _ = cyclo._context(5)
    x = 1 << 8
    image = lambda vec: sum(c * x**j for j, c in enumerate(vec))
    vec = [63, -63, 0, 17]
    assert cyclo._root_read(image(vec), 5, 8, 63) == CycloNum(5, vec)
    assert cyclo._root_read(image(vec) + 5 * image(mod), 5, 8, 63) == CycloNum(5, vec)
    with pytest.raises(ExactnessError, match="8-bit slots"):
        cyclo._root_read(image(vec), 5, 8, 64)
    # Phi_5(X) > X^4, so the residue M - 1 has a fifth digit
    bias = image([x // 2] * deg)
    with pytest.raises(ExactnessError, match="spilled"):
        cyclo._root_read(image(mod) - 1 - bias, 5, 8, 0)


def test_a_narrow_root_slot_is_rejected_not_wrapped(monkeypatch):
    seen = []
    real = cyclo._root_sum
    monkeypatch.setattr(useries, "_root_sum", lambda *args: seen.append(args) or real(*args))
    values = [
        useries.u_eval_at_root(3, 2, 24),
        useries.eval_f_at_root(3, 1, 24),
        useries.eval_f_at_root(4, 2, 24),
    ]
    for true, (order, route) in zip(values, seen, strict=True):
        assert max(map(abs, true.coeffs)) >= 1 << 7
        r = cyclo._root_pass(order, route, 8)
        bound = max(cyclo._root_pass(order, route, 0), 1) * cyclo._root_tables(order)[4]
        with pytest.raises(ExactnessError, match="8-bit slots"):
            cyclo._root_read(r, order, 8, bound)
        # without the guard, the 8-bit image would read back as a wrong value
        assert cyclo._root_read(r, order, 8, 0) != true


def _bailey_chains():
    lovejoy = {
        (t, ell, n): bailey._lovejoy_s.__wrapped__(t, ell, n)
        for t in range(1, 5) for ell in range(t) for n in range(7)
    }
    star = {
        (k, ell, n): bailey.star_pair(k, ell).beta(n, 25)
        for k in range(1, 5) for ell in range(k) for n in range(7)
    }
    closed = {
        (t, tail, n): bailey_oracles.beta_chain_closed(t, tail, n, 25)
        for t in range(1, 4) for tail in range(t) for n in range(7)
    }
    return lovejoy, star, closed


def _oracle_bailey_chains(chain):
    """``_bailey_chains`` on the oracle ``chain``, which takes the arguments
    that ``bailey._chain_poly`` took: the former ``_lovejoy_s`` and star beta,
    verbatim but for the chain they call, and the beta wrappers unchanged."""

    def lovejoy_s(t: int, ell: int, n: int, centre: int = 1) -> XLaurent:
        length = 2 * t - 1

        def node(pos: int, v: int) -> int:
            e = 0
            if pos <= ell:
                e -= v
            if pos == t:
                e += v * (v + centre) // 2
            if pos > t:
                e += v * v
            return e

        return chain(length, n, node, t - 1, sign_pos=t)

    def star_beta(k: int, ell: int, n: int) -> QSeries:
        head = Mono(-1 if n % 2 else 1, 0, -n * (n + 1) // 2)

        def node(pos: int, v: int) -> int:
            return -v if pos <= ell else 0

        s = ONE if k == 1 else chain(k - 1, n, node, k - 2, fold_shift=lambda v: -v * n)
        return _by_binomials(_exact(s).mul_mono(head), over=_q(1, n), trunc=25)

    lovejoy = {(t, ell, n): lovejoy_s(t, ell, n) for t in range(1, 5) for ell in range(t) for n in range(7)}
    star = {(k, ell, n): star_beta(k, ell, n) for k in range(1, 5) for ell in range(k) for n in range(7)}
    closed = {
        (t, tail, n): _by_binomials(_exact(lovejoy_s(t, tail, n, -1)), over=_q(1, n), trunc=25)
        for t in range(1, 4) for tail in range(t) for n in range(7)
    }
    return lovejoy, star, closed


def _edge_shift_chain_poly(length, bound, node_shift, coupled, sign_pos=None, fold_shift=None):
    """The oracle ``_chain_poly``, which took the edge shift -u*v on edges
    i <= coupled (0 after them) in place of the number of coupled edges."""
    edge_shift = lambda i, u, v: -u * v if i <= coupled else 0
    return _chain_poly(length, bound, node_shift, edge_shift, sign_pos, fold_shift)


def _assert_same_chains(new, old):
    for new_family, old_family in zip(new, old, strict=True):
        assert new_family.keys() == old_family.keys()
        for key, value in new_family.items():
            assert value == old_family[key], key


def test_bailey_chain_betas_match_the_oracle():
    _assert_same_chains(_bailey_chains(), _oracle_bailey_chains(_edge_shift_chain_poly))


def test_bailey_chain_betas_match_their_chain_oracle():
    _assert_same_chains(_bailey_chains(), _oracle_bailey_chains(_chain_poly_chain))


def _kronecker_runs(monkeypatch, *modules) -> list:
    """Every (result, bound) that the modules' ``_kronecker`` returns from now on."""
    runs, real = [], laurent._kronecker

    def recording(*args):
        out = real(*args)
        runs.extend(out)
        return out

    for module in modules:
        monkeypatch.setattr(module, "_kronecker", recording)
    return runs


def test_bailey_chains_match_the_kronecker_oracle_and_its_bounds(monkeypatch):
    # the closed chain's beta now lives with the oracles, on the library's chain
    new_runs = _kronecker_runs(monkeypatch, bailey, bailey_oracles)
    old_runs = _kronecker_runs(monkeypatch, kernel_oracles)
    new, old = _bailey_chains(), _oracle_bailey_chains(chain_poly)
    _assert_same_chains(new, old)
    # same chains, same l1 bounds, so the same slot widths; star(k=1)'s beta ran
    # no chain at the oracle, and its length-0 staircase closes to [n, 0] = 1
    lovejoy = len(new[0])
    assert new_runs == old_runs[:lovejoy] + [(ONE, 1)] * 7 + old_runs[lovejoy:]


@pytest.mark.parametrize("t, m", _TM)
def test_multisum_staircase_matches_its_oracle_route(t, m):
    # the same polynomials and the same l1 bounds, per n and batched
    for ns in [(n,) for n in range(15)] + [range(15), range(6, 15)]:
        new = laurent._kronecker(partial(cyclotomic_coeffs._multisum, t, m, ns))
        assert new == laurent._kronecker(partial(multisum, t, m, ns)), ns


@pytest.mark.parametrize("t, m", _TM)
def test_multisum_passes_match_the_keyed_staircase(t, m, monkeypatch):
    # the same polynomials and the same l1 bounds, so the same slot widths
    grid = [(n,) for n in range(15)] + [range(15), range(6, 15)]
    multisums = lambda: [laurent._kronecker(partial(cyclotomic_coeffs._multisum, t, m, ns)) for ns in grid]
    new = multisums()
    monkeypatch.setattr(cyclotomic_coeffs, "_staircase", keyed_staircase_at)
    assert multisums() == new


def test_bailey_betas_on_passes_match_the_keyed_staircase(monkeypatch):
    def betas() -> list:
        runs = _kronecker_runs(monkeypatch, bailey)
        for t, n in itertools.product(range(1, 4), range(9)):
            for ell in range(t):
                bailey._lovejoy_s.__wrapped__(t, ell, n)
        for k, n in itertools.product(range(1, 5), range(9)):
            for ell in range(k):
                bailey.star_pair(k, ell).beta(n, 20)
        return runs

    new = betas()
    monkeypatch.setattr(bailey, "_staircase", keyed_staircase_at)
    assert betas() == new


@pytest.mark.parametrize("t, m", _TM)
def test_product_close_on_the_general_pass_matches_its_oracle(t, m):
    # c_products' chain, and c_series' windowed chain at every window
    ns = range(15)
    for window in (None, *range(-2, 61)):
        limits = None if window is None else [window - (n + 1 - t) for n in ns]
        new, old = (partial(route, t, m, ns, window) for route in (cyclotomic_coeffs._c_sum, product_close_c_sum))
        assert laurent._kronecker(new, limits) == laurent._kronecker(old, limits), window


def _image_reads(route) -> list:
    """(the states' keys, the (a, b) asked) for every step of ``route`` that asks
    ``binom`` for an image, over both passes of ``laurent._kronecker``."""
    reads: list = []

    def spied(binom, one_minus, step):
        asked: list = []

        def spied_step(states, edges, *limit):
            asked.clear()
            out = step(states, edges, *limit)
            if asked:
                reads.append((set(states), sorted(asked)))
            return out

        return route(lambda a, b: asked.append((a, b)) or binom(a, b), one_minus, spied_step)

    laurent._kronecker(spied)
    return reads


def test_only_steps_with_no_work_to_share_read_images(monkeypatch):
    for (t, m), top in (((3, 2), 17), ((2, 1), 25)):
        # position 1 steps one state; position 2 steps the singletons (u, u):
        # the centre at (2, 1), and at (3, 2) the last step to read an image
        first = ({(0, None)}, [(v, 0) for v in range(top + 1)])
        ladder = ({(u, u) for u in range(top + 1)}, sorted((v, u) for u in range(top + 1) for v in range(u, top + 1)))
        reads = _image_reads(partial(cyclotomic_coeffs._multisum, t, m, range(top)))
        assert reads == [first, ladder] * 2, (t, m)
    # the betas close into one bound by one image per state
    routes: list = []
    monkeypatch.setattr(bailey, "_kronecker", lambda route: routes.append(_image_reads(route)) or laurent._kronecker(route))
    for t, ell in ((1, 0), (2, 1), (3, 0), (3, 2)):
        bailey._lovejoy_s.__wrapped__(t, ell, 8)
    for k, ell in ((1, 0), (2, 1), (3, 2)):
        bailey.star_pair(k, ell).beta(8, 20)
    for reads in routes:
        *steps, (keys, asked) = reads[: len(reads) // 2]
        assert reads[len(reads) // 2 :] == reads[: len(reads) // 2]
        assert [keys for keys, _ in steps] in ([], [{(0, None)}])
        assert asked == sorted((8, u) for u, _ in keys)


def test_a_staircase_pass_one_slot_width_below_the_bound_raises(monkeypatch):
    width = laurent._width
    for t, m, top in ((3, 2, 16), (2, 1, 24)):
        bounds = [bound for _, bound in laurent._kronecker(partial(cyclotomic_coeffs._multisum, t, m, range(top + 1)))]
        assert width(max(bounds)) >= 64
    monkeypatch.setattr(laurent, "_width", lambda bound: width(bound) - 32)
    for t, m, top in ((3, 2, 16), (2, 1, 24)):
        with pytest.raises(ExactnessError, match="bit slots"):
            cyclotomic_coeffs.c_multisums(t, m, top)


@pytest.mark.parametrize("t, m", _TM)
def test_kronecker_routes_match_their_chain_oracles(t, m):
    for n in range(-1, 15):
        full = _c_sum_chain(t, m, n, None).shift(n + 1 - t) if n >= 0 else XLaurent()
        assert cyclotomic_coeffs.c_product(t, m, n) == full, n
        multisum = c_multisum_chain(t, m, n) if n >= 0 else XLaurent()
        assert cyclotomic_coeffs.c_multisum(t, m, n) == multisum, n
    for window in range(-2, 61):
        # the oracle is exact below the window; c_series has no term at or above it
        for n, new in enumerate(cyclotomic_coeffs.c_series(t, m, 14, window)):
            old = _c_sum_chain(t, m, n, window).shift(n + 1 - t)
            assert new.coeffs == _below(old, window), (n, window)


@pytest.mark.parametrize("t, m", _TM)
def test_one_windowed_chain_matches_the_per_n_chains(t, m):
    # every n up to the first whose valuation n + 1 - m reaches the window
    for window in range(1 - m, 61):
        series = cyclotomic_coeffs.c_series(t, m, window + m - 1, window)
        assert len(series) == window + m and not series[-1], window
        for n, new in enumerate(series):
            assert new.coeffs == _below(c_series(t, m, n, window), window), (n, window)
    assert cyclotomic_coeffs.c_series(t, m, -1, 10) == []


def test_a_windowed_step_keeps_each_state_below_its_limit():
    # [4, 2] = 1 + q + 2q^2 + q^3 + q^4 enters a at q^1 (needed below q^3) and
    # b at q^5 (needed below q^4): a keeps q + q^2, b is dropped
    def route(binom, one_minus, step, shift=1):
        edges = lambda state, low: (("a", binom(4, 2), shift, False), ("b", binom(4, 2), 5, True))
        out = step({None: (1, 0)}, edges, {"a": 3, "b": 4}.get)
        return [out.get("a", (0, 0)), out.get("b", (0, 0))]

    assert laurent._kronecker(route, [3, 4]) == [(XLaurent({1: 1, 2: 1}), 6), (XLaurent(), 6)]
    assert laurent._kronecker(route, [2, 4])[0] == (XLaurent({1: 1}), 6)
    with pytest.raises(ValueError, match="limits"):
        laurent._kronecker(route)
    with pytest.raises(ValueError, match="shift a value down"):
        laurent._kronecker(partial(route, shift=-1), [3, 4])


@pytest.mark.parametrize("t, m", _TM)
def test_one_multisum_chain_matches_the_chain_oracle_at_every_n(t, m):
    oracle = [c_multisum_chain(t, m, n) for n in range(13)]
    assert cyclotomic_coeffs.c_multisums(t, m, 12) == oracle
    assert cyclotomic_coeffs.c_multisums(t, m, -1) == []


@pytest.mark.parametrize("t, m", _TM)
def test_one_product_chain_matches_c_product_at_every_n(t, m):
    expected = [cyclotomic_coeffs.c_product(t, m, n) for n in range(15)]
    assert cyclotomic_coeffs.c_products(t, m, 14) == expected
    assert cyclotomic_coeffs.c_products(t, m, -1) == []


@pytest.mark.parametrize("t, m", _TM)
def test_nested_habiro_reconstruction_matches_its_oracle(t, m):
    coeffs = cyclotomic_coeffs.c_products(t, m, 11)
    get = coeffs.__getitem__
    for n_color in range(1, 13):
        old = habiro_reconstruct(coeffs, n_color)
        assert jones.habiro_reconstruct(coeffs, n_color) == old, n_color
        assert jones.habiro_reconstruct(get, n_color) == old, n_color


@pytest.mark.parametrize("t, m", [(t, m) for t, m in _TM if t <= 3])
def test_habiro_routes_match_their_per_term_oracles(t, m):
    colour = {ell: jones.jones_left(t, m, ell) for ell in range(1, 14)}.__getitem__
    old = [per_term_habiro_inverse(colour, n) for n in range(13)]
    for order in range(-1, 13):
        assert jones.habiro_inverses(colour, order) == old[: order + 1], order
    assert [jones.habiro_inverse(colour, n) for n in range(13)] == old
    coeffs = cyclotomic_coeffs.c_products(t, m, 12)
    for n_color in range(1, 14):
        assert jones.habiro_reconstruct(coeffs, n_color) == nested_habiro_reconstruct(coeffs, n_color), n_color


@pytest.mark.parametrize("t", range(1, 5))
def test_kronecker_jones_hyper_matches_its_chain_oracle(t):
    for n_color in range(1, 15):
        assert jones.jones_hyper(t, n_color) == jones_hyper_chain(t, n_color), n_color


def _routes():
    """Every chain route at every grid point, as the arguments that
    ``laurent._kronecker`` takes: the route, and a windowed route's limits."""
    for (t, m), n in itertools.product(_TM, range(15)):
        yield (partial(cyclotomic_coeffs._c_sum, t, m, range(n, n + 1), None),)
        yield partial(cyclotomic_coeffs._c_sum, t, m, range(n, n + 1), 3 * n), [2 * n - 1 + t]
        yield (partial(cyclotomic_coeffs._multisum, t, m, (n,)),)
    for t, m in _TM:
        yield (partial(cyclotomic_coeffs._c_sum, t, m, range(15), None),)
        yield partial(cyclotomic_coeffs._c_sum, t, m, range(15), 20), [19 - n + t for n in range(15)]
        yield (partial(cyclotomic_coeffs._multisum, t, m, range(15)),)
    for t in range(1, 5):
        for n_color in range(1, 15):
            yield (partial(jones._jones_chain, t, n_color),)


def _rewritten_routes():
    """The routes on generating-function passes, each with its per-binomial
    oracle from ``kernel_oracles``, on the ``_routes`` grid."""
    for (t, m), n in itertools.product(_TM, range(15)):
        args = (t, m, range(n, n + 1), None)
        yield partial(cyclotomic_coeffs._c_sum, *args), partial(keyed_c_sum, *args)
    for (t, m), start in itertools.product(_TM, (0, 6, 14)):
        args = (t, m, range(start, 15), None)
        yield partial(cyclotomic_coeffs._c_sum, *args), partial(keyed_c_sum, *args)
    for t in range(1, 5):
        for n_color in range(1, 15):
            yield partial(jones._jones_chain, t, n_color), partial(per_edge_jones_chain, t, n_color)


def test_generating_function_passes_match_the_per_binomial_routes():
    # same results and same l1 bounds, so the same slot widths and read-backs
    for new, old in _rewritten_routes():
        assert laurent._kronecker(new) == laurent._kronecker(old), new
    # an empty range closes nothing (the oracle indexed ns[-1] and could not run)
    for t, m in _TM:
        for ns in (range(0), range(5, 5)):
            assert laurent._kronecker(partial(cyclotomic_coeffs._c_sum, t, m, ns, None)) == []


def _binomials_asked(route) -> list:
    """Every (a, b) that ``route`` hands to ``binom``, over both passes."""
    asked: list = []

    def spied(binom, one_minus, step):
        return route(lambda a, b: asked.append((a, b)) or binom(a, b), one_minus, step)

    laurent._kronecker(spied)
    return asked


def test_only_the_product_form_levels_read_binomials():
    for t in range(1, 5):
        assert _binomials_asked(partial(jones._jones_chain, t, 12)) == [], t
    for (t, m), ns in itertools.product(_TM, (range(9, 10), range(12))):

        def levels_only(binom, one_minus, step):
            cyclotomic_coeffs._c_levels(t, m, ns[-1] + 1, None, binom, step)
            return []

        levels = _binomials_asked(levels_only)
        assert bool(levels) == (t > 1)
        assert _binomials_asked(partial(cyclotomic_coeffs._c_sum, t, m, ns, None)) == levels, (t, m, ns)


def test_the_l1_pass_sums_the_norm_of_every_factor():
    # ||[6, 3]||_1 = C(6, 3) and ||1 - q^3||_1 = 2; signs cancel in the image only
    single = lambda factor: lambda binom, one_minus, step: [(factor(binom, one_minus), 0)]
    assert laurent._kronecker(single(lambda b, o: b(6, 3))) == [(qbinomial(6, 3), 20)]
    assert laurent._kronecker(single(lambda b, o: o(3))) == [(XLaurent({0: 1, 3: -1}), 2)]

    def route(binom, one_minus, step):
        edges = lambda state, low: (
            (None, binom(2, 1), 1, False),
            (None, binom(2, 1), 1, True),
            (None, one_minus(1), -1, True),
        )
        return [step({0: (1, 0)}, edges)[None]]

    assert laurent._kronecker(route) == [(XLaurent({-1: -1, 0: 1}), 6)]


def test_l1_bound_covers_every_decoded_coefficient():
    for args in _routes():
        for result, bound in laurent._kronecker(*args):
            assert max(map(abs, result.coeffs.values()), default=0) <= bound, args


def test_a_narrow_slot_is_rejected_not_wrapped(monkeypatch):
    route = partial(cyclotomic_coeffs._c_sum, 3, 1, range(8, 9), None)
    [(true, _)] = laurent._kronecker(route)
    assert max(true.coeffs.values()) >= 1 << 7
    monkeypatch.setattr(laurent, "_width", lambda bound: 8)
    with pytest.raises(ExactnessError, match="8-bit slots"):
        cyclotomic_coeffs.c_product.__wrapped__(3, 1, 8)
    with pytest.raises(ExactnessError, match="8-bit slots"):
        cyclotomic_coeffs.c_multisum(3, 1, 8)
    with pytest.raises(ExactnessError, match="8-bit slots"):
        jones.jones_hyper(3, 12)
    # without the guard, the 8-bit image would read back as a wrong polynomial
    [(v, o)] = route(
        lambda a, b: laurent._binom_image(a, b, 8),
        lambda d: 1 - (1 << 8 * d),
        lambda states, edges: laurent._kron_step(states, edges, 8),
    )
    assert laurent._read_back(v, o, 8, 0) != true
    with pytest.raises(ExactnessError, match="8-bit slots"):
        cyclotomic_coeffs.c_multisums(3, 1, 8)
    # the batched route reads each n back under its own bound: every n whose
    # bound needs more than 8 bits raises, and the others read back true
    monkeypatch.undo()
    batched = partial(cyclotomic_coeffs._multisum, 3, 1, range(9))
    truths = laurent._kronecker(batched)
    read_back, outcomes = laurent._read_back, []

    def recording(v, o, w, bound, limit=None):
        try:
            outcomes.append(read_back(v, o, w, bound, limit))
        except ExactnessError as err:
            outcomes.append(err)

    monkeypatch.setattr(laurent, "_width", lambda bound: 8)
    monkeypatch.setattr(laurent, "_read_back", recording)
    laurent._kronecker(batched)
    assert len(outcomes) == len(truths) == 9
    for n, (outcome, (true, bound)) in enumerate(zip(outcomes, truths)):
        if bound >= 1 << 7:
            assert isinstance(outcome, ExactnessError) and "8-bit slots" in str(outcome), n
        else:
            assert outcome == true, n
    assert sum(isinstance(outcome, ExactnessError) for outcome in outcomes) == 7


def test_a_narrow_slot_rejects_the_one_product_chain(monkeypatch):
    assert max(cyclotomic_coeffs.c_products(3, 1, 8)[8].coeffs.values()) >= 1 << 7
    monkeypatch.setattr(laurent, "_width", lambda bound: 8)
    with pytest.raises(ExactnessError, match="8-bit slots"):
        cyclotomic_coeffs.c_products(3, 1, 8)
    # the windowed chain reads only below the window, under the same bound
    with pytest.raises(ExactnessError, match="8-bit slots"):
        cyclotomic_coeffs.c_series(3, 1, 8, 30)


@pytest.mark.parametrize("t, m", _TM)
def test_horner_u_series_matches_its_oracle(t, m):
    # every window from the least (2 - m) on: the library takes its C_n from
    # one windowed chain, the oracle from one per-n chain per n
    for window in range(2 - m, 41):
        assert useries.u_series(t, m, window) == u_series(t, m, window), window


def _named_pairs() -> list[BaileyPair]:
    return [
        *(bailey.unit_pair(a_exp) for a_exp in (0, 1, 2)),
        *(make_named_pair("jones", t=t, m=m) for t in (1, 2) for m in range(1, t + 1)),
        *(make_named_pair("lovejoy", t=t, ell=ell) for t in (1, 2, 3) for ell in range(t)),
        *(make_named_pair("star", k=k, ell=ell) for k in (1, 2, 3) for ell in range(k)),
        make_named_pair("andrews"),
        bailey.andrews_pair(Mono(1, 1, 2)),
        bailey.andrews_pair(Mono(-1, 0, -1)),
    ]


def _relation_sides(monkeypatch, first_failure, pair: BaileyPair) -> list:
    """Every (label, lhs, rhs) the pair relations compare through n = 8."""
    seen = []

    def record(lhs, rhs, through=None, label=""):
        seen.append((label, lhs, rhs))
        return None  # so that every n is reached

    monkeypatch.setattr(bailey, "diff_qseries", record)
    monkeypatch.setitem(globals(), "diff_qseries", record)
    assert first_failure(pair, 8, 14) is None
    return seen


def test_nested_pair_relation_matches_the_per_term_relation(monkeypatch):
    for pair in _named_pairs():
        new = _relation_sides(monkeypatch, bailey._first_failure, pair)
        old = _relation_sides(monkeypatch, _first_failure, pair)
        assert [label for label, _, _ in new] == [label for label, _, _ in old], pair
        for (label, lhs, rhs), (_, old_lhs, old_rhs) in zip(new, old):
            assert lhs == old_lhs and rhs == old_rhs, (pair, label)


_LEMMA_STEPS = [(None, None), (Mono(1, 1, 0), Mono(1, -1, 0)), (Mono(1, 1, 0), None)]


@pytest.mark.parametrize("b, c", _LEMMA_STEPS)
def test_horner_lemma_beta_matches_its_oracle(b, c):
    for base in (bailey.unit_pair(), make_named_pair("lovejoy", t=2), make_named_pair("andrews")):
        new, old = bailey.bailey_step(base, b, c), bailey_step(base, b, c)
        twice_new, twice_old = bailey.bailey_step(new, b, c), bailey_step(old, b, c)
        for n in range(7):
            for window in (1, 6, 15):
                assert new.beta(n, window) == old.beta(n, window), (base, n, window)
                assert twice_new.beta(n, window) == twice_old.beta(n, window), (base, n, window)


def test_nested_limit_sides_match_their_oracle():
    cases = [
        (bailey.unit_pair(), None, None),
        (bailey.unit_pair(1), None, None),
        (make_named_pair("lovejoy", t=2), None, None),
        (make_named_pair("jones", t=1), Mono(1, 1, 0), Mono(1, -1, 0)),
        (bailey.unit_pair(), Mono(1, 1, 0), None),
        (make_named_pair("andrews"), None, Mono(1, -1, 0)),
    ]
    for pair, b, c in cases:
        for trunc in range(1, 26, 4):
            new = bailey._limit_sides(pair, b, c, trunc)
            old = _limit_sides(pair, b, c, trunc)
            assert new[0] == old[0] and new[1] == old[1], (pair, b, c, trunc)


@pytest.mark.parametrize("t, m", [(t, m) for t in range(1, 4) for m in range(1, t + 1)])
def test_bernoulli_weights_summed_per_exponent_match_their_oracle(t, m):
    for n_root in range(1, 13):
        assert modular.bernoulli_rhs(t, m, n_root) == bernoulli_rhs(t, m, n_root), n_root


_FIELD_ORDERS = [*range(1, 121), 448, 480]


def _sample_polys(order: int) -> list[XLaurent]:
    """Polynomials with exponents of both signs, past the order, and one of Fraction weights."""
    rng = random.Random(order)
    span = range(-2 * order, 2 * order + 1)
    return [
        XLaurent({e: rng.randint(-9, 9) for e in rng.sample(span, min(8, len(span)))}),
        XLaurent({e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in rng.sample(span, 3)}),
        XLaurent({e: 1 for e in range(order)}),
        XLaurent({-1: 5, 3 * order + 1: -2}),
    ]


def _sample_elements(order: int) -> list[CycloNum]:
    """A dense, two sparse and a one-term element of the order-M field."""
    rng = random.Random(-order)
    deg = cyclo._context(order)[0]
    sparse = lambda *values: [rng.choice((0,) * 6 + values) for _ in range(deg)]
    return [
        CycloNum(order, [rng.randint(-30, 30) for _ in range(deg)]),
        CycloNum(order, sparse(1, -2)),
        CycloNum(order, sparse(Fraction(1, 2), Fraction(-4, 3))),
        CycloNum(order, [0] * (deg - 1) + [rng.randint(1, 9)]),
    ]


def test_cyclo_eval_matches_its_power_table_oracle():
    for order in _FIELD_ORDERS:
        for p in _sample_polys(order):
            for k in (1, -1, 3):
                assert cyclo.cyclo_eval(p, order, k) == cyclo_eval(p, order, k), (order, p, k)


def test_products_and_zeta_match_the_power_table_oracle():
    for order in _FIELD_ORDERS:
        pows = _context(order)[2]
        for k in [*range(order), -1, -order - 5, 2 * order + 3]:
            assert CycloNum.zeta(order, k) == CycloNum(order, pows[k % order]), (order, k)
        elements = _sample_elements(order)
        for a, b in zip(elements, elements[1:] + elements[:1]):
            assert cyclo_mul(a, b) == cyclo_mul_by_table(a, b), (order, a, b)


@pytest.mark.parametrize("t, m", [(t, m) for t in range(1, 4) for m in range(1, t + 1)])
def test_bernoulli_lhs_matches_its_embedding_oracle(t, m):
    for n_root in range(1, 13):
        assert modular.bernoulli_lhs(t, m, n_root) == bernoulli_lhs(t, m, n_root), n_root
