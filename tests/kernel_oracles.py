"""Kernel operations that only the tests use, kept as reference oracles.

``invert`` (with ``is_monomial``) is the recurrence inversion of a series
that ``series._by_binomials`` replaced for every Pochhammer quotient, and
``divexact`` the long division of Laurent polynomials that
``laurent._over_binomials`` replaced; ``swap_x`` substitutes x -> 1/x,
``has_integer_coeffs`` tests a polynomial for integer coefficients, and
``cyclo_mul``, ``cyclo_add``, ``cyclo_neg`` and ``cyclo_sub`` (with
``same_field``) are the products, sums and differences in a cyclotomic field,
a rational allowed as the second operand of a sum or difference.  They are the
former ``QSeries``, ``XLaurent`` and ``CycloNum`` methods, verbatim but for
taking the series, polynomial or field element as their first argument.

``binom_image`` (the division recurrence that q-Pascal replaced) and
``over_binomials`` (the block pass that the per-class running sums
replaced) are the former ``laurent._binom_image`` and
``laurent._over_binomials``, verbatim but for their names.

``packed_rows_product`` and ``pack_rows`` are the former
``laurent._packed_product`` and ``laurent._pack``, verbatim but for their
names: the bivariate Kronecker product, with its slot grid, stride gcd,
window cut and own decoder, that the one-row packing read back by
``laurent._read_back`` replaced.

``habiro_reconstruct`` is the former ``jones.habiro_reconstruct``, verbatim,
which multiplied each C_n by its two Pochhammer products.
``nested_habiro_reconstruct`` and ``per_term_habiro_inverse`` are its
successor, which summed in nested (Horner) form by ``XLaurent``
shift-subtracts, and the former ``jones.habiro_inverse``, which made one
``XLaurent`` product per factor of each term, verbatim but for their names;
the library now runs both as ``laurent._kronecker`` routes that read each
result back once.

``keyed_c_sum`` (one closing binomial per state and n) and
``per_edge_jones_chain`` (one binomial per level edge) are the former
``cyclotomic_coeffs._c_sum`` and ``jones._jones_chain``, verbatim but for
their names; the library now closes the product form and runs the Jones
levels as shift-add generating-function passes.  ``keyed_c_sum``'s cutoff
branch also ran the per-n ``c_series`` chains of the U series; ``c_series``
is the former ``cyclotomic_coeffs.c_series``, verbatim but for that route's
name.  Its C_n is exact below the window and holds pruned sums above it;
the library now runs every C_n of a window from one windowed chain.

``multisum`` and ``chain_poly`` are the former ``cyclotomic_coeffs._multisum``
and ``bailey._chain_poly``, verbatim but for their names: two routes, each
with its own edge generator, for the one family of staircase chain sums that
the library now runs as one route, ``cyclotomic_coeffs._staircase``.

``keyed_staircase``, ``product_nested_close`` and ``product_close_c_sum``
are the former ``cyclotomic_coeffs._staircase``, ``_nested_close`` and
``_c_sum``, verbatim but for their names: a staircase that reads a binomial
image on every edge, and the product form's close as the one generating-function
pass.  The library now runs the staircase's steps with work to share as that
pass too, generalised to groups of states and to 1/q.  ``keyed_staircase_at``
calls the oracle as the library calls ``_staircase``, where a ``coupled``
past the chain's length couples the close (the oracle's ``fold``).
``sliced_read_back`` is the former ``laurent._read_back``, verbatim but for its
name, which decodes every slot by slicing its bytes.

``pass_hecke_u_series`` and ``pass_hecke_u1_double`` are the former
``hecke.hecke_u_series`` and ``hecke.hecke_u1_double``, verbatim but for their
names and for taking the core as a series, ``triple_sum_series``, which wraps
the x-power columns of ``hecke._triple_sum``: the lattice core times the
Pochhammer factors in one ``series._by_binomials`` pass per factor, and the
double sum's core times 1/(q)_inf from trunc such passes in one multi-row
series product.  The library now takes both from the Jacobi triple product and
Euler's pentagonal theorem.

``by_binomials`` and ``nested`` are the former ``series._by_binomials`` and
``series._nested``, verbatim but for their names: one dict pass per factor on
rows ``{e: {d: c}}``, and the Horner engine with one such pass per level, a
``QSeries`` sum per term.  The library now runs both on packed x-rows
(``series._Rows``) wherever the series and factors are integral at scale 1.
"""

import math
import operator
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

from qknot.cyclo import CycloNum, _reduce
from qknot.cyclotomic_coeffs import _c_levels, _validate
from qknot.laurent import (
    _PACK_MIN_OPS, ExactnessError, Scalar, XLaurent, _kronecker, _norm, _over_binomials, poch_q, qbinomial,
)
from qknot.hecke import _double_exp, _triple_sum
from qknot.series import _INF, _UNIT, Mono, QSeries, WindowError, _axpy, _by_binomials, _lattice, _val, _wrap_rows


def is_monomial(p: XLaurent) -> bool:
    return len(p.coeffs) == 1


def divexact(self: XLaurent, other: XLaurent) -> XLaurent:
    """Exact quotient self/other; raises ExactnessError on a remainder."""
    if other.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if self.is_zero():
        return XLaurent()
    amin, bmin = self.min_exp(), other.min_exp()
    adeg = self.max_exp() - amin
    bdeg = other.max_exp() - bmin
    if adeg < bdeg:
        raise ExactnessError("quotient would not be a Laurent polynomial")
    rem = [0] * (adeg + 1)
    for e, c in self.coeffs.items():
        rem[e - amin] = c
    div = [(e - bmin, c) for e, c in other.coeffs.items()]
    lead = other.coeffs[other.max_exp()]
    quot: dict[int, Scalar] = {}
    for i in range(adeg - bdeg, -1, -1):
        c = rem[i + bdeg]
        if not c:
            continue
        if isinstance(c, int) and isinstance(lead, int) and c % lead == 0:
            qc: Scalar = c // lead
        else:
            qc = _norm(Fraction(c) / Fraction(lead))
        quot[i] = qc
        for de, dc in div:
            rem[i + de] -= qc * dc
    if any(rem):
        raise ExactnessError("inexact polynomial division")
    offset = amin - bmin
    res = XLaurent.__new__(XLaurent)
    res.coeffs = {e + offset: c for e, c in quot.items() if c}
    return res


def swap_x(self: QSeries) -> QSeries:
    """Substitute x -> 1/x."""
    return QSeries({e: c.mirror() for e, c in self.terms.items()}, self.scale, self.trunc)


def invert(self: QSeries, trunc: int | None = None) -> QSeries:
    """Multiplicative inverse; the lowest term must be a monomial in x.

    For a truncated input the result window is trunc(self) - 2e where e is
    the valuation; an explicit trunc tightens (and is required for exact
    non-monomial input, where no finite computation yields all of 1/s).
    """
    if not self.terms:
        raise ZeroDivisionError("cannot invert a series with no visible terms")
    e0 = self.min_exp()
    low = self.terms[e0]
    if not is_monomial(low):
        raise ExactnessError("lowest coefficient is not a single monomial in x")
    (x0, c0), = low.coeffs.items()
    inv0 = Mono(1, 0, 0).divide(Mono(c0, x0, e0))
    if len(self.terms) == 1 and self.is_exact():
        return QSeries.from_mono(inv0, self.scale, trunc)
    cands = []
    if self.trunc is not None:
        cands.append(self.trunc - 2 * e0)
    if trunc is not None:
        cands.append(trunc)
    if not cands:
        raise WindowError("inverting an exact series needs an explicit window")
    w = min(cands)
    w_core = w + e0
    # normalized = 1 + (positive-valuation tail); invert by the standard
    # convolution recurrence t_m = -sum_{k>=1} s_k t_{m-k}
    normalized = self.mul_mono(inv0).with_trunc(w_core)
    tail = sorted(
        (e, c) for e, c in normalized.terms.items() if e > 0
    )
    inverse: dict[int, XLaurent] = {0: XLaurent.const(1)}
    for m in range(1, max(w_core, 0)):
        acc: XLaurent | None = None
        for e, c in tail:
            if e > m:
                break
            prev = inverse.get(m - e)
            if prev is None:
                continue
            piece = c * prev
            acc = piece if acc is None else acc + piece
        if acc is not None and not acc.is_zero():
            inverse[m] = -acc
    return QSeries(inverse, self.scale, w_core).mul_mono(inv0)


def has_integer_coeffs(self: XLaurent) -> bool:
    return all(
        isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
        for c in self.coeffs.values()
    )


def same_field(self: CycloNum, other: CycloNum) -> None:
    if self.order != other.order:
        raise ValueError(f"mixed field orders {self.order} and {other.order}")


def cyclo_add(self: CycloNum, other: "CycloNum | Scalar") -> CycloNum:
    if isinstance(other, (int, Fraction)):
        other = CycloNum.from_rational(self.order, other)
    same_field(self, other)
    return CycloNum(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])


def cyclo_neg(self: CycloNum) -> CycloNum:
    return CycloNum(self.order, [-a for a in self.coeffs])


def cyclo_sub(self: CycloNum, other: "CycloNum | Scalar") -> CycloNum:
    if isinstance(other, (int, Fraction)):
        other = CycloNum.from_rational(self.order, other)
    return cyclo_add(self, cyclo_neg(other))


def cyclo_mul(self: CycloNum, other: CycloNum) -> CycloNum:
    """The product of two elements of one cyclotomic field."""
    same_field(self, other)
    raw = [0] * (2 * len(self.coeffs) - 1)
    terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
    for i, a in enumerate(self.coeffs):
        if a:
            for j, b in terms:
                raw[i + j] += a * b
    return CycloNum(self.order, _reduce(raw, self.order))


@lru_cache(maxsize=1 << 13)
def binom_image(n: int, k: int, w: int) -> int:
    """[n choose k] at q = 2^w as an exact int; 0 outside 0 <= k <= n.

    [n, k] = [n, k-1] (X^(n-k+1) - 1) / (X^k - 1) at X = 2^w; each quotient
    is exact because the polynomial one is, and a remainder raises."""
    if k < 0 or n < 0 or k > n:
        return 0
    if 2 * k > n:
        return binom_image(n, n - k, w)
    if k == 0:
        return 1
    quot, rem = divmod(
        binom_image(n, k - 1, w) * ((1 << (n - k + 1) * w) - 1), (1 << k * w) - 1
    )
    if rem:
        raise ExactnessError(f"[{n}, {k}] at 2^{w} left a remainder")
    return quot


def over_binomials(p: XLaurent, ds: Iterable[int]) -> XLaurent:
    """Exact quotient p / prod_{d in ds} (1 - q^d), one factor at a time.

    Dividing by 1 - q^d is the running sum a_j += a_{j-d}, taken a block of
    d entries at a time.  The quotient ends d below the top, so the last d
    sums must vanish; otherwise ExactnessError is raised.
    """
    if not p.coeffs:
        return XLaurent()
    lo = p.min_exp()
    a = [0] * (p.max_exp() - lo + 1)
    for e, c in p.coeffs.items():
        a[e - lo] = c
    for d in ds:
        for j in range(d, len(a), d):
            a[j : j + d] = map(operator.add, a[j : j + d], a[j - d : j])
        if any(a[-d:]):
            raise ExactnessError(f"not divisible by 1 - q^{d}")
        del a[-d:]
    res = XLaurent.__new__(XLaurent)
    res.coeffs = {lo + j: c for j, c in enumerate(a) if c}
    return res


_Rows = Mapping[int, Mapping[int, Scalar]]


def packed_rows_product(
    a: _Rows, b: _Rows, limit: int | None = None
) -> dict[int, dict[int, int]] | None:
    """Product of two bivariate polynomials by one big-int multiply.

    Operands map a q-exponent e to a nonempty row ``{d: c}`` of the terms
    ``c * q^e * x^d``.  Returns the product's nonzero rows with ``e < limit``
    in the same form, or None when the term-by-term loop should run instead:
    too few term pairs, a packing with more than four product slots per
    term pair, or a coefficient that is not an int.

    A term goes to slot ``((e - e_min) / g) * dx + (d - d_min)``, where g is
    the gcd of all q-offsets and dx the x-width of the product, so distinct
    product terms land in distinct slots.  A slot holds a whole number of
    bytes and at least one bit more than ``max|a| * max|b| * min(#a, #b)``,
    which bounds every product coefficient; adding half the slot range to
    every slot makes them all nonnegative, so each reads back without carries.
    """
    na = sum(map(len, a.values()))
    nb = sum(map(len, b.values()))
    if na * nb < _PACK_MIN_OPS:
        return None
    ea0, eb0 = min(a), min(b)
    da0 = min(min(row) for row in a.values())
    db0 = min(min(row) for row in b.values())
    da1 = max(max(row) for row in a.values())
    db1 = max(max(row) for row in b.values())
    dx = da1 - da0 + db1 - db0 + 1
    g = math.gcd(*(e - ea0 for e in a), *(e - eb0 for e in b)) or 1
    rows_a, rows_b = (max(a) - ea0) // g + 1, (max(b) - eb0) // g + 1
    if (rows_a + rows_b - 1) * dx * 4 > na * nb:
        return None
    types: set[type] = set()
    for row in (*a.values(), *b.values()):
        types.update(map(type, row.values()))
    if types != {int}:
        return None
    bound = (
        max(max(map(abs, row.values())) for row in a.values())
        * max(max(map(abs, row.values())) for row in b.values())
        * min(na, nb)
    )
    wb = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
    product = pack_rows(a, ea0, da0, g, dx, wb, rows_a) * pack_rows(b, eb0, db0, g, dx, wb, rows_b)
    e0, d0 = ea0 + eb0, da0 + db0
    rows = rows_a + rows_b - 1
    if limit is not None:
        rows = min(rows, max(0, -((e0 - limit) // g)))
    half = 1 << (8 * wb - 1)
    zero = half.to_bytes(wb, "little")
    width = rows * dx * wb
    bias = int.from_bytes(zero * (rows * dx), "little")
    buf = ((product + bias) & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    out: dict[int, dict[int, int]] = {}
    for r in range(rows):
        row = {}
        base = r * dx * wb
        for col in range(dx):
            i = base + col * wb
            chunk = buf[i : i + wb]
            if chunk != zero:
                row[d0 + col] = int.from_bytes(chunk, "little") - half
        if row:
            out[e0 + r * g] = row
    return out


def pack_rows(terms: _Rows, e0: int, d0: int, g: int, dx: int, wb: int, rows: int) -> int:
    """One operand as a signed big int; positive and negative parts packed apart."""
    pos = bytearray(rows * dx * wb)
    neg = bytearray(rows * dx * wb)
    for e, row in terms.items():
        base = (e - e0) // g * dx - d0
        for d, c in row.items():
            i = (base + d) * wb
            if c > 0:
                pos[i : i + wb] = c.to_bytes(wb, "little")
            else:
                neg[i : i + wb] = (-c).to_bytes(wb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def habiro_reconstruct(coeffs: "Callable[[int], XLaurent] | Sequence[XLaurent]", n_color: int) -> XLaurent:
    """Rebuild J_N from cyclotomic coefficients: sum of C_n (q^{1+N})_n (q^{1-N})_n.

    Exactly N terms contribute since (q^{1-N})_n vanishes for n >= N.
    """
    if n_color < 1:
        raise ValueError("color must be a positive integer")
    get = coeffs.__getitem__ if not callable(coeffs) else coeffs
    n = n_color
    total = XLaurent()
    for i in range(n):
        total = total + get(i) * poch_q(1 + n, i) * poch_q(1 - n, i)
    return total


def nested_habiro_reconstruct(coeffs: "Callable[[int], XLaurent] | Sequence[XLaurent]", n_color: int) -> XLaurent:
    """Rebuild J_N from cyclotomic coefficients: sum of C_n (q^{1+N})_n (q^{1-N})_n.

    Exactly N terms contribute since (q^{1-N})_n vanishes for n >= N.  The
    sum is taken in nested (Horner) form from the top,
    T <- C_i + (1 - q^{i+1+N})(1 - q^{i+1-N}) T for i = N-1 down to 0: two
    shift-subtracts per i.
    """
    if n_color < 1:
        raise ValueError("color must be a positive integer")
    get = coeffs.__getitem__ if not callable(coeffs) else coeffs
    n = n_color
    total = XLaurent()
    for i in range(n - 1, -1, -1):
        total = total - total.shift(i + 1 + n)
        total = total - total.shift(i + 1 - n) + get(i)
    return total


def per_term_habiro_inverse(jones: Callable[[int], XLaurent], n: int) -> XLaurent:
    """Invert the cyclotomic expansion: C_n from the colors 1..n+1.

    All Pochhammer denominators are combined over the single denominator
    (q)_{2n+2} using Gaussian binomials; the final division must be exact.
    """
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    total = XLaurent()
    for ell in range(1, n + 2):
        e = ell * (ell - 3)
        assert e % 2 == 0
        piece = (XLaurent.const(1) - XLaurent.term(ell)) * (
            XLaurent.const(1) - XLaurent.term(2 * ell)
        )
        piece = piece * qbinomial(2 * n + 2, n + 1 - ell) * jones(ell)
        piece = piece.shift(e // 2)
        if ell % 2:
            piece = -piece
        total = total + piece
    quotient = _over_binomials(total, range(1, 2 * n + 3))
    return (-quotient).shift(n + 1)


def keyed_c_sum(t: int, m: int, ns: range, cutoff: int | None, binom, one_minus, step):
    """The inner sums of the product form (no q^{n+1-t} prefactor applied) for
    every n in the range ``ns``, as a ``laurent._kronecker`` route that runs
    one chain for all of them.

    Sums over n+1 = k_t >= ... >= k_1 >= 0 with k_m >= 1 the product of
    q^{k_i^2} (i < t) and [k_{i+1} - k_i - i + p_i, k_{i+1} - k_i], where the
    chain state p_i = sum_{j<=i} (2 k_j + [m > j]) rides with k_i.  Each edge
    carries the q^{k^2} of the state it enters.  The levels run once, k
    capped at max(ns)+1: as in ``_multisum``, a state holds the same value
    for every n with n+1 >= k, and one keyed last step closes each such n
    with its binomial into k_t = n+1 (with t = 1, [n+1, n+1] = 1).

    cutoff, when given, is for a single n and bounds the *full* C_n
    exponent: an edge whose minimal contribution (n+1-t) + o + k^2 reaches it
    is pruned, o the offset of the state it leaves, and so is a closing edge
    once (n+1-t) + o reaches it.  Every summand has nonnegative coefficients
    and every nonzero binomial has constant term 1, so nothing cancels and o
    is the exact minimal exponent of the state's value (the lowest set bit of
    its image); pruning is sound because every factor has nonnegative
    valuation.  The l1 pass tracks the same offsets, prunes the same edges
    and so bounds exactly the pruned sum.
    """
    top = ns[-1] + 1
    base = top - t

    def edges(state: tuple[int, int], low: int):
        k, pref = state
        for k2 in range(max(k, 1) if i + 1 == m else k, top + 1):
            sq = k2 * k2
            if cutoff is not None and base + low + sq >= cutoff:
                break
            yield (k2, pref + 2 * k2 + (1 if m > i + 1 else 0)), binom(k2 - k - i + pref, k2 - k), sq, False

    def close(state: tuple[int, int], low: int):
        k, pref = state
        if cutoff is not None and base + low >= cutoff:
            return
        for n in ns[max(k - 1 - ns.start, 0) :]:
            yield n, binom(n + 1 - k - (t - 1) + pref, n + 1 - k), 0, False

    states: dict = {(0, 0): (1, 0)}
    for i in range(t - 1):
        states = step(states, edges)
    finals = step(states, close)
    return [finals.get(n, (0, 0)) for n in ns]


def c_series(t: int, m: int, n: int, window: int) -> XLaurent:
    """C_n with terms guaranteed only strictly below the window exponent."""
    _validate(t, m)
    if n < 0:
        return XLaurent()
    return _kronecker(partial(keyed_c_sum, t, m, range(n, n + 1), window))[0][0].shift(n + 1 - t)


def per_edge_jones_chain(t: int, n: int, binom, one_minus, step):
    """The nested sum of jones_hyper, as a ``laurent._kronecker`` route.

    The chain N-1 >= k_t >= ... >= k_1 >= 0 is summed from the top: the state
    is k_i, the head is (q^{1-N})_{k_t} q^{-N k_t}, and the edge into k_i
    carries [k_{i+1} choose k_i] and the node factor q^{k_i(k_i+1-2N)}.  Each
    head factor 1 - q^{-e} (e = N-1-j >= 1) is written -q^{-e}(1 - q^e).
    """

    def heads(_, low: int):
        weight, shift = 1, 0
        for k in range(n):
            yield k, weight, shift - n * k, k % 2 == 1
            weight *= one_minus(n - 1 - k)
            shift -= n - 1 - k

    edges = lambda k_next, low: (
        (k, binom(k_next, k), k * (k + 1 - 2 * n), False) for k in range(k_next + 1)
    )
    states = step({None: (1, 0)}, heads)
    for _ in range(t - 1):
        states = step(states, edges)
    return [step(states, lambda k, low: ((None, 1, 0, False),)).get(None, (0, 0))]


def multisum(t: int, m: int, ns: Sequence[int], binom, one_minus, step):
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

    close = lambda state, low: ((k, binom(k + 1, state[0]), 0, False) for k in ns if k + 1 >= state[0])
    finals = step(states, close)
    return [finals.get(k, (0, 0)) for k in ns]


def chain_poly(
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
    v, from v_0 = 0; the edge into v at ``pos`` carries the node shift and
    the sign.  Summed as a ``laurent._kronecker`` route and read back once.
    """
    fold = fold_shift or (lambda v: 0)

    def route(binom, one_minus, step):
        def edges(u: int, low: int):
            for v in range(u, bound + 1):
                shift = node_shift(pos, v) - (u * v if pos - 1 <= coupled else 0)
                yield v, binom(v, u), shift, pos == sign_pos and v % 2 == 1

        states: dict = {0: (1, 0)}
        for pos in range(1, length + 1):
            states = step(states, edges)
        closing = lambda v, low: ((None, binom(bound, v), fold(v), False),)
        return [step(states, closing).get(None, (0, 0))]

    return _kronecker(route)[0][0]


def triple_sum_series(t: int, m: int, window: int, pad: int = 0) -> QSeries:
    """The signed triple sum as a scale-1 series valid strictly below window."""
    rows: dict[int, dict[int, int]] = {}
    for u, col in _triple_sum(t, m, window, pad).items():
        for e, c in col.items():
            rows.setdefault(e, {})[u] = c
    return QSeries({e: XLaurent(row) for e, row in rows.items()}, 1, window)


def pass_hecke_u_series(t: int, m: int, trunc: int, pad: int = 0) -> QSeries:
    """U_t^{(m)}(-x; q) from the indefinite-theta expansion, window trunc.

    The displayed global sign and prefactor are taken at face value; the
    series route through the cyclotomic coefficients is the cross-check.
    """
    if t < 1 or not 1 <= m <= t:
        raise ValueError("need 1 <= m <= t")
    if trunc < 1:
        raise ValueError("need a positive window")
    core = triple_sum_series(t, m, trunc, pad)
    ks = range(1, trunc - int(min(0, core._valuation())))  # the factors reaching the window
    times = [Mono(1, 1, k) for k in ks] + [Mono(1, -1, k) for k in ks]
    return -_by_binomials(core, times, [Mono(1, 0, k) for k in ks] * 2)


def pass_hecke_u1_double(trunc: int, pad: int = 0) -> QSeries:
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


def product_close_c_sum(t: int, m: int, ns: range, window: int | None, binom, one_minus, step):
    """The product form's inner sums (no q^{n+1-t}) for every n in ``ns``, as a
    ``laurent._kronecker`` route closed by ``_nested_close``.  With a window
    it is windowed: node (c, j) of the close, like state (j, p) of the levels,
    is needed below window - j + t, so the final for n below window - (n+1-t)."""
    states = _c_levels(t, m, max(ns, default=-1) + 1, window, binom, step)
    if window is not None:
        step = partial(step, limit=lambda node: window - node[1] + t)
    return product_nested_close(t, ns, states, step)


def product_nested_close(t: int, ns: range, states: dict, step) -> list:
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


def keyed_staircase(
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


def keyed_staircase_at(
    length: int, bounds: Sequence[int], node: Callable[[int, int], int], coupled: int, sign: int | None,
    binom, one_minus, step, centre: tuple[int, int] | None = None,
) -> list:
    """``keyed_staircase`` under the library's ``_staircase`` arguments: a
    ``coupled`` past ``length`` couples the close, the oracle's fold q^{-vb}."""
    fold = (lambda v, b: -v * b) if coupled > length else None
    return keyed_staircase(length, bounds, node, min(coupled, length), sign, binom, one_minus, step, centre, fold)


def sliced_read_back(v: int, o: int, w: int, bound: int, limit: int | None = None) -> XLaurent:
    """The Laurent polynomial q^o P(q) with P(2^w) = v, P an integer polynomial
    whose coefficients have absolute value at most bound; with a limit, only
    its terms below q^limit, from any v congruent to P(2^w) mod 2^(w (limit - o)).

    The coefficients are the balanced base-2^w digits of v, each in
    [-2^(w-1), 2^(w-1)): adding 2^(w-1) to every slot makes them the plain
    digits of a nonnegative int.  Such digits are unique, so the read-back is
    exact once bound < 2^(w-1); a narrower slot raises rather than wraps.
    Carries only run upward, so the digits below the limit are those of
    v + 2^(w-1) (1 + 2^w + ... ) mod 2^(w (limit - o)).  w is a multiple of 8.
    """
    if bound >= 1 << (w - 1):
        raise ExactnessError(f"{w}-bit slots cannot hold coefficients up to {bound}")
    res = XLaurent.__new__(XLaurent)
    res.coeffs = {}
    if not v:
        return res
    wb = w // 8
    half = 1 << (w - 1)
    zero = half.to_bytes(wb, "little")
    slots = abs(v).bit_length() // w + 2 if limit is None else max(limit - o, 0)
    v = (v + int.from_bytes(zero * slots, "little")) & ((1 << slots * w) - 1)
    buf = v.to_bytes(slots * wb, "little")
    for i in range(slots):
        chunk = buf[i * wb : (i + 1) * wb]
        if chunk != zero:
            res.coeffs[o + i] = int.from_bytes(chunk, "little") - half
    return res


def by_binomials(
    s: QSeries, times: Iterable[Mono] = (), over: Iterable[Mono] = (), trunc: int | None = None
) -> QSeries:
    """s * prod(1 - f for f in times) / prod(1 - f for f in over), one stride
    pass per factor.

    Window rule, with k the q-exponent of f: multiplying by (1 - f) lowers the
    window by -min(0, k).  Dividing by (1 - f) with k > 0 is
    r_e = s_e + f r_{e-k} in ascending e and keeps the window exactly, since
    every r_e below it reads only s below it; k < 0 goes through
    1/(1 - f) = -f^{-1}/(1 - f^{-1}) and so raises the window by -k.  A
    factor with k > 0 that cannot reach the window is skipped.  trunc, when
    given, is the result's window: the input is cut (never widened) where it
    yields that.  Dividing an exact nonzero series needs a window.
    """
    head, divs = _UNIT, []
    for f in over:
        if f.q_exp > 0:
            divs.append(f)
        elif f.q_exp < 0:
            head = head.times(f.inverse()).times(Mono(-1))
            divs.append(f.inverse())
        elif f.x_exp:
            raise ExactnessError(f"(1 - {f}): lowest coefficient is not a single monomial in x")
        elif f == _UNIT:
            raise ZeroDivisionError(f"division by the zero factor (1 - {f})")
        else:
            head = head.divide(Mono(1 - f.coeff))
    times = list(times)
    if _UNIT in times:
        return QSeries.zero(s.scale)
    if trunc is not None:
        s = s.with_trunc(trunc - _val(head, times))
    if divs and s.is_exact() and s.terms:
        raise WindowError("dividing an exact series needs an explicit window")
    if head != _UNIT:
        s = s.mul_mono(head)
    rows = {e: dict(c.coeffs) for e, c in s.terms.items()}
    w = s._window()
    for f in times:
        k = f.q_exp
        if k > 0 and (not rows or min(rows) + k >= w):
            continue
        w += min(0, k)
        for e in sorted(rows, reverse=k > 0):  # every source row is read before it is written
            if e + k < w:
                _axpy(rows.setdefault(e + k, {}), rows[e], -f.coeff, f.x_exp)
        if k < 0:
            rows = {e: row for e, row in rows.items() if e < w}
    for f in divs:
        k = f.q_exp
        if rows and min(rows) + k < w:
            for e in range(min(rows) + k, w):
                src = rows.get(e - k)
                if src:
                    _axpy(rows.setdefault(e, {}), src, f.coeff, f.x_exp)
    return _wrap_rows(rows, s.scale, None if w == _INF else w)


def nested(term: Callable[[int], "QSeries | None"], top: int, rise: Callable, trunc: int) -> QSeries:
    """sum_{n <= top} rise(0) ... rise(n-1) term(n) below trunc, run from the top
    n as S <- term(n) + rise(n-1) S with one ``_by_binomials`` pass per level,
    where rise(i) = (mono, times, over) is mono prod(1 - f, times) / prod(1 - f, over)
    and a term of None is zero.  Each term is asked once, when its level comes.
    Level n is held below trunc - v_n, v_n the ``_val`` of its head's monos and times."""
    vals = [0, *accumulate(_val(*rise(i)[:2]) for i in range(top))]
    out = QSeries.zero(1, trunc - vals[top])
    for n in range(top, -1, -1):
        s = term(n)
        if s is not None:
            out = out + s
        if n:
            mono, times, over = rise(n - 1)
            out = by_binomials(out.mul_mono(mono), times, over, trunc=trunc - vals[n - 1])
    return out
