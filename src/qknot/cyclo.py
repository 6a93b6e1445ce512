"""Exact values in cyclotomic fields Q(zeta_M).

Elements are rational-coefficient vectors reduced modulo the M-th
cyclotomic polynomial, so equality is decidable coefficient-wise and every
root-of-unity evaluation in the library is exact.  The library only
evaluates, compares, conjugates and scales such values (``*`` by a rational,
for ``bernoulli_rhs``), so a field element has no ``+``, ``-`` or product of
two elements; the test oracles keep those as functions.  Every
reduction, in evaluation, powers of zeta and the tables below, is one
top-down pass mod Phi_M (``_reduce``), so a field keeps O(deg) data however
large M is.

The nested chain sums over Z[zeta_N] (F and U(-1) at roots of unity) skip
``CycloNum`` altogether and run on the step of the Z[q] chains,
``laurent._kron_step``.  zeta -> X = 2^w is a ring map Z[zeta_N] ->
Z / Phi_N(X), so every edge weight and sum is a plain int mod M = Phi_N(X),
q^e is a shift by w e bits, and each merged state is settled once: times
X^(o mod N), reduced mod M (``_root_pass``).  Gaussian binomials come from one
N-row q-Pascal table of int vectors per N, read by q-Lucas.  The chain is
first summed on l1 norms of the reduced operands in Z[q]/(q^N - 1), which
bound every power-basis coefficient of the result, and w is taken from that
bound (``_root_sum``); the result is read back once as balanced base-2^w
digits of its residue, which is unique under the bound and raises on a slot
too narrow for it (``_root_read``).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .laurent import (
    ExactnessError,
    Scalar,
    XLaurent,
    _kron_step,
    _norm,
    cyclotomic_polynomial,
)
from .series import QSeries

__all__ = ["CycloNum", "cyclo_eval"]


@lru_cache(maxsize=256)
def _context(order: int):
    """(degree, modulus coeffs, top) of Phi_M, the modulus of the order-M
    field, where top lists (i - deg, -mod[i]) over the nonzero mod[i], i < deg,
    so that x^deg = sum a x^(deg + o) over (o, a) in top (Phi is monic).
    O(deg) data, however large M is."""
    phi = cyclotomic_polynomial(order)
    deg = phi.max_exp()
    mod = [0] * (deg + 1)
    for e, c in phi.coeffs.items():
        mod[e] = int(c)
    top = tuple((i - deg, -a) for i, a in enumerate(mod[:deg]) if a)
    return deg, tuple(mod), top


def _reduce(buf: list, order: int) -> list:
    """A power-basis vector of any length >= deg, reduced mod Phi_order in one
    top-down pass that clears each slot at or above deg with x^deg reduced.
    Edits buf; returns its low deg slots."""
    deg, _, top = _context(order)
    for i in range(len(buf) - 1, deg - 1, -1):
        c = buf[i]
        if c:
            for o, a in top:
                buf[i + o] += c * a
    return buf[:deg]


# -- chain sums in Z[zeta_N] -> Z / Phi_N(2^w) -------------------------------


def _times_zeta(vec: Sequence[int], k: int, order: int) -> list[int]:
    """zeta^k times an int power-basis vector, in one shifted, reduced pass:
    the vector is rotated by k mod order (zeta^order = 1), and the slots at and
    above deg are then cleared by ``_reduce``."""
    deg = len(vec)
    k %= order
    if k + deg <= order:
        buf = [0] * k + list(vec)
    else:
        buf = [0] * order
        buf[k:] = vec[: order - k]
        buf[: k + deg - order] = vec[order - k :]
    return _reduce(buf, order)


def _pascal_rows(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """[n choose k] at zeta_order for n < order, as int power-basis vectors,
    by the q-Pascal recurrence [n, k] = [n-1, k-1] + zeta^k [n-1, k]."""
    one = CycloNum.one(order).coeffs
    rows = [(one,)]
    for n in range(1, order):
        prev = rows[-1]
        row = [one]
        for k in range(1, n):
            row.append(tuple(map(operator.add, prev[k - 1], _times_zeta(prev[k], k, order))))
        row.append(one)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=8)
def _root_tables(order: int):
    """The tables of one root order, built once: the q-Pascal rows n < order
    and (zeta)_k for k < order as int vectors, the l1 norms of both, and c_N,
    the largest |coefficient| of any power of zeta in the power basis.  All
    are tuples, so no caller can edit what the cache shares."""
    rows = _pascal_rows(order)
    poch = [CycloNum.one(order).coeffs]
    for k in range(1, order):
        poch.append(tuple(map(operator.sub, poch[-1], _times_zeta(poch[-1], k, order))))
    l1 = lambda vec: sum(map(abs, vec))
    norms = tuple(tuple(map(l1, row)) for row in rows)
    return rows, norms, tuple(poch), tuple(map(l1, poch)), _c_n(order)


def _c_n(order: int) -> int:
    """c_N, the largest |coefficient| of any power of zeta in the power basis,
    from zeta^0 .. zeta^(order-1) taken one ``_times_zeta`` step at a time."""
    power, c_n = CycloNum.one(order).coeffs, 1
    for _ in range(1, order):
        power = _times_zeta(power, 1, order)
        c_n = max(c_n, *map(abs, power))
    return c_n


def _pack(vec: Sequence[int], w: int) -> int:
    """The image of sum_j vec[j] x^j at x = 2^w."""
    return sum(c << w * j for j, c in enumerate(vec) if c)


def _root_pass(order: int, route, w: int) -> int:
    """One pass of a chain over Z[zeta_order] at q = zeta, on plain ints.

    ``route(binom, poch, step)`` builds its chain from what it is handed and
    returns its final (V, o), as each final of a ``laurent._kronecker`` route:
    ``binom(a, b)`` stands for [a choose b] and ``poch(k)`` for (q)_k
    (k < order), and ``step`` is ``laurent._kron_step`` at the pass's width,
    followed by one settle per merged state.

    Both passes read [a, b] by q-Lucas, C(a // N, b // N) [a mod N, b mod N],
    from the zeta tables.  At w = 0 every value is an l1 norm in
    Z[q]/(q^order - 1): a table entry is the norm of its reduced vector,
    which a power of q only rotates, so offsets cost nothing and settle to 0.
    At w > 0 every value is its image under zeta -> X = 2^w in
    Z / Phi_order(X), where X^order = 1: the settle multiplies V by
    X^(o mod order) and reduces it mod M once, and o becomes 0.
    """
    rows, norms, poch_vecs, poch_norms, _ = _root_tables(order)
    if w:
        m_w = _pack(_context(order)[1], w)
        entry = lru_cache(maxsize=None)(lambda i, j: _pack(rows[i][j], w))  # for this pass only
        poch = lambda k: _pack(poch_vecs[k], w)
        settle = lambda v, o: ((v << w * (o % order)) % m_w, 0)
    else:
        entry = lambda i, j: norms[i][j]
        poch = poch_norms.__getitem__
        settle = lambda v, o: (v, 0)

    def binom(a: int, b: int) -> int:
        if b < 0 or b > a or b % order > a % order:
            return 0
        return math.comb(a // order, b // order) * entry(a % order, b % order)

    def step(states, edges):
        return {s: settle(*value) for s, value in _kron_step(states, edges, w).items()}

    return settle(*route(binom, poch, step))[0]


def _root_read(r: int, order: int, w: int, bound: int) -> "CycloNum":
    """The element of Z[zeta_order] whose power-basis coefficients have
    absolute value at most bound and whose image in Z / M, M = Phi(X) at
    X = 2^w, is r.

    Uniqueness: let c = sum_{j<deg} c_j zeta^j with |c_j| <= B and
    v = sum_j c_j X^j, and let bias put X/2 in every slot.  The digits of
    v + bias lie in [X/2 - B, X/2 + B], so v + bias >= 0.  Let H be the
    largest |coefficient| of Phi; then M >= X^deg - H (X^deg - 1)/(X - 1),
    while v + bias <= (X/2 + B)(X^deg - 1)/(X - 1), which is below M once
    B + H <= X/2 - 1.  B >= c_N >= H (x^deg reduced is minus the lower part
    of Phi, and c_N bounds it), so B < 2^(w-2) = X/4 suffices.  Then
    (r + bias) mod M is v + bias itself, and its base-X digits, minus X/2,
    are the c_j.  A slot too narrow for the bound raises ExactnessError, and
    so does a digit past the deg slots, which no admissible c produces.
    """
    if bound >= 1 << (w - 2):
        raise ExactnessError(f"{w}-bit slots cannot hold coefficients up to {bound}")
    deg, mod, _ = _context(order)
    half = 1 << (w - 1)
    u = (r + _pack([half] * deg, w)) % _pack(mod, w)
    if u >> w * deg:
        raise ExactnessError(f"a digit spilled past the {deg} slots of the order-{order} field")
    mask = (1 << w) - 1
    return CycloNum(order, [(u >> w * j & mask) - half for j in range(deg)])


def _root_sum(order: int, route) -> tuple["CycloNum", int]:
    """Sum a chain over Z[zeta_order] at q = zeta and read it back once.

    zeta -> 2^w is a ring map Z[zeta] -> Z / Phi(2^w), so the route runs on
    plain ints (``_root_pass``).  The first pass sums l1 norms of reduced
    operands in Z[q]/(q^order - 1), where l1 is submultiplicative, so the
    result is the image of a group-ring element of l1 norm at most L; each
    q^j is a power-basis vector with entries at most c_N, so every power-basis
    coefficient of the result is at most B = max(L, 1) c_N.  The second pass
    runs at the width w = bitlength(B) + 2, the least with B < 2^(w-2), and
    ``_root_read`` reads the result back once.  Returns it and B.
    """
    bound = max(_root_pass(order, route, 0), 1) * _root_tables(order)[4]
    w = bound.bit_length() + 2
    return _root_read(_root_pass(order, route, w), order, w, bound), bound


class CycloNum:
    """Element of the cyclotomic field of a given order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Scalar]):
        deg, _, _ = _context(order)
        if len(coeffs) != deg:
            raise ValueError(f"order-{order} element needs {deg} coefficients")
        self.order = order
        self.coeffs = tuple(map(_norm, coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, order: int, c: Scalar) -> "CycloNum":
        deg, _, _ = _context(order)
        vec = [0] * deg
        vec[0] = c
        return cls(order, vec)

    @classmethod
    def zero(cls, order: int) -> "CycloNum":
        deg, _, _ = _context(order)
        return cls(order, [0] * deg)

    @classmethod
    def one(cls, order: int) -> "CycloNum":
        return cls.from_rational(order, 1)

    @classmethod
    def zeta(cls, order: int, k: int = 1) -> "CycloNum":
        """The k-th power of the primitive order-th root of unity."""
        k %= order
        deg = _context(order)[0]
        buf = [0] * max(k + 1, deg)
        buf[k] = 1
        return cls(order, _reduce(buf, order) if k >= deg else buf)  # below deg, a unit vector

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return f"CycloNum({self.order}, {self.value_str()})"

    def value_str(self) -> str:
        """Readable polynomial in z, the primitive root of the field's order."""
        if self.is_zero():
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                var = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    bits.append(var)
                elif c == -1:
                    bits.append(f"-{var}")
                else:
                    bits.append(f"{c}*{var}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other: Scalar) -> "CycloNum":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return CycloNum(self.order, [a * other for a in self.coeffs])

    __rmul__ = __mul__


def cyclo_eval(p: Union[XLaurent, QSeries], order: int, k: int = 1) -> CycloNum:
    """Evaluate a polynomial in q at zeta_order^k, exactly.

    A QSeries argument must be exact (complete), integral-exponent and free
    of x: a truncated series would silently drop terms, so it is rejected.
    """
    if isinstance(p, QSeries):
        p = p.to_q_laurent()
    buf = [0] * order
    for e, c in p.coeffs.items():
        buf[k * e % order] += c
    return CycloNum(order, _reduce(buf, order))
