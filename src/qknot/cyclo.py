"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Elements are rational-coefficient vectors reduced modulo the M-th
cyclotomic polynomial, so equality is decidable coefficient-wise and every
root-of-unity evaluation in the library is exact.

The nested chain sums over Z[zeta_N] (F and U(-1) at roots of unity) skip
``CycloNum`` altogether, as the Z[q] chains of ``laurent`` do.
zeta -> X = 2^w is a ring map Z[zeta_N] -> Z / Phi_N(X), so every edge
weight, node factor and sum is a plain int mod M = Phi_N(X): q^e is a shift
and each merged state is reduced mod M once (``_root_pass``).  Gaussian
binomials come from one N-row q-Pascal table of int vectors per N, read by
q-Lucas; values at zeta^-1 are rotations of the same vectors.  The chain is
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
    _chain_step,
    _norm,
    cyclotomic_polynomial,
)
from .series import QSeries

__all__ = ["CycloNum", "cyclo_eval"]


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


# -- chain sums in Z[zeta_N] -> Z / Phi_N(2^w) -------------------------------


def _times_zeta(vec: Sequence[int], k: int, order: int) -> list[int]:
    """zeta^k times an int power-basis vector, in one shifted, reduced pass:
    the vector is rotated by k mod order (zeta^order = 1), and the slots at and
    above deg are then cleared top-down with x^deg = -sum_{i<deg} mod[i] x^i."""
    deg, mod, _ = _context(order)
    k %= order
    buf = [0] * order
    if k + deg <= order:
        buf[k : k + deg] = vec
        top = k + deg
    else:
        buf[k:] = vec[: order - k]
        buf[: k + deg - order] = vec[order - k :]
        top = order
    low = [(j, a) for j, a in enumerate(mod[:deg]) if a]
    for i in range(top - 1, deg - 1, -1):
        c = buf[i]
        if c:
            for j, a in low:
                buf[i - deg + j] -= c * a
    return buf[:deg]


def _pascal_rows(order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """[n choose k] at zeta_order for n < order, as int power-basis vectors,
    by the q-Pascal recurrence [n, k] = [n-1, k-1] + zeta^k [n-1, k]."""
    deg, _, pows = _context(order)
    one = pows[0]
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
    _, _, pows = _context(order)
    rows = _pascal_rows(order)
    poch = [pows[0]]
    for k in range(1, order):
        poch.append(tuple(map(operator.sub, poch[-1], _times_zeta(poch[-1], k, order))))
    l1 = lambda vec: sum(map(abs, vec))
    norms = tuple(tuple(map(l1, row)) for row in rows)
    c_n = max(abs(c) for p in pows for c in p)
    return rows, norms, tuple(poch), tuple(map(l1, poch)), c_n


def _pack(vec: Sequence[int], w: int) -> int:
    """The image of sum_j vec[j] x^j at x = 2^w."""
    return sum(c << w * j for j, c in enumerate(vec) if c)


def _root_pass(order: int, eps: int, route, w: int) -> int:
    """One pass of a chain over Z[zeta_order] at q = zeta^eps, on plain ints.

    ``route(binom, poch, power, step)`` builds its chain from what it is
    handed and returns one int: ``binom(a, b)`` stands for [a choose b] and
    ``poch(k)`` for (q)_k (k < order), ``power(v, e)`` is v q^e, and
    ``step(states, edges, node)`` is ``laurent._chain_step`` followed by the
    factor q^node(state) on each merged state (none when node is None).

    Both passes read [a, b] by q-Lucas, C(a // N, b // N) [a mod N, b mod N],
    from the zeta tables; at q = zeta^-1 they use [i, j] = q^{j(i-j)} [i, j]_zeta
    and (q)_k = (-1)^k q^{k(k+1)/2} (zeta)_k.  At w = 0 every value is an l1
    norm in Z[q]/(q^order - 1): a table entry is the norm of its reduced
    vector, which a power of q only rotates, so q^e costs nothing.  At w > 0
    every value is its image under zeta -> X = 2^w in Z / Phi_order(X): q^e is
    a shift by w ((eps e) mod order) bits, and each merged state is reduced
    mod M once.
    """
    rows, norms, poch_vecs, poch_norms, _ = _root_tables(order)
    if w:
        m_w = _pack(_context(order)[1], w)
        rot = lambda e: w * (eps * e % order)
        reduce = lambda v: v % m_w

        def at_eps(vec: Sequence[int], e: int, sign: int) -> int:
            """The image of a zeta-table vector, times sign q^e when q = zeta^-1."""
            v = _pack(vec, w)
            return v if eps > 0 else sign * ((v << rot(e)) % m_w)

        images: dict = {}

        def entry(i: int, j: int) -> int:
            if (i, j) not in images:
                images[i, j] = at_eps(rows[i][j], j * (i - j), 1)
            return images[i, j]

        poch = lambda k: at_eps(poch_vecs[k], k * (k + 1) // 2, (-1) ** k)
    else:
        entry = lambda i, j: norms[i][j]
        poch = poch_norms.__getitem__
        rot = lambda e: 0
        reduce = lambda v: v

    def binom(a: int, b: int) -> int:
        if b < 0 or b > a or b % order > a % order:
            return 0
        return math.comb(a // order, b // order) * entry(a % order, b % order)

    def step(states, edges, node=None):
        out = _chain_step(states, edges).items()
        return {s: reduce(v << rot(node(s)) if node else v) for s, v in out}

    return route(binom, poch, lambda v, e: v << rot(e), step)


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


def _root_sum(order: int, eps: int, route) -> tuple["CycloNum", int]:
    """Sum a chain over Z[zeta_order] at q = zeta^eps and read it back once.

    zeta -> 2^w is a ring map Z[zeta] -> Z / Phi(2^w), so the route runs on
    plain ints (``_root_pass``).  The first pass sums l1 norms of reduced
    operands in Z[q]/(q^order - 1), where l1 is submultiplicative, so the
    result is the image of a group-ring element of l1 norm at most L; each
    q^j is a power-basis vector with entries at most c_N, so every power-basis
    coefficient of the result is at most B = max(L, 1) c_N.  The second pass
    runs at the width w = bitlength(B) + 2, the least with B < 2^(w-2), and
    ``_root_read`` reads the result back once.  Returns it and B.
    """
    bound = max(_root_pass(order, eps, route, 0), 1) * _root_tables(order)[4]
    w = bound.bit_length() + 2
    return _root_read(_root_pass(order, eps, route, w), order, w, bound), bound


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
        _, _, pows = _context(order)
        return cls(order, pows[k % order])

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

    # -- field operations ---------------------------------------------------

    def _same_field(self, other: "CycloNum") -> None:
        if self.order != other.order:
            raise ValueError(f"mixed field orders {self.order} and {other.order}")

    def __add__(self, other: "CycloNum | Scalar") -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(self.order, other)
        self._same_field(other)
        return CycloNum(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, [-a for a in self.coeffs])

    def __sub__(self, other: "CycloNum | Scalar") -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            other = CycloNum.from_rational(self.order, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "CycloNum":
        return (-self) + other

    def __mul__(self, other: "CycloNum | Scalar") -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            return CycloNum(self.order, [a * other for a in self.coeffs])
        self._same_field(other)
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

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycloNum":
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloNum.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self) -> "CycloNum":
        """Field inverse via the extended Euclidean algorithm against Phi_M."""
        if self.is_zero():
            raise ZeroDivisionError("inverting zero in a cyclotomic field")
        deg, mod, _ = _context(self.order)
        r0 = [Fraction(m) for m in mod]
        r1 = [Fraction(c) for c in self.coeffs]
        s0 = [Fraction(0)]
        s1 = [Fraction(1)]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is the gcd: a nonzero constant since Phi_M is irreducible
        while r0 and not r0[-1]:
            r0.pop()
        if len(r0) != 1:
            raise ArithmeticError("gcd with the cyclotomic polynomial is not constant")
        inv_c = Fraction(1) / r0[0]
        vec = [c * inv_c for c in s0]
        while vec and not vec[-1]:
            vec.pop()
        if len(vec) > deg:  # pragma: no cover - s0 stays below deg(Phi)
            raise ArithmeticError("inverse exceeded field degree")
        vec += [Fraction(0)] * (deg - len(vec))
        return CycloNum(self.order, vec)

    def __truediv__(self, other: "CycloNum | Scalar") -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            inv = Fraction(1) / Fraction(other)
            return self * inv
        self._same_field(other)
        return self * other.inverse()

    # -- field embeddings ----------------------------------------------------

    def embed(self, new_order: int) -> "CycloNum":
        """Image under zeta_M -> zeta_{M'}^(M'/M), for M dividing M'."""
        if new_order == self.order:
            return self
        if new_order % self.order:
            raise ValueError(f"{self.order} does not divide {new_order}")
        k = new_order // self.order
        deg_new, _, pows = _context(new_order)
        vec = [0] * deg_new
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, p in enumerate(pows[(i * k) % new_order]):
                if p:
                    vec[j] += c * p
        return CycloNum(new_order, vec)


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    b = list(b)
    while b and not b[-1]:
        b.pop()
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        d = len(a) - len(b)
        q[d] = f
        for i, bc in enumerate(b):
            a[i + d] -= f * bc
        while a and not a[-1]:
            a.pop()
    return q, a


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyclo_eval(p: Union[XLaurent, QSeries], order: int, k: int = 1) -> CycloNum:
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
