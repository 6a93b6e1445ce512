"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Elements are rational-coefficient vectors reduced modulo the M-th
cyclotomic polynomial, so equality is decidable coefficient-wise and every
root-of-unity evaluation in the library is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .laurent import Scalar, XLaurent, _norm, cyclotomic_polynomial
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


class CycloNum:
    """Element of the cyclotomic field of a given order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[Scalar]):
        deg, _, _ = _context(order)
        if len(coeffs) != deg:
            raise ValueError(f"order-{order} element needs {deg} coefficients")
        self.order = order
        self.coeffs = tuple(_norm(c) for c in coeffs)

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
