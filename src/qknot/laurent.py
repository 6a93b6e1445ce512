"""Exact Laurent-polynomial arithmetic over the rationals.

One sparse class covers every univariate object in the library: polynomials
in q (Jones polynomials, cyclotomic expansion coefficients, Gaussian
binomials, cyclotomic polynomials) and the x-Laurent coefficients carried by
the two-variable series.  Coefficients are Python ints or Fractions; the
zero polynomial is the empty map and no stored coefficient is ever zero.

Products of integer operands with enough terms go through one packed kernel
(Kronecker substitution, cf. Harvey, arXiv:0712.4046), shared with the
bivariate ``QSeries`` product: each operand's terms ``(q^e, x^d)`` are laid
into fixed-width signed slots of a single Python int, the two ints are
multiplied once, and the product's slots are read back through a bias so no
carry crosses a slot.  Rational, small or sparse operands use the schoolbook
loops instead; the choice depends only on the operands' shape.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

__all__ = [
    "ExactnessError",
    "Scalar",
    "XLaurent",
    "ZERO",
    "ONE",
    "bernoulli_b2",
    "cyclotomic_polynomial",
    "poch_q",
    "qbinomial",
]


class ExactnessError(ArithmeticError):
    """An operation that must be exact (division, exponent descaling) was not."""


def _norm(c: Scalar) -> Scalar:
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# The packed product beats the schoolbook loops from about 16x16 term pairs on.
_PACK_MIN_OPS = 256


class XLaurent:
    """Laurent polynomial with exact rational coefficients.

    The variable is abstract: the same object may stand for a polynomial in
    q, in x, or in a root of unity, depending on context.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data: dict[int, Scalar] = {}
        for e, c in items:
            if c:
                data[e] = data.get(e, 0) + c
                if not data[e]:
                    del data[e]
        self.coeffs = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def term(cls, exp: int, coeff: Scalar = 1) -> "XLaurent":
        return cls({exp: coeff})

    @classmethod
    def const(cls, c: Scalar) -> "XLaurent":
        return cls({0: c})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self.coeffs)

    def coeff(self, exp: int) -> Scalar:
        return self.coeffs.get(exp, 0)

    def items(self) -> list[tuple[int, Scalar]]:
        """Coefficients as (exponent, value) pairs, ascending."""
        return sorted(self.coeffs.items())

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def has_integer_coeffs(self) -> bool:
        return all(
            isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
            for c in self.coeffs.values()
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = XLaurent.const(other)
        if not isinstance(other, XLaurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # mutable-style value object; never used as a key

    def __repr__(self) -> str:
        if not self.coeffs:
            return "XLaurent(0)"
        bits = []
        for e, c in self.items():
            bits.append(f"{c}*v^{e}" if e else f"{c}")
        return "XLaurent(" + " + ".join(bits) + ")"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "XLaurent | Scalar") -> "XLaurent":
        if isinstance(other, (int, Fraction)):
            other = XLaurent.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        res = XLaurent.__new__(XLaurent)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "XLaurent":
        res = XLaurent.__new__(XLaurent)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other: "XLaurent | Scalar") -> "XLaurent":
        return self + (-other if isinstance(other, XLaurent) else XLaurent.const(-other))

    def __rsub__(self, other: Scalar) -> "XLaurent":
        return XLaurent.const(other) - self

    def scaled(self, c: Scalar) -> "XLaurent":
        if not c:
            return XLaurent()
        res = XLaurent.__new__(XLaurent)
        res.coeffs = {e: _norm(v * c) for e, v in self.coeffs.items()}
        return res

    def __mul__(self, other: "XLaurent | Scalar") -> "XLaurent":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, XLaurent):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XLaurent()
        if len(a) * len(b) >= _PACK_MIN_OPS:
            packed = _packed_product({0: a}, {0: b})
            if packed is not None:
                res = XLaurent.__new__(XLaurent)
                res.coeffs = packed.get(0, {})
                return res
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, Scalar] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        res = XLaurent.__new__(XLaurent)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "XLaurent":
        if n < 0:
            raise ValueError("negative powers require division; use divexact")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- exponent manipulation ----------------------------------------------

    def shift(self, k: int) -> "XLaurent":
        """Multiply by v^k."""
        if not k:
            return self
        res = XLaurent.__new__(XLaurent)
        res.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return res

    def mirror(self) -> "XLaurent":
        """Substitute v -> v^-1."""
        res = XLaurent.__new__(XLaurent)
        res.coeffs = {-e: c for e, c in self.coeffs.items()}
        return res

    def descale(self, f: int) -> "XLaurent":
        """Substitute v -> v^(1/f); every exponent must be divisible by f."""
        out = {}
        for e, c in self.coeffs.items():
            if e % f:
                raise ExactnessError(f"exponent {e} not divisible by {f}")
            out[e // f] = c
        res = XLaurent.__new__(XLaurent)
        res.coeffs = out
        return res

    def substitute(self, value: Scalar) -> Scalar:
        """Evaluate at a rational value (nonzero if negative exponents occur)."""
        total: Scalar = 0
        for e, c in self.coeffs.items():
            total += c * (Fraction(value) ** e)
        return _norm(Fraction(total))

    # -- division -----------------------------------------------------------

    def divexact(self, other: "XLaurent") -> "XLaurent":
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


_Rows = Mapping[int, Mapping[int, Scalar]]


def _packed_product(
    a: _Rows, b: _Rows, limit: int | None = None
) -> dict[int, dict[int, int]] | None:
    """Product of two bivariate polynomials by one big-int multiply.

    Operands map a q-exponent e to a nonempty row ``{d: c}`` of the terms
    ``c * q^e * x^d``.  Returns the product's nonzero rows with ``e < limit``
    in the same form, or None when the schoolbook loops should run instead:
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
    product = _pack(a, ea0, da0, g, dx, wb, rows_a) * _pack(b, eb0, db0, g, dx, wb, rows_b)
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


def _pack(terms: _Rows, e0: int, d0: int, g: int, dx: int, wb: int, rows: int) -> int:
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


ZERO = XLaurent()
ONE = XLaurent({0: 1})


@lru_cache(maxsize=None)
def poch_q(first: int, count: int) -> XLaurent:
    """Finite q-shifted factorial (q^first)_count = prod_{j<count} (1 - q^(first+j))."""
    if count < 0:
        raise ValueError("negative Pochhammer length")
    if count == 0:
        return ONE
    prev = poch_q(first, count - 1)
    return prev - prev.shift(first + count - 1)


@lru_cache(maxsize=None)
def qbinomial(n: int, k: int) -> XLaurent:
    """Gaussian binomial coefficient; zero outside 0 <= k <= n.

    Built by the exact multiply/divide ladder: each intermediate stage is the
    Gaussian polynomial of a smaller pair, so every division is exact.
    """
    if k < 0 or n < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    out = ONE
    for i in range(1, k + 1):
        out = (out - out.shift(n - k + i)).divexact(ONE - XLaurent.term(i))
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> XLaurent:
    """The cyclotomic polynomial of the given order, with integer coefficients."""
    if order < 1:
        raise ValueError("order must be positive")
    poly = XLaurent({order: 1, 0: -1})
    for d in range(1, order):
        if order % d == 0:
            poly = poly.divexact(cyclotomic_polynomial(d))
    return poly


def bernoulli_b2(u: Scalar) -> Fraction:
    """Second Bernoulli polynomial u^2 - u + 1/6, evaluated exactly."""
    u = Fraction(u)
    return u * u - u + Fraction(1, 6)
