"""Truncated formal q-series with exact x-Laurent coefficients.

A QSeries stores terms keyed by a *scaled* integer exponent: the true
exponent of a key e is e/scale.  The window invariant is the heart of the
library: a series with truncation T is guaranteed correct for every scaled
exponent strictly below T, and every arithmetic operation propagates the
tightest window it can justify, so identity checks can never silently
compare coefficients that were lost to truncation.  trunc=None marks an
exact object (a polynomial known in full).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .laurent import ExactnessError, Scalar, XLaurent, _packed_product

__all__ = [
    "Mono",
    "QSeries",
    "WindowError",
    "first_difference",
    "qpochhammer",
]

_INF = math.inf


class WindowError(ValueError):
    """A comparison or conversion asked for precision beyond a series window."""


@dataclass(frozen=True)
class Mono:
    """Monomial coeff * x^x_exp * q^(q_exp/scale); exponents in scaled units."""

    coeff: Scalar = 1
    x_exp: int = 0
    q_exp: int = 0

    def times(self, other: "Mono") -> "Mono":
        return Mono(self.coeff * other.coeff, self.x_exp + other.x_exp, self.q_exp + other.q_exp)

    def inverse(self) -> "Mono":
        if not self.coeff:
            raise ZeroDivisionError("zero monomial")
        inv = Fraction(1, 1) / Fraction(self.coeff)
        if inv.denominator == 1:
            inv = inv.numerator
        return Mono(inv, -self.x_exp, -self.q_exp)

    def divide(self, other: "Mono") -> "Mono":
        return self.times(other.inverse())

    def power(self, n: int) -> "Mono":
        if n < 0:
            return self.inverse().power(-n)
        c = Fraction(self.coeff) ** n
        if c.denominator == 1:
            c = c.numerator
        return Mono(c, self.x_exp * n, self.q_exp * n)


class QSeries:
    """Bivariate series: x-Laurent coefficients attached to scaled q-exponents."""

    __slots__ = ("scale", "trunc", "terms")

    def __init__(
        self,
        terms: Mapping[int, XLaurent] | Iterable[tuple[int, "XLaurent | Scalar"]] = (),
        scale: int = 1,
        trunc: int | None = None,
    ):
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[int, XLaurent] = {}
        for e, c in items:
            if not isinstance(c, XLaurent):
                c = XLaurent.const(c)
            if c.is_zero():
                continue
            if trunc is not None and e >= trunc:
                continue
            if e in data:
                c = data[e] + c
                if c.is_zero():
                    del data[e]
                    continue
            data[e] = c
        self.terms = data
        self.scale = scale
        self.trunc = trunc

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, scale: int = 1, trunc: int | None = None) -> "QSeries":
        return cls((), scale, trunc)

    @classmethod
    def one(cls, scale: int = 1, trunc: int | None = None) -> "QSeries":
        return cls({0: XLaurent.const(1)}, scale, trunc)

    @classmethod
    def monomial(
        cls,
        coeff: Scalar = 1,
        x_exp: int = 0,
        q_exp: int = 0,
        scale: int = 1,
        trunc: int | None = None,
    ) -> "QSeries":
        return cls({q_exp: XLaurent.term(x_exp, coeff)}, scale, trunc)

    @classmethod
    def from_mono(cls, m: Mono, scale: int = 1, trunc: int | None = None) -> "QSeries":
        return cls.monomial(m.coeff, m.x_exp, m.q_exp, scale, trunc)

    @classmethod
    def from_q_laurent(cls, p: XLaurent, scale: int = 1, trunc: int | None = None) -> "QSeries":
        """Embed a Laurent polynomial in q (exponents multiplied by scale)."""
        return cls({e * scale: XLaurent.const(c) for e, c in p.coeffs.items()}, scale, trunc)

    # -- window helpers -----------------------------------------------------

    def _window(self) -> float:
        return _INF if self.trunc is None else self.trunc

    def _valuation(self) -> float:
        """Lowest known exponent; the window itself for a windowed zero."""
        if self.terms:
            return min(self.terms)
        return self._window()

    def is_exact(self) -> bool:
        return self.trunc is None

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("series with no visible terms has no minimal exponent")
        return min(self.terms)

    def with_trunc(self, trunc: int | None) -> "QSeries":
        """Tighten the window (never widens an existing one)."""
        if trunc is None:
            return self
        if self.trunc is not None and self.trunc < trunc:
            trunc = self.trunc
        return QSeries(self.terms, self.scale, trunc)

    def coefficient(self, q_exp: int) -> XLaurent:
        """x-Laurent coefficient at a scaled exponent; loud outside the window."""
        if self.trunc is not None and q_exp >= self.trunc:
            raise WindowError(
                f"coefficient at {q_exp} requested, window ends at {self.trunc}"
            )
        return self.terms.get(q_exp, XLaurent())

    def items_sorted(self) -> list[tuple[int, XLaurent]]:
        return sorted(self.terms.items())

    # -- scale handling -----------------------------------------------------

    def rescale(self, new_scale: int) -> "QSeries":
        if new_scale == self.scale:
            return self
        if new_scale % self.scale:
            raise ValueError(f"cannot rescale {self.scale} -> {new_scale}")
        f = new_scale // self.scale
        trunc = None if self.trunc is None else self.trunc * f
        return QSeries({e * f: c for e, c in self.terms.items()}, new_scale, trunc)

    def reduce_scale(self) -> "QSeries":
        """Smallest equivalent scale (gcd of scale and all exponents)."""
        g = self.scale
        for e in self.terms:
            g = math.gcd(g, e)
            if g == 1:
                break
        if g == 1:
            return self
        trunc = None if self.trunc is None else -((-self.trunc) // g)
        return QSeries({e // g: c for e, c in self.terms.items()}, self.scale // g, trunc)

    def is_integral(self) -> bool:
        """True when every exponent is a multiple of the scale."""
        return all(e % self.scale == 0 for e in self.terms)

    def to_q_laurent(self) -> XLaurent:
        """Convert an exact, integral, x-free series to a Laurent polynomial in q."""
        if not self.is_exact():
            raise ExactnessError("truncated series cannot be read as a polynomial")
        if not self.is_integral():
            raise ExactnessError("series has fractional exponents")
        out: dict[int, Scalar] = {}
        for e, c in self.terms.items():
            if set(c.coeffs) - {0}:
                raise ExactnessError("series carries x-dependence")
            out[e // self.scale] = c.coeff(0)
        return XLaurent(out)

    # -- ring operations ----------------------------------------------------

    def _aligned(self, other: "QSeries") -> tuple["QSeries", "QSeries"]:
        s = math.lcm(self.scale, other.scale)
        return self.rescale(s), other.rescale(s)

    def __add__(self, other: "QSeries | Scalar") -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries.monomial(other, scale=self.scale)
        a, b = self._aligned(other)
        w = min(a._window(), b._window())
        trunc = None if w == _INF else int(w)
        data = dict(a.terms)
        for e, c in b.terms.items():
            if e in data:
                v = data[e] + c
                if v.is_zero():
                    del data[e]
                else:
                    data[e] = v
            else:
                data[e] = c
        return QSeries(data, a.scale, trunc)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries({e: -c for e, c in self.terms.items()}, self.scale, self.trunc)

    def __sub__(self, other: "QSeries | Scalar") -> "QSeries":
        if isinstance(other, (int, Fraction)):
            other = QSeries.monomial(other, scale=self.scale)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "QSeries":
        return (-self) + other

    def __mul__(self, other: "QSeries | Scalar") -> "QSeries":
        if isinstance(other, (int, Fraction)):
            if not other:
                return QSeries.zero(self.scale, self.trunc)
            return QSeries(
                {e: c.scaled(other) for e, c in self.terms.items()}, self.scale, self.trunc
            )
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._aligned(other)
        if (a.is_exact() and not a.terms) or (b.is_exact() and not b.terms):
            return QSeries.zero(a.scale)
        wa, wb = a._window(), b._window()
        cands = []
        if wa != _INF:
            cands.append(wa + b._valuation())
        if wb != _INF:
            cands.append(wb + a._valuation())
        w = min(cands) if cands else _INF
        trunc = None if w == _INF else int(w)
        at, bt = a.terms, b.terms
        if trunc is not None and at and bt:
            amin, bmin = min(at), min(bt)
            at = {e: c for e, c in at.items() if e + bmin < trunc}
            bt = {e: c for e, c in bt.items() if e + amin < trunc}
        rows = _packed_product(
            {e: c.coeffs for e, c in at.items()}, {e: c.coeffs for e, c in bt.items()}, trunc
        )
        if rows is None:
            rows = _schoolbook(at, bt, trunc)
        out: dict[int, XLaurent] = {}
        for e, row in rows.items():
            if row:  # rows hold no zero coefficient; wrap them as they are
                c = out[e] = XLaurent.__new__(XLaurent)
                c.coeffs = row
        return QSeries(out, a.scale, trunc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            raise ValueError("use invert for negative powers")
        out = QSeries.one(self.scale)
        for _ in range(n):
            out = out * self
        return out

    def mul_mono(self, m: Mono) -> "QSeries":
        trunc = None if self.trunc is None else self.trunc + m.q_exp
        return QSeries(
            {e + m.q_exp: c.shift(m.x_exp).scaled(m.coeff) for e, c in self.terms.items()},
            self.scale,
            trunc,
        )

    # -- substitutions ------------------------------------------------------

    def negate_x(self) -> "QSeries":
        """Substitute x -> -x."""
        out = {}
        for e, c in self.terms.items():
            out[e] = XLaurent({d: (v if d % 2 == 0 else -v) for d, v in c.coeffs.items()})
        return QSeries(out, self.scale, self.trunc)

    def swap_x(self) -> "QSeries":
        """Substitute x -> 1/x."""
        return QSeries({e: c.mirror() for e, c in self.terms.items()}, self.scale, self.trunc)

    def substitute_x(self, value: Scalar) -> "QSeries":
        """Evaluate the x-Laurent coefficients at a nonzero rational."""
        return QSeries(
            {e: XLaurent.const(c.substitute(value)) for e, c in self.terms.items()},
            self.scale,
            self.trunc,
        )

    # -- inversion ----------------------------------------------------------

    def invert(self, trunc: int | None = None) -> "QSeries":
        """Multiplicative inverse; the lowest term must be a monomial in x.

        For a truncated input the result window is trunc(self) - 2e where e is
        the valuation; an explicit trunc tightens (and is required for exact
        non-monomial input, where no finite computation yields all of 1/s).
        """
        if not self.terms:
            raise ZeroDivisionError("cannot invert a series with no visible terms")
        e0 = self.min_exp()
        low = self.terms[e0]
        if not low.is_monomial():
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

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self.reduce_scale(), other.reduce_scale()
        return a.scale == b.scale and a.trunc == b.trunc and a.terms == b.terms

    __hash__ = None

    def __repr__(self) -> str:
        n = len(self.terms)
        w = "exact" if self.trunc is None else f"<{Fraction(self.trunc, self.scale)}"
        return f"QSeries({n} terms, scale={self.scale}, {w})"


def _schoolbook(
    a: Mapping[int, XLaurent], b: Mapping[int, XLaurent], trunc: int | None
) -> dict[int, dict[int, Scalar]]:
    """Product term by term, below trunc, as q-exponent -> {x-exponent: coeff}."""
    out: dict[int, dict[int, Scalar]] = {}
    bitems = sorted(b.items())
    for e1, c1 in sorted(a.items()):
        for e2, c2 in bitems:
            e = e1 + e2
            if trunc is not None and e >= trunc:
                break
            row = out.get(e)
            if row is None:
                row = out[e] = {}
            for d1, v1 in c1.coeffs.items():
                for d2, v2 in c2.coeffs.items():
                    d = d1 + d2
                    v = row.get(d, 0) + v1 * v2
                    if v:
                        row[d] = v
                    else:
                        del row[d]
    return out


def qpochhammer(
    a: Mono,
    n: int | None,
    *,
    scale: int = 1,
    trunc: int | None = None,
    base: Mono | None = None,
) -> QSeries:
    """q-shifted factorial (a; base)_n = prod_{k<n} (1 - a*base^k) as a QSeries.

    base defaults to q itself (scaled exponent = scale).  n=None is the
    formal infinite product, which requires a strictly positive q-exponent
    on both a and base, plus a truncation window.
    """
    if base is None:
        base = Mono(1, 0, scale)
    if n is None:
        if a.q_exp <= 0:
            raise ValueError("infinite product needs a monomial with positive q-exponent")
        if base.q_exp <= 0:
            raise ValueError("infinite product needs a base with positive q-exponent")
        if trunc is None:
            raise WindowError("infinite product needs a truncation window")
        out = QSeries.one(scale, trunc)
        k = 0
        while a.q_exp + k * base.q_exp < trunc:
            f = a.times(base.power(k))
            out = out * (QSeries.one(scale) - QSeries.from_mono(f, scale))
            k += 1
        return out
    if n < 0:
        raise ValueError("negative Pochhammer length")
    out = QSeries.one(scale, trunc)
    for k in range(n):
        f = a.times(base.power(k))
        out = out * (QSeries.one(scale) - QSeries.from_mono(f, scale))
    return out


def first_difference(
    a: QSeries,
    b: QSeries,
    through: "Fraction | int | None" = None,
) -> "tuple[Fraction, int, Scalar, Scalar] | None":
    """First (q_exp, x_exp, a_coeff, b_coeff) where the series disagree.

    Compares all true exponents strictly below `through` (or the common
    guaranteed window when omitted).  Raises WindowError if either operand's
    window is too small for the requested range: disagreement-by-truncation
    must never masquerade as agreement.
    """
    s = math.lcm(a.scale, b.scale)
    a, b = a.rescale(s), b.rescale(s)
    w = min(a._window(), b._window())
    if through is not None:
        want = Fraction(through) * s
        if want > w:
            raise WindowError(
                f"comparison through {through} needs window {want/s}, have {Fraction(int(w), s) if w != _INF else 'exact'}"
            )
        w = math.ceil(want)
    exps = sorted(set(a.terms) | set(b.terms))
    for e in exps:
        if e >= w:
            break
        ca = a.terms.get(e, XLaurent())
        cb = b.terms.get(e, XLaurent())
        if ca == cb:
            continue
        for d in sorted(set(ca.coeffs) | set(cb.coeffs)):
            if ca.coeff(d) != cb.coeff(d):
                return (Fraction(e, s), d, ca.coeff(d), cb.coeff(d))
    return None
