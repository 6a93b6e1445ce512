"""Truncated formal q-series with exact x-Laurent coefficients.

A QSeries stores terms keyed by a *scaled* integer exponent: the true
exponent of a key e is e/scale.  A series keeps its scale, and two series
combine (sum, product, comparison) only at one scale: the theta series, at
8(2t+1), never meet another.  The window invariant is the heart of the
library: a series with truncation T is guaranteed correct for every scaled
exponent strictly below T, and every arithmetic operation propagates the
tightest window it can justify, so identity checks can never silently
compare coefficients that were lost to truncation.  trunc=None marks an
exact object (a polynomial known in full).  Products run on the one product
kernel, ``laurent._product``.

Pochhammer products are not multiplied out: ``_by_binomials`` applies the
factors (1 - f) in one ``_step``, and every Pochhammer-weighted sum (the U
series, the Bailey sums) runs on one engine, ``_nested``, in Horner form, one
step per level and one more where the caller closes the sum.  One rule,
``_val``, bounds the valuation of a head mono prod(1 - f) for every window
these cut.

A step on integer coefficients at scale 1, with integer factors, runs on
packed x-rows (``_Rows``): one int per x-exponent d, the row's image at
q = 2^w modulo 2^(w L), L the window minus the lowest exponent (Kronecker
substitution, cf. Harvey, arXiv:0712.4046).  Multiplying by (1 - c x^a q^k)
is then P_d - c (P_{d-a} << wk), dividing by it is a few doubling steps when
a = 0, each term is packed once when its level adds it, and each result is
read back once by ``laurent._read_back``.  A running bound M on every
|coefficient| grows by each op's rule: M + max|c| for a term, M |c| for a
mono, M (1 + |c|) for a factor multiplied and M sum_{i<n} |c|^i for one
divided, n = ceil(L/k).  Before an op would take M to 2^(w-1) the rows are
read back exactly, M becomes their true maximum, and only if the op still
does not fit are the slots widened.  An exact series is held below one past
its product's top degree.  Rational coefficients and other scales (the theta
product side, sparse at scale 8(2t+1)) keep the dict pass, one stride pass
per factor on rows {e: {d: c}}; a nested sum moves to it, read back once, at
its first rational term or step.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping

from .laurent import ExactnessError, Scalar, XLaurent, _norm, _pack, _product, _read_back, _width

__all__ = [
    "Mono",
    "QSeries",
    "WindowError",
    "first_difference",
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
        return Mono(_norm(self.coeff**n), self.x_exp * n, self.q_exp * n)


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
        items = terms.items() if isinstance(terms, abc.Mapping) else terms
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
    def _of(cls, terms: dict[int, XLaurent], scale: int, trunc: int | None) -> "QSeries":
        """A series over terms with no zero and no exponent at or above trunc, unwalked."""
        out = cls.__new__(cls)
        out.terms, out.scale, out.trunc = terms, scale, trunc
        return out

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
    def from_q_laurent(cls, p: XLaurent, trunc: int | None = None) -> "QSeries":
        """Embed a normalized Laurent polynomial in q as a scale-1 series."""
        rows = {}
        for e, c in p.coeffs.items():
            if trunc is None or e < trunc:
                row = rows[e] = XLaurent.__new__(XLaurent)
                row.coeffs = {0: c}
        return cls._of(rows, 1, trunc)

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
        """Tighten the window (never widens an existing one); the series
        itself when the window does not move."""
        if trunc is None or (self.trunc is not None and self.trunc <= trunc):
            return self
        return QSeries._of({e: c for e, c in self.terms.items() if e < trunc}, self.scale, trunc)

    def coefficient(self, q_exp: int) -> XLaurent:
        """x-Laurent coefficient at a scaled exponent; loud outside the window."""
        if self.trunc is not None and q_exp >= self.trunc:
            raise WindowError(
                f"coefficient at {q_exp} requested, window ends at {self.trunc}"
            )
        return self.terms.get(q_exp, XLaurent())

    def items_sorted(self) -> list[tuple[int, XLaurent]]:
        return sorted(self.terms.items())

    def to_q_laurent(self) -> XLaurent:
        """Convert an exact, integral, x-free series to a Laurent polynomial in q."""
        if not self.is_exact():
            raise ExactnessError("truncated series cannot be read as a polynomial")
        if any(e % self.scale for e in self.terms):
            raise ExactnessError("series has fractional exponents")
        out: dict[int, Scalar] = {}
        for e, c in self.terms.items():
            if set(c.coeffs) - {0}:
                raise ExactnessError("series carries x-dependence")
            out[e // self.scale] = c.coeff(0)
        return XLaurent(out)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QSeries | Scalar") -> "QSeries":
        if type(other) is not QSeries and isinstance(other, (int, Fraction)):
            other = QSeries.monomial(other, scale=self.scale)
        scale = _one_scale(self, other)
        w = min(self._window(), other._window())
        trunc = None if w == _INF else int(w)
        data = dict(self.terms)
        for e, c in other.terms.items():
            if e in data:
                v = data[e] + c
                if v.is_zero():
                    del data[e]
                else:
                    data[e] = v
            else:
                data[e] = c
        if trunc is not None:
            data = {e: c for e, c in data.items() if e < trunc}
        return QSeries._of(data, scale, trunc)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries._of({e: -c for e, c in self.terms.items()}, self.scale, self.trunc)

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
        scale = _one_scale(self, other)
        if (self.is_exact() and not self.terms) or (other.is_exact() and not other.terms):
            return QSeries.zero(scale)
        wa, wb = self._window(), other._window()
        cands = []
        if wa != _INF:
            cands.append(wa + other._valuation())
        if wb != _INF:
            cands.append(wb + self._valuation())
        w = min(cands) if cands else _INF
        trunc = None if w == _INF else int(w)
        at, bt = self.terms, other.terms
        if trunc is not None and at and bt:
            amin, bmin = min(at), min(bt)
            at = {e: c for e, c in at.items() if e + bmin < trunc}
            bt = {e: c for e, c in bt.items() if e + amin < trunc}
        rows = _product(
            {e: c.coeffs for e, c in at.items()}, {e: c.coeffs for e, c in bt.items()}, trunc
        )
        return _wrap_rows(rows, scale, trunc)

    __rmul__ = __mul__

    def mul_mono(self, m: Mono) -> "QSeries":
        if m == _UNIT:
            return self
        trunc = None if self.trunc is None else self.trunc + m.q_exp
        if not m.coeff:
            return QSeries.zero(self.scale, trunc)
        return QSeries._of(
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

    def substitute_x(self, value: Scalar) -> "QSeries":
        """Evaluate the x-Laurent coefficients at a nonzero rational."""
        return QSeries(
            {e: XLaurent.const(c.substitute(value)) for e, c in self.terms.items()},
            self.scale,
            self.trunc,
        )

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.scale, self.trunc, self.terms) == (other.scale, other.trunc, other.terms)

    __hash__ = None

    def __repr__(self) -> str:
        n = len(self.terms)
        w = "exact" if self.trunc is None else f"<{Fraction(self.trunc, self.scale)}"
        return f"QSeries({n} terms, scale={self.scale}, {w})"


def _one_scale(a: QSeries, b: QSeries) -> int:
    """The scale of two series that combine; series at different scales never do."""
    if a.scale != b.scale:
        raise ValueError(f"series at scales {a.scale} and {b.scale} do not combine")
    return a.scale


def _poch(a: Mono, n: int, base: Mono = Mono(1, 0, 1)) -> list[Mono]:
    """The factors a, a*base, ..., a*base^(n-1) of (a; base)_n."""
    return [a.times(base.power(k)) for k in range(n)]


_UNIT = Mono(1, 0, 0)


def _by_binomials(
    s: QSeries, times: Iterable[Mono] = (), over: Iterable[Mono] = (), trunc: int | None = None
) -> QSeries:
    """s * prod(1 - f for f in times) / prod(1 - f for f in over), one ``_step``.

    Window rule, with k the q-exponent of f: multiplying by (1 - f) lowers the
    window by -min(0, k).  Dividing by (1 - f) with k > 0 is
    r_e = s_e + f r_{e-k} in ascending e and keeps the window exactly, since
    every r_e below it reads only s below it; k < 0 goes through
    1/(1 - f) = -f^{-1}/(1 - f^{-1}) and so raises the window by -k.  trunc,
    when given, is the result's window: the input is cut (never widened) where
    it yields that.  Dividing an exact nonzero series needs a window.
    """
    return _series(_step(s, _UNIT, times, over, trunc))


def _val(mono: Mono, factors: Iterable[Mono]) -> int:
    """A lower bound on the valuation of mono prod(1 - f, factors): a factor
    (1 - f) starts at q^min(0, k), k the q-exponent of f."""
    return mono.q_exp + sum(min(0, f.q_exp) for f in factors)


def _nested(
    term: Callable[[int], "QSeries | XLaurent | None"], top: int, rise: Callable, trunc: int, close: tuple = ()
) -> QSeries:
    """sum_{n <= top} rise(0) ... rise(n-1) term(n) below trunc, run from the top
    n as S <- term(n) + rise(n-1) S with one ``_step`` per level, where
    rise(i) = (mono, times, over) is mono prod(1 - f, times) / prod(1 - f, over),
    a term of None is zero and an ``XLaurent`` term an exact x-free polynomial
    in q.  Each term is asked once, when its level comes.  Level n is held
    below trunc - v_n, v_n the ``_val`` of its head's monos and times.  A close
    (mono, times, over, window) is one more ``_step`` on the sum.  The sum runs
    on one ``_Rows`` until a term or a step is not integral, then on dicts."""
    vals = [0, *accumulate(_val(*rise(i)[:2]) for i in range(top))]
    acc: "_Rows | QSeries" = _Rows(trunc - vals[top])
    for n in range(top, -1, -1):
        s = term(n)
        if s is not None and not (type(acc) is _Rows and acc.add(s)):
            acc = _series(acc) + (QSeries.from_q_laurent(s) if isinstance(s, XLaurent) else s)
        if n:
            acc = _step(acc, *rise(n - 1), trunc - vals[n - 1])
    if close:
        acc = _step(acc, *close)
    return _series(acc)


def _step(
    s: "QSeries | _Rows", mono: Mono, times: Iterable[Mono], over: Iterable[Mono], trunc: int | None
) -> "QSeries | _Rows":
    """s mono prod(1 - f, times) / prod(1 - f, over) under ``_by_binomials``'
    window rule, s cut first to yield trunc when given: on packed rows (a
    series is packed here) when s and every factor are integral at scale 1,
    else as the dict pass, which returns a series."""
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
    head = mono.times(head)
    if trunc is not None:
        s = s.cut(trunc - _val(head, times)) if type(s) is _Rows else s.with_trunc(trunc - _val(head, times))
    exact = type(s) is QSeries and s.trunc is None
    if divs and exact and s.terms:
        raise WindowError("dividing an exact series needs an explicit window")
    if head == _UNIT and not times and not divs:
        return s
    integral = type(head.coeff) is int and all(type(f.coeff) is int for f in (*times, *divs))
    if integral and type(s) is QSeries:
        # an exact s is held below one past its product's top degree, and read back exact
        hi = max(s.terms, default=0) + 1 + sum(abs(f.q_exp) for f in times) if exact else s.trunc
        s = _Rows.of(s, hi, exact) or s
    if integral and type(s) is _Rows:
        s.mono(head)
        for f in times:
            s.times(f)
        for f in divs:
            s.over(f)
        return s
    s = _series(s)
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


def _series(s: "QSeries | _Rows") -> QSeries:
    return s.series() if type(s) is _Rows else s


class _Rows:
    """A scale-1 series with integer coefficients below its window hi, as one
    packed int per x-exponent d: the row's image at q = 2^w, taken from q^lo,
    mod 2^(w (hi - lo)), no term lying below q^lo.  bound is at least every
    |coefficient|, and every op first makes room for its own bound
    (``_room``).  ``exact`` marks a polynomial held below one past its top
    degree, read back as an exact series."""

    __slots__ = ("rows", "lo", "hi", "w", "bound", "exact")
    scale = 1

    def __init__(self, hi: int, exact: bool = False):
        self.rows: dict[int, int] = {}
        self.lo = self.hi = hi
        self.w, self.bound, self.exact = _width(0), 0, exact

    @classmethod
    def of(cls, s: QSeries, hi: int, exact: bool = False) -> "_Rows | None":
        """s below hi, or None when s is not integral at scale 1."""
        out = cls(hi, exact)
        return out if out.add(s) else None

    def _mask(self) -> int:
        return (1 << self.w * (self.hi - self.lo)) - 1

    def _read(self) -> dict[int, XLaurent]:
        lo, hi, w, bound = self.lo, self.hi, self.w, self.bound
        return {d: _read_back(v, lo, w, bound, hi) for d, v in self.rows.items()}

    def _room(self, grow: Callable[[int], int]) -> None:
        """Take the bound to grow(bound) for an op about to run.  Where that
        passes the slots, the rows are read back exactly at the present bound
        (still below 2^(w-1)) and the bound is set to their true maximum; only
        if the op still does not fit are they repacked at ``_width``."""
        bound = grow(self.bound)
        if bound >> (self.w - 1):
            rows = self._read()
            bound = grow(max((abs(c) for p in rows.values() for c in p.coeffs.values()), default=0))
            if bound >> (self.w - 1):
                self.w = _width(bound)
                mask = self._mask()
                self.rows = {d: _pack(p.coeffs, self.lo, self.w) & mask for d, p in rows.items()}
        self.bound = bound

    def cut(self, hi: int) -> "_Rows":
        if hi < self.hi:
            self.hi = hi
            if hi <= self.lo:
                self.lo, self.rows = hi, {}
            else:
                mask = self._mask()
                self.rows = {d: r for d, v in self.rows.items() if (r := v & mask)}
        return self

    def add(self, s: "QSeries | XLaurent") -> bool:
        """self + s, the window the lesser of the two; False, self untouched,
        when s is not integral at scale 1."""
        hi = self.hi
        if type(s) is XLaurent:
            cols = {0: {e: c for e, c in s.coeffs.items() if e < hi}}
        elif s.scale != 1:
            return False
        else:
            if s.trunc is not None and s.trunc < hi:
                hi = s.trunc
            cols: dict[int, dict[int, Scalar]] = {}
            for e, c in s.terms.items():
                if e < hi:
                    for d, v in c.coeffs.items():
                        col = cols.get(d)
                        if col is None:
                            col = cols[d] = {}
                        col[e] = v
        cols = {d: col for d, col in cols.items() if col}
        if any({*map(type, col.values())} != {int} for col in cols.values()):
            return False
        self.cut(hi)
        if not cols:
            return True
        low = min(map(min, cols.values()))
        if not self.rows:
            self.lo, self.bound = low, 0
        elif low < self.lo:
            shift = self.w * (self.lo - low)
            self.rows = {d: v << shift for d, v in self.rows.items()}
            self.lo = low
        top = max(max(map(abs, col.values())) for col in cols.values())
        self._room(lambda bound: bound + top)
        rows, lo, w, mask = self.rows, self.lo, self.w, self._mask()
        for d, col in cols.items():
            v = (rows.get(d, 0) + _pack(col, lo, w)) & mask
            if v:
                rows[d] = v
            else:
                rows.pop(d, None)
        return True

    def mono(self, m: Mono) -> None:
        c, a = m.coeff, m.x_exp
        self.lo += m.q_exp
        self.hi += m.q_exp
        if not c:
            self.rows, self.bound = {}, 0
        elif c != 1 or a:
            if abs(c) != 1:
                self._room(lambda bound: bound * abs(c))
            mask = self._mask()
            self.rows = {d + a: (v * c) & mask for d, v in self.rows.items()}

    def times(self, f: Mono) -> None:
        """self (1 - c x^a q^k): P_d - c (P_{d-a} << wk), k < 0 lowering lo and hi."""
        c, a, k = f.coeff, f.x_exp, f.q_exp
        if k < 0:
            self.lo += k
            self.hi += k
        if not self.rows or k >= self.hi - self.lo:
            return
        self._room(lambda bound: bound * (1 + abs(c)))
        w, mask, old = self.w, self._mask(), self.rows
        if k < 0:
            new = {d: (v << w * -k) & mask for d, v in old.items()}
            k = 0
        else:
            new = dict(old)
        for d, v in old.items():
            v = (new.get(d + a, 0) - (c * v << w * k)) & mask
            if v:
                new[d + a] = v
            else:
                new.pop(d + a, None)
        self.rows = {d: v for d, v in new.items() if v} if f.q_exp < 0 else new

    def over(self, f: Mono) -> None:
        """self / (1 - c x^a q^k), k > 0: doubling steps r += c^s (r << wks) when
        a = 0, else r_d = s_d + c (r_{d-a} << wk) in the order of d."""
        c, a, k = f.coeff, f.x_exp, f.q_exp
        span = self.hi - self.lo
        if not self.rows or k >= span:
            return
        n, m = -(-span // k), abs(c)
        self._room(lambda bound: bound * (n if m == 1 else (m**n - 1) // (m - 1)))
        w, mask, rows = self.w, self._mask(), self.rows
        if not a:
            for d, v in rows.items():
                cs, s = c, k
                while s < span:
                    v = (v + (cs * v << w * s)) & mask
                    cs, s = cs * cs, 2 * s
                rows[d] = v
            return
        step = 1 if a > 0 else -1
        d, end = (min(rows), max(rows))[:: step]
        while (end - d) * step >= 0:
            v = rows.get(d)
            if v:
                v = (rows.get(d + a, 0) + (c * v << w * k)) & mask
                if v:
                    rows[d + a] = v
                    if (d + a - end) * step > 0:
                        end = d + a
                else:
                    rows.pop(d + a, None)
            d += step

    def series(self) -> QSeries:
        """The series, every row read back once."""
        terms: dict[int, dict[int, int]] = {}
        for d, p in self._read().items():
            for e, c in p.coeffs.items():
                row = terms.get(e)
                if row is None:
                    row = terms[e] = {}
                row[d] = c
        return _wrap_rows(terms, 1, None if self.exact else self.hi)


def _wrap_rows(rows: Mapping[int, dict[int, Scalar]], scale: int, trunc: int | None) -> QSeries:
    """A QSeries over x-exponent -> coefficient rows that the caller owns and
    that hold no zero coefficient and no row at or above trunc, wrapped as they
    are; empty rows are dropped."""
    out: dict[int, XLaurent] = {}
    for e, row in rows.items():
        if row:
            c = out[e] = XLaurent.__new__(XLaurent)
            c.coeffs = row
    return QSeries._of(out, scale, trunc)


def _axpy(target: dict[int, Scalar], source: dict[int, Scalar], c: Scalar, dx: int) -> None:
    """target += c * x^dx * source, on x-exponent -> coefficient rows."""
    get = target.get
    for d, v in tuple(source.items()) if source is target else source.items():
        d += dx
        v = get(d, 0) + c * v
        if v:
            target[d] = v if type(v) is int else _norm(v)
        else:
            target.pop(d, None)


def first_difference(
    a: QSeries,
    b: QSeries,
    through: "Fraction | int | None" = None,
) -> "tuple[Fraction, int, Scalar, Scalar] | None":
    """First (q_exp, x_exp, a_coeff, b_coeff) where the series disagree.

    Compares all true exponents strictly below `through` (or the common
    guaranteed window when omitted).  Raises WindowError if either operand's
    window is too small for the requested range: disagreement-by-truncation
    must never masquerade as agreement.  Series at two scales raise ValueError.
    """
    s = _one_scale(a, b)
    w = min(a._window(), b._window())
    if through is not None:
        want = Fraction(through) * s
        if want > w:
            raise WindowError(
                f"comparison through {through} needs window {want/s}, have {Fraction(int(w), s) if w != _INF else 'exact'}"
            )
        w = math.ceil(want)
    if a.terms == b.terms:
        return None
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




_HARD_CAP = 100_000  # runaway guard: no index walks further from its origin


def _lattice(
    bound: Callable[..., int], window: int, dims: int = 1, origin: int = 0, pad: int = 0
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(indices, bound) for every index tuple whose bound is below the window,
    each index counting away from its origin (up from 0, or down from -1), the
    first outermost.  Contract on ``bound(*indices)``: over the later indices
    it is least with them at their origin, and along each index it may fall,
    but once a step does not fall, no later step falls.

    An index stops at the first value whose bound is at or above the window
    and no lower than the previous value's (at the origin: when the next
    value's is no lower), so no later value is below the window.  The stop is
    not walked unless ``pad`` walks that many values on, whatever their bounds.
    """
    yield from _walk(bound, window, (), dims, origin, pad, None)


def _walk(bound, window, head, dims, origin, pad, b):
    """The index after ``head``, the later ones at their origin (bound b there if known)."""
    step, rest = 1 if origin >= 0 else -1, (origin,) * (dims - len(head) - 1)
    before = stop = None
    for i in range(origin, origin + step * _HARD_CAP, step):
        b = bound(*head, i, *rest) if b is None else b
        if stop is None and b >= window and (
            b >= before if before is not None else bound(*head, i + step, *rest) >= b
        ):
            stop = i
        if stop is not None and (i - stop) * step >= pad:
            return
        if rest and (b < window or stop is not None):
            yield from _walk(bound, window, head + (i,), dims, origin, pad, b)
        elif b < window:
            yield head + (i,), b
        before, b = b, None
    raise RuntimeError("lattice walk ran away")
