"""Exact Laurent-polynomial arithmetic over the rationals.

One sparse class covers every univariate object in the library: polynomials
in q (Jones polynomials, cyclotomic expansion coefficients, Gaussian
binomials, cyclotomic polynomials) and the x-Laurent coefficients carried by
the two-variable series.  Coefficients are Python ints or Fractions; the
zero polynomial is the empty map and no stored coefficient is ever zero.

Every product of two polynomials, ``XLaurent`` or the bivariate ``QSeries``,
goes through one kernel, ``_product``, on rows ``{e: {d: c}}`` of the terms
``c q^e x^d``.  Two one-row integer operands with enough terms are multiplied
packed (Kronecker substitution, cf. Harvey, arXiv:0712.4046): each is taken
to its image at q = 2^w, the two ints are multiplied once, and the product is
read back by ``_read_back``, as a chain sum is.  Series products with more
than one row, and rational, small or sparse operands, run the one
term-by-term loop; the choice depends only on the operands' shape.

The nested chain sums skip ``XLaurent`` altogether.  One function, ``_chain``,
runs each route twice on ``_kron_step``, the library's only chain step: first
on l1 norms, which bound every coefficient of its results, then in the image
of its ring at the width that bound needs, and reads each result back once.
A ring is a function of the width that returns one pass, and every route takes
that pass: ``_zq`` runs Z[q^+-1] at q = 2^w, windows included, and
``cyclo._root`` runs Z[zeta_N] in Z / Phi_N(2^w); each explains its images and
bounds.  ``qbinomial`` is such a route under the bound C(n, k).  Exact division
by binomial factors 1 - q^d is one pass per factor (``_over_binomials``).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import abc
from fractions import Fraction
from functools import lru_cache, partial
from types import SimpleNamespace
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
    "qbinomial",
]


class ExactnessError(ArithmeticError):
    """An operation that must be exact (division, exponent descaling) was not."""


def _norm(c: Scalar) -> Scalar:
    if type(c) is int:  # skips the ABC machinery of isinstance on the common case
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class XLaurent:
    """Laurent polynomial with exact rational coefficients.

    The variable is abstract: the same object may stand for a polynomial in
    q, in x, or in a root of unity, depending on context.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = coeffs.items() if isinstance(coeffs, abc.Mapping) else coeffs
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
        if type(other) is not XLaurent and isinstance(other, (int, Fraction)):
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
        if c == 1:
            return self
        res = XLaurent.__new__(XLaurent)
        res.coeffs = {e: _norm(v * c) for e, v in self.coeffs.items()}
        return res

    def __mul__(self, other: "XLaurent | Scalar") -> "XLaurent":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, XLaurent):
            return NotImplemented
        res = XLaurent.__new__(XLaurent)
        res.coeffs = _product({0: self.coeffs}, {0: other.coeffs}).get(0, {})
        return res

    __rmul__ = __mul__

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


_Rows = Mapping[int, Mapping[int, Scalar]]

# The packed product beats the term-by-term loop from about 16x16 term pairs on.
_PACK_MIN_OPS = 256


def _packed_product(a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> XLaurent | None:
    """Product of two Laurent polynomials ``{e: c}`` by one big-int multiply, or
    None when the term-by-term loop should run instead: too few term pairs,
    more than four product slots per term pair, or a coefficient not an int.

    Both operands are packed at q = 2^w and the product is read back once
    (``_read_back``) under max|a| * max|b| * min(#a, #b), which bounds every
    product coefficient; w is the least whole number of bytes with a sign bit
    above it.  ``_width``'s 32-bit rounding, there so that chain images share
    cached binomial images, cost products 6 to 10 percent of their time.
    """
    na, nb = len(a), len(b)
    if na * nb < _PACK_MIN_OPS:
        return None
    a0, b0 = min(a), min(b)
    if (max(a) - a0 + max(b) - b0 + 1) * 4 > na * nb:
        return None
    if {*map(type, a.values()), *map(type, b.values())} != {int}:
        return None
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(na, nb)
    w = (bound.bit_length() + 8) // 8 * 8
    return _read_back(_pack(a, a0, w) * _pack(b, b0, w), a0 + b0, w, bound)


def _pack(terms: Mapping[int, int], lo: int, w: int) -> int:
    """sum c 2^((e - lo) w) over the terms c q^e, e >= lo: the polynomial's
    image at q = 2^w, w a multiple of 8; positive and negative parts packed apart."""
    wb = w // 8
    pos = bytearray((max(terms) - lo + 1) * wb)
    neg = bytearray(len(pos))
    for e, c in terms.items():
        i = (e - lo) * wb
        if c > 0:
            pos[i : i + wb] = c.to_bytes(wb, "little")
        else:
            neg[i : i + wb] = (-c).to_bytes(wb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _product(a: _Rows, b: _Rows, limit: int | None = None) -> dict[int, dict[int, Scalar]]:
    """Product of two bivariate polynomials on rows ``{e: {d: c}}`` of the terms
    ``c q^e x^d``, keeping the rows with ``e < limit``: packed when both are one
    row and ``_packed_product`` takes them, else term by term.  A row may be empty."""
    if len(a) == len(b) == 1:
        ((ea, ra),), ((eb, rb),) = a.items(), b.items()
        if limit is None or ea + eb < limit:
            packed = _packed_product(ra, rb)
            if packed is not None:
                return {ea + eb: packed.coeffs}
    out: dict[int, dict[int, Scalar]] = {}
    bitems = sorted(b.items())
    for e1, r1 in sorted(a.items()):
        for e2, r2 in bitems:
            e = e1 + e2
            if limit is not None and e >= limit:
                break
            row = out.get(e)
            if row is None:
                row = out[e] = {}
            for d1, v1 in r1.items():
                for d2, v2 in r2.items():
                    d = d1 + d2
                    v = row.get(d, 0) + v1 * v2
                    if v:
                        row[d] = v
                    else:
                        del row[d]
    return out


ZERO = XLaurent()
ONE = XLaurent({0: 1})


@lru_cache(maxsize=4096)
def qbinomial(n: int, k: int) -> XLaurent:
    """Gaussian binomial coefficient; zero outside 0 <= k <= n.

    Read back from its image at q = 2^w: the coefficients are nonnegative and
    sum to C(n, k), the l1 bound the slots are sized for.
    """
    if k < 0 or n < 0 or k > n:
        return ZERO
    return _chain(_zq, lambda r: [(r.binom(n, k), 0)])[0][0]


# -- chain sums at q = 2^w ---------------------------------------------------


def _width(bound: int) -> int:
    """Slot bits for coefficients of absolute value at most bound: one bit over
    bound's, so that 2^(w-1) > bound, rounded up to a multiple of 32 so that
    nearby bounds share a width and its cached binomial images."""
    return -(-(bound.bit_length() + 1) // 32) * 32


# The memoryview codes whose items are 32- and 64-bit slots, on a host that
# stores them little-endian, as the slots are packed; empty elsewhere.
_SLOT_CODES = {w: c for w, c in ((32, "I"), (64, "Q")) if memoryview((1).to_bytes(w // 8, "little")).cast(c)[0] == 1}


def _read_back(v: int, o: int, w: int, bound: int, limit: int | None = None) -> XLaurent:
    """The Laurent polynomial q^o P(q) with P(2^w) = v, P an integer polynomial
    whose coefficients have absolute value at most bound; with a limit, only
    its terms below q^limit, from any v congruent to P(2^w) mod 2^(w (limit - o)).

    The coefficients are the balanced base-2^w digits of v, each in
    [-2^(w-1), 2^(w-1)): adding 2^(w-1) to every slot makes them the plain
    digits of a nonnegative int.  Such digits are unique, so the read-back is
    exact once bound < 2^(w-1); a narrower slot raises rather than wraps.
    Carries only run upward, so the digits below the limit are those of
    v + 2^(w-1) (1 + 2^w + ... ) mod 2^(w (limit - o)).  w is a multiple of 8.
    32- and 64-bit slots are decoded in one pass, by one ``memoryview`` cast
    of the bytes to native unsigned ints, where ``_SLOT_CODES`` finds the host
    little-endian; other widths and hosts slice the bytes slot by slot.
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
    if w in _SLOT_CODES:
        res.coeffs = {e: d - half for e, d in enumerate(memoryview(buf).cast(_SLOT_CODES[w]), o) if d != half}
        return res
    for i in range(slots):
        chunk = buf[i * wb : (i + 1) * wb]
        if chunk != zero:
            res.coeffs[o + i] = int.from_bytes(chunk, "little") - half
    return res


# Canonical binomial images (1 <= k <= n/2), the oldest dropped first once
# there are more than _IMAGES_MAX of them.
_IMAGES: dict[tuple[int, int, int], int] = {}
_IMAGES_MAX = 1 << 13


def _binom_image(n: int, k: int, w: int) -> int:
    """[n choose k] at q = 2^w as an exact int; 0 outside 0 <= k <= n.

    q-Pascal, [m, j] = [m-1, j-1] + X^j [m-1, j] at X = 2^w: one shift and
    one add per image, exact at every w because the identity is.  Only
    canonical images (1 <= k <= n/2) are cached.  A miss runs down the rows
    in a loop, row m holding the band [m, j], k - (n - m) <= j <= k, that
    [n, k] depends on, from the highest row whose band is cached, at worst
    row 0: at most (k + 1)(n - k + 1) images whatever the cache holds.  The
    band is updated in place, top down, so only one band is ever held.  A
    chain asks for nearly every image below its largest, so the run caches
    every image it computes, unless they could be more than a quarter of
    the cache: then it keeps only [n, k], so as not to evict what it needs.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    k = min(k, n - k)
    if not k:
        return 1
    image = _IMAGES.get((n, k, w))
    if image is not None:
        return image
    m, band = n, [None]
    while None in band:
        m -= 1
        lo = max(0, k - n + m)
        band = [
            1 if j in (0, m) else _IMAGES.get((m, min(j, m - j), w))
            for j in range(lo, min(k, m) + 1)
        ]
    keep_all = (n - m) * (k + 1) <= _IMAGES_MAX // 4
    for m in range(m + 1, n + 1):
        if m <= k:
            band.append(0)  # [m-1, m]
        for i in range(len(band) - 1, 0, -1):
            band[i] = band[i - 1] + (band[i] << (lo + i) * w)
        if k - n + m > 0:
            del band[0]
            lo += 1
        if keep_all or m == n:
            for j, image in enumerate(band, lo):
                if 0 < j < m:
                    _IMAGES[m, min(j, m - j), w] = image
    while len(_IMAGES) > _IMAGES_MAX:
        del _IMAGES[next(iter(_IMAGES))]
    return band[-1]


def _kron_step(states: dict, edges, w: int) -> dict:
    """One chain step on values (V, o) that stand for q^o P(q), V the image of
    P at q -> X = 2^w: in Z for a chain over Z[q^+-1] (``_zq``), in
    Z / Phi_N(X) for one over Z[zeta_N] (``cyclo._root``).

    ``edges(state, o)`` yields ``(next_state, weight, shift, negate)``: the
    value times the int ``weight`` times q^shift, negated when asked, is added
    into ``next_state``; offsets are aligned by shifting the higher one up,
    which is multiplication by a power of X in either image.  At w = 0 the
    same step sums l1 norms: shifts cost nothing and signs are dropped.  Zero
    weights are skipped, so a state's offset is the least offset over the
    terms that reach it.
    """
    out: dict = {}
    for state, (v, o) in states.items():
        for nxt, weight, shift, negate in edges(state, o):
            if not weight:
                continue
            p = -v * weight if negate and w else v * weight
            e = o + shift
            if nxt not in out:
                out[nxt] = (p, e)
                continue
            u, f = out[nxt]
            if e == f:  # the common case; p << 0 would copy p
                out[nxt] = (u + p, f)
            else:
                out[nxt] = (u + (p << (e - f) * w), f) if e > f else ((u << (f - e) * w) + p, e)
    return out


def _zq(w: int) -> SimpleNamespace:
    """The pass of a chain over Z[q^+-1] at q = 2^w, or on l1 norms at w = 0.

    q -> X = 2^w is a ring homomorphism Z[q] -> Z, so a chain value q^o P(q)
    is carried as the pair (P(X), o): products and sums are plain int
    arithmetic, the offset o absorbs the negative shifts, and the image is
    exact at any w.  ``binom(a, b)`` stands for [a choose b], ``one_minus(d)``
    for 1 - q^d (d >= 0), ``image(p)`` for a given integer polynomial
    p = q^o P(q), o = p.min_exp(), as (P(X), o), and ``step`` is
    ``_kron_step`` at w, on which routes may run generating-function passes.
    On norms they are C(a, b), 2 (0 at d = 0) and (||p||_1, 0): the l1 norm of
    a sum of products is at most the sum of the products of the norms, so each
    l1 final is the ``bound`` of every coefficient of the matching image final.
    ``width`` (``_width``) leaves a sign bit above the largest bound, and
    ``read`` takes a final back as the unique balanced base-2^w digits of its
    image (``_read_back``), raising on a slot too narrow for its bound.

    A windowed route passes ``step`` a third argument, ``limit(state)``: the
    exponent below which that state's value is needed, no lower than the
    limits of the states it reaches.  The image pass then keeps V mod
    2^(w (limit - o)) (``_windowed_edges`` cuts each weight, and a merged
    state is cut, or dropped once o >= limit), exact since q -> 2^w induces a
    ring map Z[q]/(q^L) -> Z/2^(wL) that sums, integer weights and shifts by
    q^s, s >= 0, respect; a negative shift raises.  Such a pass is
    ``windowed``, and each final is read back below its limit only; the l1
    pass is the untruncated chain's, whose bounds cover every coefficient read.
    """
    r = SimpleNamespace(
        bound=lambda bound: bound, width=_width, windowed=False,
        read=lambda v, o, bound, limit=None: _read_back(v, o, w, bound, limit),
    )
    if not w:
        r.binom = lambda n, k: math.comb(n, k) if 0 <= k <= n else 0
        r.one_minus = lambda d: 2 if d else 0
        r.image = lambda p: (sum(map(abs, p.coeffs.values())), 0)
        r.step = lambda states, edges, limit=None: _kron_step(states, edges, 0)
        return r

    def step(states: dict, edges, limit=None) -> dict:
        if limit is None:
            return _kron_step(states, edges, w)
        r.windowed = True
        out = {}
        for state, (v, o) in _kron_step(states, partial(_windowed_edges, edges, limit, w), w).items():
            top = limit(state)
            if o < top:
                out[state] = (v & ((1 << (top - o) * w) - 1), o)
        return out

    r.binom, r.one_minus, r.step = lambda n, k: _binom_image(n, k, w), lambda d: 1 - (1 << d * w), step
    r.image = lambda p: (_pack(p.coeffs, p.min_exp(), w), p.min_exp()) if p else (0, 0)
    return r


def _chain(ring, route, limits: list[int] | None = None) -> list[tuple]:
    """Sum a chain in the image of a ring and read each final back once.

    ``ring(w)`` is one pass (``_zq``, or ``cyclo._root`` over Z[zeta_N]): the
    primitives its routes read and ``bound``, ``width`` and ``read``.
    ``route(r)`` builds its chain on the pass r and returns its finals (V, o).
    It runs on l1 norms at w = 0, whose finals ``bound`` takes to bounds on the
    results, then at the ``width`` of the largest bound, where ``read`` takes
    each final back once, below its limit if the route is windowed.  Returns
    (result, bound) for every final.
    """
    l1 = ring(0)
    bounds = [l1.bound(v) for v, _ in route(l1)]
    r = ring(l1.width(max(bounds, default=0)))
    finals = route(r)
    if r.windowed and limits is None:
        raise ValueError("a windowed route is read back only below its limits")
    reads = [None] * len(bounds) if limits is None else limits
    return [(r.read(v, o, bound, limit), bound) for (v, o), bound, limit in zip(finals, bounds, reads, strict=True)]


def _windowed_edges(edges, limit, w: int, state, o: int):
    """``edges`` in a windowed step at width w: each weight is cut mod
    2^(w room), room the slots its term has below the limit of the state it
    enters, and a term with no room is dropped; a negative shift raises."""
    for nxt, weight, shift, negate in edges(state, o):
        if shift < 0:
            raise ValueError("a windowed step cannot shift a value down")
        room = limit(nxt) - o - shift
        if room > 0:
            yield nxt, weight & ((1 << room * w) - 1), shift, negate


def _over_binomials(p: XLaurent, ds: Iterable[int]) -> XLaurent:
    """Exact quotient p / prod_{d in ds} (1 - q^d), one factor at a time.

    Dividing by 1 - q^d is the running sum a_j += a_{j-d}, run by C loops
    in whichever way takes fewer of them: one ``itertools.accumulate`` per
    residue class a[r::d] when d^2 < len, else one slice addition per block
    of d entries.  The quotient ends d below the top, so the last d sums
    must vanish; otherwise ExactnessError is raised.
    """
    if not p.coeffs:
        return XLaurent()
    lo = p.min_exp()
    a = [0] * (p.max_exp() - lo + 1)
    for e, c in p.coeffs.items():
        a[e - lo] = c
    for d in ds:
        if d * d < len(a):
            for r in range(d):
                a[r::d] = itertools.accumulate(a[r::d])
        else:
            for j in range(d, len(a), d):
                a[j : j + d] = map(operator.add, a[j : j + d], a[j - d : j])
        if any(a[-d:]):
            raise ExactnessError(f"not divisible by 1 - q^{d}")
        del a[-d:]
    res = XLaurent.__new__(XLaurent)
    res.coeffs = {lo + j: c for j, c in enumerate(a) if c}
    return res


def _mobius(n: int) -> int:
    """The Moebius function of n >= 1, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def cyclotomic_polynomial(order: int) -> XLaurent:
    """The cyclotomic polynomial of the given order, with integer coefficients:
    prod_{d | order} (1 - q^d)^mu(order / d), negated at order 1."""
    if order < 1:
        raise ValueError("order must be positive")
    num, ds = ONE, []
    for d in range(1, order + 1):
        if order % d == 0:
            mu = _mobius(order // d)
            if mu == 1:
                num = num - num.shift(d)
            elif mu == -1:
                ds.append(d)
    phi = _over_binomials(num, ds)
    return -phi if order == 1 else phi


def bernoulli_b2(u: Scalar) -> Fraction:
    """Second Bernoulli polynomial u^2 - u + 1/6, evaluated exactly."""
    u = Fraction(u)
    return u * u - u + Fraction(1, 6)
