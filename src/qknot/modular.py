"""Theta-side objects: the periodic character, the weight-1/2 theta series,
and the exact Bernoulli-sum value of F at roots of unity.

All fractional exponents k^2/(8(2t+1)) are realized as integer powers of a
primitive root of order 8(2t+1)N; the common unit phase shared by the two
sides of the limit formula is cancelled, which both keeps the identity exact
and makes the (t,m,N) = (1,1,1) anchor literally equal to 1.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloNum
from .cyclotomic_coeffs import _validate
from .laurent import bernoulli_b2
from .series import Mono, QSeries, qpochhammer
from .useries import eval_f_at_root

__all__ = [
    "bernoulli_lhs",
    "bernoulli_rhs",
    "chi_periodic",
    "theta_phi",
]


def chi_periodic(t: int, m: int, k: int) -> int:
    """Odd periodic character mod 8t+4: +1 at +-(2t+1-2m), -1 at +-(2t+1+2m)."""
    _validate(t, m)
    period = 8 * t + 4
    r = k % period
    plus = (2 * t + 1 - 2 * m) % period
    minus = (2 * t + 1 + 2 * m) % period
    if r == plus or r == (-plus) % period:
        return 1
    if r == minus or r == (-minus) % period:
        return -1
    return 0


def theta_phi(t: int, m: int, trunc: int, product_side: bool = False) -> QSeries:
    """Unary theta series at scale 8(2t+1), valid strictly below trunc (scaled).

    The sum side enumerates chi(n) q^{n^2/(8(2t+1))}; the product side is
    the triple-product form q^{(2t+1-2m)^2/(8(2t+1))} (q^m, q^{2t+1-m},
    q^{2t+1}; q^{2t+1})_infinity.  Both carry the same window so their
    agreement is a genuine Jacobi-triple-product check.
    """
    _validate(t, m)
    if trunc < 1:
        raise ValueError("need a positive scaled truncation")
    scale = 8 * (2 * t + 1)
    if not product_side:
        terms: dict[int, int] = {}
        n = 0
        while n * n < trunc:
            ch = chi_periodic(t, m, n)
            if ch:
                terms[n * n] = terms.get(n * n, 0) + ch
            n += 1
        return QSeries(terms, scale, trunc)
    base = Mono(1, 0, (2 * t + 1) * scale)
    lead = (2 * t + 1 - 2 * m) ** 2
    out = QSeries.monomial(1, 0, lead, scale, trunc)
    for a_exp in (m, 2 * t + 1 - m, 2 * t + 1):
        out = out * qpochhammer(
            Mono(1, 0, a_exp * scale), None, scale=scale, trunc=trunc - lead, base=base
        )
    return out.with_trunc(trunc)


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
        total = total + CycloNum.zeta(order, e) * weight
    return total * ((2 * t + 1) * n_root)


def bernoulli_lhs(t: int, m: int, n_root: int) -> CycloNum:
    """zeta_N^{-t} F_t^{(m)}(zeta_N), embedded in the order-8(2t+1)N field."""
    _validate(t, m)
    if n_root < 1:
        raise ValueError("root order must be positive")
    span = 8 * (2 * t + 1)
    order = span * n_root
    f = eval_f_at_root(t, m, n_root, inverse=False).embed(order)
    return f * CycloNum.zeta(order, -t * span)
