"""Colored Jones polynomials of torus knots and the Habiro expansion.

Quarter- and half-integer exponents arising in the closed formulas are kept
as scaled integers; every final division (by q^{N/2} - q^{-N/2} or 1 - q^N,
one running-sum pass per binomial factor) must be exact and must leave
integer exponents only, otherwise the routines raise instead of returning
silently wrong values.

The nested sum of jones_hyper is a route of ``laurent._chain`` over Z[q]
(``laurent._zq`` explains the l1 bound, the image at q = 2^w and the
read-back), and each head factor 1 - q^e is the pass's ``one_minus``.  Its
levels are q-binomial transforms, shift-adds that read no Gaussian binomial.
Both directions of the Habiro expansion are such routes over given
polynomials, each taken into the image by the pass's ``image``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

from .cyclotomic_coeffs import _validate
from .laurent import XLaurent, _chain, _over_binomials, _zq

__all__ = [
    "habiro_inverse",
    "habiro_inverses",
    "habiro_reconstruct",
    "jones_hyper",
    "jones_left",
    "jones_morton",
    "mirror",
]


def mirror(p: XLaurent) -> XLaurent:
    """Mirror image on invariants: substitute q -> 1/q."""
    return p.mirror()


def jones_morton(s: int, t2: int, n_color: int) -> XLaurent:
    """Colored Jones polynomial of the right-handed torus knot T(s, t2).

    Evaluates the classical theta-quotient formula in quarter-exponent
    arithmetic and divides exactly by q^{N/2} - q^{-N/2}.
    """
    if s < 1 or t2 < 1 or math.gcd(s, t2) != 1:
        raise ValueError("torus knot needs coprime positive winding numbers")
    if n_color < 1:
        raise ValueError("color must be a positive integer")
    n = n_color
    # exponents scaled by 4; j runs over (half-)integers as j2/2
    terms: dict[int, int] = {}
    pre = s * t2 * (1 - n * n)
    for j2 in range(-(n - 1), n, 2):
        e_sq = pre + s * t2 * j2 * j2
        for e_lin, sign in ((-2 * (s + t2) * j2 + 2, 1), (-2 * (s - t2) * j2 - 2, -1)):
            e = e_sq + e_lin
            terms[e] = terms.get(e, 0) + sign
    # q^{2N} - q^{-2N} = -q^{-2N} (1 - q^{4N}) at scale 4
    return (-_over_binomials(XLaurent(terms), [4 * n])).shift(2 * n).descale(4)


def _jones_chain(t: int, n: int, r):
    """The nested sum of jones_hyper, as a route on the pass r of ``laurent._zq``.

    The chain N-1 >= k_t >= ... >= k_1 >= 0 is summed from the top: the state
    is k_i, the head is (q^{1-N})_{k_t} q^{-N k_t}, and the level into k_i
    carries [k_{i+1} choose k_i] and the node factor q^{k_i(k_i+1-2N)}.  Each
    head factor 1 - q^{-e} (e = N-1-j >= 1) is written -q^{-e}(1 - q^e).  No
    level reads a binomial: sum_j a_j prod_{i<j} (1 + z q^i) has z^k coefficient
    q^{k(k-1)/2} sum_j [j, k] a_j (Andrews, Theory of Partitions, Thm 3.3), and
    S <- a_j + (1 + z q^j) S, j from the top down, is one step per j.
    """

    one_minus, step = r.one_minus, r.step

    def heads(_, low: int):
        weight, shift = 1, 0
        for k in range(n):
            yield k, weight, shift - n * k, k % 2 == 1
            weight *= one_minus(n - 1 - k)
            shift -= n - 1 - k

    horner = lambda k, low: ((0, 1, 0, False),) if k is None else ((k, 1, 0, False), (k + 1, 1, j, False))
    node = lambda k, low: ((k, 1, k * (k + 1 - 2 * n) - k * (k - 1) // 2, False),)
    states = step({None: (1, 0)}, heads)
    for _ in range(t - 1):
        total: dict = {}
        for j in range(n - 1, -1, -1):  # every k < N is a state
            total = step({**total, None: states[j]}, horner)
        states = step(total, node)
    return [step(states, lambda k, low: ((None, 1, 0, False),)).get(None, (0, 0))]


def jones_hyper(t: int, n_color: int) -> XLaurent:
    """Colored Jones of T(2, 2t+1) from the nested q-hypergeometric sum.

    The sum terminates because (q^{1-N})_k vanishes for k >= N; it runs in
    the image at q = 2^w and is read back once.
    """
    if t < 1 or n_color < 1:
        raise ValueError("need t >= 1 and a positive color")
    return _chain(_zq, partial(_jones_chain, t, n_color))[0][0].shift(t * (1 - n_color))


def jones_left(t: int, m: int, n_color: int) -> XLaurent:
    """The vector-labelled left-handed torus knot invariant J_N^{(t,m)}.

    For m=1 this is the colored Jones polynomial of the mirror of T(2,2t+1).
    Assembled in half-exponent arithmetic, then divided exactly by 1 - q^N.
    """
    _validate(t, m)
    if n_color < 1:
        raise ValueError("color must be a positive integer")
    n = n_color
    terms: dict[int, int] = {}
    pre = -2 * t + n + (2 * t + 1) * n * n  # scaled by 2
    sign_n = -1 if n % 2 else 1
    for k in range(-n, n):
        e = pre - (2 * t + 1) * k * (k + 1) + 2 * m * k
        sign = sign_n * (-1 if k % 2 else 1)
        terms[e] = terms.get(e, 0) + sign
    return _over_binomials(XLaurent(terms), [2 * n]).descale(2)  # 1 - q^N at scale 2


def habiro_reconstruct(coeffs: "Callable[[int], XLaurent] | Sequence[XLaurent]", n_color: int) -> XLaurent:
    """Rebuild J_N from cyclotomic coefficients: sum of C_n (q^{1+N})_n (q^{1-N})_n.

    Exactly N terms contribute since (q^{1-N})_n vanishes for n >= N.  The
    sum is a route of ``laurent._chain`` in nested (Horner) form from the
    top, T <- C_i + (1 - q^a)(1 - q^{-e}) T, a = i+1+N, e = N-1-i: C_i enters
    as state 1 and T, state 0, is shift-added by q^{-e}, 1, q^{a-e} and q^a.
    """
    if n_color < 1:
        raise ValueError("color must be a positive integer")
    get = coeffs.__getitem__ if not callable(coeffs) else coeffs
    n, cs = n_color, [get(i) for i in range(n_color)]

    def route(r):
        total: dict = {}
        for i in range(n - 1, -1, -1):
            a, e = i + 1 + n, n - 1 - i
            terms = ((0, 1, -e, True), (0, 1, 0, False), (0, 1, a - e, False), (0, 1, a, True))
            total = r.step({**total, 1: r.image(cs[i])}, lambda s, low: ((0, 1, 0, False),) if s else terms)
        return [total.get(0, (0, 0))]

    return _chain(_zq, route)[0][0]


def _inverses(jones: Callable[[int], XLaurent], ns: Sequence[int]) -> list[XLaurent]:
    """C_n for every n in ``ns`` from the colours J_1, J_2, ... by one
    route of ``laurent._chain`` (Habiro, Invent. Math. 171 (2008)): each
    colour's image is taken once, times (1 - q^l)(1 - q^{2l}), and one step
    carries colour l to each n by (-1)^l q^{l(l-3)/2} [2n+2, n+1-l], so that
    the l1 bound for n is sum_l 4 C(2n+2, n+1-l) ||J_l||_1.  Each final is
    read back once and divided once by (q)_{2n+2}; the division must be exact.
    """
    colours = [jones(ell) for ell in range(1, max(ns, default=-1) + 2)]

    def route(r):
        binom, one_minus, step = r.binom, r.one_minus, r.step
        scale = lambda ell, low: ((ell, one_minus(ell) * one_minus(2 * ell), 0, False),)
        carry = lambda ell, low: ((n, binom(2 * n + 2, n + 1 - ell), ell * (ell - 3) // 2, ell % 2 == 1) for n in ns)
        finals = step(step({ell: r.image(colour) for ell, colour in enumerate(colours, 1)}, scale), carry)
        return [finals.get(n, (0, 0)) for n in ns]

    finals = _chain(_zq, route)
    return [(-_over_binomials(total, range(1, 2 * n + 3))).shift(n + 1) for n, (total, _) in zip(ns, finals)]


def habiro_inverse(jones: Callable[[int], XLaurent], n: int) -> XLaurent:
    """Invert the cyclotomic expansion: C_n from the colors 1..n+1.

    All Pochhammer denominators are combined over the single denominator
    (q)_{2n+2} using Gaussian binomials; the final division must be exact.
    """
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    return _inverses(jones, (n,))[0]


def habiro_inverses(jones: Callable[[int], XLaurent], order: int) -> list[XLaurent]:
    """[habiro_inverse(jones, n) for n in 0..order], from one chain."""
    return _inverses(jones, range(order + 1))
