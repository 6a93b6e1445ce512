"""Bailey pairs: the named pairs behind the torus-knot identities, the
lemma's transform steps, and finite-truncation verification of the defining
relations, the limiting identity and the conjugate identity.

A pair carries term *generators*, not arrays: alpha(n, window) and
beta(n, window) produce exact-or-truncated series on demand, so one pair
serves every truncation level.  Pairs are relative to a = q^a_exp with
a_exp in {0, 1, 2}.  Chain-sum betas are assembled over the single
denominator (q)_n via Gaussian multinomials, so each term costs one series
inversion instead of one per Pochhammer factor.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from .cyclotomic_coeffs import c_product
from .jones import jones_left
from .laurent import XLaurent, poch_q, qbinomial
from .report import CheckReport, _timed_report, diff_qseries
from .series import Mono, QSeries, qpochhammer

__all__ = [
    "BaileyPair",
    "bailey_limit_identity",
    "bailey_step",
    "bailey_verify",
    "beta_chain_closed",
    "conjugate_identity_check",
    "make_named_pair",
    "perturbed_pair",
]

TermFn = Callable[[int, int], QSeries]
FloorFn = Callable[[int], int]


class BaileyPair:
    """Sequences (alpha_n, beta_n) with beta_n = sum_j alpha_j / ((q)_{n-j} (aq)_{n+j})."""

    def __init__(
        self,
        label: str,
        a_exp: int,
        alpha: TermFn,
        beta: TermFn,
        provenance: str = "",
        alpha_floor: Optional[FloorFn] = None,
        beta_floor: Optional[FloorFn] = None,
    ):
        if a_exp not in (0, 1, 2):
            raise ValueError("pairs here are relative to 1, q or q^2")
        self.label = label
        self.a_exp = a_exp
        self._alpha = alpha
        self._beta = beta
        self.provenance = provenance
        self.alpha_floor = alpha_floor
        self.beta_floor = beta_floor
        self._cache: dict[tuple[str, int, int], QSeries] = {}

    def _term(self, kind: str, fn: TermFn, floor: Optional[FloorFn], n: int, window: int) -> QSeries:
        key = (kind, n, window)
        out = self._cache.get(key)
        if out is None:
            out = fn(n, window)
            if floor is not None and out.terms and out.min_exp() < floor(n):
                raise ArithmeticError(
                    f"{self.label}: {kind}_{n} valuation {out.min_exp()} below "
                    f"declared floor {floor(n)}"
                )
            self._cache[key] = out
        return out

    def alpha(self, n: int, window: int) -> QSeries:
        return self._term("alpha", self._alpha, self.alpha_floor, n, window)

    def beta(self, n: int, window: int) -> QSeries:
        return self._term("beta", self._beta, self.beta_floor, n, window)

    def __repr__(self) -> str:
        return f"BaileyPair({self.label!r}, a=q^{self.a_exp})"


def _exact(p: XLaurent) -> QSeries:
    return QSeries.from_q_laurent(p, 1)


def _chain_poly(
    length: int,
    bound: int,
    node_shift: Callable[[int, int], int],
    edge_shift: Callable[[int, int, int], int],
    sign_pos: int | None = None,
    fold_shift: Callable[[int], int] | None = None,
) -> XLaurent:
    """sum over chains v_1 <= ... <= v_length <= bound of
    (+-1) q^{shifts} prod_i [v_{i+1} choose v_i] [bound choose v_length],
    which is (q)_bound times the corresponding inverse-Pochhammer chain sum.
    """
    states: dict[int, XLaurent] = {}
    for v in range(bound + 1):
        p = XLaurent.const(-1 if (sign_pos == 1 and v % 2) else 1)
        sh = node_shift(1, v)
        states[v] = p.shift(sh) if sh else p
    for pos in range(2, length + 1):
        nxt: dict[int, XLaurent] = {}
        for u, poly in states.items():
            for v in range(u, bound + 1):
                p = poly * qbinomial(v, u)
                sh = node_shift(pos, v) + edge_shift(pos - 1, u, v)
                if sh:
                    p = p.shift(sh)
                if sign_pos == pos and v % 2:
                    p = -p
                nxt[v] = nxt[v] + p if v in nxt else p
        states = nxt
    total = XLaurent()
    for v, poly in states.items():
        p = poly * qbinomial(bound, v)
        if fold_shift is not None:
            sh = fold_shift(v)
            if sh:
                p = p.shift(sh)
        total = total + p
    return total


def _over_poch_n(poly: XLaurent, n: int, window: int) -> QSeries:
    """poly / (q)_n as a series valid strictly below window."""
    if poly.is_zero():
        return QSeries.zero(1, window)
    v = min(0, poly.min_exp())
    return (_exact(poly) * _exact(poch_q(1, n)).invert(window - v)).with_trunc(window)


# ---------------------------------------------------------------------------
# named pairs
# ---------------------------------------------------------------------------


def unit_pair(a_exp: int = 0) -> BaileyPair:
    """alpha_n = [n == 0]; beta_n = 1/((q)_n (aq)_n), straight from the definition."""

    def alpha(n: int, window: int) -> QSeries:
        return QSeries.one() if n == 0 else QSeries.zero()

    def beta(n: int, window: int) -> QSeries:
        d = poch_q(1, n) * poch_q(a_exp + 1, n)
        return _exact(d).invert(window)

    return BaileyPair("unit", a_exp, alpha, beta, "delta pair",
                      alpha_floor=lambda n: 0, beta_floor=lambda n: 0)


def jones_pair(t: int, m: int = 1) -> BaileyPair:
    """The pair (relative to q^2) packaging the colored Jones polynomials of
    the left-handed torus knot T(2,2t+1)* with its cyclotomic coefficients."""

    def alpha(n: int, window: int) -> QSeries:
        g1 = XLaurent({i: 1 for i in range(n + 1)})        # (1-q^{n+1})/(1-q)
        g2 = XLaurent({2 * i: 1 for i in range(n + 1)})    # (1-q^{2n+2})/(1-q^2)
        p = g1 * g2 * jones_left(t, m, n + 1)
        p = p.shift(n * (n - 1) // 2)
        return _exact(-p if n % 2 else p)

    def beta(n: int, window: int) -> QSeries:
        return _exact(c_product(t, m, n).shift(-n))

    def alpha_floor(n: int) -> int:
        j = jones_left(t, m, n + 1)
        return n * (n - 1) // 2 + (0 if j.is_zero() else min(0, j.min_exp()))

    return BaileyPair(
        f"jones(t={t},m={m})", 2, alpha, beta, "cyclotomic expansion pair",
        alpha_floor=alpha_floor, beta_floor=lambda n: 1 - m,
    )


def _alternating_block(t: int, ell: int, j_lo: int, j_hi: int, base: int) -> XLaurent:
    """sum_{j=j_lo}^{j_hi} (-1)^j q^{base - ((2t+1)j^2 + (2 ell + 1) j)/2}."""
    terms: dict[int, int] = {}
    for j in range(j_lo, j_hi + 1):
        num = (2 * t + 1) * j * j + (2 * ell + 1) * j
        assert num % 2 == 0
        e = base - num // 2
        terms[e] = terms.get(e, 0) + (-1 if j % 2 else 1)
    return XLaurent(terms)


def lovejoy_alpha_parts(t: int, ell: int, n: int) -> tuple[XLaurent, XLaurent]:
    """The two summands of the staircase alpha: alpha_n = -alpha'_n + alpha''_n.

    alpha'_n carries the (1 - q^{2n}) alternating block; alpha''_n is the
    two-term remainder (1 at n = 0).
    """
    if n == 0:
        return XLaurent(), XLaurent.const(1)
    prime = _alternating_block(t, ell, -n, n - 1, (t + 1) * n * n - n)
    prime = prime - prime.shift(2 * n)
    assert (n * n + (2 * ell - 1) * n) % 2 == 0
    sign = -1 if n % 2 else 1
    second = XLaurent(
        {
            (n * n + (2 * ell - 1) * n) // 2: sign,
            (n * n - (2 * ell - 1) * n) // 2: sign,
        }
    )
    return prime, second


@lru_cache(maxsize=None)
def _lovejoy_s(t: int, ell: int, n: int) -> XLaurent:
    length = 2 * t - 1

    def node(pos: int, v: int) -> int:
        e = 0
        if pos <= ell:
            e -= v
        if pos == t:
            e += v * (v + 1) // 2
        if pos > t:
            e += v * v
        return e

    def edge(i: int, u: int, v: int) -> int:
        return -u * v if i <= t - 1 else 0

    return _chain_poly(length, n, node, edge, sign_pos=t)


def lovejoy_pair(t: int, ell: int | None = None) -> BaileyPair:
    """Staircase pair relative to 1 whose beta is a (2t-1)-fold chain sum.

    ell defaults to t-1; smaller ell give the vector-label variants.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if ell is None:
        ell = t - 1
    if not 0 <= ell <= t - 1:
        raise ValueError("need 0 <= ell <= t-1")

    def alpha(n: int, window: int) -> QSeries:
        prime, second = lovejoy_alpha_parts(t, ell, n)
        return _exact(second - prime)

    def beta(n: int, window: int) -> QSeries:
        return _over_poch_n(_lovejoy_s(t, ell, n), n, window)

    def alpha_floor(n: int) -> int:
        return (n * n - (2 * ell + 3) * n) // 2

    def beta_floor(n: int) -> int:
        s = _lovejoy_s(t, ell, n)
        return 0 if s.is_zero() else min(0, s.min_exp())

    return BaileyPair(
        f"lovejoy(t={t},ell={ell})", 0, alpha, beta, "staircase chain pair",
        alpha_floor=alpha_floor, beta_floor=beta_floor,
    )


def star_pair(k: int, ell: int) -> BaileyPair:
    """Seed pair relative to 1: two-term alpha, (k-1)-fold chain beta."""
    if k < 1 or ell < 0 or (k > 1 and ell > k - 1):
        raise ValueError("need k >= 1 and 0 <= ell <= k-1")

    def alpha(n: int, window: int) -> QSeries:
        if n == 0:
            return QSeries.one()
        num_minus = (2 * k - 1) * n * n + (2 * ell + 1) * n
        num_plus = (2 * k - 1) * n * n - (2 * ell + 1) * n
        assert num_minus % 2 == 0 and num_plus % 2 == 0
        s = -1 if n % 2 else 1
        return _exact(
            XLaurent({-num_minus // 2: s}) + XLaurent({-num_plus // 2: s})
        )

    def beta(n: int, window: int) -> QSeries:
        head = Mono(-1 if n % 2 else 1, 0, -n * (n + 1) // 2)
        if k == 1:
            return _exact(poch_q(1, n)).invert(window - head.q_exp).mul_mono(head)

        def node(pos: int, v: int) -> int:
            return -v if pos <= ell else 0

        def edge(i: int, u: int, v: int) -> int:
            return -u * v

        s = _chain_poly(k - 1, n, node, edge, fold_shift=lambda v: -v * n)
        return _over_poch_n(s, n, window - head.q_exp).mul_mono(head)

    return BaileyPair(f"star(k={k},ell={ell})", 0, alpha, beta, "seed staircase pair")


def andrews_pair(x: Mono = Mono(1, 1, 0)) -> BaileyPair:
    """Two-term-alpha pair relative to q with beta = (x)_{n+1} (q/x)_n / (q^2)_{2n}."""

    def alpha(n: int, window: int) -> QSeries:
        head = Mono(1, 0, n * (n + 1) // 2)
        out = QSeries.from_mono(x.power(-n).times(head)) - QSeries.from_mono(
            x.power(n + 1).times(head)
        )
        return -out if n % 2 else out

    def beta(n: int, window: int) -> QSeries:
        # Each Pochhammer factor with a negative q-power lowers the window by
        # that power; together they lower it by -val(num) <= -beta_floor(n).
        # A window at or below the floor shows no term of beta: keep num
        # exact there, so the result and the floor check are as unwindowed.
        w = window - beta_floor(n)
        trunc = w if w > 0 else None
        num = qpochhammer(x, n + 1, trunc=trunc) * qpochhammer(
            Mono(1, 0, 1).times(x.inverse()), n, trunc=trunc
        )
        v = int(min(0, num._valuation()))
        return num * _exact(poch_q(2, 2 * n)).invert(window - v)

    def alpha_floor(n: int) -> int:
        return n * (n + 1) // 2 + min(0, -n * x.q_exp, (n + 1) * x.q_exp)

    def beta_floor(n: int) -> int:
        return min(0, n * x.q_exp, -n * x.q_exp)

    return BaileyPair(
        "andrews", 1, alpha, beta, "two-term alpha pair",
        alpha_floor=alpha_floor, beta_floor=beta_floor,
    )


_NAMED = {
    "unit": unit_pair,
    "jones": jones_pair,
    "lovejoy": lovejoy_pair,
    "star": star_pair,
    "andrews": andrews_pair,
}


def make_named_pair(name: str, **params) -> BaileyPair:
    """Construct a named pair: unit, jones, lovejoy, star or andrews.

    The star pair accepts t directly (k = t with the conventional ell:
    0 for t = 1, t-2 otherwise).
    """
    if name == "star" and "t" in params:
        t = params.pop("t")
        params.setdefault("k", t)
        params.setdefault("ell", 0 if t == 1 else t - 2)
    fn = _NAMED.get(name)
    if fn is None:
        raise ValueError(f"unknown Bailey pair {name!r}; know {sorted(_NAMED)}")
    return fn(**params)


def beta_chain_closed(t: int, tail_len: int, n: int, window: int) -> QSeries:
    """Closed chain form of the t-fold-stepped seed beta: center carries
    binom(v_t, 2) and the linear tail has tail_len terms."""
    length = 2 * t - 1

    def node(pos: int, v: int) -> int:
        e = 0
        if pos <= tail_len:
            e -= v
        if pos == t:
            e += v * (v - 1) // 2
        if pos > t:
            e += v * v
        return e

    def edge(i: int, u: int, v: int) -> int:
        return -u * v if i <= t - 1 else 0

    s = _chain_poly(length, n, node, edge, sign_pos=t)
    return _over_poch_n(s, n, window)


# ---------------------------------------------------------------------------
# the defining relations at finite truncation
# ---------------------------------------------------------------------------


def bailey_verify(pair: BaileyPair, n_max: int, trunc: int) -> CheckReport:
    """Check both directions of the pair relation for n <= n_max below trunc.

    The alpha-from-beta direction uses the rearranged prefactor
    (a)_n / (1-a) = (aq)_{n-1}, regular for every a including a = 1.
    """
    params = {"pair": pair.label, "n_max": n_max, "trunc": trunc}
    return _timed_report("bailey-verify", params, lambda: (_first_failure(pair, n_max, trunc), None))


def _first_failure(pair: BaileyPair, n_max: int, trunc: int) -> dict | None:
    """Witness of the first n at which either pair relation fails, or None."""
    a_exp = pair.a_exp
    for n in range(n_max + 1):
        rhs = QSeries.zero(1, trunc)
        for j in range(n + 1):
            alpha_j = pair.alpha(j, trunc)
            if not alpha_j.terms:
                continue
            den = poch_q(1, n - j) * poch_q(a_exp + 1, n + j)
            v = min(0, alpha_j.min_exp())
            rhs = rhs + alpha_j * _exact(den).invert(trunc - v)
        witness = diff_qseries(pair.beta(n, trunc), rhs, label=f"beta relation at n={n}")
        if witness is None and n > 0:
            inner = QSeries.zero(1, trunc)
            for j in range(n + 1):
                piece = (poch_q(-n, j) * poch_q(a_exp + n, j)).shift(j)
                if piece.is_zero():
                    continue
                beta_j = pair.beta(j, trunc - min(0, piece.min_exp()))
                inner = inner + beta_j * _exact(piece)
            pref = (XLaurent.const(1) - XLaurent.term(a_exp + 2 * n)) * poch_q(
                a_exp + 1, n - 1
            )
            pref = pref.shift(n * (n - 1) // 2)
            if n % 2:
                pref = -pref
            v = int(min(0, inner._valuation()))
            rhs2 = inner * _exact(poch_q(1, n)).invert(trunc - v) * _exact(pref)
            witness = diff_qseries(pair.alpha(n, trunc), rhs2, label=f"alpha relation at n={n}")
        if witness is not None:
            witness["n"] = n
            return witness
    return None


# ---------------------------------------------------------------------------
# the lemma: transform steps
# ---------------------------------------------------------------------------


def _req(mono: Mono, what: str) -> Mono:
    if mono.q_exp <= 0:
        raise ValueError(f"{what} needs a strictly positive q-exponent, got {mono}")
    return mono


def bailey_step(pair: BaileyPair, b: Mono | None, c: Mono | None) -> BaileyPair:
    """One application of the lemma; b, c are monomials or None (a limit).

    With both limits the step is alpha -> a^n q^{n^2} alpha; otherwise the
    generic transform.  Degenerate parameter choices surface as inversion
    failures (the relevant product's lowest term stops being a unit
    monomial), which is the rejection the caller sees.
    """
    a_exp = pair.a_exp
    aq = Mono(1, 0, a_exp + 1)

    if b is None and c is None:

        def alpha(n: int, window: int) -> QSeries:
            shift = a_exp * n + n * n
            return pair.alpha(n, window - shift).mul_mono(Mono(1, 0, shift))

        def beta(n: int, window: int) -> QSeries:
            out = QSeries.zero(1, window)
            for k in range(n + 1):
                shift = a_exp * k + k * k
                bk = pair.beta(k, window - shift)
                v = int(min(0, bk._valuation()))
                inv = _exact(poch_q(1, n - k)).invert(window - shift - v)
                out = out + (bk * inv).mul_mono(Mono(1, 0, shift))
            return out

        floor_a = floor_b = None
        if pair.alpha_floor is not None:
            base_a = pair.alpha_floor
            floor_a = lambda n: base_a(n) + a_exp * n + n * n
        if pair.beta_floor is not None:
            base_b = pair.beta_floor
            floor_b = lambda n: min(base_b(k) + a_exp * k + k * k for k in range(n + 1))
        return BaileyPair(
            pair.label + "+step(inf,inf)", a_exp, alpha, beta, pair.provenance,
            alpha_floor=floor_a, beta_floor=floor_b,
        )

    if b is not None and c is not None:
        ratio = aq.divide(b.times(c))
        quo_b, quo_c = aq.divide(b), aq.divide(c)

        def alpha(n: int, window: int) -> QSeries:
            den = qpochhammer(quo_b, n) * qpochhammer(quo_c, n)
            num = qpochhammer(b, n) * qpochhammer(c, n)
            prod = num.mul_mono(ratio.power(n)) * pair.alpha(n, window)
            v = int(min(0, prod._valuation()))
            return (prod * den.invert(window - v)).with_trunc(window)

        def beta(n: int, window: int) -> QSeries:
            den = qpochhammer(quo_b, n) * qpochhammer(quo_c, n)
            out: QSeries | None = None
            for k in range(n + 1):
                head = qpochhammer(b, k) * qpochhammer(c, k) * qpochhammer(ratio, n - k)
                head = head.mul_mono(ratio.power(k))
                hv = int(min(0, head._valuation()))
                bk = pair.beta(k, window - hv + 8)
                bv = int(min(0, bk._valuation()))
                inv = _exact(poch_q(1, n - k)).invert(window - hv - bv + 8)
                term = head * bk * inv
                out = term if out is None else out + term
            assert out is not None
            v = int(min(0, out._valuation()))
            return (out * den.invert(window - v)).with_trunc(window)

        return BaileyPair(
            pair.label + f"+step({b},{c})", a_exp, alpha, beta, pair.provenance
        )

    fin = b if b is not None else c
    quo = aq.divide(fin)

    def alpha(n: int, window: int) -> QSeries:
        head = qpochhammer(fin, n).mul_mono(
            quo.power(n).times(Mono((-1) ** n, 0, n * (n - 1) // 2))
        )
        prod = head * pair.alpha(n, window)
        v = int(min(0, prod._valuation()))
        return (prod * qpochhammer(quo, n).invert(window - v)).with_trunc(window)

    def beta(n: int, window: int) -> QSeries:
        out: QSeries | None = None
        for k in range(n + 1):
            head = qpochhammer(fin, k).mul_mono(
                quo.power(k).times(Mono((-1) ** k, 0, k * (k - 1) // 2))
            )
            hv = int(min(0, head._valuation()))
            bk = pair.beta(k, window - hv + 8)
            bv = int(min(0, bk._valuation()))
            inv = _exact(poch_q(1, n - k)).invert(window - hv - bv + 8)
            term = head * bk * inv
            out = term if out is None else out + term
        assert out is not None
        v = int(min(0, out._valuation()))
        return (out * qpochhammer(quo, n).invert(window - v)).with_trunc(window)

    return BaileyPair(pair.label + f"+step({fin},inf)", a_exp, alpha, beta, pair.provenance)


# ---------------------------------------------------------------------------
# limiting and conjugate identities
# ---------------------------------------------------------------------------


def _neg_val_bound(mono: Mono) -> int:
    """Lower bound for the valuation of the family (mono)_n, any n."""
    v = 0
    e = mono.q_exp
    while e < 0:
        v += e
        e += 1
    return v


def bailey_limit_identity(
    pair: BaileyPair, b: Mono | None, c: Mono | None, trunc: int
) -> CheckReport:
    """Both sides of the limiting form of the lemma, compared below trunc."""
    params = {
        "pair": pair.label,
        "b": "inf" if b is None else str(b),
        "c": "inf" if c is None else str(c),
        "trunc": trunc,
    }
    return _timed_report(
        "bailey-limit",
        params,
        lambda: (diff_qseries(*_limit_sides(pair, b, c, trunc), label="limit identity"), None),
    )


def _limit_sides(
    pair: BaileyPair, b: Mono | None, c: Mono | None, trunc: int
) -> tuple[QSeries, QSeries]:
    if pair.alpha_floor is None or pair.beta_floor is None:
        raise ValueError("limit identity needs valuation floors on the pair")
    a_exp = pair.a_exp
    aq = Mono(1, 0, a_exp + 1)
    if (b is None) != (c is None):
        _req(aq.divide(b if b is not None else c), "the quotient of a mixed limit")

    def term_low(n: int, floor: FloorFn) -> int:
        if b is None and c is None:
            return n * n + a_exp * n + floor(n)
        if b is not None and c is not None:
            e = aq.divide(b.times(c)).q_exp
            if e <= 0:
                raise ValueError("aq/(bc) must carry a positive q-exponent")
            return n * e + _neg_val_bound(b) + _neg_val_bound(c) + floor(n)
        fin = b if b is not None else c
        quo = aq.divide(fin)
        return n * (n - 1) // 2 + n * quo.q_exp + _neg_val_bound(fin) + floor(n)

    def head_series(n: int) -> QSeries:
        if b is None and c is None:
            return QSeries.from_mono(Mono(1, 0, n * n + a_exp * n))
        if b is not None and c is not None:
            out = qpochhammer(b, n) * qpochhammer(c, n)
            return out.mul_mono(aq.divide(b.times(c)).power(n))
        fin = b if b is not None else c
        quo = aq.divide(fin)
        return qpochhammer(fin, n).mul_mono(
            quo.power(n).times(Mono((-1) ** n, 0, n * (n - 1) // 2))
        )

    lhs = QSeries.zero(1, trunc)
    n = 0
    while True:
        low = term_low(n, pair.beta_floor)
        if low >= trunc:
            break
        lhs = lhs + head_series(n) * pair.beta(n, trunc - min(0, low))
        n += 1

    inner = QSeries.zero(1, trunc)
    n = 0
    while True:
        low = term_low(n, pair.alpha_floor)
        if low >= trunc:
            break
        prod = head_series(n) * pair.alpha(n, trunc - min(0, low))
        if b is None and c is None:
            inner = inner + prod
        else:
            den = QSeries.one()
            if b is not None:
                den = den * qpochhammer(aq.divide(b), n)
            if c is not None:
                den = den * qpochhammer(aq.divide(c), n)
            v = int(min(0, prod._valuation()))
            inner = inner + prod * den.invert(trunc - v)
        n += 1

    v = int(min(0, inner._valuation()))
    w = trunc - v
    num = QSeries.one(1, w)
    den = qpochhammer(aq, None, trunc=w)
    if b is not None:
        num = num * qpochhammer(_req(aq.divide(b), "aq/b"), None, trunc=w)
    if c is not None:
        num = num * qpochhammer(_req(aq.divide(c), "aq/c"), None, trunc=w)
    if b is not None and c is not None:
        den = den * qpochhammer(_req(aq.divide(b.times(c)), "aq/bc"), None, trunc=w)
    return lhs, inner * num * den.invert()


def conjugate_identity_check(pair: BaileyPair, trunc: int) -> CheckReport:
    """Conjugate-pair identity: sum (aq)_{2n} q^n beta_n against the
    1/(q)_inf-weighted double sum over alpha, compared below trunc."""
    return _timed_report(
        "bailey-conjugate",
        {"pair": pair.label, "trunc": trunc},
        lambda: (diff_qseries(*_conjugate_sides(pair, trunc), label="conjugate identity"), None),
    )


def _conjugate_sides(pair: BaileyPair, trunc: int) -> tuple[QSeries, QSeries]:
    if pair.a_exp not in (0, 1):
        raise ValueError("conjugate identity applies to pairs relative to 1 or q")
    if pair.alpha_floor is None or pair.beta_floor is None:
        raise ValueError("conjugate identity needs valuation floors on the pair")
    a_exp = pair.a_exp

    lhs = QSeries.zero(1, trunc)
    n = 0
    while True:
        low = n + pair.beta_floor(n)
        if low >= trunc:
            break
        head = _exact(poch_q(a_exp + 1, 2 * n).shift(n))
        lhs = lhs + head * pair.beta(n, trunc - min(0, low))
        n += 1

    inner = QSeries.zero(1, trunc)
    n = 0
    while 3 * n * (n + 1) // 2 + a_exp * n < trunc:
        r = 0
        while True:
            low = 3 * n * (n + 1) // 2 + a_exp * n + (2 * n + 1) * r + pair.alpha_floor(r)
            if low >= trunc:
                break
            head = Mono(
                -1 if n % 2 else 1, 0, 3 * n * (n + 1) // 2 + a_exp * n + (2 * n + 1) * r
            )
            inner = inner + pair.alpha(r, trunc - min(0, low)).mul_mono(head)
            r += 1
        n += 1
    v = int(min(0, inner._valuation()))
    return lhs, inner * qpochhammer(Mono(1, 0, 1), None, trunc=trunc - v).invert()


def perturbed_pair(pair: BaileyPair, which: str, n_target: int, mono: Mono) -> BaileyPair:
    """Copy of a pair with one term corrupted; negative-control material."""
    if which not in ("alpha", "beta"):
        raise ValueError("which must be alpha or beta")

    def wrap(fn) -> TermFn:
        def inner(n: int, window: int) -> QSeries:
            out = fn(n, window)
            if n == n_target:
                out = out + QSeries.from_mono(mono)
            return out

        return inner

    def lowered(floor: Optional[FloorFn]) -> Optional[FloorFn]:
        if floor is None:
            return None
        return lambda n: min(floor(n), mono.q_exp) if n == n_target else floor(n)

    alpha: TermFn = wrap(pair.alpha) if which == "alpha" else pair.alpha
    beta: TermFn = wrap(pair.beta) if which == "beta" else pair.beta
    return BaileyPair(
        pair.label + f"+corrupt({which}[{n_target}])", pair.a_exp, alpha, beta,
        pair.provenance,
        lowered(pair.alpha_floor) if which == "alpha" else pair.alpha_floor,
        lowered(pair.beta_floor) if which == "beta" else pair.beta_floor,
    )
