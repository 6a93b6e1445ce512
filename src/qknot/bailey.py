"""Bailey pairs: the named pairs behind the torus-knot identities, the
lemma's transform steps, and finite-truncation verification of the defining
relations, the limiting identity and the conjugate identity.

A pair carries term *generators*, not arrays: alpha(n, window) and
beta(n, window) produce exact-or-truncated series on demand, so one pair
serves every truncation level.  Pairs are relative to a = q^a_exp with
a_exp in {0, 1, 2}.  Chain-sum betas are assembled over the single
denominator (q)_n via Gaussian multinomials, their chains summed on ints at
q = 2^w as staircases (``cyclotomic_coeffs._staircase``), the route of the
C_n multisum.  Every q-Pochhammer denominator, finite or infinite, is divided
out factor by factor (``series._by_binomials``), which keeps the numerator's
window, so each term is built at exactly the window it is asked for.

Every sum here whose terms share Pochhammer factors runs on the engine
``series._nested``, from the top index down as S <- term_n + rise S, rise a
monomial times binomials (1 - f) over binomials, one pass per level: both pair
relations, a lemma step's beta, both sides of the limiting identity and the
conjugate identity's beta side.  No sum multiplies two series, and each term
is asked only when its level comes.  The closing prefactor of both relations
and the division by den(n) of a lemma step's beta run in the chain, as the
sum's close: one more pass on the same packed rows.  A lemma step multiplies
each term by its head's factors inside that term's pass.  A sum over a lattice
takes each term's bound from the rises it is summed with (``_lattice_terms``).
The relations ask each beta_j once, at the widest window a level needs,
trunc + n_max j - j(j+1)/2, and compare through trunc.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Optional

from .cyclotomic_coeffs import _staircase, c_product
from .jones import jones_left
from .laurent import XLaurent, _kronecker
from .report import CheckReport, _timed_report, diff_qseries
from .series import _UNIT, Mono, QSeries, _by_binomials, _lattice, _nested, _poch, _val

__all__ = [
    "BaileyPair",
    "bailey_limit_identity",
    "bailey_step",
    "bailey_verify",
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
        alpha_floor: Optional[FloorFn] = None,
        beta_floor: Optional[FloorFn] = None,
    ):
        if a_exp not in (0, 1, 2):
            raise ValueError("pairs here are relative to 1, q or q^2")
        self.label = label
        self.a_exp = a_exp
        self._alpha = alpha
        self._beta = beta
        self.alpha_floor = alpha_floor
        self.beta_floor = beta_floor
        self._cache: dict[tuple[str, int, int], QSeries] = {}

    def _term(self, kind: str, fn: TermFn, floor: Optional[FloorFn], n: int, window: int) -> QSeries:
        key = (kind, n, window)
        out = self._cache.get(key)
        if out is None:
            out = fn(n, window)
            if out.trunc is not None and out.trunc < window:
                raise ArithmeticError(
                    f"{self.label}: {kind}_{n} came back below q^{out.trunc}, "
                    f"asked for below q^{window}"
                )
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
    return QSeries.from_q_laurent(p)


def _q(first: int, count: int) -> list[Mono]:
    """The factors of (q^first)_count."""
    return [Mono(1, 0, e) for e in range(first, first + count)]


def _lattice_terms(term: TermFn, rise: Callable, floor: FloorFn, trunc: int) -> tuple[Callable, int]:
    """n -> term(n, trunc - min(0, bound(n))), asked only when called, for every n
    whose bound ``series._lattice`` keeps (None elsewhere), and the top such n;
    bound(n) is floor(n) plus the ``_val`` of the head ``_nested`` puts on term n."""
    vals = [0]

    def bound(n: int) -> int:
        while len(vals) <= n:
            vals.append(vals[-1] + _val(*rise(len(vals) - 1)[:2]))
        return vals[n] + floor(n)

    windows = {n: trunc - min(0, low) for (n,), low in _lattice(bound, trunc)}
    return (lambda n: term(n, windows[n]) if n in windows else None), max(windows, default=0)


# ---------------------------------------------------------------------------
# named pairs
# ---------------------------------------------------------------------------


def unit_pair(a_exp: int = 0) -> BaileyPair:
    """alpha_n = [n == 0]; beta_n = 1/((q)_n (aq)_n), straight from the definition."""

    def alpha(n: int, window: int) -> QSeries:
        return QSeries.one() if n == 0 else QSeries.zero()

    def beta(n: int, window: int) -> QSeries:
        return _by_binomials(QSeries.one(), over=_q(1, n) + _q(a_exp + 1, n), trunc=window)

    return BaileyPair("unit", a_exp, alpha, beta,
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
        f"jones(t={t},m={m})", 2, alpha, beta,
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


@lru_cache(maxsize=1024)
def _lovejoy_s(t: int, ell: int, n: int) -> XLaurent:
    """(q)_n times the (2t-1)-fold staircase chain sum: q^{-v} on the first
    ell positions, q^{v(v + 1)/2} at position t and q^{v^2} beyond."""

    def node(pos: int, v: int) -> int:
        e = 0
        if pos <= ell:
            e -= v
        if pos == t:
            e += v * (v + 1) // 2
        if pos > t:
            e += v * v
        return e

    return _kronecker(partial(_staircase, 2 * t - 1, [n], node, t, t))[0][0]


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
        return _by_binomials(_exact(_lovejoy_s(t, ell, n)), over=_q(1, n), trunc=window)

    def alpha_floor(n: int) -> int:
        return (n * n - (2 * ell + 3) * n) // 2

    def beta_floor(n: int) -> int:
        s = _lovejoy_s(t, ell, n)
        return 0 if s.is_zero() else min(0, s.min_exp())

    return BaileyPair(
        f"lovejoy(t={t},ell={ell})", 0, alpha, beta,
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

        def node(pos: int, v: int) -> int:
            return -v if pos <= ell else 0

        s = _kronecker(partial(_staircase, k - 1, [n], node, k, None))[0][0]
        return _by_binomials(_exact(s).mul_mono(head), over=_q(1, n), trunc=window)

    return BaileyPair(f"star(k={k},ell={ell})", 0, alpha, beta)


def andrews_pair(x: Mono = Mono(1, 1, 0)) -> BaileyPair:
    """Two-term-alpha pair relative to q with beta = (x)_{n+1} (q/x)_n / (q^2)_{2n}."""

    def alpha(n: int, window: int) -> QSeries:
        head = Mono(1, 0, n * (n + 1) // 2)
        out = QSeries.from_mono(x.power(-n).times(head)) - QSeries.from_mono(
            x.power(n + 1).times(head)
        )
        return -out if n % 2 else out

    def numerator(n: int) -> list[Mono]:
        return _poch(x, n + 1) + _poch(Mono(1, 0, 1).times(x.inverse()), n)

    def beta(n: int, window: int) -> QSeries:
        return _by_binomials(QSeries.one(), numerator(n), _q(2, 2 * n), trunc=window)

    def alpha_floor(n: int) -> int:
        return n * (n + 1) // 2 + min(0, -n * x.q_exp, (n + 1) * x.q_exp)

    def beta_floor(n: int) -> int:
        return _val(_UNIT, numerator(n))

    return BaileyPair(
        "andrews", 1, alpha, beta,
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
    # beta_j is needed below trunc + nj - j(j+1)/2 at level n; n = n_max's is the widest
    beta = lambda j: pair.beta(j, trunc + n_max * j - j * (j + 1) // 2)
    alpha = lambda j: pair.alpha(j, trunc)
    for n in range(n_max + 1):
        # sum_j alpha_j / ((q)_{n-j} (aq)_{n+j}) = S_0 / ((q)_n (aq)_n), where term
        # j + 1 of S has the extra factor (1 - q^{n-j}) / (1 - aq^{n+j+1}) over term j
        close = (_UNIT, (), _q(1, n) + _q(a_exp + 1, n), trunc)
        rhs = _nested(alpha, n, lambda j: (_UNIT, _q(n - j, 1), _q(a_exp + n + j + 1, 1)), trunc, close)
        lhs = beta(n)  # cut to trunc, where an exact beta stays exact
        lhs = lhs if lhs.is_exact() else lhs.with_trunc(trunc)
        witness = diff_qseries(lhs, rhs, trunc, f"beta relation at n={n}")
        if witness is None and n > 0:
            # sum_j (q^{-n})_j (aq^n)_j q^j beta_j: term j + 1 has the extra factor
            # q (1 - q^{j-n}) (1 - aq^{n+j}) over term j
            rise = lambda j: (Mono(1, 0, 1), [Mono(1, 0, j - n), Mono(1, 0, a_exp + n + j)], ())
            sign = Mono(-1 if n % 2 else 1, 0, n * (n - 1) // 2)
            pref = [Mono(1, 0, a_exp + 2 * n)] + _q(a_exp + 1, n - 1)
            rhs2 = _nested(beta, n, rise, trunc, (sign, pref, _q(1, n), None))
            witness = diff_qseries(pair.alpha(n, trunc), rhs2, trunc, f"alpha relation at n={n}")
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


def _lemma(a_exp: int, b: Mono | None, c: Mono | None):
    """The lemma with parameters b, c (None is a limit) as (head, rise, den):
    alpha'_n = head(n, n) alpha_n / den(n) and
    beta'_n = sum_k head(k, n) beta_k / ((q)_{n-k} den(n)), where head(k, n) =
    (mono, factors) stands for mono prod(1 - f), rise(n) = (mono, factors) is
    head(n+1, n+1) / head(n, n) in that form, and den(n, first) lists the
    factors of (aq/b)_n (aq/c)_n from index first on, over the set b, c.
    """
    aq = Mono(1, 0, a_exp + 1)
    quos = [aq.divide(p) for p in (b, c) if p is not None]
    at = lambda p, n: p.times(Mono(1, 0, n))
    if b is None and c is None:
        head = lambda k, n: (Mono(1, 0, a_exp * k + k * k), [])
        rise = lambda n: (Mono(1, 0, a_exp + 2 * n + 1), [])
    elif b is not None and c is not None:
        ratio = aq.divide(b.times(c))
        head = lambda k, n: (ratio.power(k), _poch(b, k) + _poch(c, k) + _poch(ratio, n - k))
        rise = lambda n: (ratio, [at(b, n), at(c, n)])
    else:
        fin = b if b is not None else c
        head = lambda k, n: (
            Mono((-1) ** k, 0, k * (k - 1) // 2).times(quos[0].power(k)), _poch(fin, k)
        )
        rise = lambda n: (Mono(-1, 0, n).times(quos[0]), [at(fin, n)])
    return head, rise, lambda n, first=0: [f for quo in quos for f in _poch(quo, n)[first:]]


def bailey_step(pair: BaileyPair, b: Mono | None, c: Mono | None) -> BaileyPair:
    """One application of the lemma; b, c are monomials or None (a limit).

    With both limits the step is alpha -> a^n q^{n^2} alpha; otherwise the
    generic transform.  Degenerate parameter choices surface when a term
    divides by a Pochhammer factor that is not a unit: (1 - q^0) raises
    ZeroDivisionError and a factor with no q-power but an x-power raises
    ExactnessError, which is the rejection the caller sees.  Every alpha and
    beta term of the stepped pair comes back at exactly the window asked for.
    """
    a_exp = pair.a_exp
    head, _, den = _lemma(a_exp, b, c)

    def headed(term: TermFn, k: int, n: int, window: int) -> QSeries:
        mono, factors = head(k, n)  # so term k is needed below window - val(head) only
        if _UNIT in factors:
            return QSeries.zero()
        return _by_binomials(term(k, window - _val(mono, factors)), factors).mul_mono(mono)

    def alpha(n: int, window: int) -> QSeries:
        return _by_binomials(headed(pair.alpha, n, n, window), over=den(n), trunc=window)

    def beta(n: int, window: int) -> QSeries:
        term = lambda j: headed(pair.beta, n - j, n, window)  # term_k at level j = n - k
        # sum_k term_k / (q)_{n-k}, closed by the division by den(n)
        return _nested(term, n, lambda j: (_UNIT, (), _q(j + 1, 1)), window, (_UNIT, (), den(n), window))

    floor_a = floor_b = None  # floors are carried through the (inf, inf) step only
    if b is None and c is None and pair.alpha_floor is not None:
        base_a = pair.alpha_floor
        floor_a = lambda n: base_a(n) + a_exp * n + n * n
    if b is None and c is None and pair.beta_floor is not None:
        base_b = pair.beta_floor
        floor_b = lambda n: min(base_b(k) + a_exp * k + k * k for k in range(n + 1))
    names = [str(p) for p in (b, c) if p is not None] + ["inf", "inf"]
    return BaileyPair(
        pair.label + f"+step({names[0]},{names[1]})", a_exp, alpha, beta,
        alpha_floor=floor_a, beta_floor=floor_b,
    )


# ---------------------------------------------------------------------------
# limiting and conjugate identities
# ---------------------------------------------------------------------------


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
        lambda: (diff_qseries(*_limit_sides(pair, b, c, trunc), trunc, "limit identity"), None),
    )


def _limit_sides(
    pair: BaileyPair, b: Mono | None, c: Mono | None, trunc: int
) -> tuple[QSeries, QSeries]:
    """Both sides, each over the n whose bound (head valuation plus floor) is
    below trunc (``series._lattice``): along n it may fall, then rises.  The
    parameter checks run first; they keep every head's valuation bound v_n >= 0."""
    if pair.alpha_floor is None or pair.beta_floor is None:
        raise ValueError("limit identity needs valuation floors on the pair")
    aq = Mono(1, 0, pair.a_exp + 1)
    num, den = [], [aq]  # (num)_inf / (den)_inf multiplies the alpha side
    if (b is None) != (c is None):
        num.append(_req(aq.divide(b if b is not None else c), "the quotient of a mixed limit"))
    elif b is not None:
        den.append(aq.divide(b.times(c)))
        if den[1].q_exp <= 0:
            raise ValueError("aq/(bc) must carry a positive q-exponent")
        num += [_req(aq.divide(b), "aq/b"), _req(aq.divide(c), "aq/c")]

    _, rise, den_n = _lemma(pair.a_exp, b, c)
    beta_rise = lambda i: (*rise(i), ())
    alpha_rise = lambda i: (*rise(i), den_n(i + 1, i))  # of head alpha_n / den_n(n)
    lhs = _nested(*_lattice_terms(pair.beta, beta_rise, pair.beta_floor, trunc), beta_rise, trunc)
    inner = _nested(*_lattice_terms(pair.alpha, alpha_rise, pair.alpha_floor, trunc), alpha_rise, trunc)
    w = trunc - int(min(0, inner._valuation()))  # the factors of each product that reach q^w
    below = lambda monos: [f for mono in monos for f in _poch(mono, w - mono.q_exp)]
    return lhs, _by_binomials(inner, below(num), below(den))


def conjugate_identity_check(pair: BaileyPair, trunc: int) -> CheckReport:
    """Conjugate-pair identity: sum (aq)_{2n} q^n beta_n against the
    1/(q)_inf-weighted double sum over alpha, compared below trunc."""
    return _timed_report(
        "bailey-conjugate",
        {"pair": pair.label, "trunc": trunc},
        lambda: (diff_qseries(*_conjugate_sides(pair, trunc), trunc, "conjugate identity"), None),
    )


def _conjugate_sides(pair: BaileyPair, trunc: int) -> tuple[QSeries, QSeries]:
    """The beta sum over n and the alpha sum over (r, n), r outer, over the
    terms whose bound is below trunc (``series._lattice``).  Along r and the
    beta sum's n each bound may fall, then rises; the alpha bound
    3n(n+1)/2 + an + (2n+1)r + alpha_floor(r) is least at n = 0 and grows with n."""
    if pair.a_exp not in (0, 1):
        raise ValueError("conjugate identity applies to pairs relative to 1 or q")
    if pair.alpha_floor is None or pair.beta_floor is None:
        raise ValueError("conjugate identity needs valuation floors on the pair")
    a_exp = pair.a_exp

    # term n + 1 has the extra factor q (1 - aq^{2n+1}) (1 - aq^{2n+2}) over term n
    rise = lambda n: (Mono(1, 0, 1), _q(a_exp + 2 * n + 1, 2), ())
    lhs = _nested(*_lattice_terms(pair.beta, rise, pair.beta_floor, trunc), rise, trunc)

    weight = lambda r, n: 3 * n * (n + 1) // 2 + a_exp * n + (2 * n + 1) * r  # head exponent
    inner = QSeries.zero(1, trunc)
    for (r, n), low in _lattice(lambda r, n: weight(r, n) + pair.alpha_floor(r), trunc, 2):
        head = Mono(-1 if n % 2 else 1, 0, weight(r, n))
        inner = inner + pair.alpha(r, trunc - min(0, low)).mul_mono(head)
    v = int(min(0, inner._valuation()))
    return lhs, _by_binomials(inner, over=_q(1, trunc - v))


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
        # One shift for every n keeps the shape the lattice walker relies on:
        # lowering the target's floor alone can make a bound dip again.
        if floor is None:
            return None
        drop = max(0, floor(n_target) - mono.q_exp)
        return lambda n: floor(n) - drop

    alpha: TermFn = wrap(pair.alpha) if which == "alpha" else pair.alpha
    beta: TermFn = wrap(pair.beta) if which == "beta" else pair.beta
    return BaileyPair(
        pair.label + f"+corrupt({which}[{n_target}])", pair.a_exp, alpha, beta,
        lowered(pair.alpha_floor) if which == "alpha" else pair.alpha_floor,
        lowered(pair.beta_floor) if which == "beta" else pair.beta_floor,
    )
