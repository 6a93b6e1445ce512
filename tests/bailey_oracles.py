"""The Bailey sums that multiplied whole series, kept as reference oracles.

``_first_failure``, ``_lemma``, ``bailey_step``, ``_limit_sides`` and
``_conjugate_sides`` are the former ``qknot.bailey`` functions, verbatim,
with ``_neg_val_bound``, the closed-form valuation bound that ``_limit_sides``
took for its lattice walk.  They build each Pochhammer head as a polynomial
or series and multiply a pair's term by it (a ``QSeries`` product per term);
the library now runs every one of these sums as a chain of
``series._by_binomials`` passes in nested (Horner) form, on ``series._nested``,
and must reproduce them exactly, windows included.

``beta_chain_closed`` is the former ``qknot.bailey`` function, verbatim, and
``lovejoy_s`` the former ``bailey._lovejoy_s``, verbatim but for its name and
the dropped cache: its ``centre`` parameter, -1 for the closed chain, was the
only one the library did not use.
"""

from __future__ import annotations

from functools import partial

from qknot.bailey import BaileyPair, FloorFn, TermFn, _exact, _q, _req
from qknot.cyclotomic_coeffs import _staircase
from qknot.laurent import XLaurent, _kronecker, poch_q
from qknot.report import diff_qseries
from qknot.series import Mono, QSeries, _by_binomials, _lattice, _poch


def _neg_val_bound(mono: Mono) -> int:
    """Lower bound for the valuation of the family (mono)_n, any n."""
    e = min(0, mono.q_exp)
    return e * (1 - e) // 2


def lovejoy_s(t: int, ell: int, n: int, centre: int = 1) -> XLaurent:
    """(q)_n times the (2t-1)-fold staircase chain sum: q^{-v} on the first
    ell positions, q^{v(v + centre)/2} at position t and q^{v^2} beyond."""

    def node(pos: int, v: int) -> int:
        e = 0
        if pos <= ell:
            e -= v
        if pos == t:
            e += v * (v + centre) // 2
        if pos > t:
            e += v * v
        return e

    return _kronecker(partial(_staircase, 2 * t - 1, [n], node, t, t))[0][0]


def beta_chain_closed(t: int, tail_len: int, n: int, window: int) -> QSeries:
    """Closed chain form of the t-fold-stepped seed beta: center carries
    binom(v_t, 2) and the linear tail has tail_len terms."""
    s = lovejoy_s(t, tail_len, n, -1)
    return _by_binomials(_exact(s), over=_q(1, n), trunc=window)


def _first_failure(pair: BaileyPair, n_max: int, trunc: int) -> dict | None:
    """Witness of the first n at which either pair relation fails, or None."""
    a_exp = pair.a_exp
    for n in range(n_max + 1):
        # (aq)_{2n} sum_j alpha_j / ((q)_{n-j} (aq)_{n+j}), nested from j = 0: term
        # j - 1 has the extra factor (1 - aq^{n+j}) / (1 - q^{n-j+1}) over term j
        rhs = pair.alpha(0, trunc)
        for j in range(1, n + 1):
            rhs = _by_binomials(rhs, _q(a_exp + n + j, 1), _q(n - j + 1, 1), trunc=trunc)
            rhs = rhs + pair.alpha(j, trunc)
        rhs = _by_binomials(rhs, over=_q(a_exp + 1, 2 * n), trunc=trunc)
        witness = diff_qseries(pair.beta(n, trunc), rhs, label=f"beta relation at n={n}")
        if witness is None and n > 0:
            inner = QSeries.zero(1, trunc)
            for j in range(n + 1):
                piece = (poch_q(-n, j) * poch_q(a_exp + n, j)).shift(j)
                if piece.is_zero():
                    continue
                # beta_j is needed below trunc - val(piece), val(piece) = j(j+1)/2 - nj;
                # n = n_max's window is the widest, so one beta_j serves every n here
                inner = inner + pair.beta(j, trunc + n_max * j - j * (j + 1) // 2) * _exact(piece)
            sign = Mono(-1 if n % 2 else 1, 0, n * (n - 1) // 2)
            pref = [Mono(1, 0, a_exp + 2 * n)] + _q(a_exp + 1, n - 1)
            rhs2 = _by_binomials(inner.mul_mono(sign), pref, _q(1, n))
            witness = diff_qseries(pair.alpha(n, trunc), rhs2, label=f"alpha relation at n={n}")
        if witness is not None:
            witness["n"] = n
            return witness
    return None


def _lemma(a_exp: int, b: Mono | None, c: Mono | None):
    """The lemma with parameters b, c (None is a limit) as (head, den):
    alpha'_n = head(n, n) alpha_n / den(n) and
    beta'_n = sum_k head(k, n) beta_k / ((q)_{n-k} den(n)), where den(n, first)
    lists the factors of (aq/b)_n (aq/c)_n from index first on, over the set b, c.
    """
    aq = Mono(1, 0, a_exp + 1)
    quos = [aq.divide(p) for p in (b, c) if p is not None]
    if b is None and c is None:

        def head(k: int, n: int) -> QSeries:
            return QSeries.from_mono(Mono(1, 0, a_exp * k + k * k))

    elif b is not None and c is not None:
        ratio = aq.divide(b.times(c))

        def head(k: int, n: int) -> QSeries:
            factors = _poch(b, k) + _poch(c, k) + _poch(ratio, n - k)
            return _by_binomials(QSeries.one(), factors).mul_mono(ratio.power(k))

    else:
        fin = b if b is not None else c

        def head(k: int, n: int) -> QSeries:
            sign = Mono((-1) ** k, 0, k * (k - 1) // 2).times(quos[0].power(k))
            return _by_binomials(QSeries.one(), _poch(fin, k)).mul_mono(sign)

    return head, lambda n, first=0: [f for quo in quos for f in _poch(quo, n)[first:]]


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
    head, den = _lemma(a_exp, b, c)

    def headed(term: TermFn, k: int, n: int, window: int) -> QSeries:
        h = head(k, n)  # exact, so term k is needed below window - val(h) only
        return h * term(k, window - h.min_exp()) if h.terms else h

    def alpha(n: int, window: int) -> QSeries:
        return _by_binomials(headed(pair.alpha, n, n, window), over=den(n), trunc=window)

    def beta(n: int, window: int) -> QSeries:
        out = QSeries.zero(1, window)  # sum_k term_k / (q)_{n-k}, in nested form
        for k in range(n + 1):
            out = _by_binomials(out, over=_q(n - k + 1, 1), trunc=window)
            out = out + headed(pair.beta, k, n, window)
        return _by_binomials(out, over=den(n), trunc=window)

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


def _limit_sides(
    pair: BaileyPair, b: Mono | None, c: Mono | None, trunc: int
) -> tuple[QSeries, QSeries]:
    """Both sides, each over the n whose bound (head valuation plus floor) is
    below trunc (``series._lattice``): along n it may fall, then rises."""
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

    head, den = _lemma(a_exp, b, c)

    lhs = QSeries.zero(1, trunc)
    for (n,), low in _lattice(partial(term_low, floor=pair.beta_floor), trunc):
        lhs = lhs + head(n, n) * pair.beta(n, trunc - min(0, low))

    lows = {n: low for (n,), low in _lattice(partial(term_low, floor=pair.alpha_floor), trunc)}
    inner = QSeries.zero(1, trunc)  # sum over lows of head(n, n) alpha_n / den(n), nested
    for n in range(max(lows, default=-1), -1, -1):
        if n in lows:
            inner = inner + head(n, n) * pair.alpha(n, trunc - min(0, lows[n]))
        if n:
            inner = _by_binomials(inner, over=den(n, n - 1), trunc=trunc)

    v = int(min(0, inner._valuation()))
    w = trunc - v

    def below(mono: Mono, what: str) -> list[Mono]:
        """The factors of the infinite product (mono)_inf that reach q^w."""
        return _poch(_req(mono, what), w - mono.q_exp)

    num, den = [], below(aq, "aq")
    if b is not None:
        num += below(aq.divide(b), "aq/b")
    if c is not None:
        num += below(aq.divide(c), "aq/c")
    if b is not None and c is not None:
        den += below(aq.divide(b.times(c)), "aq/bc")
    return lhs, _by_binomials(inner, num, den)


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

    lhs = QSeries.zero(1, trunc)
    for (n,), low in _lattice(lambda n: n + pair.beta_floor(n), trunc):
        head = _exact(poch_q(a_exp + 1, 2 * n).shift(n))
        lhs = lhs + head * pair.beta(n, trunc - min(0, low))

    weight = lambda r, n: 3 * n * (n + 1) // 2 + a_exp * n + (2 * n + 1) * r  # head exponent
    inner = QSeries.zero(1, trunc)
    for (r, n), low in _lattice(lambda r, n: weight(r, n) + pair.alpha_floor(r), trunc, 2):
        head = Mono(-1 if n % 2 else 1, 0, weight(r, n))
        inner = inner + pair.alpha(r, trunc - min(0, low)).mul_mono(head)
    v = int(min(0, inner._valuation()))
    return lhs, _by_binomials(inner, over=_q(1, trunc - v))
