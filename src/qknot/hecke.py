"""Hecke-type (indefinite theta) expansions of the U-series.

The triple sum runs over two lattice regions (all indices >= 0, all < 0)
restricted to r != s mod 2.  Its exponents live on one fixed residue class
mod 8, so after folding in the q^{-t/2-m/2+3/8} prefactor every term has an
integer exponent; this is asserted per term.  ``series._lattice`` walks every
region, here, in the double sum and in both theta series: every exponent
rises in each index away from its origin, which keeps its contract.

The double-sum variant with 1/(1 - x q^{(r+s+1)/2}) denominators is not
implemented separately: expanding each denominator as a geometric series in
x yields exactly the u-indexed triple sum computed here, which keeps the
module free of rational-function arithmetic.

The triple sum (the core) is multiplied by (xq)_inf (q/x)_inf / (q)_inf^2.
The Jacobi triple product (Andrews, *The Theory of Partitions*, Thm 2.8),
(x)_inf (q/x)_inf (q)_inf = sum_{k in Z} (-1)^k q^{k(k-1)/2} x^k, with
(x)_inf = (1 - x) (xq)_inf, turns that into

    U_t^{(m)}(-x; q) = -core R(x) / ((1 - x) (q)_inf^3),
    R(x) = sum_{n >= 0} (-1)^n q^{n(n+1)/2} (x^{-n} - x^{n+1}).

R / (1 - x) is a Laurent polynomial in x at each power of q, so dividing by
1 - x is exact as a running sum over ascending x-powers.  1/(q)_inf^3 comes
from Jacobi's (q)_inf^3 = sum_n (-1)^n (2n+1) q^{n(n+1)/2}, and the double
sum's 1/(q)_inf from Euler's pentagonal (q)_inf = sum_k (-1)^k q^{k(3k-1)/2},
each by one sparse recurrence (``_reciprocal``).  Each x-power column of the
core is packed once at q = 2^w (``laurent._pack``), shifted up by the core's
negative valuation to W' slots, W' = W - min(0, val(core)); each x-row of
core R / (1 - x) is a few shift-adds of columns, then one product with the
image of 1/(q)_inf^3, all mod 2^(w W') (a ring map, since every shift is
nonnegative), read back once below the window (``laurent._read_back``).
Every coefficient read is at most

    l1(core) * 2 #{n : n(n+1)/2 < W'} * max_{e < W'} [q^e] 1/(q)_inf^3,

since sup |ab| <= l1(a) sup |b| and l1(core R / (1 - x)) at one x-power is
at most l1(core) l1(R); w is ``_width`` of that bound.
"""

from __future__ import annotations

from functools import partial

from .cyclotomic_coeffs import _validate
from .laurent import _pack, _product, _read_back, _width
from .series import QSeries, _lattice, _wrap_rows

__all__ = ["hecke_u1_double", "hecke_u_series", "hecke_u_series_x"]


def _exp8(t: int, m: int, r: int, s: int, u: int) -> int:
    """Scaled-by-8 exponent of a triple-sum term, prefactor included."""
    return (
        r * r
        + 2 * (4 * t + 3) * r * s
        + s * s
        + 4 * (1 + m + t) * r
        + 4 * (1 - m + t) * s
        + 4 * u * (r + s + 1)
        + 3
        - 4 * t
        - 4 * m
    )


def _triple_sum(t: int, m: int, window: int, pad: int = 0) -> dict[int, dict[int, int]]:
    """The signed triple sum strictly below q^window as x-power columns
    {u: {e: c}}, c q^e x^u, with no zero entry and no empty column."""
    cols: dict[int, dict[int, int]] = {}
    for origin in (0, -1):
        for (r, s, u), e8 in _lattice(partial(_exp8, t, m), 8 * window, 3, origin, pad):
            if (r - s) % 2 == 0:
                continue
            if e8 % 8:
                raise ArithmeticError(
                    f"non-integral exponent {e8}/8 at (r,s,u)=({r},{s},{u})"
                )
            col = cols.setdefault(u, {})
            col[e8 // 8] = col.get(e8 // 8, 0) + (-1 if ((r - s - 1) // 2) % 2 else 1)
    for u, col in list(cols.items()):
        for e in [e for e, c in col.items() if not c]:
            del col[e]
        if not col:
            del cols[u]
    return cols


def _reciprocal(f: dict[int, int], window: int) -> list[int]:
    """The coefficients below q^window of 1/f, f a power series with constant
    term 1 given by its sparse terms {g: s_g}: a_e = -sum_{g >= 1} s_g a_{e-g}."""
    steps = sorted((g, s) for g, s in f.items() if g)
    a = [1] + [0] * (window - 1)
    for e in range(1, window):
        acc = 0
        for g, s in steps:
            if g > e:
                break
            acc -= s * a[e - g]
        a[e] = acc
    return a


def _jacobi_cube(window: int) -> dict[int, int]:
    """(q)_inf^3 below q^window, keyed in ascending n: sum_n (-1)^n (2n+1) q^(n(n+1)/2)."""
    return {e: (-1) ** n * (2 * n + 1) for (n,), e in _lattice(lambda n: n * (n + 1) // 2, window)}


def _euler(window: int) -> dict[int, int]:
    """(q)_inf below q^window: sum_{k in Z} (-1)^k q^(k(3k-1)/2) (Euler)."""
    pentagonal = lambda k: k * (3 * k - 1) // 2
    return {e: (-1) ** k for origin in (0, -1) for (k,), e in _lattice(pentagonal, window, 1, origin)}


def _hecke_rows(t: int, m: int, trunc: int, pad: int, flip: bool) -> QSeries:
    """U_t^{(m)}(-x; q) below trunc, or U_t^{(m)}(x; q) when flip: x-row d of
    -core R / ((1 - x) (q)_inf^3), times (-1)^d when flip (module docstring)."""
    _validate(t, m)
    if trunc < 1:
        raise ValueError("need a positive window")
    cols = _triple_sum(t, m, trunc, pad)  # never empty: it has a term at q^(1-m)
    lift = -min(0, *map(min, cols.values()))
    top = trunc + lift  # W': the slots below the window
    cube = _jacobi_cube(top)
    inverse = _reciprocal(cube, top)
    bound = sum(abs(v) for col in cols.values() for v in col.values()) * 2 * len(cube) * max(inverse)
    w = _width(bound)
    mask = (1 << w * top) - 1
    images = {u: _pack(col, -lift, w) for u, col in cols.items()}
    # shift-added, so exact at any width: a narrow slot raises in the read-back
    theta = sum(a << e * w for e, a in enumerate(inverse))
    shifts = [(n, e * w) for n, e in enumerate(cube)]
    rows: dict[int, dict[int, int]] = {}
    acc = 0  # the running sum over x-rows: core R / (1 - x) at row d
    for d in range(min(cols) - len(cube) + 1, max(cols) + len(cube)):
        for n, s in shifts:
            diff = images.get(d + n, 0) - images.get(d - n - 1, 0)
            if diff:
                acc += -diff << s if n % 2 else diff << s
        acc &= mask
        if acc:
            v = acc * theta
            row = _read_back(v if flip and d % 2 else -v, -lift, w, bound, trunc)
            for e, c in row.coeffs.items():
                rows.setdefault(e, {})[d] = c
    return _wrap_rows(rows, 1, trunc)


def hecke_u_series(t: int, m: int, trunc: int, pad: int = 0) -> QSeries:
    """U_t^{(m)}(-x; q) from the indefinite-theta expansion, window trunc.

    The displayed global sign and prefactor are taken at face value; the
    series route through the cyclotomic coefficients is the cross-check.
    """
    return _hecke_rows(t, m, trunc, pad, flip=False)


def hecke_u_series_x(t: int, m: int, trunc: int, pad: int = 0) -> QSeries:
    """U_t^{(m)}(x; q) via the expansion: the x -> -x flip of hecke_u_series."""
    return _hecke_rows(t, m, trunc, pad, flip=True)


def _double_exp(n: int, r: int) -> int:
    return n * (3 * n + 5) // 2 + 2 * n * r + r * (r + 3) // 2


def hecke_u1_double(trunc: int, pad: int = 0) -> QSeries:
    """(1-x) U_1(-x;q) from the double-sum expansion, window trunc.

    Region n,r >= 0 enters positively with x^{-r}; region n,r < 0 is
    subtracted (and carries positive x-powers after the substitution).
    Every exponent is nonnegative, so each x-power column times 1/(q)_inf is
    one one-row product, exact below trunc.
    """
    if trunc < 1:
        raise ValueError("need a positive window")
    # each term has its own (x-power, exponent): -r fixes the region and r,
    # and the exponent increases in n
    cols: dict[int, dict[int, int]] = {}
    for origin, outer_sign in ((0, 1), (-1, -1)):
        for (n, r), e in _lattice(_double_exp, trunc, 2, origin, pad):
            cols.setdefault(-r, {})[e] = outer_sign * (-1 if (n + r) % 2 else 1)

    inverse = _reciprocal(_euler(trunc), trunc)
    rows: dict[int, dict[int, int]] = {}
    for d, col in cols.items():
        cut = dict(enumerate(inverse[: trunc - min(col)]))
        for e, c in _product({0: col}, {0: cut}).get(0, {}).items():
            if e < trunc:
                rows.setdefault(e, {})[d] = c
    return _wrap_rows(rows, 1, trunc)
