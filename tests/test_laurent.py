"""Laurent-polynomial layer: hand values, independent oracles, ring laws."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qknot
from qknot import laurent
from qknot.laurent import (
    ONE,
    ZERO,
    ExactnessError,
    XLaurent,
    _binom_image,
    _over_binomials,
    _packed_product,
    _read_back,
    _width,
    bernoulli_b2,
    cyclotomic_polynomial,
    poch_q,
    qbinomial,
)

from kernel_oracles import binom_image, divexact, over_binomials, packed_rows_product, sliced_read_back


def lp(d):
    return XLaurent(d)


def brute_poch(first, count):
    out = lp({0: 1})
    for j in range(count):
        out = out * (lp({0: 1}) - lp({first + j: 1}))
    return out


def test_poch_empty_product():
    assert poch_q(1, 0) == lp({0: 1})


def test_poch_q2_expansion():
    assert poch_q(1, 2) == lp({0: 1, 1: -1, 2: -1, 3: 1})
    assert poch_q(1, 2) == brute_poch(1, 2)


def test_poch_matches_bruteforce():
    for first in (-3, 0, 1, 2):
        for count in range(6):
            assert poch_q(first, count) == brute_poch(first, count)


def test_qbinomial_hand_values():
    assert qbinomial(5, 0) == lp({0: 1})
    assert qbinomial(2, 1) == lp({0: 1, 1: 1})
    assert qbinomial(4, 2) == lp({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_qbinomial_out_of_range_is_zero():
    assert qbinomial(3, -1).is_zero()
    assert qbinomial(3, 4).is_zero()
    assert qbinomial(-2, 0).is_zero()


def _qbinomial_ladder(n: int, k: int) -> XLaurent:
    """Gaussian binomial coefficient; zero outside 0 <= k <= n.

    Built by the exact multiply/divide ladder: each intermediate stage is the
    Gaussian polynomial of a smaller pair, so every division is exact.
    """
    if k < 0 or n < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    out = ONE
    for i in range(1, k + 1):
        out = divexact(out - out.shift(n - k + i), ONE - XLaurent.term(i))
    return out


def test_qbinomial_matches_the_ladder_it_replaced():
    for n in range(-1, 31):
        for k in range(-1, n + 2):
            assert qbinomial(n, k) == _qbinomial_ladder(n, k), (n, k)


def _at(p: XLaurent, w: int) -> tuple[int, int]:
    """p at q = 2^w as (V, o), p = q^o P(q), V = P(2^w), term by term."""
    o = p.min_exp() if p else 0
    return sum(c << (e - o) * w for e, c in p.coeffs.items()), o


def test_binomial_images_are_exact_at_any_width():
    for w in (1, 8, 32, 64):
        for n in range(18):
            for k in range(-1, n + 2):
                assert _binom_image(n, k, w) == _at(qbinomial(n, k), w)[0], (w, n, k)


def test_pascal_images_match_the_division_oracle():
    for w in (8, 32, 64):
        for n in range(61):
            for k in range(-1, n + 2):
                assert _binom_image(n, k, w) == binom_image(n, k, w), (w, n, k)


def test_a_tall_column_does_not_recurse_past_the_limit():
    # q-Pascal walks n rows down a cold column; the division oracle only k
    laurent._IMAGES.clear()
    assert _binom_image(1200, 2, 32) == binom_image(1200, 2, 32)
    laurent._IMAGES.clear()
    assert _binom_image(1100, 3, 8) == binom_image(1100, 3, 8)


def test_a_cone_wider_than_the_cache_is_one_bounded_run():
    # about 40,000 images under [600, 100], five times the cache: the run
    # keeps only its result instead of evicting what it still needs
    laurent._IMAGES.clear()
    assert _binom_image(600, 100, 32) == binom_image(600, 100, 32)
    assert list(laurent._IMAGES) == [(600, 100, 32)]


def test_images_in_any_order_and_under_eviction_match_the_oracle(monkeypatch):
    rng = random.Random(7)
    keys = [(n, k, w) for w in (8, 32) for n in range(41) for k in range(n + 1)]
    for limit in (laurent._IMAGES_MAX, 16):
        monkeypatch.setattr(laurent, "_IMAGES_MAX", limit)
        laurent._IMAGES.clear()
        rng.shuffle(keys)
        for n, k, w in keys:
            assert _binom_image(n, k, w) == binom_image(n, k, w), (limit, n, k, w)
            assert len(laurent._IMAGES) <= limit
            assert all(1 <= j <= m // 2 for m, j, _ in laurent._IMAGES)
    laurent._IMAGES.clear()


def test_width_rule():
    for bound in (0, 1, 2, 7, (1 << 31) - 1, 1 << 31, 1 << 62, (1 << 63) - 1, 1 << 63, 10**40):
        w = _width(bound)
        assert w % 32 == 0 and bound < 1 << (w - 1), bound
        assert w == 32 or bound >= 1 << (w - 33), bound


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(st.integers(-40, 40), st.integers(-(1 << 70), 1 << 70), max_size=12),
    st.sampled_from([32, 64, 96]),
)
def test_read_back_inverts_the_image_and_rejects_narrow_slots(coeffs, w):
    p = XLaurent(coeffs)
    bound = max(map(abs, p.coeffs.values()), default=0)
    if bound < 1 << (w - 1):
        assert _read_back(*_at(p, w), w, bound) == p
    else:
        with pytest.raises(ExactnessError):
            _read_back(*_at(p, w), w, bound)


@settings(max_examples=120, deadline=None)
@given(
    st.dictionaries(st.integers(-60, 60), st.integers(-(1 << 100), 1 << 100), max_size=16),
    st.sampled_from([32, 96, 104, 128]),
    st.integers(-70, 70),
)
@example({-60: -(1 << 100), 60: 1 << 100}, 104, 0)
def test_windowed_read_back_is_the_full_read_back_cut_at_the_limit(coeffs, w, limit):
    p = XLaurent(coeffs)
    v, o = _at(p, w)
    masked = v & ((1 << max(limit - o, 0) * w) - 1)
    bound = max(map(abs, p.coeffs.values()), default=0)
    if bound < 1 << (w - 1):
        below = {e: c for e, c in _read_back(v, o, w, bound).coeffs.items() if e < limit}
        assert _read_back(masked, o, w, bound, limit).coeffs == below
        assert _read_back(v, o, w, bound, limit).coeffs == below
    else:
        with pytest.raises(ExactnessError):
            _read_back(masked, o, w, bound, limit)


def test_slot_codes_are_those_of_the_host():
    assert laurent._SLOT_CODES == ({32: "I", 64: "Q"} if sys.byteorder == "little" else {})


@pytest.mark.parametrize("codes", [laurent._SLOT_CODES, {}], ids=["host", "no-cast"])
@settings(max_examples=100, deadline=None)
@given(st.sampled_from([32, 64, 96, 128]), st.integers(-60, 60), st.data())
def test_read_back_matches_the_sliced_oracle(codes, w, o, data):
    # with no slot codes every width slices its bytes, as a big-endian host does
    bound = data.draw(st.integers(0, (1 << (w - 1)) - 1))
    coeffs = data.draw(st.lists(st.integers(-bound, bound), max_size=24))
    v = sum(c << i * w for i, c in enumerate(coeffs))
    # no limit, or one below, inside or past the top, with any digits above it
    limit = data.draw(st.one_of(st.none(), st.integers(o - 2, o + len(coeffs) + 3)))
    if limit is not None:
        v += data.draw(st.integers(-(1 << 80), 1 << 80)) << max(limit - o, 0) * w
    want = {o + i: c for i, c in enumerate(coeffs) if c and (limit is None or o + i < limit)}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "_SLOT_CODES", codes)
        got = _read_back(v, o, w, bound, limit).coeffs
        # the same map in the same key order, which the serializers walk
        assert list(got.items()) == list(sliced_read_back(v, o, w, bound, limit).coeffs.items())
        assert got == want
        for read_back in (_read_back, sliced_read_back):
            with pytest.raises(ExactnessError, match=f"{w}-bit slots"):
                read_back(v, o, w, 1 << (w - 1), limit)


def test_read_back_at_the_edge_of_the_slot():
    for w in (8, 32, 64):
        top = (1 << (w - 1)) - 1
        p = XLaurent({-3: top, 0: -top, 1: 1, 4: -(1 << (w - 2))})
        assert _read_back(*_at(p, w), w, top) == p
        # 2^(w-1) is out of range: it would read back as -2^(w-1) carrying one
        with pytest.raises(ExactnessError):
            _read_back(*_at(XLaurent({0: top + 1}), w), w, top + 1)
        assert _read_back(*_at(XLaurent({0: top + 1}), w), w, 0) != XLaurent({0: top + 1})


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=8).map(XLaurent),
    st.integers(0, 7),
)
def test_factor_wise_poch_division_matches_divexact(p, count):
    den = poch_q(1, count)
    assert _over_binomials(p * den, range(1, count + 1)) == divexact(p * den, den) == p
    if p and count:
        # p + q^e for an e above p * den is never divisible by (q)_count
        bad = p * den + XLaurent.term((p * den).max_exp() + 1)
        with pytest.raises(ExactnessError):
            _over_binomials(bad, range(1, count + 1))
        with pytest.raises(ExactnessError):
            divexact(bad, den)


def test_qbinomial_symmetry_and_pascal():
    for n in range(16):
        for k in range(n + 1):
            assert qbinomial(n, k) == qbinomial(n, n - k)
            if n:
                pascal = qbinomial(n - 1, k - 1) + qbinomial(n - 1, k).shift(k)
                assert qbinomial(n, k) == pascal


def test_qbinomial_ratio_form():
    # quotient definition: (q)_n / ((q)_{n-k} (q)_k)
    for n in range(10):
        for k in range(n + 1):
            assert qbinomial(n, k) * poch_q(1, n - k) * poch_q(1, k) == poch_q(1, n)


def _mobius(n):
    out, d, left = 1, 2, n
    while d * d <= left:
        if left % d == 0:
            left //= d
            if left % d == 0:
                return 0
            out = -out
        d += 1
    return -out if left > 1 else out


def test_cyclotomic_polynomials_against_mobius_product():
    # independent route: Phi_M = prod_{d | M} (x^{M/d} - 1)^{mu(d)}
    for order in range(1, 21):
        num = lp({0: 1})
        den = lp({0: 1})
        for d in range(1, order + 1):
            if order % d:
                continue
            mu = _mobius(d)
            factor = lp({order // d: 1, 0: -1})
            if mu == 1:
                num = num * factor
            elif mu == -1:
                den = den * factor
        assert cyclotomic_polynomial(order) == divexact(num, den)


def test_cyclotomic_small_values():
    assert cyclotomic_polynomial(1) == lp({1: 1, 0: -1})
    assert cyclotomic_polynomial(4) == lp({2: 1, 0: 1})
    assert cyclotomic_polynomial(6) == lp({2: 1, 1: -1, 0: 1})


def _cyclotomic_by_division(order):
    """The cyclotomic polynomial by the recursion it replaced: x^M - 1 divided
    by every Phi_d, d a proper divisor of M."""
    poly = XLaurent({order: 1, 0: -1})
    for d in range(1, order):
        if order % d == 0:
            poly = divexact(poly, _cyclotomic_by_division(d))
    return poly


def test_cyclotomic_polynomial_matches_the_division_it_replaced():
    for order in [*range(1, 121), 1155, 2310]:
        assert cyclotomic_polynomial(order) == _cyclotomic_by_division(order), order


def test_over_binomials_roundtrip_and_failure():
    a = lp({-2: 3, 0: -1, 3: 2})
    ds = [3, 1, 3, 5]
    b = ONE
    for d in ds:
        b = b - b.shift(d)
    assert _over_binomials(a * b, ds) == a
    assert _over_binomials(ZERO, ds) == ZERO
    with pytest.raises(ExactnessError):
        _over_binomials(a * b + lp({0: 1}), ds)
    with pytest.raises(ExactnessError, match="1 - q\\^5"):
        _over_binomials(a, [5])  # shorter than the factor


def test_over_binomials_matches_the_block_oracle():
    rng = random.Random(14)
    for _ in range(150):
        size = rng.randint(1, 60)
        p = XLaurent({e: rng.randint(-9, 9) for e in range(size)}).shift(rng.randint(-6, 6))
        # d below and above the square root of the dividend's length
        ds = [rng.choice((1, 2, 3, rng.randint(4, 40))) for _ in range(rng.randint(1, 4))]
        total = p
        for d in ds:
            total = total - total.shift(d)
        assert _over_binomials(total, ds) == over_binomials(total, ds) == p, (p, ds)
        if total:
            bad = total + XLaurent.term(total.max_exp() + 1)
            for divide in (_over_binomials, over_binomials):
                with pytest.raises(ExactnessError):
                    divide(bad, ds)


def test_descale_checks_divisibility():
    assert lp({4: 1, -8: 2}).descale(4) == lp({1: 1, -2: 2})
    with pytest.raises(ExactnessError):
        lp({3: 1}).descale(2)


def test_mirror_is_involution():
    p = lp({-3: 2, 0: -1, 5: 7})
    assert p.mirror().mirror() == p
    assert p.mirror() == lp({3: 2, 0: -1, -5: 7})


def test_bernoulli_b2_values():
    assert bernoulli_b2(0) == Fraction(1, 6)
    assert bernoulli_b2(1) == Fraction(1, 6)
    assert bernoulli_b2(Fraction(1, 2)) == Fraction(-1, 12)
    # symmetry B2(1-u) = B2(u)
    for num in range(-3, 8):
        u = Fraction(num, 5)
        assert bernoulli_b2(1 - u) == bernoulli_b2(u)


small_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-5, 5), max_size=5
).map(XLaurent)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + XLaurent() == a
    assert (a * lp({0: 1})) == a


@settings(max_examples=40, deadline=None)
@given(small_polys)
def test_mirror_respects_products(a):
    b = lp({0: 2, 1: -3, -2: 1})
    assert (a * b).mirror() == a.mirror() * b.mirror()


def _schoolbook(a, b):
    # reference product built without XLaurent.__mul__
    out = XLaurent()
    for e, c in a.coeffs.items():
        out = out + b.scaled(c).shift(e)
    return out


def test_kronecker_product_agrees_with_schoolbook():
    big = 1 << 95
    cases = [
        # small dense coefficients
        (lp({i: (i % 7) - 3 for i in range(150)}), lp({i: (i % 5) - 2 for i in range(140)})),
        # wide signed coefficients, negative exponents
        (
            lp({i - 60: (-1) ** i * (big + 7 * i) for i in range(90)}),
            lp({i - 20: (i % 3 - 1) * big - i for i in range(60)}),
        ),
        # strided exponents
        (lp({3 * i: i - 10 for i in range(40)}), lp({3 * i + 1: 2 - i for i in range(30)})),
        # a product coefficient equal to the slot bound 16 * (2^46 - 1)^2, 96 bits
        (lp({i: (1 << 46) - 1 for i in range(16)}), lp({i: 1 - (1 << 46) for i in range(16)})),
    ]
    for a, b in cases:
        assert _packed_product(a.coeffs, b.coeffs) is not None
        assert a * b == _schoolbook(a, b)
        assert b * a == _schoolbook(a, b)


def test_kronecker_declines_what_the_schoolbook_handles():
    dense = lp({i: i - 9 for i in range(20)})
    declined = [
        lp({i: Fraction(1, i + 1) for i in range(20)}),  # rational coefficients
        lp({i: 1 for i in range(12)}),  # 20 x 12 < 256 term pairs
        lp({1000 * i: (-1) ** i for i in range(16)}),  # far more slots than term pairs
    ]
    for other in declined:
        assert _packed_product(dense.coeffs, other.coeffs) is None
        assert dense * other == _schoolbook(dense, other)


@st.composite
def packable(draw):
    """A Laurent polynomial {e: c}: any offset, a stride, coefficients up to 2^100,
    now and then a rational one."""
    stride = draw(st.sampled_from([1, 1, 2, 3, 7]))
    lo = draw(st.integers(-60, 60))
    big = draw(st.sampled_from([3, 1 << 40, 1 << 100]))
    size = draw(st.integers(1, 40))
    cs = draw(st.lists(st.integers(-big, big), min_size=size, max_size=size))
    terms = {lo + stride * i: c for i, c in enumerate(cs) if c}
    assume(terms)
    if draw(st.integers(0, 9)) == 0:
        terms[lo - stride] = Fraction(1, 3)
    return terms


@settings(max_examples=150, deadline=None)
@given(packable(), packable())
@example({i: (1 << 46) - 1 for i in range(16)}, {i: 1 - (1 << 46) for i in range(16)})
def test_packed_product_matches_its_oracle(a, b):
    old = packed_rows_product({0: a}, {0: b})
    new = _packed_product(a, b)
    assert (new is None) == (old is None)
    if new is not None:
        assert old == {0: new.coeffs}
    # two-row operands never reach the packed kernel: they multiply term by term
    two_a, two_b = {0: a, 2: b}, {-1: b, 5: a}
    with mock.patch("qknot.laurent._packed_product", wraps=_packed_product) as spy:
        rows = {e: r for e, r in laurent._product(two_a, two_b).items() if r}
    assert not spy.called
    expected: dict = {}
    for (e1, r1), (e2, r2) in itertools.product(two_a.items(), two_b.items()):
        expected[e1 + e2] = expected.get(e1 + e2, ZERO) + XLaurent(r1) * XLaurent(r2)
    assert rows == {e: p.coeffs for e, p in expected.items() if p}
    old = packed_rows_product(two_a, two_b)
    assert old is None or old == rows


def test_import_does_not_load_numpy():
    src = str(Path(qknot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, qknot; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
