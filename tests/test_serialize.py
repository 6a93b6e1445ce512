"""Serialization: exact round-trips, deterministic bytes, rendering."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qknot.cyclo import CycloNum
from qknot.laurent import XLaurent
from qknot.serialize import (
    cyclo_from_json_dict,
    cyclo_to_json_dict,
    pretty,
    pretty_xlaurent,
    qseries_from_json_dict,
    qseries_to_csv,
    qseries_to_json_dict,
    qseries_to_json_text,
    to_json_text,
    xlaurent_to_qseries,
)
from qknot.series import QSeries
from qknot.useries import u_series

from kernel_oracles import cyclo_add


def test_qseries_json_roundtrip():
    s = QSeries(
        {3: XLaurent({-1: Fraction(2, 3), 0: 5}), -4: XLaurent({2: -7})},
        scale=4,
        trunc=40,
    )
    again = qseries_from_json_dict(qseries_to_json_dict(s))
    assert again == s
    exact = QSeries({0: 1, 2: XLaurent({1: 1})})
    assert qseries_from_json_dict(qseries_to_json_dict(exact)) == exact


def test_json_bytes_deterministic():
    s = u_series(2, 1, 5)
    a = to_json_text(qseries_to_json_dict(s))
    b = to_json_text(qseries_to_json_dict(u_series(2, 1, 5)))
    assert a == b
    d = qseries_to_json_dict(s)
    assert [t["q_exp"] for t in d["terms"]] == sorted(t["q_exp"] for t in d["terms"])
    for t in d["terms"]:
        assert [x["x_exp"] for x in t["x"]] == sorted(x["x_exp"] for x in t["x"])


def test_cyclo_json_roundtrip():
    z = cyclo_add(CycloNum.zeta(12, 5) * Fraction(3, 7), CycloNum.from_rational(12, 2))
    assert cyclo_from_json_dict(cyclo_to_json_dict(z)) == z


def test_csv_rows():
    s = QSeries({2: XLaurent({0: 1, 1: -2})}, scale=2, trunc=10)
    text = qseries_to_csv(s)
    lines = text.strip().split("\n")
    assert lines[0] == "scale,trunc,q_exp,x_exp,num,den"
    assert lines[1] == "2,10,2,0,1,1"
    assert lines[2] == "2,10,2,1,-2,1"


def test_pretty_matches_printed_style():
    assert pretty(u_series(2, 1, 5)) == (
        "1 + q + (x+2+x^-1)q^2 + (2x+3+2x^-1)q^3 + (3x+6+3x^-1)q^4"
    )
    assert pretty(u_series(2, 2, 3)) == "q^-1 + 2 + (x+2+x^-1)q + (2x+4+2x^-1)q^2"
    assert pretty(u_series(3, 3, 1)) == "q^-2 + 2q^-1 + (x+3+x^-1)"


def test_pretty_polynomials_and_fractions():
    assert pretty_xlaurent(XLaurent({1: 1, 3: 1, 4: -1})) == "q + q^3 - q^4"
    assert pretty_xlaurent(XLaurent({0: 1})) == "1"
    assert pretty_xlaurent(XLaurent()) == "0"
    assert pretty_xlaurent(XLaurent({-1: -2})) == "-2q^-1"
    s = QSeries({1: XLaurent({0: Fraction(1, 2)})}, scale=2)
    assert pretty(s) == "(1/2)q^(1/2)"


def test_pretty_keeps_sign_separators():
    s = QSeries({0: 1, 1: XLaurent({0: -3}), 2: XLaurent({1: -1})})
    assert pretty(s) == "1 - 3q - xq^2"


def test_xlaurent_roundtrip_through_series():
    p = XLaurent({-2: 3, 5: Fraction(1, 4)})
    s = xlaurent_to_qseries(p)
    assert qseries_from_json_dict(qseries_to_json_dict(s)).to_q_laurent() == p


def test_int_coefficients_serialize_as_their_fractions():
    # ints skip Fraction; a Fraction with denominator 1 must give the same bytes
    ints = QSeries({2: XLaurent({0: 5, 1: -12})}, scale=2, trunc=10)
    fracs = QSeries({2: XLaurent({0: Fraction(5), 1: Fraction(-12)})}, scale=2, trunc=10)
    assert to_json_text(qseries_to_json_dict(ints)) == to_json_text(qseries_to_json_dict(fracs))
    assert qseries_to_csv(ints) == qseries_to_csv(fracs) == "scale,trunc,q_exp,x_exp,num,den\n2,10,2,0,5,1\n2,10,2,1,-12,1\n"
    assert cyclo_to_json_dict(CycloNum(3, [4, -1]))["coeffs"] == [{"num": "4", "den": "1"}, {"num": "-1", "den": "1"}]


coefficients = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-50, 50)),  # denominator 1
)
series_for_json = st.builds(
    QSeries,
    st.dictionaries(st.integers(-60, 60), st.builds(XLaurent, st.dictionaries(st.integers(-5, 5), coefficients, max_size=4)), max_size=5),
    st.sampled_from([1, 2, 8 * 3, 8 * 7]),
    st.one_of(st.none(), st.integers(-60, 80)),
)


@settings(max_examples=100, deadline=None)
@given(series_for_json)
def test_json_text_writer_matches_the_dict_route(s):
    assert qseries_to_json_text(s) == to_json_text(qseries_to_json_dict(s))


def test_json_text_writer_on_edge_series():
    for s in (QSeries.zero(), QSeries.zero(8 * 5, 3), u_series(2, 1, 9), QSeries({-3: XLaurent({-2: Fraction(-7, 3)})}, 4)):
        assert qseries_to_json_text(s) == to_json_text(qseries_to_json_dict(s))
