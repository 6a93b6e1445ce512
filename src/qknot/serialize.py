"""Loss-free serialization of series and field elements.

JSON schema for a series: {"scale": s, "trunc": T-or-null, "terms":
[{"q_exp": e, "x": [{"x_exp": d, "num": "...", "den": "..."}]}]} with
exponents ascending and coefficients as exact decimal strings, so output is
byte-deterministic for a fixed input and re-parses to the identical value.
CSV flattens to one row per (q_exp, x_exp) pair.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any

from .cyclo import CycloNum
from .laurent import Scalar, XLaurent
from .series import QSeries

__all__ = [
    "cyclo_from_json_dict",
    "cyclo_to_json_dict",
    "pretty",
    "pretty_cyclo",
    "pretty_xlaurent",
    "qseries_from_json_dict",
    "qseries_to_csv",
    "qseries_to_json_dict",
    "qseries_to_json_text",
    "to_json_text",
    "xlaurent_to_qseries",
]


def _frac_pair(c: Scalar) -> dict[str, str]:
    f = c if type(c) is int else Fraction(c)  # an int has a numerator and a denominator
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _frac_from(d: dict[str, str]) -> Scalar:
    f = Fraction(int(d["num"]), int(d["den"]))
    return f.numerator if f.denominator == 1 else f


def xlaurent_to_qseries(p: XLaurent) -> QSeries:
    """View a Laurent polynomial in q as an exact scale-1 series."""
    return QSeries.from_q_laurent(p)


def qseries_to_json_dict(s: QSeries) -> dict[str, Any]:
    terms = []
    for e, coeff in s.items_sorted():
        xs = [{"x_exp": d, **_frac_pair(c)} for d, c in coeff.items()]
        terms.append({"q_exp": e, "x": xs})
    return {"kind": "qseries", "scale": s.scale, "trunc": s.trunc, "terms": terms}


def qseries_to_json_text(s: QSeries) -> str:
    """``to_json_text(qseries_to_json_dict(s))``, written without building the dicts."""
    terms = []
    for e, coeff in s.items_sorted():
        xs = []
        for d, c in coeff.items():
            if type(c) is int:
                xs.append(f'{{"x_exp":{d},"num":"{c}","den":"1"}}')
            else:
                f = Fraction(c)
                xs.append(f'{{"x_exp":{d},"num":"{f.numerator}","den":"{f.denominator}"}}')
        terms.append(f'{{"q_exp":{e},"x":[{",".join(xs)}]}}')
    trunc = "null" if s.trunc is None else s.trunc
    return f'{{"kind":"qseries","scale":{s.scale},"trunc":{trunc},"terms":[{",".join(terms)}]}}\n'


def qseries_from_json_dict(d: dict[str, Any]) -> QSeries:
    if d.get("kind") != "qseries":
        raise ValueError("not a serialized series")
    terms = {}
    for item in d["terms"]:
        terms[int(item["q_exp"])] = XLaurent(
            {int(x["x_exp"]): _frac_from(x) for x in item["x"]}
        )
    trunc = d["trunc"]
    return QSeries(terms, int(d["scale"]), None if trunc is None else int(trunc))


def cyclo_to_json_dict(z: CycloNum) -> dict[str, Any]:
    return {
        "kind": "cyclonum",
        "order": z.order,
        "coeffs": [_frac_pair(c) for c in z.coeffs],
    }


def cyclo_from_json_dict(d: dict[str, Any]) -> CycloNum:
    if d.get("kind") != "cyclonum":
        raise ValueError("not a serialized cyclotomic number")
    return CycloNum(int(d["order"]), [_frac_from(c) for c in d["coeffs"]])


def to_json_text(d: dict[str, Any]) -> str:
    return json.dumps(d, separators=(",", ":")) + "\n"


def qseries_to_csv(s: QSeries) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scale", "trunc", "q_exp", "x_exp", "num", "den"])
    trunc = "" if s.trunc is None else s.trunc
    for e, coeff in s.items_sorted():
        for d, c in coeff.items():
            f = c if type(c) is int else Fraction(c)
            writer.writerow([s.scale, trunc, e, d, f.numerator, f.denominator])
    return out.getvalue()


# ---------------------------------------------------------------------------
# human-readable rendering
# ---------------------------------------------------------------------------


def _coeff_text(c: Scalar) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _x_monomial(d: int, c: Scalar) -> str:
    if d == 0:
        return _coeff_text(c)
    xpart = "x" if d == 1 else f"x^{d}"
    if c == 1:
        return xpart
    if c == -1:
        return f"-{xpart}"
    ct = _coeff_text(c)
    if "/" in ct:
        ct = f"({ct})"
    return f"{ct}{xpart}"


def _x_poly_text(p: XLaurent) -> str:
    bits = []
    for d, c in sorted(p.coeffs.items(), reverse=True):
        mono = _x_monomial(d, c)
        if not bits:
            bits.append(mono)
        elif mono.startswith("-"):
            bits.append(f"- {mono[1:]}")
        else:
            bits.append(f"+ {mono}")
    return " ".join(bits)


def _q_power_text(e: int, scale: int) -> str:
    f = Fraction(e, scale)
    if f == 0:
        return ""
    if f == 1:
        return "q"
    if f.denominator == 1:
        return f"q^{f.numerator}"
    return f"q^({f.numerator}/{f.denominator})"


def pretty(s: QSeries) -> str:
    """Ascending one-line rendering: '1 + q + (x+2+x^-1)q^2 + ...'."""
    if not s.terms:
        return "0"
    bits = []
    for e, coeff in s.items_sorted():
        qpart = _q_power_text(e, s.scale)
        items = coeff.items()
        if len(items) == 1:
            d, c = items[0]
            if not qpart:
                piece = _x_monomial(d, c)
            elif d == 0 and c == 1:
                piece = qpart
            elif d == 0 and c == -1:
                piece = f"-{qpart}"
            elif d == 0:
                ct = _coeff_text(c)
                piece = f"({ct}){qpart}" if "/" in ct else f"{ct}{qpart}"
            else:
                piece = f"{_x_monomial(d, c)}{qpart}" if c in (1, -1) else f"({_x_poly_text(coeff)}){qpart}"
        else:
            inner = _x_poly_text(coeff).replace(" + ", "+").replace(" - ", "-")
            piece = f"({inner}){qpart}" if qpart else f"({inner})"
        if not bits:
            bits.append(piece)
        elif piece.startswith("-"):
            bits.append(f"- {piece[1:]}")
        else:
            bits.append(f"+ {piece}")
    return " ".join(bits)


def pretty_xlaurent(p: XLaurent) -> str:
    """Polynomial in q, ascending: 'q + q^3 - q^4'."""
    return pretty(xlaurent_to_qseries(p))


def pretty_cyclo(z: CycloNum) -> str:
    return z.value_str()
