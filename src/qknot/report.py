"""Structured pass/fail reports for identity checks.

A failing report always carries a witness locating the first discrepancy
(exponent and the two coefficient values), so a red check is immediately
actionable and a mutation probe can confirm the witness points at the
injected defect.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .cyclo import CycloNum
from .laurent import XLaurent
from .series import QSeries, first_difference

__all__ = [
    "CheckReport",
    "diff_cyclo",
    "diff_qseries",
    "diff_xlaurent",
]


@dataclass
class CheckReport:
    check_id: str
    params: dict[str, Any] = field(default_factory=dict)
    status: str = "pass"
    witness: dict[str, Any] | None = None
    elapsed_ms: float = 0.0
    value: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "check_id": self.check_id,
            "params": self.params,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        out["elapsed_ms"] = round(self.elapsed_ms, 3)
        if self.value is not None:
            out["value"] = self.value
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))


def _timed_report(
    check_id: str, params: dict[str, Any], body: Callable[[], tuple[dict | None, str | None]]
) -> CheckReport:
    """Time ``body``, which returns the witness of the first discrepancy (or
    None) and the value a passing report carries (or None).  Every report in
    the package is built here.  The name is private so that a profiler which
    spans public functions (perfbench/tracer.py) charges a check's work to
    the check, not to this wrapper."""
    started = time.perf_counter()
    witness, value = body()
    return CheckReport(
        check_id,
        params,
        "pass" if witness is None else "fail",
        witness,
        (time.perf_counter() - started) * 1e3,
        value if witness is None else None,
    )


def _witness(label: str, **fields: Any) -> dict[str, Any]:
    """A discrepancy, tagged with where it was found when there is a label."""
    return {**fields, "where": label} if label else fields


def diff_xlaurent(lhs: XLaurent, rhs: XLaurent, label: str = "") -> dict | None:
    """First differing exponent between two Laurent polynomials, or None."""
    if lhs.coeffs == rhs.coeffs:
        return None
    for e in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        a, b = lhs.coeff(e), rhs.coeff(e)
        if a != b:
            return _witness(label, q_exp=e, actual=str(a), expected=str(b))
    return None


def diff_cyclo(lhs: CycloNum, rhs: CycloNum, label: str = "") -> dict | None:
    """First differing basis coefficient between two field elements, or None."""
    if lhs.order != rhs.order:
        return {"where": label or "order", "actual": lhs.order, "expected": rhs.order}
    for i, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return _witness(label, basis_exp=i, actual=str(a), expected=str(b))
    return None


def diff_qseries(
    lhs: QSeries, rhs: QSeries, through: "Fraction | int | None" = None, label: str = ""
) -> dict | None:
    """First differing (q_exp, x_exp) between two series, or None."""
    d = first_difference(lhs, rhs, through)
    if d is None:
        return None
    q_exp, x_exp, a, b = d
    return _witness(label, q_exp=str(q_exp), x_exp=x_exp, actual=str(a), expected=str(b))
