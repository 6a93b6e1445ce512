"""Named identity checks, the acceptance suite, and the mutation harness.

Every check computes its two sides independently, compares them exactly,
and reports a witness at the first discrepancy.  The mutation harness
re-runs a check with one coefficient deliberately perturbed and demands
both a failure and a witness pointing at the injected spot: this guards
the whole suite against vacuous passes from mis-windowed truncation.

Each check family is one entry of ``CHECK_FAMILIES``: its parameters (report
key, CLI flag, lower bound), its evidence builder and its mutation
arguments.  The public ``check_*`` functions, the suite dispatch, the
negative controls and the ``qknot check`` subcommands are derived from it.
"""

from __future__ import annotations

import functools
import inspect
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import bailey
from .cyclo import CycloNum, cyclo_eval
from .cyclotomic_coeffs import c_multisum, c_product
from .hecke import hecke_u1_double, hecke_u_series_x
from .jones import habiro_inverse, habiro_reconstruct, jones_hyper, jones_left, jones_morton, mirror
from .laurent import XLaurent
from .modular import bernoulli_lhs, bernoulli_rhs, theta_phi
from .report import CheckReport, _timed_report, diff_cyclo, diff_qseries, diff_xlaurent
from .series import Mono, QSeries
from .useries import eval_f_at_root, u_eval_at_root, u_series

__all__ = [
    "CHECK_FAMILIES",
    "PROFILES",
    "CheckFamily",
    "Param",
    "Profile",
    "check_bailey_conjugate",
    "check_bailey_limit",
    "check_bailey_named",
    "check_bailey_pipeline",
    "check_bailey_step",
    "check_bernoulli_formula",
    "check_cyclotomic_coeffs",
    "check_duality",
    "check_golden_vectors",
    "check_habiro_roundtrip",
    "check_hecke_double",
    "check_hecke_match",
    "check_hecke_stability",
    "check_jones_consistency",
    "check_jones_f_agreement",
    "check_theta_product",
    "mutation_controls",
    "run_suite",
    "suite_tasks",
]

# Evidence item: (label, lhs, rhs) with both sides CycloNum, XLaurent or
# QSeries; a QSeries item adds the exponent it is compared through.
Evidence = tuple


def _compare(label: str, lhs: Any, rhs: Any, through: Any = None) -> dict | None:
    if isinstance(lhs, CycloNum):
        return diff_cyclo(lhs, rhs, label)
    if isinstance(lhs, XLaurent):
        return diff_xlaurent(lhs, rhs, label)
    return diff_qseries(lhs, rhs, through, label)


# ---------------------------------------------------------------------------
# the check-family table
# ---------------------------------------------------------------------------


class Param(NamedTuple):
    """A validated argument of a check family: ``low`` is its smallest
    admissible value, ``flag`` the ``qknot check`` option that supplies it,
    and ``key`` its name in the report (default: ``arg``)."""

    arg: str
    low: int
    flag: str | None = None
    key: str = ""


class CheckFamily(NamedTuple):
    """One check family.  ``build`` is the body of the public check function
    of the same name: it returns the two-route evidence, or, when
    ``reports``, the Bailey pair machinery's own report.  A passing evidence
    report carries the first left side's value when ``value``; ``mutation``
    holds the arguments of the family's negative control."""

    id: str
    params: tuple[Param, ...]
    build: Callable[..., Any]
    reports: bool = False
    value: bool = False
    mutation: tuple | None = None

    @property
    def cli_ready(self) -> bool:
        """Every argument without a default comes from a `qknot check` flag."""
        flagged = {p.arg for p in self.params if p.flag}
        return all(
            a.name in flagged or a.default is not a.empty or a.kind is a.VAR_KEYWORD
            for a in inspect.signature(self.build).parameters.values()
        )


CHECK_FAMILIES: dict[str, CheckFamily] = {}

_T = Param("t", 1, "t")
_M = Param("m", 1, "m")
_ROOT = Param("n_root", 1, "N", "N")
_ORDER = Param("order", 0, "trunc", "through")
_N_MAX = Param("n_max", 0, "n")
_TRUNC = Param("trunc", 1, "trunc")


def _family(family_id: str, *params: Param, reports=False, value=False, mutation=None):
    """Register ``build`` as a check family; return its public check function,
    which has ``build``'s signature and returns a ``CheckReport``."""

    def register(build: Callable[..., Any]) -> Callable[..., CheckReport]:
        family = CheckFamily(family_id, params, build, reports, value, mutation)
        CHECK_FAMILIES[family_id] = family
        signature = inspect.signature(build)

        @functools.wraps(build)
        def check(*args, **kwargs) -> CheckReport:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return _run(family, bound)

        check.__signature__ = signature.replace(return_annotation="CheckReport")
        return check

    return register


def _run(family: CheckFamily, bound: inspect.BoundArguments) -> CheckReport:
    """Validate the arguments once, then run the family's check."""
    arguments = bound.arguments
    for p in family.params:
        if (v := arguments[p.arg]) < p.low:
            via = f" (--{p.flag})" if p.flag else ""
            raise ValueError(f"{family.id}: {p.arg}{via} must be at least {p.low}, got {v}")
    if family.reports:
        return family.build(*bound.args, **bound.kwargs)
    params = {p.key or p.arg: arguments[p.arg] for p in family.params}
    return _timed_report(family.id, params, lambda: _compare_evidence(family, bound))


def _compare_evidence(family: CheckFamily, bound: inspect.BoundArguments) -> tuple:
    """The first witness over the family's evidence, and the report value."""
    items = family.build(*bound.args, **bound.kwargs)
    if not items:
        raise ValueError(f"{family.id}: these parameters leave nothing to compare")
    witness = next((w for w in (_compare(*item) for item in items) if w is not None), None)
    return witness, items[0][1].value_str() if family.value else None


# ---------------------------------------------------------------------------
# evidence families
# ---------------------------------------------------------------------------


@_family("duality", _T, _M, _ROOT, value=True, mutation=(2, 2, 5))
def check_duality(t: int, m: int, n_root: int) -> list[Evidence]:
    lhs = u_eval_at_root(t, m, n_root)
    rhs = eval_f_at_root(t, m, n_root, inverse=True)
    return [("U(-1; zeta_N) vs F(zeta_N^-1)", lhs, rhs)]


@_family("jones-agreement", _T, _M, _ROOT, value=True, mutation=(2, 1, 4))
def check_jones_f_agreement(t: int, m: int, n_root: int) -> list[Evidence]:
    items: list[Evidence] = [
        (
            "J^(t,m) at zeta_N vs F at zeta_N^-1",
            cyclo_eval(jones_left(t, m, n_root), n_root, 1),
            eval_f_at_root(t, m, n_root, inverse=True),
        )
    ]
    if m == 1:
        items.append(
            (
                "right-handed J at zeta_N vs F at zeta_N",
                cyclo_eval(jones_hyper(t, n_root), n_root, 1),
                eval_f_at_root(t, 1, n_root, inverse=False),
            )
        )
    return items


@_family("bernoulli", _T, _M, _ROOT, value=True, mutation=(1, 1, 2))
def check_bernoulli_formula(t: int, m: int, n_root: int) -> list[Evidence]:
    lhs, rhs = bernoulli_lhs(t, m, n_root), bernoulli_rhs(t, m, n_root)
    return [("prefactored F value vs Bernoulli character sum", lhs, rhs)]


@_family("hecke", _T, _M, _ORDER, mutation=(1, 1, 12))
def check_hecke_match(t: int, m: int, order: int) -> list[Evidence]:
    w = order + 1
    lhs, rhs = hecke_u_series_x(t, m, w), u_series(t, m, w)
    return [("indefinite-theta route vs nested-sum route", lhs, rhs, w)]


@_family("hecke-double", _ORDER, mutation=(12,))
def check_hecke_double(order: int) -> list[Evidence]:
    w = order + 1
    one_minus_x = QSeries({0: XLaurent({0: 1, 1: -1})})
    rhs = one_minus_x * u_series(1, 1, w).negate_x()
    return [("double sum vs (1-x) U_1(-x;q)", hecke_u1_double(w), rhs, w)]


@_family("hecke-stability", _T, _M, _ORDER, Param("pad", 0))
def check_hecke_stability(t: int, m: int, order: int, pad: int = 5) -> list[Evidence]:
    """Region enumeration is exhaustive: padding the caps changes nothing."""
    w = order + 1
    lhs, rhs = hecke_u_series_x(t, m, w), hecke_u_series_x(t, m, w, pad=pad)
    return [("enumeration radius stability", lhs, rhs, w)]


@_family("cyclotomic", _T, _M, _N_MAX, mutation=(2, 2, 5))
def check_cyclotomic_coeffs(t: int, m: int, n_max: int) -> list[Evidence]:
    return [
        (f"multisum vs product at n={n}", c_multisum(t, m, n), c_product(t, m, n))
        for n in range(n_max + 1)
    ]


@_family("habiro", _T, _M, Param("order", 0, "N", "max"), mutation=(2, 1, 4))
def check_habiro_roundtrip(t: int, m: int, order: int) -> list[Evidence]:
    items: list[Evidence] = []
    family = lambda l: jones_left(t, m, l)
    coeffs = lambda i: c_product(t, m, i)
    for n in range(order + 1):
        items.append((f"inverse transform at n={n}", habiro_inverse(family, n), c_product(t, m, n)))
    for n_color in range(1, order + 1):
        items.append(
            (f"reconstruction at N={n_color}", habiro_reconstruct(coeffs, n_color), jones_left(t, m, n_color))
        )
    return items


@_family("jones-consistency", _T, Param("n_color", 1, "N", "N"), mutation=(2, 4))
def check_jones_consistency(t: int, n_color: int) -> list[Evidence]:
    morton = jones_morton(2, 2 * t + 1, n_color)
    return [
        ("nested sum vs theta quotient", jones_hyper(t, n_color), morton),
        ("mirror of right vs left", mirror(morton), jones_left(t, 1, n_color)),
    ]


# Printed low-order expansions of the five U-series for t = 2, 3, frozen as
# golden vectors; window = one past the last displayed power.
GOLDEN_U: dict[tuple[int, int], tuple[int, dict[int, dict[int, int]]]] = {
    (2, 1): (5, {0: {0: 1}, 1: {0: 1}, 2: {1: 1, 0: 2, -1: 1}, 3: {1: 2, 0: 3, -1: 2}, 4: {1: 3, 0: 6, -1: 3}}),
    (2, 2): (4, {-1: {0: 1}, 0: {0: 2}, 1: {1: 1, 0: 2, -1: 1}, 2: {1: 2, 0: 4, -1: 2}, 3: {1: 4, 0: 6, -1: 4}}),
    (3, 1): (5, {0: {0: 1}, 1: {0: 1}, 2: {1: 1, 0: 2, -1: 1}, 3: {1: 2, 0: 4, -1: 2}, 4: {1: 4, 0: 7, -1: 4}}),
    (3, 2): (4, {-1: {0: 1}, 0: {0: 2}, 1: {1: 1, 0: 3, -1: 1}, 2: {1: 3, 0: 5, -1: 3}, 3: {1: 5, 0: 10, -1: 5}}),
    (3, 3): (3, {-2: {0: 1}, -1: {0: 2}, 0: {1: 1, 0: 3, -1: 1}, 1: {1: 2, 0: 5, -1: 2}, 2: {1: 5, 0: 8, -1: 5}}),
}


@_family("golden", _T, _M, mutation=(2, 1))
def check_golden_vectors(t: int, m: int) -> list[Evidence]:
    if (t, m) not in GOLDEN_U:
        raise ValueError(f"no golden vector for (t, m) = ({t}, {m}); have {sorted(GOLDEN_U)}")
    window, table = GOLDEN_U[(t, m)]
    expected = QSeries({e: XLaurent(xs) for e, xs in table.items()}, 1, window)
    return [("printed low-order expansion", u_series(t, m, window), expected, window)]


@_family("theta", _T, _M, Param("trunc_scaled", 1, "trunc"), mutation=(1, 1, 240))
def check_theta_product(t: int, m: int, trunc_scaled: int) -> list[Evidence]:
    lhs, rhs = theta_phi(t, m, trunc_scaled), theta_phi(t, m, trunc_scaled, product_side=True)
    return [("character sum vs triple product", lhs, rhs, Fraction(trunc_scaled, 8 * (2 * t + 1)))]


@_family("bailey-pipeline", _T, _N_MAX, _TRUNC)
def check_bailey_pipeline(t: int, n_max: int, trunc: int) -> list[Evidence]:
    """t-fold stepped seed minus staircase beta equals -q^{t-n} C_{n-1}."""
    lov = bailey.make_named_pair("lovejoy", t=t)
    cur = bailey.make_named_pair("star", t=t)
    for _ in range(t):
        cur = bailey.bailey_step(cur, None, None)
    items: list[Evidence] = []
    for n in range(n_max + 1):
        got = cur.beta(n, trunc) - lov.beta(n, trunc)
        if n == 0:
            want = QSeries.zero(1, trunc)
        else:
            want = QSeries.from_q_laurent(-c_multisum(t, 1, n - 1).shift(t - n), 1)
        items.append((f"beta''-beta at n={n}", got, want, trunc))
    return items


# ---------------------------------------------------------------------------
# Bailey pair families (their reports come from the pair machinery)
# ---------------------------------------------------------------------------

_STEPS = {"inf": (None, None), "x": (Mono(1, 1, 0), Mono(1, -1, 0))}
_LIMITS = {"inf-inf": (None, None), "x-invx": (Mono(1, 1, 0), Mono(1, -1, 0))}


@_family("bailey-verify", _N_MAX, _TRUNC, reports=True)
def check_bailey_named(name: str, n_max: int, trunc: int, **params) -> CheckReport:
    return bailey.bailey_verify(bailey.make_named_pair(name, **params), n_max, trunc)


@_family("bailey-step", _N_MAX, _TRUNC, reports=True)
def check_bailey_step(name: str, n_max: int, trunc: int, steps: str = "inf", **params) -> CheckReport:
    pair = bailey.make_named_pair(name, **params)
    if steps not in _STEPS:
        raise ValueError(f"unknown step recipe {steps!r}")
    return bailey.bailey_verify(bailey.bailey_step(pair, *_STEPS[steps]), n_max, trunc)


@_family("bailey-limit", _TRUNC, reports=True)
def check_bailey_limit(name: str, b_kind: str, trunc: int, **params) -> CheckReport:
    pair = bailey.make_named_pair(name, **params)
    if b_kind not in _LIMITS:
        raise ValueError(f"unknown limit kind {b_kind!r}; know {sorted(_LIMITS)}")
    return bailey.bailey_limit_identity(pair, *_LIMITS[b_kind], trunc)


@_family("bailey-conjugate", _TRUNC, reports=True)
def check_bailey_conjugate(name: str, trunc: int, **params) -> CheckReport:
    return bailey.conjugate_identity_check(bailey.make_named_pair(name, **params), trunc)


# ---------------------------------------------------------------------------
# mutation harness
# ---------------------------------------------------------------------------


def _perturb(value: Any, rng: random.Random) -> tuple[Any, dict]:
    """Add 1 to a single randomly chosen coefficient; return the locator."""
    if isinstance(value, CycloNum):
        idx = rng.randrange(len(value.coeffs))
        coeffs = list(value.coeffs)
        coeffs[idx] += 1
        return CycloNum(value.order, coeffs), {"basis_exp": idx}
    if isinstance(value, XLaurent):
        exps = sorted(value.coeffs) or [0]
        e = rng.choice(exps)
        return value + XLaurent.term(e), {"q_exp": e}
    if isinstance(value, QSeries):
        e = rng.choice(sorted(value.terms) or [0])
        coeff = value.terms.get(e, XLaurent())
        d = rng.choice(sorted(coeff.coeffs) or [0])
        terms = dict(value.terms)
        terms[e] = coeff + XLaurent.term(d)
        return QSeries(terms, value.scale, value.trunc), {
            "q_exp": str(Fraction(e, value.scale)),
            "x_exp": d,
        }
    raise TypeError(f"cannot perturb {type(value)!r}")


def _mutation_report(family: CheckFamily, args: tuple, rng: random.Random) -> CheckReport:
    """Perturb one coefficient of the first evidence item's left side; the
    control passes iff the comparison then fails at the injected spot."""
    params: dict[str, Any] = {"args": list(args)}

    def body() -> tuple[dict | None, None]:
        label, lhs, *rest = family.build(*args)[0]
        mutated, locator = _perturb(lhs, rng)
        params["injected"] = locator  # the report is built after the body
        witness = _compare(label, mutated, *rest)
        caught = witness is not None and all(
            str(witness.get(k)) == str(v) for k, v in locator.items()
        )
        return (None if caught else {"expected_witness": locator, "got": witness}), None

    return _timed_report(f"mutation:{family.id}", params, body)


def _corrupted_unit_beta() -> tuple[dict | None, None]:
    bad = bailey.perturbed_pair(bailey.make_named_pair("unit"), "beta", 3, Mono(1, 0, 1))
    rep = bailey.bailey_verify(bad, 8, 40)
    caught = not rep.passed and rep.witness.get("n") == 3
    return (None if caught else {"got": rep.witness}), None


def _corrupted_andrews_alpha() -> tuple[dict | None, None]:
    bad = bailey.perturbed_pair(bailey.make_named_pair("andrews"), "alpha", 2, Mono(1, 0, 2))
    rep = bailey.conjugate_identity_check(bad, 20)
    caught = not rep.passed
    return (None if caught else {"got": rep.witness}), None


def mutation_controls(seed: int = 0) -> list[CheckReport]:
    """Negative controls: every check family must fail under a single
    injected coefficient perturbation, with a witness at the injected spot."""
    rng = random.Random(seed)
    reports = [
        _mutation_report(family, family.mutation, rng)
        for family in CHECK_FAMILIES.values()
        if family.mutation is not None
    ]
    # Bailey negative controls run through the pair machinery itself.
    reports.append(
        _timed_report("mutation:bailey-verify", {"pair": "unit", "target": 3}, _corrupted_unit_beta)
    )
    reports.append(
        _timed_report(
            "mutation:bailey-conjugate", {"pair": "andrews", "target": 2}, _corrupted_andrews_alpha
        )
    )
    return reports


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    name: str
    t_max: int = 3
    t_max_coeffs: int = 4
    n_duality: int = 10
    n_agreement: int = 10
    n_jones: int = 8
    n_coeffs: int = 10
    habiro_max: int = 8
    hecke_order: int = 20
    double_order: int = 25
    bernoulli_t: int = 2
    bernoulli_n: int = 4
    bailey_n: int = 8
    bailey_window: int = 40
    pipeline_n: int = 6
    conjugate_order: int = 20
    theta_scaled: int = 600
    time_budget_s: float = 420.0


PROFILES: dict[str, Profile] = {
    "desk": Profile("desk"),
    "quick": Profile(
        "quick", t_max=2, t_max_coeffs=2, n_duality=5, n_agreement=5, n_jones=4,
        n_coeffs=4, habiro_max=4, hecke_order=10, double_order=12, bernoulli_t=1,
        bernoulli_n=2, bailey_n=4, bailey_window=25, pipeline_n=4,
        conjugate_order=12, theta_scaled=240, time_budget_s=120.0,
    ),
}


def _run_task(task: tuple[str, dict]) -> CheckReport:
    name, kwargs = task
    # Through the module global, so a profiler that rebinds it sees the call.
    return globals()[CHECK_FAMILIES[name].build.__name__](**kwargs)


def suite_tasks(profile: Profile) -> list[tuple[str, dict]]:
    """The full acceptance matrix for a profile, as (check, kwargs) pairs."""
    tasks: list[tuple[str, dict]] = []
    tm = [(t, m) for t in range(1, profile.t_max + 1) for m in range(1, t + 1)]
    for t, m in GOLDEN_U:
        if t <= profile.t_max:
            tasks.append(("golden", {"t": t, "m": m}))
    for t, m in tm:
        for n in range(1, profile.n_duality + 1):
            tasks.append(("duality", {"t": t, "m": m, "n_root": n}))
        for n in range(1, profile.n_agreement + 1):
            tasks.append(("jones-agreement", {"t": t, "m": m, "n_root": n}))
        tasks.append(("hecke", {"t": t, "m": m, "order": profile.hecke_order}))
        tasks.append(("habiro", {"t": t, "m": m, "order": profile.habiro_max}))
        tasks.append(("theta", {"t": t, "m": m, "trunc_scaled": profile.theta_scaled}))
    tasks.append(("hecke-double", {"order": profile.double_order}))
    tasks.append(("hecke-stability", {"t": 2, "m": 2, "order": min(profile.hecke_order, 15)}))
    for t in range(1, profile.t_max_coeffs + 1):
        for m in range(1, t + 1):
            tasks.append(("cyclotomic", {"t": t, "m": m, "n_max": profile.n_coeffs}))
        for n in range(1, profile.n_jones + 1):
            tasks.append(("jones-consistency", {"t": t, "n_color": n}))
    for t in range(1, profile.bernoulli_t + 1):
        for m in range(1, t + 1):
            for n in range(1, profile.bernoulli_n + 1):
                tasks.append(("bernoulli", {"t": t, "m": m, "n_root": n}))
    nb, wb = profile.bailey_n, profile.bailey_window
    tasks.append(("bailey-verify", {"name": "unit", "n_max": nb, "trunc": wb}))
    tasks.append(("bailey-verify", {"name": "andrews", "n_max": nb, "trunc": wb}))
    for t in range(1, profile.t_max + 1):
        tasks.append(("bailey-verify", {"name": "jones", "n_max": min(nb, 6), "trunc": wb, "t": t}))
        tasks.append(("bailey-verify", {"name": "lovejoy", "n_max": min(nb, 6), "trunc": wb, "t": t}))
        tasks.append(("bailey-verify", {"name": "star", "n_max": min(nb, 6), "trunc": wb, "t": t}))
        tasks.append(("bailey-pipeline", {"t": t, "n_max": profile.pipeline_n, "trunc": 30}))
    tasks.append(("bailey-step", {"name": "unit", "n_max": 6, "trunc": 35}))
    tasks.append(("bailey-step", {"name": "jones", "t": 1, "n_max": 5, "trunc": 30, "steps": "x"}))
    tasks.append(("bailey-limit", {"name": "unit", "b_kind": "inf-inf", "trunc": 25}))
    tasks.append(("bailey-limit", {"name": "jones", "t": 1, "b_kind": "x-invx", "trunc": 25}))
    tasks.append(("bailey-limit", {"name": "lovejoy", "t": 2, "b_kind": "inf-inf", "trunc": 25}))
    tasks.append(("bailey-conjugate", {"name": "unit", "a_exp": 1, "trunc": profile.conjugate_order}))
    tasks.append(("bailey-conjugate", {"name": "andrews", "trunc": profile.conjugate_order}))
    return tasks


def run_suite(profile: str = "desk", parallelism: int = 1, seed: int = 0) -> list[CheckReport]:
    """Run the whole verification matrix; reports sorted by check id/params."""
    prof = PROFILES.get(profile)
    if prof is None:
        raise ValueError(f"unknown profile {profile!r}; know {sorted(PROFILES)}")
    tasks = suite_tasks(prof)
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            reports = list(pool.map(_run_task, tasks))
    else:
        reports = [_run_task(task) for task in tasks]
    reports.extend(mutation_controls(seed))
    reports.sort(key=lambda r: (r.check_id, sorted(map(str, r.params.items()))))
    return reports
