"""Command-line surface: compute series and run verification suites.

``qknot series <object>`` emits a series, polynomial or field value.
``qknot check <family>`` runs one check of every family in
``verify.CHECK_FAMILIES`` whose required parameters all map onto the
``--t --m --N --n --trunc`` flags (``hecke --double`` is an alias for
``hecke-double``); ``check bailey`` verifies the five named Bailey pairs and
``check suite`` runs a whole profile.

Exit codes: 0 all requested checks pass (or series emitted), 1 a check
failed, 2 usage or validation error.  Data goes to stdout, logs to stderr.
The default check profile can be set with the QKNOT_PROFILE variable.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import verify
from .cyclotomic_coeffs import c_product
from .hecke import hecke_u1_double, hecke_u_series_x
from .jones import jones_hyper, jones_left, jones_morton
from .modular import theta_phi
from .serialize import (
    cyclo_to_json_dict,
    pretty,
    pretty_cyclo,
    qseries_to_csv,
    qseries_to_json_dict,
    to_json_text,
    xlaurent_to_qseries,
)
from .series import QSeries
from .useries import eval_f_at_root, u_series

__all__ = ["main"]


class UsageError(Exception):
    pass


def _need(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required here")


def _validate_tm(args) -> None:
    if args.t is None or args.t < 1:
        raise UsageError("--t must be a positive integer")
    if args.m is not None and not 1 <= args.m <= args.t:
        raise UsageError("need 1 <= m <= t")


def _emit_series(series: QSeries, args) -> None:
    if args.format == "pretty":
        text = pretty(series) + "\n"
    elif args.format == "csv":
        text = qseries_to_csv(series)
    else:
        text = to_json_text(qseries_to_json_dict(series))
    _write(text, args.output)


def _write(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _specialize(series: QSeries, args) -> QSeries:
    mode = args.x
    if mode in (None, "symbolic"):
        return series
    if mode == "minus-one":
        return series.substitute_x(-1)
    try:
        value = Fraction(mode)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot read x specialization {mode!r}") from exc
    if value == 0:
        raise UsageError("x = 0 is outside the Laurent domain")
    return series.substitute_x(value)


def _cmd_series(args) -> int:
    kind = args.object
    if kind == "U":
        _validate_tm(args)
        if args.x == "minus-qN":
            # x -> -q^N terminates the expansion; evaluate the finite sum
            _need(args, "m", "N")
            from .cyclotomic_coeffs import CyclotomicCoeffs
            from .jones import habiro_reconstruct

            poly = habiro_reconstruct(CyclotomicCoeffs(args.t, args.m), args.N)
            _emit_series(xlaurent_to_qseries(poly), args)
            return 0
        _need(args, "m", "trunc")
        series = _specialize(u_series(args.t, args.m, args.trunc), args)
        _emit_series(series, args)
    elif kind == "F-root":
        _validate_tm(args)
        _need(args, "m", "N")
        value = eval_f_at_root(args.t, args.m, args.N, inverse=args.inverse)
        if args.format == "pretty":
            _write(pretty_cyclo(value) + "\n", args.output)
        else:
            _write(to_json_text(cyclo_to_json_dict(value)), args.output)
    elif kind == "C":
        _validate_tm(args)
        _need(args, "m", "n")
        poly = c_product(args.t, args.m, args.n)
        _emit_series(xlaurent_to_qseries(poly), args)
    elif kind == "jones":
        _validate_tm(args)
        _need(args, "N")
        if args.hand == "left":
            poly = jones_left(args.t, args.m or 1, args.N)
        elif args.hand == "right":
            poly = jones_hyper(args.t, args.N)
        else:
            poly = jones_morton(2, 2 * args.t + 1, args.N)
        _emit_series(xlaurent_to_qseries(poly), args)
    elif kind == "theta":
        _validate_tm(args)
        _need(args, "m", "trunc")
        series = theta_phi(args.t, args.m, args.trunc, product_side=args.product_side)
        _emit_series(series, args)
    elif kind == "hecke":
        if args.double:
            _need(args, "trunc")
            series = hecke_u1_double(args.trunc)
        else:
            _validate_tm(args)
            _need(args, "m", "trunc")
            series = hecke_u_series_x(args.t, args.m, args.trunc)
        _emit_series(_specialize(series, args), args)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown series object {kind!r}")
    return 0


# Check families reachable from `qknot check`: every argument without a
# default comes from one of the common flags.
_CHECKS = [family.id for family in verify.CHECK_FAMILIES.values() if family.cli_ready]


def _run_family(family_id: str, args) -> list:
    family = verify.CHECK_FAMILIES[family_id]
    flagged = [p for p in family.params if p.flag]
    _need(args, *(p.flag for p in flagged))
    check = getattr(verify, family.build.__name__)
    return [check(**{p.arg: getattr(args, p.flag) for p in flagged})]


def _run_bailey_pairs(args) -> list:
    t = 1 if args.t is None else args.t
    nb = 8 if args.n is None else args.n
    wb = 40 if args.trunc is None else args.trunc
    if t < 1:  # a pair parameter: the check family does not bound it
        raise UsageError("--t must be a positive integer")
    return [
        verify.check_bailey_named(name, nb, wb, **kwargs)
        for name, kwargs in (
            ("unit", {}),
            ("andrews", {}),
            ("jones", {"t": t}),
            ("lovejoy", {"t": t}),
            ("star", {"t": t}),
        )
    ]


def _run_suite(args) -> list:
    profile = verify.PROFILES.get(args.profile)
    if profile is None:
        raise UsageError(f"unknown profile {args.profile!r}")
    workers = min(args.parallelism, os.cpu_count() or 1)
    if workers < args.parallelism:
        print(f"--parallelism {args.parallelism} capped at {workers} CPUs", file=sys.stderr)
    started = time.monotonic()
    reports = verify.run_suite(args.profile, workers)
    elapsed = time.monotonic() - started
    print(
        f"suite '{profile.name}' finished in {elapsed:.1f}s "
        f"(budget {profile.time_budget_s:.0f}s)",
        file=sys.stderr,
    )
    return reports


def _cmd_check(args) -> int:
    if args.parallelism < 1:
        raise UsageError("--parallelism must be at least 1")
    if args.what == "suite":
        reports = _run_suite(args)
    elif args.what == "bailey":
        reports = _run_bailey_pairs(args)
    else:
        double = args.what == "hecke" and args.double
        reports = _run_family("hecke-double" if double else args.what, args)
    _write("".join(report.to_json_line() + "\n" for report in reports), args.output)
    failed = sum(not r.passed for r in reports)
    print(f"{len(reports) - failed}/{len(reports)} checks passed", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qknot",
        description="Exact q-series and torus-knot invariant calculator/verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--t", type=int, help="torus-knot family index (T(2,2t+1))")
        p.add_argument("--m", type=int, help="vector component, 1 <= m <= t")
        p.add_argument("--N", type=int, help="color / root-of-unity order")
        p.add_argument("--n", type=int, help="coefficient index")
        p.add_argument("--trunc", type=int, help="truncation window")
        p.add_argument("--output", help="write to a file instead of stdout")

    sp = sub.add_parser("series", help="compute a series, polynomial or field value")
    sp.add_argument("object", choices=["U", "F-root", "C", "jones", "theta", "hecke"])
    common(sp)
    sp.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    sp.add_argument("--x", help="x specialization: symbolic (default), minus-one, "
                                "minus-qN (U only, needs --N), or a rational")
    sp.add_argument("--hand", choices=["left", "right", "morton"], default="right",
                    help="which torus-knot invariant for 'jones'")
    sp.add_argument("--inverse", action="store_true", help="evaluate F at the inverse root")
    sp.add_argument("--product-side", action="store_true",
                    help="theta: emit the triple-product side")
    sp.add_argument("--double", action="store_true",
                    help="hecke: the two-index expansion of (1-x)U_1(-x;q)")
    sp.set_defaults(handler=_cmd_series)

    cp = sub.add_parser("check", help="run identity checks; JSON-line reports on stdout")
    cp.add_argument("what", choices=[*_CHECKS, "bailey", "suite"],
                    help="a check family, the named Bailey pairs, or a suite profile")
    common(cp)
    cp.add_argument("--double", action="store_true",
                    help="hecke: check the two-index expansion instead")
    cp.add_argument("--profile", default=os.environ.get("QKNOT_PROFILE", "desk"),
                    help="suite profile (desk or quick); default from QKNOT_PROFILE")
    cp.add_argument("--parallelism", type=int, default=1,
                    help="worker processes for the suite")
    cp.set_defaults(handler=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"qknot: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"qknot: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
