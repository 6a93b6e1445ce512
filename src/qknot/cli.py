"""Command-line surface: compute series and run verification suites.

``qknot series <object>`` emits a series, polynomial or field value.
``qknot check <family>`` runs one check of every family in
``verify.CHECK_FAMILIES`` whose required parameters all map onto the
``--t --m --N --n --trunc`` flags; ``check bailey`` verifies the five named
Bailey pairs and ``check suite`` runs a whole profile; ``--profile`` and
``--parallelism`` belong to ``check suite`` alone.

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
from .cyclotomic_coeffs import _validate, c_product, c_products
from .hecke import hecke_u1_double, hecke_u_series_x
from .jones import habiro_reconstruct, jones_hyper, jones_left, jones_morton
from .modular import theta_phi
from .serialize import (
    cyclo_to_json_dict,
    pretty,
    pretty_cyclo,
    qseries_to_csv,
    qseries_to_json_text,
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


# Parsed names every command reads; each other flag is read only where named.
_UNIVERSAL = ("command", "object", "what", "handler", "format", "output")


def _reads(args, *names: str) -> None:
    """Refuse a flag the chosen command would not read, rather than ignore it."""
    for name, value in vars(args).items():
        if name not in _UNIVERSAL + names and value is not None and value is not False:
            command = f"{args.command} {getattr(args, 'object', None) or args.what}"
            raise UsageError(f"{command} does not read --{name.replace('_', '-')}")


def _validate_tm(args) -> None:
    """--t >= 1 for every object (the library takes the unknot T(2, 1)); --m by the library's rule."""
    if args.t is None or args.t < 1:
        raise UsageError("--t must be a positive integer")
    if args.m is not None:
        _validate(args.t, args.m)


def _emit_series(series: QSeries, args) -> None:
    if args.format == "pretty":
        text = pretty(series) + "\n"
    elif args.format == "csv":
        text = qseries_to_csv(series)
    else:
        text = qseries_to_json_text(series)
    _write(text, args.output)


def _write(text: str, path: str | None, mode: str = "w") -> None:
    if path:
        try:
            with open(path, mode) as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _probe_output(path: str | None) -> None:
    """Refuse an unwritable --output before any work; leave no new file behind."""
    if path:
        fresh = not os.path.exists(path)
        _write("", path, "a")
        if fresh:
            os.remove(path)


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
        _reads(args, "t", "m", "x", "N" if args.x == "minus-qN" else "trunc")
        _validate_tm(args)
        if args.x == "minus-qN":
            # x -> -q^N terminates the expansion; evaluate the finite sum
            _need(args, "m", "N")
            poly = habiro_reconstruct(c_products(args.t, args.m, args.N - 1), args.N)
            _emit_series(xlaurent_to_qseries(poly), args)
            return 0
        _need(args, "m", "trunc")
        series = _specialize(u_series(args.t, args.m, args.trunc), args)
        _emit_series(series, args)
    elif kind == "F-root":
        _reads(args, "t", "m", "N", "inverse")
        if args.format == "csv":
            raise UsageError("series F-root has no csv form: use --format json or pretty")
        _validate_tm(args)
        _need(args, "m", "N")
        value = eval_f_at_root(args.t, args.m, args.N, inverse=args.inverse)
        if args.format == "pretty":
            _write(pretty_cyclo(value) + "\n", args.output)
        else:
            _write(to_json_text(cyclo_to_json_dict(value)), args.output)
    elif kind == "C":
        _reads(args, "t", "m", "n")
        _validate_tm(args)
        _need(args, "m", "n")
        if args.n < 0:
            raise UsageError(f"--n must be at least 0, got {args.n}")
        poly = c_product(args.t, args.m, args.n)
        _emit_series(xlaurent_to_qseries(poly), args)
    elif kind == "jones":
        _reads(args, "t", "N", "hand", *(["m"] if args.hand == "left" else []))
        _validate_tm(args)
        _need(args, "N")
        if args.hand == "left":
            poly = jones_left(args.t, args.m or 1, args.N)
        elif args.hand == "morton":
            poly = jones_morton(2, 2 * args.t + 1, args.N)
        else:
            poly = jones_hyper(args.t, args.N)
        _emit_series(xlaurent_to_qseries(poly), args)
    elif kind == "theta":
        _reads(args, "t", "m", "trunc", "product_side")
        _validate_tm(args)
        _need(args, "m", "trunc")
        series = theta_phi(args.t, args.m, args.trunc, product_side=args.product_side)
        _emit_series(series, args)
    elif kind == "hecke":
        if args.double:
            _reads(args, "double", "trunc", "x")
            _need(args, "trunc")
            series = hecke_u1_double(args.trunc)
        else:
            _reads(args, "t", "m", "trunc", "x")
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
    _reads(args, *(p.flag for p in flagged))
    _need(args, *(p.flag for p in flagged))
    check = getattr(verify, family.build.__name__)
    return [check(**{p.arg: getattr(args, p.flag) for p in flagged})]


def _run_bailey_pairs(args) -> list:
    _reads(args, "t", "n", "trunc")
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
    _reads(args, "profile", "parallelism")
    name = os.environ.get("QKNOT_PROFILE", "desk") if args.profile is None else args.profile
    profile = verify.PROFILES.get(name)
    if profile is None:
        raise UsageError(f"unknown profile {name!r}")
    asked = 1 if args.parallelism is None else args.parallelism
    if asked < 1:
        raise UsageError("--parallelism must be at least 1")
    workers = min(asked, os.cpu_count() or 1)
    if workers < asked:
        print(f"--parallelism {asked} capped at {workers} CPUs", file=sys.stderr)
    started = time.monotonic()
    reports = verify.run_suite(name, workers)
    elapsed = time.monotonic() - started
    print(
        f"suite '{profile.name}' finished in {elapsed:.1f}s "
        f"(budget {profile.time_budget_s:.0f}s)",
        file=sys.stderr,
    )
    return reports


def _cmd_check(args) -> int:
    if args.what == "suite":
        reports = _run_suite(args)
    elif args.what == "bailey":
        reports = _run_bailey_pairs(args)
    else:
        reports = _run_family(args.what, args)
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
                                "minus-qN (U only, needs --N), or a rational "
                                "(a negative one as --x=-1/2)")
    sp.add_argument("--hand", choices=["left", "right", "morton"],
                    help="which torus-knot invariant for 'jones' (default right)")
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
    cp.add_argument("--profile",
                    help="suite profile (desk or quick); default from QKNOT_PROFILE, else desk")
    cp.add_argument("--parallelism", type=int,
                    help="worker processes for the suite (default 1)")
    cp.set_defaults(handler=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _probe_output(args.output)
        return args.handler(args)
    except UsageError as exc:
        print(f"qknot: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"qknot: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
