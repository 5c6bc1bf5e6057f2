"""Command-line front end: verdicts, sweeps, cone atlases, Gaussian probes.

Exit codes: 0 = requested property holds / report written, 1 = property
fails, 2 = bad input (parse errors, malformed matrices, bound violations,
an unwritable --out or --csv path).  Reports are plain JSON with sorted keys
so identical configs produce byte-identical output; serialize.report_text
writes json.dumps(payload, indent=2, sort_keys=True) in one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .cone import (
    HREP_ORDER_BOUND,
    extremal_rays,
    field_of_definition_check,
    ppd_cone_hrep,
    report_rows,
    self_duality_check,
)
from .constructions import (
    PreconditionError,
    corestrict,
    external_product,
    pointwise_product,
    restrict,
)
from .fourier import convolve
from .groups import parse_group, subgroup_from_generators
from .ppd import evaluate_function
from .serialize import (
    function_from_dict,
    function_to_dict,
    measure_from_dict,
    measure_to_dict,
    parse_generators,
    report_text,
)
from .sweeps import cone_atlas, corestriction_sweep, full_sweep

MAX_ORDER_ENV = "PPDLAB_MAX_ORDER"


def _non_negative(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be non-negative, got {value}")
    return value


def _effective_max_order(requested: int) -> int:
    cap = os.environ.get(MAX_ORDER_ENV)
    if cap is not None:
        try:
            return min(requested, _non_negative(int(cap), MAX_ORDER_ENV))
        except ValueError:
            raise ValueError(f"bad {MAX_ORDER_ENV} value {cap!r}")
    return requested


def _load_json(path: str) -> dict:
    # ValueError covers JSONDecodeError and UnicodeDecodeError
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")


def _emit(payload, out: str | None) -> None:
    text = report_text(payload)
    if not out:
        print(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}")


def _parse_form(text: str) -> QuadraticFormSPD:
    from .gaussian import QuadraticFormSPD

    try:
        rows = [
            [float(x) for x in row.split(",")] for row in text.strip().split(";")
        ]
        return QuadraticFormSPD(rows)
    except ValueError as exc:
        raise ValueError(f"bad quadratic form {text!r}: {exc}")


def cmd_check(args) -> int:
    f = function_from_dict(_load_json(args.function), mode=args.mode)
    verdict = evaluate_function(f)
    _emit(verdict.to_dict(), args.out)
    wanted = verdict.is_good if args.good else verdict.is_ppd
    return 0 if wanted else 1


def _required_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        raise ValueError("--seed is mandatory for sampled sweeps")
    return seed


def _order_or(args, default: int) -> int:
    requested = getattr(args, "max_order", None)
    if requested is None:
        requested = default
    return _effective_max_order(_non_negative(requested, "--max-order"))


def cmd_sweep(args) -> int:
    max_order = _order_or(args, 8)
    report = full_sweep(max_order=max_order,
                        samples=_non_negative(args.samples, "--samples"),
                        seed=_required_seed(args))
    _emit(report, args.out)
    bad = (
        report["corestriction"]["failures"]
        or report["products"]["failures"]
        or report["ppd_times_good"]["failures"]
        or report["involutions"]["failures"]
    )
    return 1 if bad else 0


def cmd_verify_4_1(args) -> int:
    max_order = _order_or(args, 8)
    report = corestriction_sweep(
        max_order=max_order, samples=_non_negative(args.samples, "--samples"),
        seed=_required_seed(args)
    )
    _emit(report, args.out)
    return 1 if report["failures"] else 0


def cmd_cone(args) -> int:
    G = parse_group(args.group)
    if G.order > _order_or(args, HREP_ORDER_BOUND):
        raise ValueError(f"group order {G.order} exceeds the configured bound")
    if args.csv and not args.rays:
        raise ValueError("--csv needs --rays")
    cone = ppd_cone_hrep(G)
    payload = {"group": args.group, "dimension": cone.basis.dim}
    if args.rays:
        cone = extremal_rays(cone)
        payload["self_duality"] = self_duality_check(cone).to_dict()
        payload["field_report"] = field_of_definition_check(cone).to_dict()
    payload.update(report_rows(cone))
    if args.csv:
        _write_ray_csv(args.csv, payload["rays"], cone.basis.dim)
    _emit(payload, args.out)
    return 0


def _write_ray_csv(path: str, rays, dim: int) -> None:
    import csv  # only cone --csv writes a CSV

    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["ray"] + [f"coord_{j}" for j in range(dim)] + ["tight_inequalities"]
            )
            for i, ray in enumerate(rays):
                writer.writerow(
                    [i] + ray["coords"] + [";".join(str(q) for q in ray["tight"])]
                )
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


def cmd_cone_atlas(args) -> int:
    max_order = _order_or(args, 8)
    report = cone_atlas(max_order=max_order, with_rays=not args.no_rays)
    _emit(report, args.out)
    return 0


def _subgroup_from_args(G, text):
    try:
        gens = parse_generators(text, G)
        return subgroup_from_generators(G, gens)
    except ValueError as exc:
        raise ValueError(f"bad generators {text!r}: {exc}")


def cmd_restrict(args) -> int:
    """restrict or corestrict, as args.command names."""
    f = function_from_dict(_load_json(args.function), mode=args.mode)
    H = _subgroup_from_args(f.group, args.generators)
    op = restrict if args.command == "restrict" else corestrict
    try:
        out = op(f, H)
    except PreconditionError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _emit(function_to_dict(out), args.out)
    return 0


def cmd_product(args) -> int:
    u = function_from_dict(_load_json(args.left), mode=args.mode)
    v = function_from_dict(_load_json(args.right), mode=args.mode)
    product = external_product if args.external else pointwise_product
    try:
        w = product(u, v)
    except AssertionError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _emit(function_to_dict(w), args.out)
    return 0


def cmd_convolve(args) -> int:
    mu = measure_from_dict(_load_json(args.left), mode=args.mode)
    nu = measure_from_dict(_load_json(args.right), mode=args.mode)
    if mu.group != nu.group:
        raise ValueError("convolution needs measures on one group")
    _emit(measure_to_dict(convolve(mu, nu)), args.out)
    return 0


def cmd_gaussian(args) -> int:
    if not 0 <= args.tol < float("inf"):  # NaN fails both comparisons
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    # numpy loads with gaussian, on the first Gaussian command alone
    from .gaussian import (
        DerivedFormError,
        GridQuadrature,
        counterexample_probe,
        gaussian_corestriction_check,
        gaussian_goodness_probe,
        gaussian_selfdual_check,
    )

    q = GridQuadrature(args.half_width, args.points)
    if args.check == "selfdual":
        gap = gaussian_selfdual_check(q)
        _emit({"check": "selfdual", "max_gap": gap, "grid": q.meta()}, args.out)
        return 0 if gap < args.tol else 1
    if args.check == "counterexample":
        report = counterexample_probe(args.terms, q)
        _emit({"check": "counterexample", **report.to_dict()}, args.out)
        return 0
    form = _parse_form(args.form)
    if args.check == "corestriction":
        try:
            report = gaussian_corestriction_check(form, args.k, q)
        except DerivedFormError as exc:
            raise ValueError(f"bad quadratic form {args.form!r}: {exc}")
        _emit({"check": "corestriction", **report.to_dict()}, args.out)
        return 0 if report.max_gap_routes < args.tol else 1
    if args.check == "goodness":
        try:
            report = gaussian_goodness_probe(form)
        except DerivedFormError as exc:
            raise ValueError(f"bad quadratic form {args.form!r}: {exc}")
        except ArithmeticError as exc:  # lattice sum out of reach for this form
            raise ValueError(f"goodness probe failed for form {args.form!r}: {exc}")
        _emit({"check": "goodness", **report.to_dict()}, args.out)
        return 0 if report.all_checks_pass else 1
    raise ValueError(f"unknown gaussian check {args.check!r}")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ppdlab parser, built once: parse_args gives a fresh namespace per call."""
    p = argparse.ArgumentParser(
        prog="ppdlab",
        description=(
            "Exact and numeric verification for positive positive-definite "
            "functions on finite abelian groups and Gaussian probes on R^n."
        ),
    )
    p.add_argument("--mode", choices=["exact", "float"], default="exact",
                   help="arithmetic mode for parsing function files")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="pass/fail tolerance for numeric checks")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for sampled sweeps (mandatory where sampling occurs)")
    p.add_argument("--max-order", type=int, default=None,
                   help="group-order bound; also capped by PPDLAB_MAX_ORDER")
    sub = p.add_subparsers(dest="command", required=True)

    def local(parser, *names, **kwargs):
        # same option accepted after the subcommand without clobbering a
        # value that was given globally
        kwargs["default"] = argparse.SUPPRESS
        parser.add_argument(*names, **kwargs)

    c = sub.add_parser("check", help="PPD/goodness verdict for a function file")
    c.add_argument("function")
    flag = c.add_mutually_exclusive_group()
    flag.add_argument("--ppd", action="store_true", default=True)
    flag.add_argument("--good", action="store_true", default=False)
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("sweep", help="seeded bundle of consistency sweeps")
    local(s, "--max-order", type=int)
    s.add_argument("--samples", type=int, default=20)
    local(s, "--seed", type=int)
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify-4-1",
                       help="corestriction two-route consistency sweep")
    local(v, "--max-order", type=int)
    v.add_argument("--samples", type=int, default=20)
    local(v, "--seed", type=int)
    v.set_defaults(func=cmd_verify_4_1)

    k = sub.add_parser("cone", help="H-representation and extremal rays")
    k.add_argument("group")
    k.add_argument("--rays", action="store_true")
    k.add_argument("--csv", default=None)
    local(k, "--max-order", type=int)
    k.set_defaults(func=cmd_cone)

    a = sub.add_parser("cone-atlas", help="cone data for every group up to an order")
    local(a, "--max-order", type=int)
    a.add_argument("--no-rays", action="store_true")
    a.set_defaults(func=cmd_cone_atlas)

    r = sub.add_parser("restrict", help="pull a good function back to a subgroup")
    r.add_argument("function")
    r.add_argument("--generators", required=True,
                   help='subgroup generators as JSON, e.g. "[[2]]"')
    r.set_defaults(func=cmd_restrict)

    co = sub.add_parser("corestrict", help="corestrict a good function to a quotient")
    co.add_argument("function")
    co.add_argument("--generators", required=True)
    co.set_defaults(func=cmd_restrict)

    pr = sub.add_parser("product", help="pointwise or external product")
    pr.add_argument("left")
    pr.add_argument("right")
    pr.add_argument("--external", action="store_true")
    pr.set_defaults(func=cmd_product)

    cv = sub.add_parser("convolve", help="convolution of two measures")
    cv.add_argument("left")
    cv.add_argument("right")
    cv.set_defaults(func=cmd_convolve)

    g = sub.add_parser("gaussian", help="numeric Gaussian probes on R^n")
    g.add_argument("--form", default="1",
                   help='symmetric matrix, rows ";"-separated: "2,1;1,2"')
    g.add_argument("--check", required=True,
                   choices=["selfdual", "corestriction", "counterexample",
                            "goodness"])
    g.add_argument("--k", type=int, default=1, help="coordinate split")
    g.add_argument("--terms", type=int, default=10,
                   help="partial-sum length for the counterexample probe")
    g.add_argument("--half-width", type=float, default=8.0)
    g.add_argument("--points", type=int, default=512)
    g.set_defaults(func=cmd_gaussian)

    # the remaining global flags are also accepted after the subcommand name
    for cmd in (c, s, v, k, a, r, co, pr, cv, g):
        local(cmd, "--mode", choices=["exact", "float"])
        local(cmd, "--tol", type=float)
        local(cmd, "--out")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so that the flush
        # at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, KeyError) as exc:  # bad input; a missing key is a KeyError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
