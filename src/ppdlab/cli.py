"""Command-line front end: verdicts, sweeps, cone atlases, Gaussian probes.

One table defines the command line: GLOBAL_OPTIONS, and COMMANDS with each
command's handler, positionals, options and required options.  parse_args
reads argv against the lookup tables build_parser makes from it, in one pass
and with argparse's grammar (the global options before the command name or,
as each command lists them, after it; --opt=value; unique prefixes of long
options; "--"; negative numbers as values), and no argparse import.  -h
prints the help and exits 0; a usage error prints a usage line and
"ppdlab...: error: ..." to stderr and raises SystemExit(2).

Exit codes: 0 = requested property holds / report written, 1 = property
fails, 2 = bad input (parse errors, malformed matrices, bound violations,
an unwritable --out or --csv path).  Reports are plain JSON with sorted keys
so identical configs produce byte-identical output; serialize.report_text
writes json.dumps(payload, indent=2, sort_keys=True) in one pass.
"""

from __future__ import annotations

import json
import os
import re
import sys
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
    # a second "--" on a positional parses to [], as argparse parsed it
    if not isinstance(path, str):
        raise ValueError(f"cannot read {path}: not a file path")
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
    if args.seed is None:
        raise ValueError("--seed is mandatory for sampled sweeps")
    return args.seed


def _order_or(args, default: int) -> int:
    requested = default if args.max_order is None else args.max_order
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
        payload["field_report"] = field_of_definition_check(cone)
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


# -- the command line -----------------------------------------------------------
#
# One table defines it.  An option is (dest, convert, default, help): convert
# is int, float or str, the tuple of the strings it accepts, or None for a
# flag that stores True.

GLOBAL_OPTIONS = {
    "--mode": ("mode", ("exact", "float"), "exact",
               "arithmetic mode for parsing function files"),
    "--tol": ("tol", float, 1e-9,
              "pass/fail tolerance on the gaps of gaussian --check selfdual "
              "and corestriction"),
    "--out": ("out", str, None, "write the JSON report here"),
    "--seed": ("seed", int, None,
               "seed for sampled sweeps (mandatory where sampling occurs)"),
    "--max-order": ("max_order", int, None,
                    "group-order bound; also capped by PPDLAB_MAX_ORDER"),
}


class Command(NamedTuple):
    handler: Callable
    help: str
    positionals: tuple
    options: dict
    required: tuple = ()  # options that must be given
    exclusive: tuple = ()  # flags that exclude each other
    late: tuple = ()  # global options besides --mode, --tol, --out taken after the name


_SAMPLES = {"--samples": ("samples", int, 20, "samples per sweep")}
_GENERATORS = {"--generators": ("generators", str, None,
                                'subgroup generators as JSON, e.g. "[[2]]"')}

COMMANDS = {
    "check": Command(
        cmd_check, "PPD/goodness verdict for a function file", ("function",),
        {"--ppd": ("ppd", None, True, "exit 0 iff the function is PPD (the default)"),
         "--good": ("good", None, False, "exit 0 iff the function is good")},
        exclusive=("--ppd", "--good")),
    "sweep": Command(cmd_sweep, "seeded bundle of consistency sweeps", (), _SAMPLES,
                     late=("--max-order", "--seed")),
    "verify-4-1": Command(cmd_verify_4_1, "corestriction two-route consistency sweep",
                          (), _SAMPLES, late=("--max-order", "--seed")),
    "cone": Command(
        cmd_cone, "H-representation and extremal rays", ("group",),
        {"--rays": ("rays", None, False,
                    "extremal rays, self-duality and field certificates"),
         "--csv": ("csv", str, None, "write the rays as CSV here (needs --rays)")},
        late=("--max-order",)),
    "cone-atlas": Command(
        cmd_cone_atlas, "cone data for every group up to an order", (),
        {"--no-rays": ("no_rays", None, False, "inequalities only")},
        late=("--max-order",)),
    "restrict": Command(cmd_restrict, "pull a good function back to a subgroup",
                        ("function",), _GENERATORS, required=("--generators",)),
    "corestrict": Command(cmd_restrict, "corestrict a good function to a quotient",
                          ("function",), _GENERATORS, required=("--generators",)),
    "product": Command(
        cmd_product, "pointwise or external product", ("left", "right"),
        {"--external": ("external", None, False, "external product on the direct sum")}),
    "convolve": Command(cmd_convolve, "convolution of two measures", ("left", "right"), {}),
    "gaussian": Command(
        cmd_gaussian, "numeric Gaussian probes on R^n", (),
        {"--form": ("form", str, "1", 'symmetric matrix, rows ";"-separated: "2,1;1,2"'),
         "--check": ("check", ("selfdual", "corestriction", "counterexample", "goodness"),
                     None, "the probe to run"),
         "--k": ("k", int, 1, "coordinate split"),
         "--terms": ("terms", int, 10, "partial-sum length for the counterexample probe"),
         "--half-width": ("half_width", float, 8.0, "grid half-width"),
         "--points": ("points", int, 512, "grid points")},
        required=("--check",)),
}

_DESCRIPTION = ("Exact and numeric verification for positive positive-definite "
                "functions on finite abelian groups and Gaussian probes on R^n.")
_HELP = ("help", None, None, "show this help message and exit")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@lru_cache(maxsize=None)
def build_parser() -> dict:
    """The lookup tables of the command line, built once from the command
    table: for the global level (key None) and for each command, its option
    strings and the attribute values a parse starts from."""
    tables = {None: ({"-h": _HELP, "--help": _HELP, **GLOBAL_OPTIONS},
                     {opt[0]: opt[2] for opt in GLOBAL_OPTIONS.values()})}
    for name, cmd in COMMANDS.items():
        late = ("--mode", "--tol", "--out") + cmd.late
        options = {"-h": _HELP, "--help": _HELP, **cmd.options,
                   **{flag: GLOBAL_OPTIONS[flag] for flag in late}}
        start = dict.fromkeys(cmd.positionals)
        start.update((opt[0], opt[2]) for opt in cmd.options.values())
        start.update(command=name, func=cmd.handler)
        tables[name] = options, start
    return tables


def _spelled(flag: str, opt) -> str:
    """An option as usage and help show it: --rays, --k K, --mode {exact,float}."""
    dest, convert = opt[:2]
    if convert is None:
        return flag
    if type(convert) is tuple:
        return f"{flag} {{{','.join(convert)}}}"
    return f"{flag} {dest.upper()}"


def _usage(name) -> str:
    """The usage line of the global level (name None) or of one command."""
    if name is None:
        return "usage: ppdlab [options] {" + ",".join(COMMANDS) + "} ..."
    cmd = COMMANDS[name]
    required = [_spelled(flag, cmd.options[flag]) for flag in cmd.required]
    return " ".join(["usage: ppdlab", name, "[options]", *required, *cmd.positionals])


def _help(name) -> str:
    """The usage line, what the level does, its commands and every option."""
    cmd = COMMANDS.get(name)
    lines = [_usage(name), "", _DESCRIPTION if cmd is None else cmd.help, ""]
    if cmd is None:
        lines += ["commands:", *(_entry(n, c.help) for n, c in COMMANDS.items()), ""]
    lines.append("options:")
    for flag, opt in build_parser()[name][0].items():
        if flag != "--help":
            lines.append(_entry("-h, --help" if flag == "-h" else _spelled(flag, opt), opt[3]))
    return "\n".join(lines)


def _entry(text: str, help: str) -> str:
    return f"  {text:<22} {help}" if len(text) <= 22 else f"  {text}\n{'':25}{help}"


def _fail(name, message: str):
    """A usage error: the usage line and the message on stderr, exit 2."""
    prog = "ppdlab" if name is None else f"ppdlab {name}"
    sys.stderr.write(f"{_usage(name)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _read(token: str, options: dict, name):
    """How argparse reads a token against one level's option strings: None
    for a value, else (option string, its "=" value or None), the option
    string None for an unknown option.  An ambiguous prefix is an error."""
    if not token or token[0] != "-":
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    flag, eq, explicit = token.partition("=")
    if eq and flag in options:
        return flag, explicit
    if token[1] == "-":  # a prefix of a long option, split at "="
        hits = [(o, explicit if eq else None) for o in options if o.startswith(flag)]
    else:  # a short option with a tail run on: -hh
        hits = [(o, token[2:] if o == token[:2] else None) for o in options
                if o == token[:2] or o.startswith(token)]
    if len(hits) > 1:
        _fail(name, f"ambiguous option: {token} could match "
                    + ", ".join(o for o, _ in hits))
    if hits:
        return hits[0]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _convert(name, flag: str, convert, text: str):
    """An option's value from its text, converted and checked as argparse does."""
    if type(convert) is tuple:
        if text not in convert:
            _fail(name, f"argument {flag}: invalid choice: {text!r} "
                        f"(choose from {', '.join(map(repr, convert))})")
        return text
    try:
        return convert(text)
    except ValueError:
        _fail(name, f"argument {flag}: invalid {convert.__name__} value: {text!r}")


def parse_args(argv) -> SimpleNamespace:
    """Read argv against the command table in one pass, with argparse's
    grammar: the global options before the command name or, as each command
    lists them, after it, the last value winning; --opt=value; unique
    prefixes of long options; "--" ending the options; a negative number
    as a value.  -h prints the help and exits 0, a usage error exits 2."""
    tables = build_parser()
    top, values = tables[None]
    values = dict(values)
    name, cmd, options = None, None, top
    positionals, seen, extras = [], set(), []
    dash = last = -1  # index of the "--" and of the last positional value
    joined = False  # whether that "--" went with a positional value

    def read(token):
        if cmd is not None:  # argparse reads each token against the global table too
            _read(token, top, None)
        return _read(token, options, name)

    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if dash < 0:
            if token == "--" and cmd is not None:
                dash, joined = i - 1, last == i - 2
                continue
            hit = None if token == "--" else read(token)
            if hit is not None:
                flag, explicit = hit
                if flag is None:
                    extras.append(token)
                    continue
                dest, convert = options[flag][:2]
                # -hh is -h twice
                if dest == "help" and (explicit is None or flag == "-h" and explicit
                                       and not explicit.strip("h")):
                    print(_help(name))
                    raise SystemExit(0)
                if convert is None:
                    if explicit is not None:
                        _fail(name, f"argument {flag}: ignored explicit argument "
                                    f"{explicit!r}")
                    if flag in cmd.exclusive:
                        for other in seen.intersection(cmd.exclusive) - {flag}:
                            _fail(name, f"argument {flag}: not allowed with argument "
                                        f"{other}")
                    values[dest] = True
                else:
                    if explicit is None:
                        if i == len(argv) or argv[i] == "--" or read(argv[i]) is not None:
                            _fail(name, f"argument {flag}: expected one argument")
                        explicit = argv[i]
                        i += 1
                    values[dest] = _convert(name, flag, convert, explicit)
                seen.add(flag)
                continue
        if cmd is None:
            if token not in COMMANDS:
                _fail(None, f"argument command: invalid choice: {token!r} "
                            f"(choose from {', '.join(map(repr, COMMANDS))})")
            name, cmd = token, COMMANDS[token]
            options, start = tables[name]
            values.update(start)
            positionals = list(cmd.positionals)
        elif positionals:
            # argparse hands "--" to the positional value just before it, else
            # to the one just after, and drops one "--" from that positional's
            # strings: a later "--" read as a positional becomes []
            took = dash >= 0 and not joined and i - 1 == dash + 1
            values[positionals.pop(0)] = [] if token == "--" and not took else token
            joined = joined or took
            last = i - 1
        else:
            extras.append(token)
    if cmd is None:
        _fail(None, "the following arguments are required: command")
    if dash >= 0 and not joined:
        extras.append("--")  # a "--" that no positional took
    missing = positionals + [flag for flag in cmd.required if flag not in seen]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
