import argparse
import contextlib
import csv
import functools
import io
import json
import os
import re
import subprocess
import sys
import traceback
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppdlab
from ppdlab import cli, sweeps
from ppdlab.cli import main
from ppdlab.constructions import pointwise_product
from ppdlab.fourier import GroupFunction, convolve
from ppdlab.groups import abelian_group_catalog, format_group
from ppdlab.serialize import function_from_dict, measure_from_dict
from ppdlab.sweeps import cone_membership_sweep, full_sweep, structure_sweep

from cli_cases import CASES, Sha256, check


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CONST_ONE = {"group": "Z4", "values": [[1, 0], [1, 0], [1, 0], [1, 0]]}
INDICATOR = {"group": "Z4", "values": [[1, 0], [0, 0], [1, 0], [0, 0]]}
GOOD = {"group": "Z4", "values": [["1", "0"], ["1/2", "0"], ["1/4", "0"], ["1/2", "0"]]}


def test_check_constant_is_ppd(tmp_path, capsys):
    path = write(tmp_path, "f.json", CONST_ONE)
    assert main(["check", path]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["is_ppd"] is True


def test_check_good_flag_failure_lists_witnesses(tmp_path, capsys):
    path = write(tmp_path, "f.json", INDICATOR)
    assert main(["check", "--good", path]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["is_ppd"] is True and verdict["is_good"] is False
    conds = {w["condition"] for w in verdict["witnesses"]}
    assert conds == {"3.1.4"}


# -- the pinned command lines of cli_cases.py, run in this process -----------

@pytest.fixture
def in_process(monkeypatch):
    """cli.main as the console script runs it: (exit code, stdout, stderr),
    an escaping exception's traceback and every warning printed to stderr."""
    def invoke(argv, max_order):
        monkeypatch.delenv("PPDLAB_MAX_ORDER", raising=False)
        if max_order is not None:
            monkeypatch.setenv("PPDLAB_MAX_ORDER", max_order)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
            for w in caught:
                err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
        return code, out.getvalue(), err.getvalue()
    return invoke


def _hold(cases, in_process):
    for name, case in cases.items():
        assert (name, check(case, in_process)) == (name, [])


@pytest.mark.parametrize("name", sorted(CASES["error paths"]))
def test_error_paths_pin_stderr_and_exit(name, in_process):
    assert check(CASES["error paths"][name], in_process) == []


MALFORMED = CASES["malformed inputs"]


@pytest.mark.parametrize("case", sorted({name.split(": ")[0] for name in MALFORMED}))
def test_malformed_input_exit_2(case, in_process):
    """Every command a malformed file goes through: exit 2 and the whole stderr."""
    _hold({name: c for name, c in MALFORMED.items() if name.startswith(f"{case}: ")},
          in_process)


@pytest.mark.parametrize("name", sorted(CASES["float outputs"]))
def test_float_mode_outputs_pin_stdout(name, in_process):
    assert check(CASES["float outputs"][name], in_process) == []


@pytest.mark.parametrize("name", sorted(CASES["reports"]))
def test_reports_pin_stdout(name, in_process):
    assert check(CASES["reports"][name], in_process) == []


def test_cone_golden_orders_1_to_12(in_process):
    _hold(CASES["cones 1-12"], in_process)


def test_cone_rays_golden_orders_13_to_16(in_process):
    _hold(CASES["cones 13-16"], in_process)


def test_cone_atlas_and_csv_golden(in_process):
    _hold(CASES["atlases and csv"], in_process)


def test_cone_cases_cover_the_catalog():
    """A pinned `cone G --rays` for every presentation through order 16, and a
    pinned `cone G` through order 12."""
    pinned = {case.argv for cases in CASES.values() for case in cases.values()
              if case.code == 0 and isinstance(case.out, Sha256)}
    for G in abelian_group_catalog(16):
        name = format_group(G)
        assert f"cone {name} --rays" in pinned, name
        assert G.order > 12 or f"cone {name}" in pinned, name


def test_no_pinned_case_is_lost():
    # the count CHANGES.md records for the table: 113 cases of the earlier
    # test tables, 23 checks that only CI ran, the two second "--" lines, 25
    # malformed-file runs that checked only an "error: " prefix, the two
    # derived-form corestrictions at the default --k, the two Z1024 checks and
    # the three float overflows
    assert sum(map(len, CASES.values())) >= 170


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("op", ["restrict", "corestrict"])
@pytest.mark.parametrize("v0, failed", [
    (0, ["3.1.4"]), (-1, ["2.1.1", "2.1.2", "3.1.4"]),
    (["0", "1"], ["2.1.1", "2.1.2", "3.1.4"])])
def test_unnormalizable_input_fails_the_precondition(mode, op, v0, failed, tmp_path,
                                                     capsys):
    """An f(0) that is not a positive real is a failed precondition (exit 1)."""
    path = write(tmp_path, "f.json", {"group": "Z2", "values": [v0, 0]})
    assert main(["--mode", mode, op, path, "--generators", "[[1]]"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"{op} needs a good input; failed conditions {failed}\n"


def test_cone_rays_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rays.csv"
    out_path = tmp_path / "cone.json"
    assert main(["--out", str(out_path), "cone", "Z4", "--rays",
                 "--csv", str(csv_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["dimension"] == 3
    assert len(payload["rays"]) == 4
    assert payload["self_duality"]["involution"] is True
    assert payload["field_report"]["all_integral"] is True
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "ray"
    assert len(rows) == 5


def test_cone_csv_needs_rays(tmp_path, capsys):
    csv_path = tmp_path / "x.csv"
    assert main(["cone", "Z4", "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err.startswith("error: --csv needs --rays")
    assert not csv_path.exists()


def test_float_mode_reads_rational_strings(tmp_path, capsys):
    path = write(tmp_path, "f.json", {"group": "Z2", "values": [["1/2", 0], ["1/4", 0]]})
    for mode in ("float", "exact"):
        assert main(["--mode", mode, "check", "--good", path]) == 0, mode
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["is_ppd"] is True and verdict["is_good"] is True, mode


def test_cone_atlas(tmp_path):
    out = tmp_path / "atlas.json"
    assert main(["--out", str(out), "cone-atlas", "--max-order", "4"]) == 0
    atlas = json.loads(out.read_text())
    names = [g["group"] for g in atlas["groups"]]
    assert names == ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"]
    z4 = atlas["groups"][3]
    assert z4["num_rays"] == 4


def test_restrict_corestrict_roundtrip(tmp_path):
    fpath = write(tmp_path, "f.json", GOOD)
    rpath = tmp_path / "r.json"
    assert main(["--out", str(rpath), "restrict", fpath,
                 "--generators", "[[2]]"]) == 0
    restricted = json.loads(rpath.read_text())
    assert restricted["group"] == "Z2"
    assert restricted["values"] == [["1", "0"], ["1/4", "0"]]
    cpath = tmp_path / "c.json"
    assert main(["--out", str(cpath), "corestrict", fpath,
                 "--generators", "[[2]]"]) == 0
    corestricted = json.loads(cpath.read_text())
    assert corestricted["values"] == [["1", "0"], ["4/5", "0"]]


def test_product_commands(tmp_path):
    u = write(tmp_path, "u.json", {"group": "Z2", "values": [[1, 0], ["1/2", 0]]})
    out = tmp_path / "w.json"
    assert main(["--out", str(out), "product", u, u, "--external"]) == 0
    w = json.loads(out.read_text())
    assert w["group"] == "Z2xZ2"
    assert w["values"] == [["1", "0"], ["1/2", "0"], ["1/2", "0"], ["1/4", "0"]]
    assert main(["--out", str(out), "product", u, u]) == 0
    w2 = json.loads(out.read_text())
    assert w2["values"] == [["1", "0"], ["1/4", "0"]]


def test_convolve_command(tmp_path):
    mu = write(
        tmp_path,
        "mu.json",
        {"group": "Z2", "values": [["3/4", 0], ["1/4", 0]], "haar_scale": "1"},
    )
    out = tmp_path / "conv.json"
    assert main(["--out", str(out), "convolve", mu, mu]) == 0
    conv = json.loads(out.read_text())
    assert conv["values"] == [["5/8", "0"], ["3/8", "0"]]


def test_exact_output_with_an_imaginary_part_parses_back(tmp_path, capsys):
    # a Gaussian rational a + bi prints as the rational strings of a and b,
    # so product and convolve outputs are exact inputs again
    u = {"group": "Z4", "values": [["1/3", "1/3"], 2, 1, 2]}
    v = {"group": "Z4", "values": [4, 1, 1, 1]}
    mu = {**u, "haar_scale": "1/4"}
    nu = {"group": "Z4", "values": [["1/2", "-2"], 1, 0, 1], "haar_scale": "2"}
    paths = {name: write(tmp_path, f"{name}.json", payload)
             for name, payload in (("u", u), ("v", v), ("mu", mu), ("nu", nu))}
    w = tmp_path / "w.json"
    assert main(["--out", str(w), "product", paths["u"], paths["v"]]) == 0
    assert json.loads(w.read_text())["values"][0] == ["4/3", "4/3"]
    assert main(["product", str(w), paths["v"]]) == 0
    got = function_from_dict(json.loads(capsys.readouterr().out))
    uv = pointwise_product(function_from_dict(u), function_from_dict(v))
    assert got.values == pointwise_product(uv, function_from_dict(v)).values
    c = tmp_path / "c.json"
    assert main(["--out", str(c), "convolve", paths["mu"], paths["nu"]]) == 0
    assert main(["convolve", str(c), paths["nu"]]) == 0
    got = measure_from_dict(json.loads(capsys.readouterr().out))
    want = convolve(convolve(measure_from_dict(mu), measure_from_dict(nu)),
                    measure_from_dict(nu))
    assert got.density.values == want.density.values
    assert got.haar.scale == want.haar.scale


def test_restrict_to_the_trivial_subgroup(tmp_path, capsys):
    path = write(tmp_path, "good.json", {"group": "Z4", "values": [4, 1, 1, 1]})
    assert main(["restrict", path, "--generators", "[[0]]"]) == 0
    assert json.loads(capsys.readouterr().out) == {"group": "Z1", "values": [["1", "0"]]}


def test_global_flag_positions(tmp_path):
    out = tmp_path / "v.json"
    # the documented global flags work before the subcommand name too
    assert main(["--seed", "5", "--max-order", "4", "--out", str(out),
                 "verify-4-1", "--samples", "2"]) == 0
    rep = json.loads(out.read_text())
    assert rep["max_gap"] == 0
    # and after it
    out2 = tmp_path / "v2.json"
    assert main(["verify-4-1", "--samples", "2", "--seed", "5",
                 "--max-order", "4", "--out", str(out2)]) == 0
    rep2 = json.loads(out2.read_text())
    assert rep2["cases"] == rep["cases"]


def test_sweep_and_verify_commands(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["--out", str(out), "sweep", "--max-order", "4",
                 "--samples", "5", "--seed", "3"]) == 0
    report = json.loads(out.read_text())
    assert report["corestriction"]["failures"] == []
    assert report["ppd_times_good"]["discrepancy_case"]["transform"] == [
        "5", "3", "5", "3"
    ]
    out2 = tmp_path / "verify.json"
    assert main(["--out", str(out2), "verify-4-1", "--max-order", "4",
                 "--samples", "3", "--seed", "1"]) == 0
    rep2 = json.loads(out2.read_text())
    assert rep2["max_gap"] == 0


def test_sweep_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["--out", str(a), "sweep", "--max-order", "4", "--samples", "4",
          "--seed", "9"])
    main(["--out", str(b), "sweep", "--max-order", "4", "--samples", "4",
          "--seed", "9"])
    assert a.read_bytes() == b.read_bytes()


def _child_env(**extra):
    """Environment for a `python -m ppdlab.cli` child that runs from "/".

    There a relative PYTHONPATH entry such as "src" resolves to nothing, so
    put the directory that holds the imported package ahead of whatever path
    the parent already had."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(ppdlab.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = pkg_root + (os.pathsep + inherited if inherited else "")
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def test_sweep_determinism_across_processes(tmp_path):
    """Byte-identical reports even under different hash randomization."""
    outs = []
    for i, hash_seed in enumerate(("1", "271828")):
        out = tmp_path / f"p{i}.json"
        env = _child_env(PYTHONHASHSEED=hash_seed)
        subprocess.run(
            [sys.executable, "-m", "ppdlab.cli", "--out", str(out), "sweep",
             "--max-order", "4", "--samples", "3", "--seed", "11"],
            check=True,
            env=env,
            cwd="/",
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_closed_stdout_exits_1_without_traceback():
    """`ppdlab cone Z12 --rays | head -1`: the reader is gone before the report
    is written, which fails quietly with exit 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ppdlab.cli", "cone", "Z12", "--rays"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_child_env(), cwd="/",
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_gaussian_commands(tmp_path, capsys):
    assert main(["gaussian", "--check", "selfdual"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_gap"] < 1e-8
    assert main(["gaussian", "--check", "corestriction",
                 "--form", "2,1;1,2", "--k", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schur_matrix"][0][0] == pytest.approx(1.5)
    assert payload["max_gap_routes"] < 1e-9
    assert main(["gaussian", "--check", "counterexample", "--terms", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["restricted_mass"] == pytest.approx(2.9289682539, abs=1e-6)
    assert main(["gaussian", "--check", "goodness", "--form", "1,0;0,1"]) == 0


def test_gaussian_non_spd_exit_2(tmp_path):
    assert main(["gaussian", "--check", "corestriction", "--form", "1,2;2,1"]) == 2
    assert main(["gaussian", "--check", "corestriction", "--form", "1,2;0,1"]) == 2


@pytest.mark.parametrize("half_width", ["1e308", "nan", "-1"])
def test_gaussian_bad_grid_exit_2(half_width, capsys):
    # a width that is not finite or whose span overflows is bad input, not a
    # NaN report ("gaussian infinite half-width" in cli_cases.py pins inf)
    assert main(["gaussian", "--check", "selfdual", "--half-width", half_width]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: half_width")


def test_gaussian_goodness_with_a_determinant_past_the_float_range(capsys):
    # det(A) = 1e320 overflows; the transform amplitude 1e-160 is still positive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gaussian", "--check", "goodness", "--form", "1e160,0;0,1e160"]) == 0
    assert json.loads(capsys.readouterr().out)["transform_strictly_positive"] is True


@pytest.mark.parametrize("form", ["1e200,0;0,1e200", "4e307,0;0,4e307", "4e307,0;0,1",
                                  "1e307,0;0,1e-307", "1e307,9e306;9e306,1e307"])
def test_gaussian_forms_with_entries_near_the_float_limit(form, capsys):
    # every pivot of A and of its inverse is a positive normal float, though
    # det(A^-1) may underflow: the forms are valid and goodness holds; the
    # corestriction's dual route does not decay on the grid; the lattice sum's
    # and the marginal kernel's overflow (to -inf, or NaN where the kernel's
    # terms overflow both ways) raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gaussian", "--check", "goodness", "--form", form]) == 0
        assert json.loads(capsys.readouterr().out)["transform_strictly_positive"] is True
        assert main(["gaussian", "--check", "corestriction", "--form", form, "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: insufficient decay at the grid boundary: ") and err.count("\n") == 1


def test_gaussian_corestriction_with_a_steep_dual_raises_no_warning(capsys):
    # b11 = 1 / 2.7e-307: the restricted dual's exponent passes the float range
    # off the origin, where the dual Gaussian is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gaussian", "--check", "corestriction", "--form", "2.7e-307,0;0,1e182",
                     "--k", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert max(v for k, v in report.items() if k.startswith("max_gap_")) < 1e-12


def test_internal_constructions_pass_the_mode_the_scan_decides(tmp_path, monkeypatch,
                                                                capsys):
    """Every GroupFunction built with a known mode gets the one the public
    constructor's scan of its values decides: over the sweeps and the float
    (and exact) function commands."""
    made = []
    with_mode = GroupFunction._with_mode.__func__

    def checked(cls, group, values, mode):
        f = with_mode(cls, group, values, mode)
        made.append((f.mode, GroupFunction(group, f.values).mode))
        return f

    monkeypatch.setattr(GroupFunction, "_with_mode", classmethod(checked))
    full_sweep(max_order=8, samples=4, seed=1)
    structure_sweep(max_order=16, samples=4, seed=1)
    cone_membership_sweep(max_order=8, samples=12, seed=1)
    good = write(tmp_path, "good.json", GOOD)
    not_ppd = write(tmp_path, "not_ppd.json", {"group": "Z4", "values": ["1", "1/2", "-1/10", "1/2"]})
    measure = write(tmp_path, "mu.json", dict(GOOD, haar_scale="1/4"))
    for mode in ("float", "exact"):
        for argv in (["check", good, "--good"], ["check", not_ppd],
                     ["restrict", good, "--generators", "[[2]]"],
                     ["corestrict", good, "--generators", "[[2]]"],
                     ["product", good, good], ["product", good, good, "--external"],
                     ["convolve", measure, measure]):
            assert main(["--mode", mode] + argv) in (0, 1)
    capsys.readouterr()
    modes = {passed.exact for passed, _ in made}
    assert modes == {True, False}
    assert all(passed is scanned for passed, scanned in made)


def test_cone_atlas_checks_its_order_before_any_cone(monkeypatch):
    """An atlas past the H-rep bound fails before it builds a single cone."""
    def no_cone(G):
        raise AssertionError(f"built the cone of {G.moduli}")

    monkeypatch.setattr(sweeps, "ppd_cone_hrep", no_cone)
    for max_order in (17, 40):
        with pytest.raises(ValueError, match=r"^group order 17 exceeds H-rep bound 16$"):
            sweeps.cone_atlas(max_order=max_order)


# -- the command line against the argparse parser it replaced ------------------

@functools.lru_cache(maxsize=None)
def argparse_reference() -> argparse.ArgumentParser:
    """The argparse definition of the command line that the command table
    replaced, kept as the reference for its grammar."""
    p = argparse.ArgumentParser(prog="ppdlab")
    p.add_argument("--mode", choices=["exact", "float"], default="exact")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-order", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    def local(parser, *names, **kwargs):
        kwargs["default"] = argparse.SUPPRESS
        parser.add_argument(*names, **kwargs)

    c = sub.add_parser("check")
    c.add_argument("function")
    flag = c.add_mutually_exclusive_group()
    flag.add_argument("--ppd", action="store_true", default=True)
    flag.add_argument("--good", action="store_true", default=False)
    c.set_defaults(func=cli.cmd_check)
    s = sub.add_parser("sweep")
    local(s, "--max-order", type=int)
    s.add_argument("--samples", type=int, default=20)
    local(s, "--seed", type=int)
    s.set_defaults(func=cli.cmd_sweep)
    v = sub.add_parser("verify-4-1")
    local(v, "--max-order", type=int)
    v.add_argument("--samples", type=int, default=20)
    local(v, "--seed", type=int)
    v.set_defaults(func=cli.cmd_verify_4_1)
    k = sub.add_parser("cone")
    k.add_argument("group")
    k.add_argument("--rays", action="store_true")
    k.add_argument("--csv", default=None)
    local(k, "--max-order", type=int)
    k.set_defaults(func=cli.cmd_cone)
    a = sub.add_parser("cone-atlas")
    local(a, "--max-order", type=int)
    a.add_argument("--no-rays", action="store_true")
    a.set_defaults(func=cli.cmd_cone_atlas)
    r = sub.add_parser("restrict")
    r.add_argument("function")
    r.add_argument("--generators", required=True)
    r.set_defaults(func=cli.cmd_restrict)
    co = sub.add_parser("corestrict")
    co.add_argument("function")
    co.add_argument("--generators", required=True)
    co.set_defaults(func=cli.cmd_restrict)
    pr = sub.add_parser("product")
    pr.add_argument("left")
    pr.add_argument("right")
    pr.add_argument("--external", action="store_true")
    pr.set_defaults(func=cli.cmd_product)
    cv = sub.add_parser("convolve")
    cv.add_argument("left")
    cv.add_argument("right")
    cv.set_defaults(func=cli.cmd_convolve)
    g = sub.add_parser("gaussian")
    g.add_argument("--form", default="1")
    g.add_argument("--check", required=True,
                   choices=["selfdual", "corestriction", "counterexample", "goodness"])
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--terms", type=int, default=10)
    g.add_argument("--half-width", type=float, default=8.0)
    g.add_argument("--points", type=int, default=512)
    g.set_defaults(func=cli.cmd_gaussian)
    for cmd in (c, s, v, k, a, r, co, pr, cv, g):
        local(cmd, "--mode", choices=["exact", "float"])
        local(cmd, "--tol", type=float)
        local(cmd, "--out")
    return p


def _reference_level(command):
    """The reference parser of the global level (None) or of one command."""
    parser = argparse_reference()
    if command is None:
        return parser
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


def _outcome(parse, argv):
    """("exit", code) or ("ok", the namespace's attributes by repr)."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code
    return "ok", {key: repr(value) for key, value in vars(namespace).items()}


LONG_OPTIONS = sorted({flag for command in [None, *cli.COMMANDS]
                       for flag in _reference_level(command)._option_string_actions
                       if flag not in ("-h", "--help")})
PREFIXES = sorted({flag[:n] for flag in LONG_OPTIONS for n in range(3, len(flag))})
VALUES = ["0", "3", "17", "-3", "-0", "2.5", "-2.5", ".5", "-.5", "1e-3", "-1e5",
          "inf", "-inf", "nan", "exact", "float", "selfdual", "corestriction",
          "counterexample", "goodness", "f.json", "Z4", "[[2]]", "2,1;1,2", "",
          "-", "-x", "-1x", "---", "-x y", "-3 4", "--=1", "x=1", " "]

TYPED = {int: ["3", "-3", "0", "x"], float: ["2.5", "-.5", "1e-3", "inf", "nan", "-1e5"],
         None: ["f.json", "-3", "x=1", "", "-x"]}


def _is_help(token: str) -> bool:
    """-h, -hh, --help and its prefixes, with or without an "=" value."""
    flag = token.split("=", 1)[0]
    return token.startswith("-h") or len(flag) >= 3 and "--help".startswith(flag)


_tokens = st.one_of(
    st.sampled_from(list(cli.COMMANDS)),
    st.sampled_from(LONG_OPTIONS + PREFIXES),
    st.builds("{}={}".format, st.sampled_from(LONG_OPTIONS + PREFIXES),
              st.sampled_from(VALUES)),
    st.sampled_from(VALUES),
    st.integers(-50, 50).map(str),
    st.just("--"),
    st.text(alphabet="-=.ex1 ", max_size=4),
)


@st.composite
def _command_line(draw):
    """Global options, a command, its positionals and options in any order,
    prefixes and "=" forms among them, values drawn for each: mostly accepted."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    level = _reference_level(name)
    words = [[draw(st.sampled_from(["f.json", "Z4", "-3", "-.5", "-", "a b"]))]
             for a in level._actions if not a.option_strings]
    actions = level._option_string_actions
    flags = [f for f in actions if f not in ("-h", "--help")]
    required = [f for f in flags if actions[f].required]
    for flag in required + draw(st.lists(st.sampled_from(flags), max_size=4)):
        spelled = draw(st.sampled_from([flag, flag[:draw(st.integers(3, len(flag)))]]))
        if actions[flag].nargs == 0:
            words.append([spelled])
            continue
        value = draw(st.sampled_from(actions[flag].choices or TYPED[actions[flag].type]))
        words.append(draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"]])))
    tail = [word for group in draw(st.permutations(words)) for word in group]
    if draw(st.booleans()):
        tail.insert(draw(st.integers(0, len(tail))), "--")
    head = draw(st.lists(st.sampled_from([["--mode", "float"], ["--mo=exact"], ["--tol", "-2"],
                                          ["--out", "o.json"], ["--seed", "3"], ["--max", "-1"]]),
                         max_size=3))
    return [word for pair in head for word in pair] + [name] + tail


_argv = st.one_of(
    _command_line(),
    st.lists(_tokens, max_size=8),
    st.builds(lambda head, name, tail: head + [name] + tail,
              st.lists(_tokens, max_size=3), st.sampled_from(list(cli.COMMANDS)),
              st.lists(_tokens, max_size=6)),
).filter(lambda argv: not any(_is_help(t) for t in argv))


@settings(max_examples=500, deadline=None)
@given(_argv)
def test_parse_args_agrees_with_argparse(argv):
    """Both parsers reject argv with exit 2, or both give equal attributes and
    the same handler."""
    want = _outcome(argparse_reference().parse_args, argv)
    assert want[0] == "ok" or want == ("exit", 2)
    assert _outcome(cli.parse_args, argv) == want


# command lines that argparse accepts, each reading one rule of its grammar
ACCEPTED = [
    ["--mode", "float", "check", "f.json", "--good"],
    ["check", "f.json", "--mode=float", "--mode", "exact"],  # the last value wins
    ["--mode", "float", "check", "--mode", "exact", "f.json"],
    ["--mo=float", "check", "--goo", "f.json", "--good"],
    ["check", "--p", "f.json", "--ppd"],
    ["--max", "5", "cone", "Z4", "--rays", "--max-order=7"],
    ["sweep", "--samples", "-3", "--seed", "-1", "--sa=2", "--max-o", "4"],
    ["gaussian", "--check", "selfdual", "--tol", "-.5", "--half-width", "-5"],
    ["gaussian", "--ch=goodness", "--form", "-1", "--k", "-2", "--points=-0"],
    ["check", "--", "--good"],  # "--" ends the options
    ["check", "f.json", "--"],
    ["product", "-", "--", "-x"],
    ["product", "a", "--", "--"],  # argparse gives the second positional []
    ["restrict", "--generators", "[[2]]", "f.json", "--out", " -x"],
    ["cone", "-3 4", "--csv", "-2.5"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_accepted_command_lines_read_as_argparse_reads_them(argv):
    want = _outcome(argparse_reference().parse_args, argv)
    assert want[0] == "ok"
    assert _outcome(cli.parse_args, argv) == want


REJECTED = [
    [], ["bogus"], ["check"], ["check", "a", "b"], ["check", "f.json", "--good", "--ppd"],
    ["--mode", "fast", "check", "f.json"], ["gaussian"], ["restrict", "f.json"],
    ["gaussian", "--check", "selfdual", "--k", "x"], ["cone", "Z4", "--csv"],
    ["cone", "Z4", "--bogus"], ["--bogus", "cone", "Z4"], ["cone", "Z4", "--m", "3"],
    ["check", "f.json", "--m", "float"],  # --m is ambiguous at the global level
    ["check", "f.json", "--seed", "1"], ["cone", "Z4", "--rays=1"],
    ["--tol", "-1e5", "gaussian", "--check", "selfdual"], ["--", "check", "f.json"],
    ["cone", "Z4", "--rays", "--"], ["check", "--out", "--", "f.json"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_usage_errors_print_usage_and_exit_2(argv, capsys):
    assert _outcome(argparse_reference().parse_args, argv) == ("exit", 2)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    usage, error = out.err.splitlines()
    assert out.out == ""
    assert usage.startswith("usage: ppdlab")
    assert re.match(r"ppdlab( [a-z0-9-]+)?: error: ", error)


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_option_and_exits_0(command, flag, capsys):
    argv = [flag] if command is None else [command, "--mode", "float", flag, "--bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ppdlab")
    level = _reference_level(command)
    names = [a.dest for a in level._actions if not a.option_strings and a.dest != "command"]
    names += list(level._option_string_actions)
    names += list(cli.COMMANDS) if command is None else []
    for name in names:
        assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", out), name
