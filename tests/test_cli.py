import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppdlab
from ppdlab import cli, sweeps
from ppdlab.cli import main
from ppdlab.constructions import pointwise_product
from ppdlab.fourier import GroupFunction, convolve
from ppdlab.serialize import function_from_dict, measure_from_dict
from ppdlab.sweeps import cone_membership_sweep, full_sweep, structure_sweep


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


def test_check_malformed_json_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2


def test_check_bad_group_literal_exit_2(tmp_path):
    path = write(tmp_path, "f.json", {"group": "A5", "values": [[1, 0]]})
    assert main(["check", path]) == 2


# Malformed function and measure files: (payload, mode, commands).  `check`
# reads no haar_scale, so the haar_scale files go through `convolve` only.
MALFORMED = {
    "value 1/0 exact": ({"group": "Z2", "values": [["1/0", 0], [1, 0]]}, "exact",
                        ("check", "convolve")),
    "value 1/0 float": ({"group": "Z2", "values": [["1/0", 0], [1, 0]]}, "float",
                        ("check", "convolve")),
    "haar_scale 1/0 exact": ({"group": "Z2", "values": [[1, 0], [1, 0]],
                              "haar_scale": "1/0"}, "exact", ("convolve",)),
    "haar_scale 1/0 float": ({"group": "Z2", "values": [[1, 0], [1, 0]],
                              "haar_scale": "1/0"}, "float", ("convolve",)),
    "top-level array": ([1, 2], "exact", ("check", "convolve")),
    "values 5": ({"group": "Z2", "values": 5}, "exact", ("check", "convolve")),
    "group 5": ({"group": 5, "values": [[1, 0]]}, "exact", ("check", "convolve")),
    "float haar_scale [1]": ({"group": "Z2", "values": [[1, 0], [1, 0]],
                              "haar_scale": [1]}, "float", ("convolve",)),
    # json writes these floats as Infinity and NaN, the booleans as true
    "value Infinity exact": ({"group": "Z2", "values": [math.inf, 1]}, "exact",
                             ("check", "convolve")),
    "value Infinity float": ({"group": "Z2", "values": [math.inf, 1]}, "float",
                             ("check", "convolve")),
    "value NaN float": ({"group": "Z2", "values": [math.nan, 1]}, "float",
                        ("check", "convolve")),
    "value true float": ({"group": "Z2", "values": [True, 1]}, "float",
                         ("check", "convolve")),
    "value null float": ({"group": "Z2", "values": [[None, 0], [1, 0]]}, "float",
                         ("check", "convolve")),
    "value 10**400 float": ({"group": "Z2", "values": [10**400, 1]}, "float",
                            ("check", "convolve")),
    "haar_scale Infinity float": ({"group": "Z2", "values": [[1, 0], [1, 0]],
                                   "haar_scale": math.inf}, "float", ("convolve",)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_2(case, tmp_path, capsys):
    payload, mode, commands = MALFORMED[case]
    path = write(tmp_path, "bad.json", payload)
    for command in commands:
        argv = ["--mode", mode, command, path] + ([path] if command == "convolve" else [])
        assert main(argv) == 2, (case, command)
        assert capsys.readouterr().err.startswith("error: "), (case, command)


NOT_PPD = {"group": "Z4", "values": [1, 2, 1, 2]}

# Every bad-input path of the CLI and the exit-1 precondition lines: (argv,
# PPDLAB_MAX_ORDER or None, the whole stderr, the exit code).  "{name}" in an
# argv item or the stderr text is the path of that input file.
ERROR_PATHS = {
    "missing file": (["check", "{missing}"], None,
                     "error: cannot read {missing}: [Errno 2] No such file or "
                     "directory: '{missing}'", 2),
    "broken json": (["check", "{broken}"], None,
                    "error: cannot read {broken}: Expecting property name enclosed "
                    "in double quotes: line 1 column 2 (char 1)", 2),
    "bad group literal": (["check", "{a5}"], None, "error: bad group literal 'A5'", 2),
    "missing key": (["check", "{nokey}"], None, "error: 'values'", 2),
    "file not utf-8": (["check", "{nonutf8}"], None,
                       "error: cannot read {nonutf8}: 'utf-8' codec can't decode byte "
                       "0xff in position 0: invalid start byte", 2),
    "cone bad group literal": (["cone", "A5"], None, "error: bad group literal 'A5'", 2),
    "bad max order env": (["cone", "Z4"], "x", "error: bad PPDLAB_MAX_ORDER value 'x'", 2),
    "negative max order env": (["cone-atlas"], "-1",
                               "error: bad PPDLAB_MAX_ORDER value '-1'", 2),
    "negative max order": (["cone-atlas", "--max-order", "-1"], None,
                           "error: --max-order must be non-negative, got -1", 2),
    "sweep negative samples": (["sweep", "--samples", "-3", "--seed", "1"], None,
                               "error: --samples must be non-negative, got -3", 2),
    "verify-4-1 negative samples": (["verify-4-1", "--samples", "-3", "--seed", "1"], None,
                                    "error: --samples must be non-negative, got -3", 2),
    "sweep without seed": (["sweep", "--max-order", "4", "--samples", "2"], None,
                           "error: --seed is mandatory for sampled sweeps", 2),
    "verify-4-1 without seed": (["verify-4-1", "--max-order", "4", "--samples", "2"],
                                None, "error: --seed is mandatory for sampled sweeps", 2),
    "order bound": (["cone", "Z20"], None,
                    "error: group order 20 exceeds the configured bound", 2),
    "order bound env": (["cone", "Z8"], "4",
                        "error: group order 8 exceeds the configured bound", 2),
    "csv needs rays": (["cone", "Z4", "--csv", "{csv}"], None,
                       "error: --csv needs --rays", 2),
    "out in a missing directory": (["--out", "{nodir}", "cone", "Z2"], None,
                                   "error: cannot write {nodir}: [Errno 2] No such file "
                                   "or directory: '{nodir}'", 2),
    "out is a directory": (["--out", "{dir}", "cone", "Z2"], None,
                           "error: cannot write {dir}: [Errno 21] Is a directory: '{dir}'", 2),
    "csv is a directory": (["cone", "Z2", "--rays", "--csv", "{dir}"], None,
                           "error: cannot write {dir}: [Errno 21] Is a directory: '{dir}'", 2),
    "restrict generators wrong rank": (
        ["restrict", "{good}", "--generators", "[[1, 2]]"], None,
        "error: bad generators '[[1, 2]]': generator [1, 2] has wrong rank for Z4", 2),
    "restrict generators not json": (
        ["restrict", "{good}", "--generators", "notjson"], None,
        "error: bad generators 'notjson': Expecting value: line 1 column 1 (char 0)", 2),
    "restrict generators infinity": (
        ["restrict", "{good}", "--generators", "[[Infinity]]"], None,
        "error: bad generators '[[Infinity]]': generator [inf] has a residue "
        "that is not an integer", 2),
    "restrict generators null": (
        ["restrict", "{good}", "--generators", "[[null]]"], None,
        "error: bad generators '[[null]]': generator [None] has a residue "
        "that is not an integer", 2),
    "restrict generators nested": (
        ["restrict", "{good}", "--generators", "[[[1]]]"], None,
        "error: bad generators '[[[1]]]': generator [[1]] has a residue "
        "that is not an integer", 2),
    "restrict generators fraction": (
        ["restrict", "{good}", "--generators", "[[1.5]]"], None,
        "error: bad generators '[[1.5]]': generator [1.5] has a residue "
        "that is not an integer", 2),
    "restrict generators integral float": (
        ["restrict", "{good}", "--generators", "[[2.0]]"], None,
        "error: bad generators '[[2.0]]': generator [2.0] has a residue "
        "that is not an integer", 2),
    "restrict generators bool": (
        ["restrict", "{good}", "--generators", "[[true]]"], None,
        "error: bad generators '[[true]]': generator [True] has a residue "
        "that is not an integer", 2),
    "corestrict generators wrong rank": (
        ["corestrict", "{good}", "--generators", "[[1, 2]]"], None,
        "error: bad generators '[[1, 2]]': generator [1, 2] has wrong rank for Z4", 2),
    "corestrict generators not json": (
        ["corestrict", "{good}", "--generators", "notjson"], None,
        "error: bad generators 'notjson': Expecting value: line 1 column 1 (char 0)", 2),
    "quadratic form not SPD": (
        ["gaussian", "--check", "corestriction", "--form", "1,2;2,1"], None,
        "error: bad quadratic form '1,2;2,1': leading principal minor 2 is not "
        "positive; not SPD", 2),
    "quadratic form not numbers": (
        ["gaussian", "--check", "corestriction", "--form", "a,b"], None,
        "error: bad quadratic form 'a,b': could not convert string to float: 'a'", 2),
    "quadratic form nan corestriction": (
        ["gaussian", "--check", "corestriction", "--form", "nan,0;0,1", "--k", "1"], None,
        "error: bad quadratic form 'nan,0;0,1': matrix has a non-finite entry", 2),
    "quadratic form nan goodness": (
        ["gaussian", "--check", "goodness", "--form", "nan,0;0,1"], None,
        "error: bad quadratic form 'nan,0;0,1': matrix has a non-finite entry", 2),
    "derived inverse overflow corestriction": (
        ["gaussian", "--check", "corestriction", "--form", "1e308,0;0,1e308", "--k", "1"],
        None, "error: bad quadratic form '1e308,0;0,1e308': its inverse: leading "
        "principal minor 2 is not positive; not SPD", 2),
    "derived inverse overflow goodness": (
        ["gaussian", "--check", "goodness", "--form", "1e308,0;0,1e308"], None,
        "error: bad quadratic form '1e308,0;0,1e308': its inverse: leading "
        "principal minor 2 is not positive; not SPD", 2),
    "derived inverse subnormal corestriction": (
        ["gaussian", "--check", "corestriction", "--form", "1e-320,0;0,1", "--k", "1"],
        None, "error: bad quadratic form '1e-320,0;0,1': its inverse: matrix has a "
        "non-finite entry", 2),
    "derived inverse subnormal goodness": (
        ["gaussian", "--check", "goodness", "--form", "1e-320,0;0,1"], None,
        "error: bad quadratic form '1e-320,0;0,1': its inverse: matrix has a "
        "non-finite entry", 2),
    "corestriction with a determinant past the float range": (
        # det(A) = 1e320 overflows, yet the amplitude 1e-160 is finite: the
        # dual route then fails on the grid, not on a NaN gap
        ["gaussian", "--check", "corestriction", "--form", "1e160,0;0,1e160", "--k", "1"],
        None, "error: insufficient decay at the grid boundary: 1.000e+00 > 1e-14", 2),
    "SPD form whose leading minors underflow": (
        # det(A) = 1e-400 underflows, yet every LDL^T pivot is 1e-200: the form
        # passes the SPD test and fails on its lattice sum instead
        ["gaussian", "--check", "goodness", "--form", "1e-200,0;0,1e-200"], None,
        "error: goodness probe failed for form '1e-200,0;0,1e-200': lattice sum did not "
        "converge within the radius bound", 2),
    "corestriction marginal truncated by the grid": (
        # a11 = 0.05 leaves the marginal integrand at 0.134 at y = -8 and 8
        ["gaussian", "--check", "corestriction", "--form", "1,0.2;0.2,0.05", "--k", "1"],
        None, "error: insufficient decay at the grid boundary: 1.339e-01 > 1e-14", 2),
    "counterexample grids past the limit": (
        ["gaussian", "--check", "counterexample", "--half-width", "1e6"], None,
        "error: the series transform needs grids of more than 262144 points at "
        "half_width 1000000.0", 2),
    "counterexample grids past the float range": (
        # the grid's squares overflow: the limit is checked before any quadrature
        ["gaussian", "--check", "counterexample", "--half-width", "1e300"], None,
        "error: the series transform needs grids of more than 262144 points at "
        "half_width 1e+300", 2),
    "counterexample terms past the grid limit": (
        # decided from the largest frequency, before any per-term array
        ["gaussian", "--check", "counterexample", "--terms", "1000000000"], None,
        "error: the series transform needs grids of more than 262144 points at "
        "half_width 8.0", 2),
    "counterexample grid truncates the integrand": (
        # exp(-pi u^2) is 0.456 at u = 0.5: rejected before any quadrature
        ["gaussian", "--check", "counterexample", "--half-width", "0.5"], None,
        "error: insufficient decay at the grid boundary: 4.559e-01 > 1e-14", 2),
    "grid points past the limit": (
        ["gaussian", "--check", "selfdual", "--points", "100000000"], None,
        "error: points must be at most 262144, got 100000000", 2),
    # a tolerance that no gap can fail (inf) or pass (nan, negative)
    "gaussian infinite tol": (
        ["--tol", "inf", "gaussian", "--check", "selfdual", "--points", "16"], None,
        "error: --tol must be finite and non-negative, got inf", 2),
    "gaussian nan tol": (
        ["gaussian", "--check", "selfdual", "--tol", "nan"], None,
        "error: --tol must be finite and non-negative, got nan", 2),
    "gaussian negative tol": (
        ["gaussian", "--check", "corestriction", "--form", "2,1;1,2", "--tol", "-1"], None,
        "error: --tol must be finite and non-negative, got -1.0", 2),
    "goodness probe failure": (
        ["gaussian", "--check", "goodness", "--form", "0.001,0;0,0.001"], None,
        "error: goodness probe failed for form '0.001,0;0,0.001': lattice sum did "
        "not converge within the radius bound", 2),
    "pointwise group mismatch": (["product", "{z2}", "{z3}"], None,
                                 "error: pointwise product needs functions on one group", 2),
    "convolution group mismatch": (["convolve", "{mu2}", "{mu3}"], None,
                                   "error: convolution needs measures on one group", 2),
    "cone-atlas past the H-rep bound": (["cone-atlas", "--max-order", "17"], None,
                                        "error: group order 17 exceeds H-rep bound 16", 2),
    "restrict precondition": (["restrict", "{indicator}", "--generators", "[[2]]"], None,
                              "restrict needs a good input; failed conditions ['3.1.4']", 1),
    "corestrict precondition": (
        ["corestrict", "{not_ppd}", "--generators", "[[2]]"], None,
        "corestrict needs a good input; failed conditions ['2.1.2', '3.1.4']", 1),
}


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_paths_pin_stderr_and_exit(case, tmp_path, monkeypatch, capsys):
    argv, cap, err, code = ERROR_PATHS[case]
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    nonutf8 = tmp_path / "nonutf8.json"
    nonutf8.write_bytes(b"\xff\xfe")
    paths = {
        "nonutf8": str(nonutf8),
        "missing": str(tmp_path / "missing.json"),
        "broken": str(broken),
        "csv": str(tmp_path / "rays.csv"),
        "dir": str(tmp_path),
        "nodir": str(tmp_path / "nodir" / "report.json"),
        "a5": write(tmp_path, "a5.json", {"group": "A5", "values": [[1, 0]]}),
        "nokey": write(tmp_path, "nokey.json", {"group": "Z2"}),
        "good": write(tmp_path, "good.json", GOOD),
        "indicator": write(tmp_path, "indicator.json", INDICATOR),
        "not_ppd": write(tmp_path, "not_ppd.json", NOT_PPD),
        "z2": write(tmp_path, "z2.json", {"group": "Z2", "values": [[1, 0], ["1/2", 0]]}),
        "z3": write(tmp_path, "z3.json", {"group": "Z3", "values": [1, 0, 0]}),
        "mu2": write(tmp_path, "mu2.json", {"group": "Z2", "values": [1, 1], "haar_scale": "1"}),
        "mu3": write(tmp_path, "mu3.json", {"group": "Z3", "values": [1, 1, 1], "haar_scale": "1"}),
    }
    if cap is None:
        monkeypatch.delenv("PPDLAB_MAX_ORDER", raising=False)
    else:
        monkeypatch.setenv("PPDLAB_MAX_ORDER", cap)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([a.format(**paths) for a in argv]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == err.format(**paths) + "\n"
    assert not caught, [str(w.message) for w in caught]


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


def test_cone_order_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PPDLAB_MAX_ORDER", "4")
    assert main(["cone", "Z8"]) == 2


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


def test_restrict_rejects_non_good(tmp_path):
    fpath = write(tmp_path, "f.json", INDICATOR)
    assert main(["restrict", fpath, "--generators", "[[2]]"]) == 1


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


# stdout of float-mode outputs: each value a pair of floats, and a float haar_scale
FLOAT_OUTPUTS = {
    "product": (["product", "{u}", "{v}"], {"group": "Z4", "values": [
        [1.3333333333333333, 1.3333333333333333], [2.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}),
    "convolve": (["convolve", "{mu}", "{mu}"], {"group": "Z2", "haar_scale": 0.25,
                                                "values": [[0.625, 0.0], [0.375, 0.0]]}),
    "restrict": (["restrict", "{good}", "--generators", "[[2]]"],
                 {"group": "Z2", "values": [[1.0, 0.0], [0.25, 0.0]]}),
    # the float transform route leaves round-off imaginary parts; a good result is real
    "corestrict": (["corestrict", "{good}", "--generators", "[[2]]"],
                   {"group": "Z2", "values": [[1.0, 0.0], [0.8, 0.0]]}),
}


@pytest.mark.parametrize("case", sorted(FLOAT_OUTPUTS))
def test_float_mode_outputs_pin_stdout(case, tmp_path, capsys):
    argv, payload = FLOAT_OUTPUTS[case]
    paths = {
        "u": write(tmp_path, "u.json", {"group": "Z4", "values": [["1/3", "1/3"], 2, 1, 2]}),
        "v": write(tmp_path, "v.json", {"group": "Z4", "values": [4, 1, 1, 1]}),
        "mu": write(tmp_path, "mu.json", {"group": "Z2", "values": [["3/4", 0], ["1/4", 0]],
                                          "haar_scale": "1/2"}),
        "good": write(tmp_path, "good.json", GOOD),
    }
    assert main(["--mode", "float"] + [a.format(**paths) for a in argv]) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_restrict_to_the_trivial_subgroup(tmp_path, capsys):
    path = write(tmp_path, "good.json", {"group": "Z4", "values": [4, 1, 1, 1]})
    assert main(["restrict", path, "--generators", "[[0]]"]) == 0
    assert json.loads(capsys.readouterr().out) == {"group": "Z1", "values": [["1", "0"]]}


def test_seed_is_mandatory_for_sweeps(tmp_path):
    assert main(["sweep", "--max-order", "4", "--samples", "2"]) == 2
    assert main(["verify-4-1", "--max-order", "4", "--samples", "2"]) == 2


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


@pytest.mark.parametrize("half_width", ["inf", "1e308", "nan", "-1"])
def test_gaussian_bad_grid_exit_2(half_width, capsys):
    # a width that is not finite or whose span overflows is bad input, not a NaN report
    assert main(["gaussian", "--check", "selfdual", "--half-width", half_width]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: half_width")


@pytest.mark.parametrize("check", ["corestriction", "goodness"])
@pytest.mark.parametrize("form", ["1e308,0;0,1e308", "1e-320,0;0,1"])
def test_gaussian_derived_form_error_raises_no_float_warning(check, form, capsys):
    # an extreme but finite form fails on its inverse: one error line, and the
    # overflow or underflow on the way is no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gaussian", "--check", check, "--form", form]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad quadratic form {form!r}: ")


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


def test_gaussian_goodness_unconverged_lattice_sum_exit_2(capsys):
    # a flat form makes the lattice sum run past its radius bound
    assert main(["gaussian", "--check", "goodness", "--form", "0.001,0;0,0.001"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# sha256 of `ppdlab cone G --rays` stdout and the exit code, for every
# presentation of order 13 to 16, recorded with the Cyc-valued double
# description; Z14 and Z16 print ray values at two conductors each.
CONE_GOLDEN_13_16 = {
    "Z13": ("0b06ac32be0de9393b3bb89529609a50f943eed96d7073356817a651a1c0895a", 0),
    "Z14": ("40b625a25c43e3e3ed0848e014a016252a8a94bfb6bae872cde8214dc262b5f5", 0),
    "Z7xZ2": ("35d5570cc24962f962589cc9530e2274583683dc9aa8a1281988faebc5ba2eca", 0),
    "Z15": ("82f99fd0d4f53354378b5603c8836c1173f82ce5326635f8912a72b96c989027", 0),
    "Z5xZ3": ("9833f7f6c260a68e6d2673e3a1e3852ccebf2f7d21f7586b7c1a777fe6f4e4a8", 0),
    "Z16": ("33eb49d08d5e3242abec4a1f2cf5f1bbf037dbda7fc3962982fe89cbf00d7a5e", 0),
    "Z8xZ2": ("51e3bcf10bcaa1c2bd6ab2770cf85ef346118b0322315eb6f34843fd7362e544", 0),
    "Z4xZ4": ("8c6a3f7afbe95bdeca27109dee6cdba8f7a2a68683fee35de6f29e7efb2383fe", 0),
    "Z4xZ2xZ2": ("d6b0b4b09fc827b2805302e56d6dd00436985b05d8255790977049f57fe7a9cd", 0),
    "Z2xZ2xZ2xZ2": ("8830a142eb4ee1a9a46e4cb15a90dba7d6590481507ccd96e3a013fec1d9c1f8", 0),
}


def test_cone_rays_golden_orders_13_to_16(capsys):
    from ppdlab.groups import abelian_group_catalog, format_group

    names = [format_group(G) for G in abelian_group_catalog(16) if G.order >= 13]
    assert sorted(names) == sorted(CONE_GOLDEN_13_16)
    for name in names:
        code = main(["cone", name, "--rays"])
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest(), code) == (
            CONE_GOLDEN_13_16[name]
        ), name


# sha256 of stdout and the exit code of `ppdlab cone G --rays` and of
# `ppdlab cone G`, for every presentation of order 1 to 12, recorded before
# the reports were printed from the cone's integer rows.
CONE_GOLDEN_1_12 = {
    "Z1": (("d90d612dcea203b439472538c67624ac96c513aed2213fd639e2a46e849f9b55", 0),
           ("7f5f1547c239e0cde29fae83f6cece71ff74df4ef3eefdce37991c2a6f8e056a", 0)),
    "Z2": (("61372f743103dd4421845fd2444ebb50a51a8c0fd6530cdd704b1495043dead6", 0),
           ("90bfa77182ffddaa669b6f591c3a4a31a0263449bb4b023d4bdc16120696fc88", 0)),
    "Z3": (("5a1a93f515ddb71ed9756757702c29de864ecb0d2dd17c16ed4c660a7da6f71e", 0),
           ("96528caedaa9eb1fc65bf0b7a4467a18bdce3d15f6583a3f908720d2cc196989", 0)),
    "Z4": (("7e9048f5cce350c12cf1153373d366fb4ff1d4b6d2280443d25f52090b3c3c14", 0),
           ("9142c8cf04cdce155760f39e0ed085c15bc06072fdac0222430f719a9719a3df", 0)),
    "Z2xZ2": (("c5ecb5bc40c3255572888d7ccb4dc26fe9c47e994273d0d69b84c2f4908a9bc4", 0),
              ("6ac4c6bb98372e0c4fdace30966215c71e13db1d9b1d9fb2a70165ab8af1fab2", 0)),
    "Z5": (("9905e32a5af599c57a4dd5f27379cb19af375cb175de804de1595334060ebaa9", 0),
           ("ec598d9eb9140bcb806fd789b767374214d9b06e3a711ad1a18dd8625be9b861", 0)),
    "Z6": (("e912bfde8c7459fbffe2cf20d9fad1d3418da1b478647682c93737db46f82b84", 0),
           ("5cf0779d999e855dcb7b993db6446b04daa43f66b8b34ee2c81f3486c195832e", 0)),
    "Z3xZ2": (("830fb12280f3940ab7c136a5002bb5f81a42dfc177c7dbd68e533f5321413fae", 0),
              ("abf99420b0dc7c777b91937bed1c27fe401bdb9d8bf87cd295a4341c2f086e08", 0)),
    "Z7": (("17b28a25d62a508d34a265289324b8b8cc160cd4be51753ca24254c0a6d55584", 0),
           ("8f83705a2e5cc77b4337cc9ef91bccf4b9d60f47f65de5e268103273adeb6d22", 0)),
    "Z8": (("06859bd0950a597ffc84f7c265ef33b3d022b84188c6970b04d15fdb796c9a12", 0),
           ("c97c1e2be72900380dd1c9fdee207a467c3b97f47cde49f317e67627a43acccf", 0)),
    "Z4xZ2": (("5b702c6e9d1b115b0a40ed53702258e78617e11a37ceee229681a8b2b7e5000e", 0),
              ("7bb5416d440080a03889b1116bde72fbea047a4900c80c7e7d5cd874d780d9eb", 0)),
    "Z2xZ2xZ2": (("3afe0b9e60e3bd0952d7e3ea31217a79739a8566f5795d608af1210fff025219", 0),
                 ("3642a428b49c7f4be8f8f6754ce9c2de087643a9c003f0805527b1c92e92d8c6", 0)),
    "Z9": (("9b0f260908fad137461b95b8cfda05dc8ae85c9d414dfd47818a4e6adaf255bb", 0),
           ("ec4beb01280c17e7ba4e0496e911216b4b7bde6b2c99afc70d14b707b70d4d7d", 0)),
    "Z3xZ3": (("50a8a4b66c71460ab1ab710a56aec0eb337fe8c24becfc549c8f79b160cfa1eb", 0),
              ("7d6c5ad9a02e3f879688075b87f9b8727a1dc840cc5bf0844589354a54d650a1", 0)),
    "Z10": (("8340f20d7c66193d7847144d3fd8a4644b9489058d853a2678216f2acb7da93d", 0),
            ("8943aac1744767e8dff4cbc5b0b0ecc368d094c532eeef5db16132fc551e7297", 0)),
    "Z5xZ2": (("398784c1f99585c8b40e22bc2731e86a34545653b4a8f3196d0b569cbc15d5a6", 0),
              ("923a02887b69446c384c6a6ffc5d9b31c602f2d8af94c133a0f555b873c0538b", 0)),
    "Z11": (("6f2863600b4e86a9865b1c6e7b09908d543970d052fa76e73af46a6bfe3249cf", 0),
            ("83bb0123a7a40355ff4619db97c59e91bac42974fec59ccc639cb08fe4ad9ac7", 0)),
    "Z12": (("e8ade02030ce5d955ad232d4b6b3defc485237a6c6778caea60baf2f85a6b552", 0),
            ("ed2ffbb6ce2da363b3057310d4c9b63e7370617c4407a8bd325c9ba0575c4f7a", 0)),
    "Z6xZ2": (("347dadcbc20db50dd6e808578d732197ec9c2d87349cebece66043b44682f48a", 0),
              ("886137538576ed45838be196c9b8d5f93b5708673bdea2da7e27ce1655f284a2", 0)),
    "Z4xZ3": (("1a3934cc944d9a90001ccd1300f5878aee3171d79b3a18926aaaee1b624f5429", 0),
              ("410957da752097148b9fd3dffca5b57373e39264335cfb5778426e4fadcd5f19", 0)),
    "Z3xZ2xZ2": (("8eb8e78aa4ba5c667ac98163d09b3085ec372e0dd7990dd288520818ca6a5ecf", 0),
                 ("20e8ad0f0aba18a58cda62c8db3124483af24f28f487889d040e0b85526e3c45", 0)),
}

# the same for the two order-16 atlases, and the sha256 of the ray CSV of Z10
ATLAS_GOLDEN_16 = {
    (): ("8639a66debbc013fc18b337dbc3d16cf59c05d6e39c3673fc0c0a4f21f23e66c", 0),
    ("--no-rays",): ("ad9e9c43e83a541976b1f17c4acffdfdc4d5f531a752f7ae3bba3558f6cd4b8d", 0),
}
CSV_GOLDEN_Z10 = "98c426dd8e6407c2ab86802e9108bac32b17129efafa586c42d7301c8cdfa1a9"


def _stdout_digest(capsys, argv):
    code = main(argv)
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(), code


def test_cone_golden_orders_1_to_12(capsys):
    from ppdlab.groups import abelian_group_catalog, format_group

    names = [format_group(G) for G in abelian_group_catalog(12)]
    assert names == list(CONE_GOLDEN_1_12)
    for name in names:
        got = (_stdout_digest(capsys, ["cone", name, "--rays"]),
               _stdout_digest(capsys, ["cone", name]))
        assert got == CONE_GOLDEN_1_12[name], name


def test_cone_atlas_and_csv_golden(tmp_path, capsys):
    for extra, want in ATLAS_GOLDEN_16.items():
        assert _stdout_digest(capsys, ["cone-atlas", "--max-order", "16", *extra]) == want
    csv_path = tmp_path / "z10.csv"
    assert main(["cone", "Z10", "--rays", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == CSV_GOLDEN_Z10


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
