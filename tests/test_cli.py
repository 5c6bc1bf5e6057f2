import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import ppdlab
from ppdlab.cli import main


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
    "goodness probe failure": (
        ["gaussian", "--check", "goodness", "--form", "0.001,0;0,0.001"], None,
        "error: goodness probe failed for form '0.001,0;0,0.001': lattice sum did "
        "not converge within the radius bound", 2),
    "pointwise group mismatch": (["product", "{z2}", "{z3}"], None,
                                 "error: pointwise product needs functions on one group", 2),
    "convolution group mismatch": (["convolve", "{mu2}", "{mu3}"], None,
                                   "error: convolution needs measures on one group", 2),
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
    assert main([a.format(**paths) for a in argv]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == err.format(**paths) + "\n"


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
    "Z4xZ2xZ2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "Z2xZ2xZ2xZ2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
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
    (): ("4ef2b01d2f48cf004a1846c7b31f41b109badd7da81fe89ffea8e3edec6e840f", 0),
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
