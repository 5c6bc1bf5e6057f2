import csv
import hashlib
import json

import pytest

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


def test_sweep_determinism_across_processes(tmp_path):
    """Byte-identical reports even under different hash randomization."""
    import os
    import subprocess
    import sys

    import ppdlab

    # The child runs from "/", where a relative PYTHONPATH entry such as
    # "src" resolves to nothing; point it at the directory that holds the
    # imported package, ahead of whatever path the parent already had.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(ppdlab.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = pkg_root + (os.pathsep + inherited if inherited else "")

    outs = []
    for i, hash_seed in enumerate(("1", "271828")):
        out = tmp_path / f"p{i}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        subprocess.run(
            [sys.executable, "-m", "ppdlab.cli", "--out", str(out), "sweep",
             "--max-order", "4", "--samples", "3", "--seed", "11"],
            check=True,
            env=env,
            cwd="/",
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


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
