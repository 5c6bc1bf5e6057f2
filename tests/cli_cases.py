"""Pinned ppdlab command lines: the one place their expected outputs live.

CASES maps a section to named cases, one a line, so that a re-pin is a
one-line diff and a search finds a whole message.  A case is a command line
(split as a shell would), its exit code, the whole stderr, a stdout rule,
PPDLAB_MAX_ORDER (None: unset) and optionally the sha256 of a file it
writes.  "{name}" in a command line or a stderr is a path in a fresh
directory: "{dir}" is the directory, and a name in FILES is written there
first.  A stdout rule is exact text, a Sha256, a Prefix or a predicate on the
parsed JSON; exact text is the whole output, each line ending in a newline,
and "" is none.  A traceback or a Python warning fails any case.

tests/test_cli.py runs every case through cli.main in process, and
`python tests/cli_cases.py` runs every case against the `ppdlab` script on
PATH, printing `FAIL <section>: <case>: <reason>` for each broken rule.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional


class Sha256(str):
    """The output's sha256, in hex."""


class Prefix(str):
    """The output starts with this text."""


class Case(NamedTuple):
    argv: str
    code: int = 0
    err: str = ""
    out: object = ""
    max_order: Optional[str] = None
    artifact: Optional[tuple] = None  # (name, sha256) of a file the command writes


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# the inputs a case names: a dict is written as JSON, a str or bytes as it is
FILES = {
    "broken": "{not json",
    "nonutf8": b"\xff\xfe",
    "a5": {"group": "A5", "values": [[1, 0]]},
    "nokey": {"group": "Z2"},
    "good": {"group": "Z4", "values": [["1", "0"], ["1/2", "0"], ["1/4", "0"], ["1/2", "0"]]},
    "good_z4": {"group": "Z4", "values": [4, 1, 1, 1]},
    "indicator": {"group": "Z4", "values": [[1, 0], [0, 0], [1, 0], [0, 0]]},
    "not_ppd": {"group": "Z4", "values": [1, 2, 1, 2]},
    "zero": {"group": "Z2", "values": [0, 0]},
    "z2": {"group": "Z2", "values": [[1, 0], ["1/2", 0]]},
    "z3": {"group": "Z3", "values": [1, 0, 0]},
    "mu2": {"group": "Z2", "values": [1, 1], "haar_scale": "1"},
    "mu3": {"group": "Z3", "values": [1, 1, 1], "haar_scale": "1"},
    "u": {"group": "Z4", "values": [["1/3", "1/3"], 2, 1, 2]},
    "mu": {"group": "Z2", "values": [["3/4", 0], ["1/4", 0]], "haar_scale": "1/2"},
    "good_z8": {"group": "Z8", "values": [7.3, 3.1, 1.9, 1.3, 1.1, 1.3, 1.9, 3.1]},
    "not_ppd_z4": {"group": "Z4", "values": [1.0, 0.5, -0.1, 0.5]},
    "inf": '{"group": "Z2", "values": [Infinity, 1]}',
    "nan": '{"group": "Z2", "values": [NaN, 1]}',
    "div0": {"group": "Z2", "values": [["1/0", 0], [1, 0]]},
    "haar_div0": {"group": "Z2", "values": [[1, 0], [1, 0]], "haar_scale": "1/0"},
    "array": [1, 2],
    "values5": {"group": "Z2", "values": 5},
    "group5": {"group": 5, "values": [[1, 0]]},
    "haar_list": {"group": "Z2", "values": [[1, 0], [1, 0]], "haar_scale": [1]},
    "true": {"group": "Z2", "values": [True, 1]},
    "null": {"group": "Z2", "values": [[None, 0], [1, 0]]},
    "huge": {"group": "Z2", "values": [10**400, 1]},
    "near_max": {"group": "Z2", "values": [1e308, 1e308]},  # PPD, but f_hat(0) overflows
    "haar_inf": '{"group": "Z2", "values": [[1, 0], [1, 0]], "haar_scale": Infinity}',
    # 1 on {0, 1, -1} and on {0, 1}: every transform value descends from Q(zeta_1024)
    "z1024_even": {"group": "Z1024", "values": [int(k in (0, 1, 1023)) for k in range(1024)]},
    "z1024_odd": {"group": "Z1024", "values": [int(k in (0, 1)) for k in range(1024)]},
}

# every good function gets the same verdict bytes, in either mode
GOOD_VERDICT = Sha256("0435ceed273f191d048872281783870d57f746d1738ecb9828401e4a0bc8f918")
ATLAS_12 = Sha256("d433414455a7cf5d565caf4d2db7e5394f0055e6718f407fa5a292d5230f5261")


def _gaps_at_round_off(report) -> bool:
    gaps = [v for k, v in report.items() if k.startswith("max_gap_")]
    return len(gaps) == 3 and max(gaps) < 1e-12


# sha256 of `cone G --rays` and of `cone G` for every presentation of order 1
# to 12, recorded before the reports were printed from the cone's integer rows
CONES_1_12 = {
    "Z1": ("d90d612dcea203b439472538c67624ac96c513aed2213fd639e2a46e849f9b55", "7f5f1547c239e0cde29fae83f6cece71ff74df4ef3eefdce37991c2a6f8e056a"),
    "Z2": ("61372f743103dd4421845fd2444ebb50a51a8c0fd6530cdd704b1495043dead6", "90bfa77182ffddaa669b6f591c3a4a31a0263449bb4b023d4bdc16120696fc88"),
    "Z3": ("5a1a93f515ddb71ed9756757702c29de864ecb0d2dd17c16ed4c660a7da6f71e", "96528caedaa9eb1fc65bf0b7a4467a18bdce3d15f6583a3f908720d2cc196989"),
    "Z4": ("7e9048f5cce350c12cf1153373d366fb4ff1d4b6d2280443d25f52090b3c3c14", "9142c8cf04cdce155760f39e0ed085c15bc06072fdac0222430f719a9719a3df"),
    "Z2xZ2": ("c5ecb5bc40c3255572888d7ccb4dc26fe9c47e994273d0d69b84c2f4908a9bc4", "6ac4c6bb98372e0c4fdace30966215c71e13db1d9b1d9fb2a70165ab8af1fab2"),
    "Z5": ("9905e32a5af599c57a4dd5f27379cb19af375cb175de804de1595334060ebaa9", "ec598d9eb9140bcb806fd789b767374214d9b06e3a711ad1a18dd8625be9b861"),
    "Z6": ("e912bfde8c7459fbffe2cf20d9fad1d3418da1b478647682c93737db46f82b84", "5cf0779d999e855dcb7b993db6446b04daa43f66b8b34ee2c81f3486c195832e"),
    "Z3xZ2": ("830fb12280f3940ab7c136a5002bb5f81a42dfc177c7dbd68e533f5321413fae", "abf99420b0dc7c777b91937bed1c27fe401bdb9d8bf87cd295a4341c2f086e08"),
    "Z7": ("17b28a25d62a508d34a265289324b8b8cc160cd4be51753ca24254c0a6d55584", "8f83705a2e5cc77b4337cc9ef91bccf4b9d60f47f65de5e268103273adeb6d22"),
    "Z8": ("06859bd0950a597ffc84f7c265ef33b3d022b84188c6970b04d15fdb796c9a12", "c97c1e2be72900380dd1c9fdee207a467c3b97f47cde49f317e67627a43acccf"),
    "Z4xZ2": ("5b702c6e9d1b115b0a40ed53702258e78617e11a37ceee229681a8b2b7e5000e", "7bb5416d440080a03889b1116bde72fbea047a4900c80c7e7d5cd874d780d9eb"),
    "Z2xZ2xZ2": ("3afe0b9e60e3bd0952d7e3ea31217a79739a8566f5795d608af1210fff025219", "3642a428b49c7f4be8f8f6754ce9c2de087643a9c003f0805527b1c92e92d8c6"),
    "Z9": ("9b0f260908fad137461b95b8cfda05dc8ae85c9d414dfd47818a4e6adaf255bb", "ec4beb01280c17e7ba4e0496e911216b4b7bde6b2c99afc70d14b707b70d4d7d"),
    "Z3xZ3": ("50a8a4b66c71460ab1ab710a56aec0eb337fe8c24becfc549c8f79b160cfa1eb", "7d6c5ad9a02e3f879688075b87f9b8727a1dc840cc5bf0844589354a54d650a1"),
    "Z10": ("8340f20d7c66193d7847144d3fd8a4644b9489058d853a2678216f2acb7da93d", "8943aac1744767e8dff4cbc5b0b0ecc368d094c532eeef5db16132fc551e7297"),
    "Z5xZ2": ("398784c1f99585c8b40e22bc2731e86a34545653b4a8f3196d0b569cbc15d5a6", "923a02887b69446c384c6a6ffc5d9b31c602f2d8af94c133a0f555b873c0538b"),
    "Z11": ("6f2863600b4e86a9865b1c6e7b09908d543970d052fa76e73af46a6bfe3249cf", "83bb0123a7a40355ff4619db97c59e91bac42974fec59ccc639cb08fe4ad9ac7"),
    "Z12": ("e8ade02030ce5d955ad232d4b6b3defc485237a6c6778caea60baf2f85a6b552", "ed2ffbb6ce2da363b3057310d4c9b63e7370617c4407a8bd325c9ba0575c4f7a"),
    "Z6xZ2": ("347dadcbc20db50dd6e808578d732197ec9c2d87349cebece66043b44682f48a", "886137538576ed45838be196c9b8d5f93b5708673bdea2da7e27ce1655f284a2"),
    "Z4xZ3": ("1a3934cc944d9a90001ccd1300f5878aee3171d79b3a18926aaaee1b624f5429", "410957da752097148b9fd3dffca5b57373e39264335cfb5778426e4fadcd5f19"),
    "Z3xZ2xZ2": ("8eb8e78aa4ba5c667ac98163d09b3085ec372e0dd7990dd288520818ca6a5ecf", "20e8ad0f0aba18a58cda62c8db3124483af24f28f487889d040e0b85526e3c45"),
}

# sha256 of `cone G --rays` for every presentation of order 13 to 16, recorded
# with the Cyc-valued double description; Z14 and Z16 print ray values at two
# conductors each, and Z7xZ2 stores the most ray coordinates (36) at a proper
# divisor of its exponent
CONES_13_16 = {
    "Z13": "0b06ac32be0de9393b3bb89529609a50f943eed96d7073356817a651a1c0895a",
    "Z14": "40b625a25c43e3e3ed0848e014a016252a8a94bfb6bae872cde8214dc262b5f5",
    "Z7xZ2": "35d5570cc24962f962589cc9530e2274583683dc9aa8a1281988faebc5ba2eca",
    "Z15": "82f99fd0d4f53354378b5603c8836c1173f82ce5326635f8912a72b96c989027",
    "Z5xZ3": "9833f7f6c260a68e6d2673e3a1e3852ccebf2f7d21f7586b7c1a777fe6f4e4a8",
    "Z16": "33eb49d08d5e3242abec4a1f2cf5f1bbf037dbda7fc3962982fe89cbf00d7a5e",
    "Z8xZ2": "51e3bcf10bcaa1c2bd6ab2770cf85ef346118b0322315eb6f34843fd7362e544",
    "Z4xZ4": "8c6a3f7afbe95bdeca27109dee6cdba8f7a2a68683fee35de6f29e7efb2383fe",
    "Z4xZ2xZ2": "d6b0b4b09fc827b2805302e56d6dd00436985b05d8255790977049f57fe7a9cd",
    # the largest cone the order bound admits: dimension 16, 403 rays
    "Z2xZ2xZ2xZ2": "8830a142eb4ee1a9a46e4cb15a90dba7d6590481507ccd96e3a013fec1d9c1f8",
}

CASES = {
    # every bad-input path and exit-1 precondition line: the exit code and the
    # whole stderr, nothing on stdout
    "error paths": {
        "missing file": Case("check {missing}", 2, "error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"),
        "broken json": Case("check {broken}", 2, "error: cannot read {broken}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        "bad group literal": Case("check {a5}", 2, "error: bad group literal 'A5'"),
        "missing key": Case("check {nokey}", 2, "error: 'values'"),
        "file not utf-8": Case("check {nonutf8}", 2, "error: cannot read {nonutf8}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        "exact infinity": Case("check {inf}", 2, "error: not a finite value: inf"),
        "float nan": Case("--mode float check {nan}", 2, "error: not a finite value: nan"),
        # finite inputs whose float transform, product or convolution overflows
        "float check overflow": Case("--mode float check {near_max}", 2, "error: a computed float value is not finite"),
        "float product overflow": Case("--mode float product {near_max} {near_max}", 2, "error: a computed float value is not finite"),
        "float convolve overflow": Case("--mode float convolve {near_max} {near_max}", 2, "error: a computed float value is not finite"),
        # a second "--" is a positional that parses to [], as argparse parsed it
        "product second path --": Case("product {z2} -- --", 2, "error: cannot read []: not a file path"),
        "convolve second path --": Case("convolve {mu2} -- --", 2, "error: cannot read []: not a file path"),
        "cone bad group literal": Case("cone A5", 2, "error: bad group literal 'A5'"),
        # a group literal takes ASCII digits only
        "cone Arabic-Indic digit": Case("cone Z٣", 2, "error: bad group literal 'Z٣'"),
        "cone superscript digit": Case("cone Z²", 2, "error: bad group literal 'Z²'"),
        "bad max order env": Case("cone Z4", 2, "error: bad PPDLAB_MAX_ORDER value 'x'", max_order="x"),
        "negative max order env": Case("cone-atlas", 2, "error: bad PPDLAB_MAX_ORDER value '-1'", max_order="-1"),
        "negative max order": Case("cone-atlas --max-order -1", 2, "error: --max-order must be non-negative, got -1"),
        "sweep negative samples": Case("sweep --samples -3 --seed 1", 2, "error: --samples must be non-negative, got -3"),
        "sweep samples -1": Case("sweep --samples -1 --seed 1", 2, "error: --samples must be non-negative, got -1"),
        "verify-4-1 negative samples": Case("verify-4-1 --samples -3 --seed 1", 2, "error: --samples must be non-negative, got -3"),
        "sweep without seed": Case("sweep --max-order 4 --samples 2", 2, "error: --seed is mandatory for sampled sweeps"),
        "verify-4-1 without seed": Case("verify-4-1 --max-order 4 --samples 2", 2, "error: --seed is mandatory for sampled sweeps"),
        "order bound": Case("cone Z20", 2, "error: group order 20 exceeds the configured bound"),
        "order bound env": Case("cone Z8", 2, "error: group order 8 exceeds the configured bound", max_order="4"),
        "csv needs rays": Case("cone Z4 --csv {csv}", 2, "error: --csv needs --rays"),
        "out in a missing directory": Case("--out {nodir}/report.json cone Z2", 2, "error: cannot write {nodir}/report.json: [Errno 2] No such file or directory: '{nodir}/report.json'"),
        "out is a directory": Case("--out {dir} cone Z2", 2, "error: cannot write {dir}: [Errno 21] Is a directory: '{dir}'"),
        "csv is a directory": Case("cone Z2 --rays --csv {dir}", 2, "error: cannot write {dir}: [Errno 21] Is a directory: '{dir}'"),
        "restrict generators wrong rank": Case("restrict {good} --generators '[[1, 2]]'", 2, "error: bad generators '[[1, 2]]': generator [1, 2] has wrong rank for Z4"),
        "restrict generators not json": Case("restrict {good} --generators notjson", 2, "error: bad generators 'notjson': Expecting value: line 1 column 1 (char 0)"),
        "restrict generators infinity": Case("restrict {good} --generators [[Infinity]]", 2, "error: bad generators '[[Infinity]]': generator [inf] has a residue that is not an integer"),
        "restrict generators null": Case("restrict {good} --generators [[null]]", 2, "error: bad generators '[[null]]': generator [None] has a residue that is not an integer"),
        "restrict generators nested": Case("restrict {good} --generators [[[1]]]", 2, "error: bad generators '[[[1]]]': generator [[1]] has a residue that is not an integer"),
        "restrict generators fraction": Case("restrict {good} --generators [[1.5]]", 2, "error: bad generators '[[1.5]]': generator [1.5] has a residue that is not an integer"),
        "restrict generators integral float": Case("restrict {good} --generators [[2.0]]", 2, "error: bad generators '[[2.0]]': generator [2.0] has a residue that is not an integer"),
        "restrict generators bool": Case("restrict {good} --generators [[true]]", 2, "error: bad generators '[[true]]': generator [True] has a residue that is not an integer"),
        "corestrict generators wrong rank": Case("corestrict {good} --generators '[[1, 2]]'", 2, "error: bad generators '[[1, 2]]': generator [1, 2] has wrong rank for Z4"),
        "corestrict generators not json": Case("corestrict {good} --generators notjson", 2, "error: bad generators 'notjson': Expecting value: line 1 column 1 (char 0)"),
        "quadratic form not SPD": Case("gaussian --check corestriction --form '1,2;2,1'", 2, "error: bad quadratic form '1,2;2,1': leading principal minor 2 is not positive; not SPD"),
        "quadratic form not numbers": Case("gaussian --check corestriction --form a,b", 2, "error: bad quadratic form 'a,b': could not convert string to float: 'a'"),
        "quadratic form nan corestriction": Case("gaussian --check corestriction --form 'nan,0;0,1' --k 1", 2, "error: bad quadratic form 'nan,0;0,1': matrix has a non-finite entry"),
        "quadratic form nan goodness": Case("gaussian --check goodness --form 'nan,0;0,1'", 2, "error: bad quadratic form 'nan,0;0,1': matrix has a non-finite entry"),
        # a valid form whose inverse overflows or underflows: one error line and
        # no floating-point warning
        "derived inverse overflow corestriction": Case("gaussian --check corestriction --form '1e308,0;0,1e308' --k 1", 2, "error: bad quadratic form '1e308,0;0,1e308': its inverse: leading principal minor 2 is not positive; not SPD"),
        "derived inverse overflow goodness": Case("gaussian --check goodness --form '1e308,0;0,1e308'", 2, "error: bad quadratic form '1e308,0;0,1e308': its inverse: leading principal minor 2 is not positive; not SPD"),
        "derived inverse subnormal corestriction": Case("gaussian --check corestriction --form '1e-320,0;0,1' --k 1", 2, "error: bad quadratic form '1e-320,0;0,1': its inverse: matrix has a non-finite entry"),
        "derived inverse subnormal goodness": Case("gaussian --check goodness --form '1e-320,0;0,1'", 2, "error: bad quadratic form '1e-320,0;0,1': its inverse: matrix has a non-finite entry"),
        "derived inverse overflow corestriction no --k": Case("gaussian --check corestriction --form '1e308,0;0,1e308'", 2, "error: bad quadratic form '1e308,0;0,1e308': its inverse: leading principal minor 2 is not positive; not SPD"),
        "derived inverse subnormal corestriction no --k": Case("gaussian --check corestriction --form '1e-320,0;0,1'", 2, "error: bad quadratic form '1e-320,0;0,1': its inverse: matrix has a non-finite entry"),
        # det(A) = 1e320 overflows, yet the amplitude 1e-160 is finite: the dual
        # route then fails on the grid, not on a NaN gap
        "corestriction with a determinant past the float range": Case("gaussian --check corestriction --form '1e160,0;0,1e160' --k 1", 2, "error: insufficient decay at the grid boundary: 1.000e+00 > 1e-14"),
        # det(A) = 1e-400 underflows, yet every LDL^T pivot is 1e-200: the form
        # passes the SPD test and fails on its lattice sum instead
        "SPD form whose leading minors underflow": Case("gaussian --check goodness --form '1e-200,0;0,1e-200'", 2, "error: goodness probe failed for form '1e-200,0;0,1e-200': lattice sum did not converge within the radius bound"),
        # a11 = 0.05 leaves the marginal integrand at 0.134 at y = -8 and 8
        "corestriction marginal truncated by the grid": Case("gaussian --check corestriction --form '1,0.2;0.2,0.05' --k 1", 2, "error: insufficient decay at the grid boundary: 1.339e-01 > 1e-14"),
        # grids are checked before any quadrature, a term count before any
        # per-term array
        "counterexample grids past the limit": Case("gaussian --check counterexample --half-width 1e6", 2, "error: the series transform needs grids of more than 262144 points at half_width 1000000.0"),
        "counterexample grids past the float range": Case("gaussian --check counterexample --half-width 1e300", 2, "error: the series transform needs grids of more than 262144 points at half_width 1e+300"),
        "counterexample terms past the grid limit": Case("gaussian --check counterexample --terms 1000000000", 2, "error: the series transform needs grids of more than 262144 points at half_width 8.0"),
        # exp(-pi u^2) is 0.456 at u = 0.5
        "counterexample grid truncates the integrand": Case("gaussian --check counterexample --half-width 0.5", 2, "error: insufficient decay at the grid boundary: 4.559e-01 > 1e-14"),
        "grid points past the limit": Case("gaussian --check selfdual --points 100000000", 2, "error: points must be at most 262144, got 100000000"),
        "gaussian infinite half-width": Case("gaussian --check selfdual --half-width inf", 2, "error: half_width must be positive with a finite span 2*half_width, got inf"),
        # a tolerance that no gap can fail (inf) or pass (nan, negative)
        "gaussian infinite tol": Case("--tol inf gaussian --check selfdual --points 16", 2, "error: --tol must be finite and non-negative, got inf"),
        "gaussian nan tol": Case("gaussian --check selfdual --tol nan", 2, "error: --tol must be finite and non-negative, got nan"),
        "gaussian negative tol": Case("gaussian --check corestriction --form '2,1;1,2' --tol -1", 2, "error: --tol must be finite and non-negative, got -1.0"),
        "goodness probe failure": Case("gaussian --check goodness --form '0.001,0;0,0.001'", 2, "error: goodness probe failed for form '0.001,0;0,0.001': lattice sum did not converge within the radius bound"),
        "pointwise group mismatch": Case("product {z2} {z3}", 2, "error: pointwise product needs functions on one group"),
        "convolution group mismatch": Case("convolve {mu2} {mu3}", 2, "error: convolution needs measures on one group"),
        "cone-atlas past the H-rep bound": Case("cone-atlas --max-order 17", 2, "error: group order 17 exceeds H-rep bound 16"),
        "restrict precondition": Case("restrict {indicator} --generators [[2]]", 1, "restrict needs a good input; failed conditions ['3.1.4']"),
        "corestrict precondition": Case("corestrict {not_ppd} --generators [[2]]", 1, "corestrict needs a good input; failed conditions ['2.1.2', '3.1.4']"),
        # an f(0) that cannot be normalized fails the precondition too
        "restrict zero f(0)": Case("restrict {zero} --generators [[1]]", 1, "restrict needs a good input; failed conditions ['3.1.4']"),
        # a usage error: the usage line, then the parser's error line
        "unknown command": Case("bogus", 2, "usage: ppdlab [options] {check,sweep,verify-4-1,cone,cone-atlas,restrict,corestrict,product,convolve,gaussian} ...\nppdlab: error: argument command: invalid choice: 'bogus' (choose from 'check', 'sweep', 'verify-4-1', 'cone', 'cone-atlas', 'restrict', 'corestrict', 'product', 'convolve', 'gaussian')"),
        "check without a file": Case("check", 2, "usage: ppdlab check [options] function\nppdlab check: error: the following arguments are required: function"),
    },
    # malformed function and measure files, "<input>: <command>": exit 2 and
    # the whole stderr.  `check` reads no haar_scale, so the haar_scale files
    # go through `convolve` only; "float nan" above is `check` on the NaN file
    "malformed inputs": {
        "value 1/0 exact: check": Case("--mode exact check {div0}", 2, "error: zero denominator in '1/0'"),
        "value 1/0 exact: convolve": Case("--mode exact convolve {div0} {div0}", 2, "error: zero denominator in '1/0'"),
        "value 1/0 float: check": Case("--mode float check {div0}", 2, "error: zero denominator in '1/0'"),
        "value 1/0 float: convolve": Case("--mode float convolve {div0} {div0}", 2, "error: zero denominator in '1/0'"),
        "haar_scale 1/0 exact: convolve": Case("--mode exact convolve {haar_div0} {haar_div0}", 2, "error: zero denominator in '1/0'"),
        "haar_scale 1/0 float: convolve": Case("--mode float convolve {haar_div0} {haar_div0}", 2, "error: zero denominator in '1/0'"),
        "top-level array: check": Case("--mode exact check {array}", 2, "error: a function file holds a JSON object"),
        "top-level array: convolve": Case("--mode exact convolve {array} {array}", 2, "error: a function file holds a JSON object"),
        "values 5: check": Case("--mode exact check {values5}", 2, 'error: "group" must be a string and "values" a list'),
        "values 5: convolve": Case("--mode exact convolve {values5} {values5}", 2, 'error: "group" must be a string and "values" a list'),
        "group 5: check": Case("--mode exact check {group5}", 2, 'error: "group" must be a string and "values" a list'),
        "group 5: convolve": Case("--mode exact convolve {group5} {group5}", 2, 'error: "group" must be a string and "values" a list'),
        "float haar_scale [1]: convolve": Case("--mode float convolve {haar_list} {haar_list}", 2, "error: not a real value: [1]"),
        "value Infinity exact: check": Case("--mode exact check {inf}", 2, "error: not a finite value: inf"),
        "value Infinity exact: convolve": Case("--mode exact convolve {inf} {inf}", 2, "error: not a finite value: inf"),
        "value Infinity float: check": Case("--mode float check {inf}", 2, "error: not a finite value: inf"),
        "value Infinity float: convolve": Case("--mode float convolve {inf} {inf}", 2, "error: not a finite value: inf"),
        "value NaN float: convolve": Case("--mode float convolve {nan} {nan}", 2, "error: not a finite value: nan"),
        "value true float: check": Case("--mode float check {true}", 2, "error: not a real value: True"),
        "value true float: convolve": Case("--mode float convolve {true} {true}", 2, "error: not a real value: True"),
        "value null float: check": Case("--mode float check {null}", 2, "error: not a real value: None"),
        "value null float: convolve": Case("--mode float convolve {null} {null}", 2, "error: not a real value: None"),
        "value 10**400 float: check": Case("--mode float check {huge}", 2, f"error: not a finite value: {10**400}"),
        "value 10**400 float: convolve": Case("--mode float convolve {huge} {huge}", 2, f"error: not a finite value: {10**400}"),
        "haar_scale Infinity float: convolve": Case("--mode float convolve {haar_inf} {haar_inf}", 2, "error: not a finite value: inf"),
    },
    # float-mode stdout: each value a pair of floats, and a float haar_scale
    "float outputs": {
        "product": Case("--mode float product {u} {good_z4}", out=_json({"group": "Z4", "values": [[1.3333333333333333, 1.3333333333333333], [2.0, 0.0], [1.0, 0.0], [2.0, 0.0]]})),
        "convolve": Case("--mode float convolve {mu} {mu}", out=_json({"group": "Z2", "haar_scale": 0.25, "values": [[0.625, 0.0], [0.375, 0.0]]})),
        "restrict": Case("--mode float restrict {good} --generators [[2]]", out=_json({"group": "Z2", "values": [[1.0, 0.0], [0.25, 0.0]]})),
        # the float transform route leaves round-off imaginary parts; a good result is real
        "corestrict": Case("--mode float corestrict {good} --generators [[2]]", out=_json({"group": "Z2", "values": [[1.0, 0.0], [0.8, 0.0]]})),
        "check good": Case("--mode float check {good_z8} --good", out=GOOD_VERDICT),
        # the witnesses print round-off imaginary parts
        "check not ppd": Case("--mode float check {not_ppd_z4} --good", 1, out=Sha256("18c05bb7307d4406c43cd533cdcf2a7b1f43f7b99f2b9377b57aed7a9b0f5332")),
    },
    "cones 1-12": {
        f"cone {g}{flag}": Case(f"cone {g}{flag}", out=Sha256(digest))
        for g, pair in CONES_1_12.items() for flag, digest in zip((" --rays", ""), pair)
    },
    "cones 13-16": {
        f"cone {g} --rays": Case(f"cone {g} --rays", out=Sha256(digest))
        for g, digest in CONES_13_16.items()
    },
    # the atlases take every double-description sign of their cones; one writer
    # feeds both sinks, so the --out file holds the bytes stdout would
    "atlases and csv": {
        "atlas 12": Case("cone-atlas --max-order 12", out=ATLAS_12),
        "atlas 12 --out": Case("--out {atlas} cone-atlas --max-order 12", artifact=("atlas", ATLAS_12)),
        "atlas 16": Case("cone-atlas --max-order 16", out=Sha256("8639a66debbc013fc18b337dbc3d16cf59c05d6e39c3673fc0c0a4f21f23e66c")),
        "atlas 16 --no-rays": Case("cone-atlas --max-order 16 --no-rays", out=Sha256("ad9e9c43e83a541976b1f17c4acffdfdc4d5f531a752f7ae3bba3558f6cd4b8d")),
        "csv Z10": Case("cone Z10 --rays --csv {csv}", out=Sha256(CONES_1_12["Z10"][0]), artifact=("csv", "98c426dd8e6407c2ab86802e9108bac32b17129efafa586c42d7301c8cdfa1a9")),
    },
    # the other commands' reports: exact ones byte for byte, the Gaussian
    # probes (numpy floats) by what they must show
    "reports": {
        "sweep seed 1": Case("sweep --max-order 8 --samples 4 --seed 1", out=Sha256("0f014607bdfc6e2cb9a7490c45c23df4b22861c7a3cf2e1a942ce022039bd7da")),
        "check good": Case("check {good_z4} --good", out=GOOD_VERDICT),
        "check not ppd": Case("check {not_ppd} --good", 1, out=Sha256("80e2387333568e40a40d6facf9e48358d92c694671099fdf41119dcd858a6dce")),
        "check Z1024 even": Case("check {z1024_even}", 1, out=Sha256("12eb9dd281f16982d4502914bd504ced9b08cb33ed31a93c99a9a16d8d8aa748")),
        "check Z1024 not even": Case("check {z1024_odd}", 1, out=Sha256("63d9624a1937011e8cf06e803ac7a1c2fd1d410bbc7ff75e96b6eefbe56f3219")),
        "restrict": Case("restrict {good_z4} --generators [[2]]", out=Sha256("fa49e49114491d8cec683efa8484dce1f8f7475c79cb2639882a5040d42fafc8")),
        "gaussian selfdual": Case("gaussian --check selfdual", out=lambda report: report["max_gap"] < 1e-12),
        # the default-grid transform is one FFT, so a 65536-point grid runs
        "gaussian selfdual 65536 points": Case("gaussian --check selfdual --points 65536", out=lambda report: report["max_gap"] < 1e-12),
        "gaussian corestriction": Case("gaussian --check corestriction --form '2,1;1,2' --k 1", out=_gaps_at_round_off),
        # every grid is exactly symmetric about 0, so a grid that linspace does
        # not mirror exactly keeps the gaps at round-off too
        "gaussian corestriction 250 points": Case("gaussian --check corestriction --form '2,1;1,2' --half-width 7.5 --points 250", out=_gaps_at_round_off),
        "gaussian counterexample": Case("gaussian --check counterexample --terms 10", out=lambda report: report["partial_sums_ppd"] is True),
        "gaussian goodness": Case("gaussian --check goodness --form '1,0;0,1'", out=lambda report: report["all_checks_pass"] is True),
        "help": Case("--help", out=Prefix("usage: ")),
        "gaussian help": Case("gaussian --help", out=Prefix("usage: ")),
    },
}


def _broken(rule, text: str):
    """Why text breaks an output rule, or None."""
    if isinstance(rule, Sha256):
        got = hashlib.sha256(text.encode()).hexdigest()
        return None if got == rule else f"sha256 {got}, want {rule}"
    if isinstance(rule, Prefix):
        return None if text.startswith(rule) else f"{text[:80]!r} does not start with {rule!r}"
    if callable(rule):
        try:
            holds = rule(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            holds = exc
        return None if holds is True else f"{text[:200]!r} fails its predicate ({holds})"
    want = rule + "\n" if rule else ""
    return None if text == want else f"{text[:300]!r}, want {want!r}"


def check(case: Case, invoke) -> list:
    """The reasons case fails when invoke(argv, max_order) runs it and returns
    (exit code, stdout, stderr); [] when it holds."""
    with tempfile.TemporaryDirectory() as tmp:
        def path(match) -> str:
            if match[1] == "dir":
                return tmp
            target = os.path.join(tmp, match[1])
            content = FILES.get(match[1])
            if content is not None and not os.path.exists(target):
                if not isinstance(content, (str, bytes)):
                    content = json.dumps(content)
                with open(target, "wb" if isinstance(content, bytes) else "w") as fh:
                    fh.write(content)
            return target

        def fill(text: str) -> str:
            return re.sub(r"\{(\w+)\}", path, text)

        code, out, err = invoke([fill(arg) for arg in shlex.split(case.argv)], case.max_order)
        reasons = [] if code == case.code else [f"exit code {code}, want {case.code}"]
        if "Traceback (most recent call last)" in out + err or re.search(r"\w+Warning: ", err):
            reasons.append(f"a traceback or a warning: {err[-300:]!r}")
        streams = [("stdout", case.out, out), ("stderr", fill(case.err), err)]
        if case.artifact:
            name, digest = case.artifact
            try:  # newline="" keeps the bytes of a CSV's "\r\n"
                with open(os.path.join(tmp, name), newline="") as fh:
                    streams.append((name, Sha256(digest), fh.read()))
            except OSError as exc:
                reasons.append(f"{name}: {exc}")
        for stream, rule, text in streams:
            broken = _broken(rule, text)
            if broken:
                reasons.append(f"{stream} {broken}")
    return reasons


def installed(argv, max_order):
    """The ppdlab script on PATH, in a child process."""
    env = {k: v for k, v in os.environ.items() if k != "PPDLAB_MAX_ORDER"}
    if max_order is not None:
        env["PPDLAB_MAX_ORDER"] = max_order
    proc = subprocess.run(["ppdlab", *argv], capture_output=True, env=env)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


if __name__ == "__main__":
    failed = 0
    for section, cases in CASES.items():
        for name, case in cases.items():
            reasons = check(case, installed)
            failed += bool(reasons)
            for reason in reasons:
                print(f"FAIL {section}: {name}: {reason}")
    print(f"{failed} of {sum(map(len, CASES.values()))} cases fail")
    sys.exit(1 if failed else 0)
